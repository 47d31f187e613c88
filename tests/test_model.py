"""Unit tests for the network: encoders, fusion, projection, decoders, and
the checkpoint container."""

import hashlib
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hscmae.diffcore as dc
from hscmae import model
from hscmae.model import (CheckpointError, ModelConfig, ModelParams, config_entries,
                          config_from_entries, decode, embed_arrays, encode, forward_embed,
                          fuse, load_entries, save_entries)
from hscmae.trainer import TrainConfig, train_step

import reference_ops as ops
from conftest import (ARENA_ARRAYS, arena_arrays, copy_leaf, corrupted, desk_model_config,
                      desk_train_config, tape_nodes, tiny_model_config)
from test_diffcore import (assert_bits_equal, composed_add_layer_norm, composed_encoder_layer,
                           composed_linear_tanh, keeping_backward)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(audio_widths=(4,), visual_widths=(4, 4))
    with pytest.raises(ValueError):
        ModelConfig(audio_widths=(4, 8), visual_widths=(4, 6))
    with pytest.raises(ValueError):
        ModelConfig(audio_widths=(4, 6), visual_widths=(4, 6), heads=4)
    with pytest.raises(ValueError):
        ModelConfig(audio_widths=(4, 8), visual_widths=(4, 8), heads=2, proj_dim=0)
    for widths in ((4, -3, 8), (4, 0, 8), (0, 8, 8)):
        with pytest.raises(ValueError, match="encoder widths must be >= 1"):
            ModelConfig(audio_widths=widths, visual_widths=(4, 8, 8), heads=2)


def test_config_properties():
    cfg = tiny_model_config()
    assert cfg.d_audio == 3 and cfg.d_visual == 5 and cfg.model_dim == 4


def test_init_shapes_and_glorot_bounds():
    cfg = tiny_model_config()
    mp = ModelParams(cfg, seed=0)
    w = mp.params["enc.a.0.w"]
    assert w.value.shape == (3, 4)
    lim = np.sqrt(6.0 / (3 + 4))
    assert np.abs(w.value).max() <= lim
    assert np.all(mp.params["enc.a.0.b"].value == 0.0)
    assert np.all(mp.params["sigma.rec"].value == 0.0)
    assert not mp.params["sigma.rec"].decay
    assert np.all(mp.buffers["enc.a.0.bn.mean"] == 0.0)
    assert np.all(mp.buffers["enc.a.0.bn.var"] == 1.0)


def test_encoder_first_layer_hand_computed():
    cfg = ModelConfig(audio_widths=(3, 4), visual_widths=(5, 4), heads=2,
                      proj_dim=2, dropout=0.0)
    mp = ModelParams(cfg, seed=1)
    rng = np.random.default_rng(2)
    xa = rng.normal(size=(6, 3))
    xv = rng.normal(size=(6, 5))
    ha, _ = encode(mp, dc.const(xa), dc.const(xv), train=True)

    h = xa @ mp.params["enc.a.0.w"].value + mp.params["enc.a.0.b"].value
    mu = h.mean(axis=0, keepdims=True)
    var = h.var(axis=0, keepdims=True)
    xhat = (h - mu) / np.sqrt(var + 1e-5)
    expected = np.tanh(mp.params["enc.a.0.bn.gamma"].value * xhat
                       + mp.params["enc.a.0.bn.beta"].value)
    np.testing.assert_allclose(ha.value, expected, atol=1e-12)


def test_encoder_train_eval_modes_differ():
    cfg = tiny_model_config()
    mp = ModelParams(cfg, seed=3)
    rng = np.random.default_rng(4)
    xa, xv = rng.normal(size=(32, 3)), rng.normal(size=(32, 5))
    ha_train, _ = encode(mp, dc.const(xa), dc.const(xv), train=True)
    ha_eval, _ = encode(mp, dc.const(xa), dc.const(xv), train=False)
    assert not np.allclose(ha_train.value, ha_eval.value)


def test_encode_rejects_wrong_dims_and_tiny_train_batch():
    mp = ModelParams(tiny_model_config(), seed=0)
    with pytest.raises(dc.ShapeError):
        encode(mp, dc.const(np.zeros((4, 2))), dc.const(np.zeros((4, 5))), train=False)
    with pytest.raises(dc.ShapeError):
        encode(mp, dc.const(np.zeros((1, 3))), dc.const(np.zeros((1, 5))), train=True)


def test_fusion_reduces_to_value_output_mixer():
    # with one token per sample the attention weight is 1, so the block is
    # layernorm(h_q + (h_kv Wv) Wo)
    cfg = tiny_model_config()
    mp = ModelParams(cfg, seed=5)
    rng = np.random.default_rng(6)
    ha = dc.const(rng.normal(size=(4, 4)))
    hv = dc.const(rng.normal(size=(4, 4)))
    ua, uv = fuse(mp, ha, hv)

    def oracle(direction, hq, hkv):
        att = hkv @ mp.params[f"fuse.{direction}.wv"].value @ mp.params[f"fuse.{direction}.wo"].value
        pre = hq + att
        mu = pre.mean(axis=1, keepdims=True)
        var = pre.var(axis=1, keepdims=True)
        xhat = (pre - mu) / np.sqrt(var + 1e-5)
        return (mp.params[f"fuse.{direction}.ln.gamma"].value * xhat
                + mp.params[f"fuse.{direction}.ln.beta"].value)

    np.testing.assert_allclose(ua.value, oracle("a2v", ha.value, hv.value), atol=1e-12)
    np.testing.assert_allclose(uv.value, oracle("v2a", hv.value, ha.value), atol=1e-12)


def test_every_parameter_receives_gradient():
    # one step with all four losses past warm-up: a weight with no gradient
    # cannot change any output and has no place in the model
    cfg = TrainConfig(model=tiny_model_config(), warmup_epochs=1, k=3)
    mp = ModelParams(cfg.model, seed=7)
    rng = np.random.default_rng(8)
    xa, xv = rng.normal(size=(16, 3)), rng.normal(size=(16, 5))
    train_step(mp, mp.copy(), xa, xv, cfg, epoch=2, step_seed=9, lr_t=1e-3, rho=0.95, adam_step=1)
    assert [name for name, p in mp.params.items() if not np.any(p.grad != 0.0)] == []


def test_init_stream_skips_the_former_query_key_draws():
    # the former init drew wq, wk, wv, wo per fusion direction; every weight
    # kept must equal its draw from that stream
    cfg = tiny_model_config()
    mp = ModelParams(cfg, seed=19)
    rng = np.random.default_rng(19)

    def draw(fan_in, fan_out):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-lim, lim, (fan_in, fan_out))

    expected = {}
    for mod, widths in (("a", cfg.audio_widths), ("v", cfg.visual_widths)):
        for i in range(len(widths) - 1):
            expected[f"enc.{mod}.{i}.w"] = draw(widths[i], widths[i + 1])
    m = cfg.model_dim
    for direction in ("a2v", "v2a"):
        for proj in ("wq", "wk", "wv", "wo"):
            expected[f"fuse.{direction}.{proj}"] = draw(m, m)
        del expected[f"fuse.{direction}.wq"], expected[f"fuse.{direction}.wk"]
    for mod in ("a", "v"):
        expected[f"proj.{mod}.w"] = draw(m, cfg.proj_dim)
    for mod, d_out in (("a", cfg.d_audio), ("v", cfg.d_visual)):
        for i, fan_out in enumerate((m, m, d_out)):
            expected[f"dec.{mod}.{i}.w"] = draw(m, fan_out)

    assert {n for n in mp.params if n.endswith((".w", ".wv", ".wo"))} == set(expected)
    for name, w in expected.items():
        np.testing.assert_array_equal(mp.params[name].value, w)


def test_projection_rows_unit_norm():
    mp = ModelParams(tiny_model_config(), seed=9)
    rng = np.random.default_rng(10)
    za, zv = embed_arrays(mp, rng.normal(size=(7, 3)), rng.normal(size=(7, 5)))
    assert za.shape == (7, 3) and zv.shape == (7, 3)
    np.testing.assert_allclose(np.linalg.norm(za, axis=1), np.ones(7), atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(zv, axis=1), np.ones(7), atol=1e-12)


def test_zero_projection_rows_come_out_as_zero_rows():
    """Projection rows of norm below ZERO_ROW_NORM are +0.0 bit for bit, in
    the taped float32 pass and in the float64 embedding; the model keeps no
    count of them."""
    mp = ModelParams(tiny_model_config(), seed=11)
    for p in mp.parameters():
        if p.name.startswith("proj."):
            p.value[...] = 0.0
    rng = np.random.default_rng(12)
    xa, xv = rng.normal(size=(3, 3)), rng.normal(size=(3, 5))
    taped = forward_embed(mp, dc.const(xa.astype(np.float32)), dc.const(xv.astype(np.float32)),
                          train=True, rng=np.random.default_rng(13))[:2]
    for z in (*(t.value for t in taped), *embed_arrays(mp, xa, xv)):
        assert z.shape == (3, 3) and not z.view(f"u{z.itemsize}").any()
    assert not hasattr(mp, "zero_row_warnings")


def test_decoder_maps_back_to_input_dims():
    cfg = tiny_model_config()
    mp = ModelParams(cfg, seed=13)
    rng = np.random.default_rng(14)
    ua = dc.const(rng.normal(size=(6, 4)))
    uv = dc.const(rng.normal(size=(6, 4)))
    xa_hat, xv_hat = decode(mp, ua, uv)
    assert xa_hat.shape == (6, 3)
    assert xv_hat.shape == (6, 5)
    # hand-check: linear / tanh / linear / tanh / linear
    h = ua.value
    for i in range(3):
        h = h @ mp.params[f"dec.a.{i}.w"].value + mp.params[f"dec.a.{i}.b"].value
        if i < 2:
            h = np.tanh(h)
    np.testing.assert_allclose(xa_hat.value, h, atol=1e-12)


def test_embed_arrays_records_no_tape_and_matches_the_taped_pass(monkeypatch):
    mp = ModelParams(desk_train_config().model, seed=20)
    rng = np.random.default_rng(21)
    xa, xv = rng.normal(size=(40, 12)), rng.normal(size=(40, 24))
    seen = []

    def recording_forward_embed(*args, **kwargs):
        seen.extend(forward_embed(*args, **kwargs))
        return tuple(seen)

    monkeypatch.setattr(model, "forward_embed", recording_forward_embed)
    za, zv = embed_arrays(mp, xa, xv)
    assert len(seen) == 4 and all(t._parents == () and t._backward is None for t in seen)
    taped = forward_embed(mp, dc.const(xa), dc.const(xv), train=False)
    assert all(t._parents for t in taped)
    np.testing.assert_array_equal(za.view(np.uint64), taped[0].value.view(np.uint64))
    np.testing.assert_array_equal(zv.view(np.uint64), taped[1].value.view(np.uint64))


def test_embed_arrays_is_float64_whatever_the_input_dtype():
    """Evaluation cannot turn float32: float32 inputs are cast to float64 and
    give the bits of the float64 call."""
    mp = ModelParams(desk_train_config().model, seed=24)
    rng = np.random.default_rng(25)
    xa, xv = rng.normal(size=(40, 12)).astype(np.float32), rng.normal(size=(40, 24)).astype(np.float32)
    got = embed_arrays(mp, xa, xv)
    want = embed_arrays(mp, xa.astype(np.float64), xv.astype(np.float64))
    for z, ref in zip(got, want):
        assert z.dtype == np.float64
        np.testing.assert_array_equal(z.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("taped", [False, True], ids=("untaped", "taped"))
def test_float32_pass_gives_the_bits_of_leaves_rounded_by_hand(monkeypatch, taped):
    """A float32 pass, taped in train mode or untaped in eval mode, gives
    the values and the parameter gradients of the same pass on leaves that
    hold copies rounded by hand, bit for bit, and adds no array to the
    arena."""
    mp = ModelParams(desk_train_config().model, seed=27)
    rng = np.random.default_rng(27)
    xa, xv = (dc.const(rng.normal(size=(40, d)).astype(np.float32)) for d in (12, 24))
    runs = []
    for leaf in (copy_leaf, dc.Parameter.tensor):
        with monkeypatch.context() as patch:
            patch.setattr(dc.Parameter, "tensor", leaf)
            mp.arena.prepare_step()
            if taped:
                za, zv, ua, uv = forward_embed(mp, xa, xv, train=True, rng=np.random.default_rng(3))
                dc.backward(ops.add(ops.sum_all(ops.mul(za, zv)),
                                    ops.sum_all(ops.mul(decode(mp, ua, uv)[1], xv))))
                runs.append([za.value, zv.value, mp.arena.grad.copy()])
            else:
                with dc.no_tape():
                    runs.append([z.value for z in forward_embed(mp, xa, xv, train=False)])
    assert runs[1][0].dtype == np.float32
    assert_bits_equal(runs[1], runs[0])
    assert arena_arrays(mp.arena) == ARENA_ARRAYS


@pytest.mark.parametrize("config", [
    tiny_model_config(), desk_model_config(),
    ModelConfig(audio_widths=(40, 64, 96), visual_widths=(50, 96), heads=3, proj_dim=7),
], ids=("tiny", "desk", "uneven"))
def test_param_count_is_the_arena_size(config):
    assert config.param_count() == ModelParams(config).arena.size


def test_a_model_past_numpys_largest_array_is_refused_before_allocation():
    limit = np.iinfo(np.intp).max // 8
    with pytest.raises(ValueError, match=f"^the model's [0-9]+ parameters exceed numpy's largest "
                                         rf"float64 array \({limit} values\)$"):
        ModelConfig(proj_dim=limit)


def trunk_passes(mp, xa, xv):
    """A taped train-mode encode, fuse and decode; the caller keeps the
    fused and the decoded values only."""
    ha, hv = encode(mp, xa, xv, train=True, rng=np.random.default_rng(3))
    ua, uv = fuse(mp, ha, hv)
    return (ua, uv) + decode(mp, ua, uv)


def test_tape_holds_no_linear_norm_sum_or_dropped_tanh_output(monkeypatch):
    """Nothing reachable from what a caller keeps after the trunk passes is a
    linear output, an encoder norm output, a residual sum or a tanh output
    that dropout consumed; the encoder outputs, the decoder tanh outputs and
    the fused values are. The intermediates to look for come from the same
    passes built of single-op nodes, recorded pass by pass."""
    mp = ModelParams(desk_model_config(), seed=28)
    rng = np.random.default_rng(28)
    for name, p in mp.params.items():  # so that no norm output equals its normalised values
        if name.endswith((".gamma", ".beta")):
            p.value[...] = rng.uniform(0.5, 1.5, size=p.value.shape)
    xa, xv = (dc.const(rng.normal(size=(40, d)).astype(np.float32)) for d in (12, 24))

    made = []
    make_node = dc._node

    def recording_node(op, value, parents, backward):
        made.append((op, make_node(op, value, parents, backward)))
        return made[-1][1]

    for name, composed in (("encoder_layer", composed_encoder_layer),
                           ("linear_tanh", composed_linear_tanh),
                           ("add_layer_norm", composed_add_layer_norm)):
        monkeypatch.setattr(dc, name, composed)
    monkeypatch.setattr(dc, "_node", recording_node)
    ha, hv = encode(mp, xa, xv, train=True, rng=np.random.default_rng(3))
    encoded = len(made)
    ua, uv = fuse(mp, ha, hv)
    fused = len(made)
    outputs = decode(mp, ua, uv)
    monkeypatch.undo()
    gone = [t for op, t in made[:encoded] if op != "dropout"]
    gone += [t for op, t in made[encoded:fused] if op == "add"]
    gone += [t for op, t in made[fused:] if op == "linear" and t not in outputs]
    kept = [t for op, t in made[:encoded] if op == "dropout"] + [ua, uv]
    kept += [t for op, t in made[fused:] if op == "tanh"]
    assert len(gone) == 2 * 9 + 2 + 2 * 2 and len(kept) == 2 * 3 + 2 + 2 * 2

    nodes = tape_nodes(*trunk_passes(mp, xa, xv))
    held = {(a.dtype.str, a.shape, a.tobytes()) for t, arrays in nodes for a in [t.value] + arrays}
    assert [t.op for t in gone if (t.value.dtype.str, t.shape, t.value.tobytes()) in held] == []
    assert [t.op for t in kept if (t.value.dtype.str, t.shape, t.value.tobytes()) not in held] == []


def one_pass(mp, xa, xv):
    """Reference: one forward_embed over every row, with no tape."""
    with dc.no_tape():
        za, zv, _, _ = forward_embed(mp, dc.const(xa), dc.const(xv), train=False)
    return za.value, zv.value


def test_row_blocks_bit_identical_to_one_pass_at_paper_widths():
    """n around the 512-row block edge of a 1024-wide trunk: up to 512 rows
    are one block, 513 rows two (256 + 257) and 1025 three (344 + 344 + 337)."""
    mp = ModelParams(TrainConfig().model, seed=26)
    rng = np.random.default_rng(27)
    for n in (1, 2, 511, 512, 513, 1025):
        xa, xv = rng.normal(size=(n, 128)), rng.normal(size=(n, 1024))
        got = embed_arrays(mp, xa, xv)
        want = one_pass(mp, xa, xv)
        for z, ref in zip(got, want):
            assert z.shape == ref.shape == (n, 32)
            np.testing.assert_array_equal(z.view(np.uint64), ref.view(np.uint64))


def test_row_blocks_give_zero_rows_as_one_pass(monkeypatch):
    """A zeroed audio projection: every audio row is +0.0 bit for bit, in
    one pass and in seven row blocks alike, and no visual row is zero."""
    mp = ModelParams(desk_train_config().model, seed=28)
    mp.params["proj.a.w"].value[...] = 0.0
    mp.params["proj.a.b"].value[...] = 0.0
    rng = np.random.default_rng(29)
    xa, xv = rng.normal(size=(50, 12)), rng.normal(size=(50, 24))
    want = one_pass(mp, xa, xv)
    assert not want[0].view(np.uint64).any() and want[1].any(axis=1).all()
    monkeypatch.setattr(model, "EMBED_BLOCK_VALUES", 24 * 8)
    monkeypatch.setattr(model, "SMALL_PRODUCT", 0)
    assert model._row_blocks(mp.config, 50) == [0, 8, 16, 24, 32, 40, 48, 50]
    got = embed_arrays(mp, xa, xv)
    for z, ref in zip(got, want):
        np.testing.assert_array_equal(z.view(np.uint64), ref.view(np.uint64))


def test_row_blocks_keep_every_product_above_the_small_matrix_kernels():
    """A 256-wide trunk with a 2-wide projection (256 * 2 multiply-adds per
    row) would take 2048-row blocks by the cache rule, but a block needs
    1954 rows for its projection to stay above SMALL_PRODUCT: 2049 rows run
    as one pass, 5000 as two blocks, each with the bits of one pass."""
    cfg = ModelConfig(audio_widths=(3, 256, 256), visual_widths=(5, 256, 256), heads=2, proj_dim=2)
    assert model._row_blocks(cfg, 2049) == [0, 2049]
    assert model._row_blocks(cfg, 5000) == [0, 2496, 5000]
    mp = ModelParams(cfg, seed=32)
    rng = np.random.default_rng(33)
    xa, xv = rng.normal(size=(5000, 3)), rng.normal(size=(5000, 5))
    for z, ref in zip(embed_arrays(mp, xa, xv), one_pass(mp, xa, xv)):
        np.testing.assert_array_equal(z.view(np.uint64), ref.view(np.uint64))


def test_desk_model_and_a_paper_batch_run_one_block(monkeypatch):
    """Every desk embedding (up to the 2000-row final CCA fit) and the
    400-row batch at paper widths take one forward_embed over views of the
    caller's arrays, with no input copy; 513 paper-width rows take two
    blocks."""
    calls = []

    def spying_forward_embed(mp, xa, xv, train, rng=None):
        calls.append((xa.value, xv.value))
        return forward_embed(mp, xa, xv, train, rng)

    monkeypatch.setattr(model, "forward_embed", spying_forward_embed)
    rng = np.random.default_rng(30)
    for cfg, rows, blocks in ((desk_train_config().model, 2000, [2000]),
                              (TrainConfig().model, 400, [400]),
                              (TrainConfig().model, 513, [256, 257])):
        mp = ModelParams(cfg, seed=31)
        xa, xv = rng.normal(size=(rows, cfg.d_audio)), rng.normal(size=(rows, cfg.d_visual))
        calls.clear()
        embed_arrays(mp, xa, xv)
        assert [len(a) for a, _ in calls] == blocks
        if len(blocks) == 1:
            assert calls[0][0].base is xa and calls[0][1].base is xv


def test_embed_arrays_refuses_a_row_count_mismatch_as_one_pass_does():
    mp = ModelParams(tiny_model_config(), seed=34)
    rng = np.random.default_rng(35)
    xa, xv = rng.normal(size=(5, 3)), rng.normal(size=(6, 5))
    with pytest.raises(dc.ShapeError) as want:
        one_pass(mp, xa, xv)
    with pytest.raises(dc.ShapeError) as got:
        embed_arrays(mp, xa, xv)
    assert str(got.value) == str(want.value) == "fuse: (5, 4) vs (6, 4), model dim 4"


def state_digests(mp, teacher):
    """(kind, name) -> digest of the bits, viewed at each array's item size,
    of every array a train_step writes: student values, gradients, float32
    Adam moments and buffers, and the teacher's values and buffers. Neither
    arena holds any other array, such as a float32 copy of its values."""
    arrays = {}
    for name, p in mp.params.items():
        for kind in ("value", "grad", "adam_m", "adam_v"):
            arrays[(kind, name)] = getattr(p, kind)
    assert arena_arrays(mp.arena) == arena_arrays(teacher.arena) == ARENA_ARRAYS
    for who, owner in (("student", mp), ("teacher", teacher)):
        for name, arr in owner.state_entries().items():
            arrays[(who, name)] = arr
    return {key: hashlib.sha256(arr.view(f"u{arr.itemsize}").tobytes()).hexdigest()
            for key, arr in arrays.items()}


def run_steps(monkeypatch, walk, cfg, batches, epochs):
    """Fresh student and teacher trained on ``batches``, one step per epoch
    in ``epochs``, with ``walk`` as diffcore.backward; returns the step
    outputs and the digests of the final state."""
    monkeypatch.setattr(dc, "backward", walk)
    mp = ModelParams(cfg.model, seed=cfg.seed)
    teacher = mp.copy()
    outputs = []
    for step, ((xa, xv), epoch) in enumerate(zip(batches, epochs), start=1):
        values, weights, total = train_step(mp, teacher, xa, xv, cfg, epoch, step_seed=100 + step,
                                            lr_t=1e-3, rho=0.99, adam_step=step)
        outputs.append((values, weights, total))
    return outputs, state_digests(mp, teacher)


def assert_walks_agree(monkeypatch, cfg, batches, epochs):
    freed = run_steps(monkeypatch, dc.backward, cfg, batches, epochs)
    kept = run_steps(monkeypatch, keeping_backward, cfg, batches, epochs)
    assert freed[0] == kept[0]
    assert [key for key in kept[1] if freed[1][key] != kept[1][key]] == []


def test_train_step_bit_identical_to_keeping_backward(monkeypatch):
    # desk dimensions: warm-up steps, then uncertainty-weighted ones
    cfg = desk_train_config(seed=3, batch_size=64)
    rng = np.random.default_rng(22)
    batches = [(rng.normal(size=(64, 12)), rng.normal(size=(64, 24))) for _ in range(4)]
    assert_walks_agree(monkeypatch, cfg, batches, epochs=(1, 2, 6, 7))


def test_train_step_bit_identical_to_keeping_backward_at_paper_widths(monkeypatch):
    cfg = TrainConfig(batch_size=16, seed=4)  # the paper recipe's widths, 15 M parameters
    rng = np.random.default_rng(23)
    batch = (rng.normal(size=(16, cfg.model.d_audio)), rng.normal(size=(16, cfg.model.d_visual)))
    assert_walks_agree(monkeypatch, cfg, [batch], epochs=(cfg.warmup_epochs + 1,))


def test_full_forward_gradient_check():
    cfg = tiny_model_config()
    mp = ModelParams(cfg, seed=15)
    rng = np.random.default_rng(16)
    xa, xv = rng.normal(size=(6, 3)), rng.normal(size=(6, 5))

    def fn():
        za, zv, ua, uv = forward_embed(mp, dc.const(xa), dc.const(xv), train=False)
        xa_hat, xv_hat = decode(mp, ua, uv)
        return ops.add(ops.sum_all(ops.mul(za, zv)),
                       ops.add(ops.mse(xa_hat, dc.const(xa)), ops.mse(xv_hat, dc.const(xv))))

    assert dc.grad_check(fn, mp.parameters(), max_coords=3) < 1e-5


def test_copy_is_deep():
    mp = ModelParams(tiny_model_config(), seed=17)
    other = mp.copy()
    other.params["enc.a.0.w"].value += 1.0
    other.buffers["enc.a.0.bn.mean"] += 1.0
    assert not np.array_equal(mp.params["enc.a.0.w"].value, other.params["enc.a.0.w"].value)
    assert not np.array_equal(mp.buffers["enc.a.0.bn.mean"], other.buffers["enc.a.0.bn.mean"])


def test_state_roundtrip_through_container(tmp_path):
    mp = ModelParams(tiny_model_config(), seed=18)
    mp.buffers["enc.a.0.bn.mean"][...] = 0.25
    path = tmp_path / "state.bin"
    entries = dict(mp.state_entries())
    entries.update(config_entries(mp.config))
    save_entries(path, entries)
    loaded = load_entries(path)
    assert config_from_entries(loaded) == mp.config
    fresh = ModelParams(config_from_entries(loaded), entries=loaded)
    for name, p in mp.params.items():
        np.testing.assert_array_equal(fresh.params[name].value, p.value)
    for name, b in mp.buffers.items():
        np.testing.assert_array_equal(fresh.buffers[name], b)


def test_container_rejects_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_entries(path, {"m": np.ones((2, 3))})
    blob = path.read_bytes()

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(CheckpointError):
        load_entries(bad)

    for cut in (10, len(blob) - 5):
        trunc = tmp_path / f"trunc{cut}.bin"
        trunc.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_entries(trunc)


def test_container_rejects_non_matrix_entries(tmp_path):
    with pytest.raises(CheckpointError):
        save_entries(tmp_path / "x.bin", {"v": np.ones(3)})


def test_container_rejects_non_utf8_entry_name(tmp_path):
    path = tmp_path / "name.bin"
    with open(path, "wb") as fh:
        fh.write(b"HSCMAE01" + struct.pack("<I", 2) + b"a\xff" + struct.pack("<II", 1, 1)
                 + np.zeros(1).tobytes())
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: entry name at offset 12 is not UTF-8")):
        load_entries(path)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_container_fuzz_loads_or_raises_checkpoint_error(tmp_path, data):
    path = tmp_path / "ckpt.bin"
    entries = config_entries(tiny_model_config())
    entries["enc.a.0.w"] = np.arange(12.0).reshape(3, 4)
    entries["empty"] = np.zeros((0, 2))
    save_entries(path, entries)
    path.write_bytes(corrupted(data, path.read_bytes()))
    try:
        load_entries(path)
    except CheckpointError:
        pass
