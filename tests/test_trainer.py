"""Unit tests for the training loop: step mechanics, determinism, logging,
and checkpoint assembly."""

import hashlib
import inspect
import math
import os
import re
import struct
import subprocess
import sys
import warnings
import weakref
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hscmae.diffcore as dc
from hscmae import cca_linear, trainer
from hscmae.cli import ABLATION_ROWS
from hscmae.data_io import FeatureSet
from hscmae.evaluate import evaluate_model
from hscmae.losses import CcaConfig
from hscmae.masking import apply_value_mask, make_grad_gate, make_plan
from hscmae.model import (LOSS_NAMES, CheckpointError, ModelConfig, ModelParams, StoredEntry,
                          config_entries, config_from_entries, embed_arrays, load_entries,
                          save_entries)
from hscmae.optim import OptimConfig
from hscmae.trainer import (TrainConfig, _step_seed, epoch_log_rows, load_checkpoint,
                            save_checkpoint, train, train_step)

import reference_ops as ops
from conftest import corrupted, desk_train_config, tape_nodes, tiny_model_config
from test_diffcore import (composed_add_layer_norm, composed_encoder_layer, composed_linear,
                           composed_linear_tanh, formula_batch_norm, formula_layer_norm)
from test_losses import composed_distill_loss, composed_rec_loss, composed_total_loss
from test_optim import listwise_adamw_step, listwise_clip_global_norm
from test_teacher import listwise_ema_update


def tiny_train_config(**overrides):
    cfg = TrainConfig(model=tiny_model_config(), optim=OptimConfig(lr0=1e-3),
                      epochs=2, batch_size=16, mask_ratio=0.25, k=3,
                      warmup_epochs=1, cca_post_dim=2, seed=0)
    return replace(cfg, **overrides) if overrides else cfg


def tiny_data(n=40, seed=0):
    rng = np.random.default_rng(seed)
    shared = rng.normal(size=(n, 2))
    audio = shared @ rng.normal(size=(2, 3)) + 0.3 * rng.normal(size=(n, 3))
    visual = shared @ rng.normal(size=(2, 5)) + 0.3 * rng.normal(size=(n, 5))
    labels = (shared[:, 0] > 0).astype(int)
    return FeatureSet(audio=audio, visual=visual, labels=labels)


def test_step_seed_deterministic_and_distinct():
    assert _step_seed(1, 2, 3) == _step_seed(1, 2, 3)
    seeds = {_step_seed(s, e, b) for s in range(3) for e in range(3) for b in range(3)}
    assert len(seeds) == 27


def test_train_produces_logs_and_cca_model():
    data = tiny_data()
    cfg = tiny_train_config()
    result = train(data.unlabeled(), cfg)
    assert len(result.logs) == 2
    assert result.cca_model.rho.size == 2
    for log in result.logs:
        assert set(log.losses) == set(LOSS_NAMES)
        assert np.isfinite(log.total)
        assert log.losses["rec"] > 0.0


def test_train_bitwise_reproducible():
    data = tiny_data()
    cfg = tiny_train_config()
    r1 = train(data.unlabeled(), cfg)
    r2 = train(data.unlabeled(), cfg)
    for name, p in r1.params.params.items():
        np.testing.assert_array_equal(p.value, r2.params.params[name].value)
    for name, b in r1.teacher.buffers.items():
        np.testing.assert_array_equal(b, r2.teacher.buffers[name])
    assert epoch_log_rows(r1.logs) == epoch_log_rows(r2.logs)
    r3 = train(data.unlabeled(), replace(cfg, seed=1))
    assert any(not np.array_equal(p.value, r3.params.params[n].value)
               for n, p in r1.params.params.items())


def test_teacher_receives_no_gradients():
    data = tiny_data()
    result = train(data.unlabeled(), tiny_train_config())
    for p in result.teacher.parameters():
        assert np.all(p.grad == 0.0)
        assert np.all(p.adam_m == 0.0)


def test_teacher_pass_rounds_the_teachers_values_and_keeps_no_copy():
    """Every step of a desk training runs its teacher pass on a teacher
    without a float32 mirror, and that pass gives the bits of the same pass
    on a copy whose mirror holds the teacher's values rounded by hand. After
    the training the teacher still has no mirror, and its gradients and
    Adam moments are all zero."""
    rng = np.random.default_rng(12)
    view = (rng.normal(size=(100, 12)), rng.normal(size=(100, 24)))
    forward_embed = trainer.forward_embed
    passes = []

    def checked_forward_embed(mp, xa, xv, train, rng=None):
        out = forward_embed(mp, xa, xv, train=train, rng=rng)
        if not train:  # the teacher pass
            assert mp.arena.value32 is None
            rounded = mp.copy()
            rounded.arena.prepare_step()
            rounded.arena.value32[...] = mp.arena.value.astype(np.float32)
            with dc.no_tape():
                want = forward_embed(rounded, xa, xv, train=False)
            for z, ref in zip(out, want):
                np.testing.assert_array_equal(z.value.view(np.uint32), ref.value.view(np.uint32))
            passes.append(mp)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trainer, "forward_embed", checked_forward_embed)
        result = train(view, desk_train_config(seed=12, epochs=3, batch_size=50))
    assert len(passes) == 6 and all(t is result.teacher for t in passes)
    arena = result.teacher.arena
    assert arena.value32 is None and all(p.value32 is None for p in arena.params)
    assert not (arena.grad.any() or arena.adam_m.any() or arena.adam_v.any())


def test_arena_bytes_per_parameter():
    """Memory guard: a trained arena holds 28 bytes per parameter (value and
    gradient 8 each, Adam moments and mirror 4 each), and training writes
    8 bytes per parameter of the EMA teacher's (its values): its gradients
    and moments are made read-only, so a step that writes them fails, and
    their zero pages are never mapped; it gains no float32 mirror."""
    cfg = desk_train_config(seed=13)
    rng = np.random.default_rng(13)
    mp = ModelParams(cfg.model, seed=13)
    teacher = mp.copy()
    unwritten = ("grad", "adam_m", "adam_v")
    for owner in (teacher.arena, *teacher.parameters()):
        for kind in unwritten:
            getattr(owner, kind).flags.writeable = False
    for step in range(1, 4):
        train_step(mp, teacher, rng.normal(size=(32, 12)), rng.normal(size=(32, 24)), cfg,
                   step + 4, step, 1e-3, 0.99, step)

    def bytes_per_parameter(arena, kinds):
        return sum(getattr(arena, kind).nbytes for kind in kinds) / arena.size

    assert bytes_per_parameter(mp.arena, ("value", "grad", "adam_m", "adam_v", "value32")) == 28
    assert bytes_per_parameter(teacher.arena, ("value",)) == 8 and teacher.arena.value32 is None
    assert not any(getattr(teacher.arena, kind).any() for kind in unwritten)


def test_teacher_differs_from_student_after_training():
    data = tiny_data()
    result = train(data.unlabeled(), tiny_train_config(epochs=3))
    diffs = [np.abs(result.teacher.params[n].value - p.value).max()
             for n, p in result.params.params.items() if n.endswith(".w")]
    assert max(diffs) > 0.0


def test_disabled_losses_report_zero():
    data = tiny_data()
    cfg = tiny_train_config(use_cca=False, use_dis=False)
    result = train(data.unlabeled(), cfg)
    for log in result.logs:
        assert log.losses["cca"] == 0.0
        assert log.losses["dis"] == 0.0
        assert log.losses["rec"] != 0.0
        assert set(log.weights) == {"rec", "infonce"}


def test_single_loss_configurations_run():
    data = tiny_data()
    for flags in ({"use_cca": False, "use_infonce": False, "use_dis": False},
                  {"use_rec": False, "use_infonce": False, "use_dis": False}):
        cfg = tiny_train_config(epochs=1, **flags)
        result = train(data.unlabeled(), cfg)
        assert len(result.logs) == 1


def test_mask_ratio_zero_runs():
    data = tiny_data()
    result = train(data.unlabeled(), tiny_train_config(epochs=1, mask_ratio=0.0))
    assert np.isfinite(result.logs[0].total)


def test_the_cca_regularizer_is_one_constant():
    """The linear fit, the CCA loss and the trainer read one regularizer,
    and no config sets it."""
    assert inspect.signature(cca_linear.fit).parameters["eps"].default == cca_linear.EPS
    assert CcaConfig().eps == cca_linear.EPS
    cfg = desk_train_config()
    assert cfg.cca_eps == cfg.cca_config().eps == cca_linear.EPS
    assert "cca_eps" not in {f.name for f in fields(TrainConfig)}


def test_eval_every_populates_map_columns():
    data = tiny_data(n=48)
    cfg = tiny_train_config(epochs=2, eval_every=2)
    result = train(data.unlabeled(), cfg, score=lambda mp: evaluate_model(mp, None, data))
    assert result.logs[0].map_avg is None
    assert result.logs[1].map_avg is not None
    assert 0.0 <= result.logs[1].map_avg <= 1.0


def test_train_errors():
    data = tiny_data(n=10)
    with pytest.raises(ValueError):
        train(data.unlabeled(), tiny_train_config(batch_size=50))
    with pytest.raises(ValueError, match="all loss terms disabled"):
        train(data.unlabeled(), tiny_train_config(
            use_rec=False, use_cca=False, use_infonce=False, use_dis=False))
    with pytest.raises(ValueError):
        train((np.zeros((0, 3)), np.zeros((0, 5))), tiny_train_config())


def test_train_step_rejects_single_sample():
    data = tiny_data()
    cfg = tiny_train_config()
    mp = ModelParams(cfg.model, seed=0)
    with pytest.raises(ValueError):
        train_step(mp, mp.copy(), data.audio[:1], data.visual[:1], cfg,
                   epoch=1, step_seed=0, lr_t=1e-3, rho=0.95, adam_step=1)


def state_digest(*models):
    """SHA-256 over every value, float32 mirror (a teacher has none),
    gradient, Adam moment and buffer."""
    h = hashlib.sha256()
    for mp in models:
        for p in mp.parameters():
            for arr in (p.value, p.value32, p.grad, p.adam_m, p.adam_v):
                if arr is not None:
                    h.update(arr.tobytes())
        for b in mp.buffers.values():
            h.update(b.tobytes())
    return h.hexdigest()


def patch_former_step(monkeypatch):
    """The former pieces of a step: per-parameter clipping, AdamW and EMA,
    trunk layers as chains of single-op nodes with two-node linear layers
    and the textbook-formula norms, and the reconstruction, distillation
    and total heads composed from ``reference_ops`` primitives. The
    contrastive head stays the library's: its dense oracle agrees only to
    a tolerance (``test_losses``)."""
    monkeypatch.setattr(trainer, "rec_loss", composed_rec_loss)
    monkeypatch.setattr(trainer, "distill_loss", composed_distill_loss)
    monkeypatch.setattr(trainer, "total_loss", composed_total_loss)
    monkeypatch.setattr(trainer, "clip_global_norm",
                        lambda arena, max_norm: listwise_clip_global_norm(arena.params, max_norm))
    monkeypatch.setattr(trainer, "adamw_step",
                        lambda arena, *args: listwise_adamw_step(arena.params, *args))
    monkeypatch.setattr(trainer, "ema_update", listwise_ema_update)
    monkeypatch.setattr(dc, "linear", composed_linear)
    monkeypatch.setattr(dc, "encoder_layer", composed_encoder_layer)
    monkeypatch.setattr(dc, "linear_tanh", composed_linear_tanh)
    monkeypatch.setattr(dc, "add_layer_norm", composed_add_layer_norm)
    monkeypatch.setattr(ops, "layer_norm", formula_layer_norm)
    monkeypatch.setattr(ops, "batch_norm", formula_batch_norm)


def run_steps(cfg, batch, epochs, monkeypatch=None):
    """Identically seeded train_steps on one batch; with ``monkeypatch`` they
    run the former step: the clean student pass's constant inputs behind
    the gradient gate of that step's mask plan, and the pieces of
    ``patch_former_step``. The eval-mode teacher pass runs ungated, as in
    the library step."""
    rng = np.random.default_rng(cfg.seed)
    xa = rng.normal(size=(batch, cfg.model.d_audio))
    xv = rng.normal(size=(batch, cfg.model.d_visual))
    mp = ModelParams(cfg.model, seed=cfg.seed)
    teacher = mp.copy()
    current = {"gated": 0}
    if monkeypatch is not None:
        forward_embed = trainer.forward_embed

        def gated_forward_embed(mp, xa, xv, train, rng=None):
            if not train:  # the teacher pass
                return forward_embed(mp, xa, xv, train=train, rng=rng)
            current["gated"] += 1
            plan = make_plan(xa.shape[0], cfg.model.d_audio, cfg.model.d_visual,
                             cfg.mask_ratio, current["seed"])
            gate_a, gate_v = make_grad_gate(plan)
            return forward_embed(mp, dc.gradient_gate(xa, gate_a), dc.gradient_gate(xv, gate_v),
                                 train=train, rng=rng)

        monkeypatch.setattr(trainer, "forward_embed", gated_forward_embed)
        patch_former_step(monkeypatch)
    out = []
    for t, epoch in enumerate(epochs, start=1):
        current["seed"] = _step_seed(cfg.seed, epoch, t)
        out.append(train_step(mp, teacher, xa, xv, cfg, epoch, current["seed"],
                              cfg.optim.lr0, 0.99, t))
    if monkeypatch is not None:
        monkeypatch.undo()
        assert current["gated"] == len(epochs)
    return out, state_digest(mp, teacher)


@pytest.mark.parametrize("cfg, batch, epochs", [
    (desk_train_config(seed=3), 64, (1, 2, 5, 6, 7)),
    (desk_train_config(seed=4, k=1, mask_ratio=0.5), 40, (3, 6)),
    (desk_train_config(seed=5, model=ModelConfig()), 12, (2, 6)),
], ids=("desk", "desk-k1", "paper-widths"))
def test_train_step_bit_identical_to_composed_gated_step(monkeypatch, cfg, batch, epochs):
    assert run_steps(cfg, batch, epochs) == run_steps(cfg, batch, epochs, monkeypatch)


def oracle_steps(cfg, step, epochs=(1, 5, 6, 7), batch=48):
    """Outputs of ``step`` (a train_step) on fresh batches at ``epochs``, one
    step each, and the digest of the student and teacher afterwards."""
    rng = np.random.default_rng(cfg.seed)
    mp = ModelParams(cfg.model, seed=cfg.seed)
    teacher = mp.copy()
    out = []
    for t, epoch in enumerate(epochs, start=1):
        xa, xv = rng.normal(size=(batch, cfg.model.d_audio)), rng.normal(size=(batch, cfg.model.d_visual))
        out.append(step(mp, teacher, xa, xv, cfg, epoch, _step_seed(cfg.seed, epoch, t),
                        cfg.optim.lr0, 0.99, t))
    return out, state_digest(mp, teacher)


@pytest.mark.parametrize("overrides", [
    *(dict(use_cca=cca, use_rec=rec, use_infonce=infonce, use_dis=dis)
      for cca, rec, infonce, dis in ABLATION_ROWS),
    dict(k=1),
], ids=[*("-".join(name for name, on in zip(("cca", "rec", "infonce", "dis"), row) if on)
          for row in ABLATION_ROWS), "k1"])
def test_train_step_bit_identical_to_one_backward_over_both_tapes(overrides):
    """The step that back-propagates the masked and the clean tape one after
    the other gives the losses, weights, student and teacher of the former
    step's single backward over both, bit for bit, in warm-up (epochs 1 and
    5) and uncertainty-weighted (6 and 7) steps, for every ablation row and
    for k = 1."""
    cfg = desk_train_config(seed=21, **overrides)
    assert cfg.warmup_epochs == 5
    assert oracle_steps(cfg, train_step) == oracle_steps(cfg, ops.single_backward_train_step)


@pytest.mark.parametrize("sigma", [-800.0, -708.0], ids=("weight", "addend"))
def test_an_overflowing_weight_raises_the_totals_error_and_warns_nothing(sigma):
    """exp(-sigma_rec) overflows, or exp(-sigma_rec) * rec does: the step
    raises the weighted total's NumericError, as the single-backward step
    does, and numpy warns of nothing, since no gradient is back-propagated
    from a non-finite addend."""
    cfg = desk_train_config(seed=11)
    rng = np.random.default_rng(11)
    batch = rng.normal(size=(32, 12)), rng.normal(size=(32, 24))
    errors = []
    for step in (train_step, ops.single_backward_train_step):
        mp = ModelParams(cfg.model, seed=11)
        mp.sigma("rec").value[...] = sigma
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(dc.NumericError, match="^total_loss: non-finite weighted total at epoch 6") as info:
                step(mp, mp.copy(), *batch, cfg, 6, 5, 1e-3, 0.99, 1)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def test_no_array_of_the_masked_tape_is_alive_when_the_clean_pass_starts(monkeypatch):
    """When the clean student pass starts, every tensor of the masked tape,
    every array its closures held and every value it computed is freed,
    without a garbage collection: only the arena, the buffers, the batch
    and the spent 1 x 1 terms outlive the masked branch."""
    cfg = desk_train_config(seed=10)
    rng = np.random.default_rng(10)
    xa, xv = (rng.normal(size=(32, d)).astype(np.float32) for d in (12, 24))
    mp = ModelParams(cfg.model, seed=10)
    kept = [mp.arena.value, mp.arena.grad, mp.arena.adam_m, mp.arena.adam_v, xa, xv,
            *mp.buffers.values()]
    refs, checked = [], []
    walk, forward_embed = dc.backward, trainer.forward_embed

    def recording_backward(loss):
        if not refs:  # the masked tape
            kept.append(mp.arena.value32)
            for tensor, held in tape_nodes(loss):
                refs.append(weakref.ref(tensor))
                for arr in (tensor.value, *held):
                    while isinstance(arr, np.ndarray):
                        if arr.size > 1 and not any(np.shares_memory(arr, k) for k in kept):
                            refs.append(weakref.ref(arr))
                        arr = arr.base
        walk(loss)

    def clean_forward_embed(mp, xa, xv, train, rng=None):
        if train:
            checked.append((len(refs), [ref for ref in refs if ref() is not None]))
        return forward_embed(mp, xa, xv, train=train, rng=rng)

    monkeypatch.setattr(dc, "backward", recording_backward)
    monkeypatch.setattr(trainer, "forward_embed", clean_forward_embed)
    train_step(mp, mp.copy(), xa, xv, cfg, 6, 5, 1e-3, 0.99, 1)
    (recorded, alive), = checked
    assert recorded > 100 and alive == []


def test_multi_block_train_step_byte_identical_on_one_and_two_workers(monkeypatch):
    cfg = desk_train_config(seed=8, model=ModelConfig(audio_widths=(40, 96, 96),
                                                      visual_widths=(50, 96, 96),
                                                      heads=2, proj_dim=10))
    assert ModelParams(cfg.model, seed=0).arena.size > 3 * dc.BLOCK
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(dc, "_WORKERS", workers)
        runs.append(run_steps(cfg, 32, (1, 6, 7)))
    assert runs[0] == runs[1]


DESK_STEP_THEN_BIG_WALK = """
import contextlib, io, os, sys, tempfile, threading
import numpy as np
from hscmae import cca_linear, cli, diffcore as dc
from hscmae.data_io import SynthConfig, generate_synthetic, save_features
from hscmae.model import ModelConfig, ModelParams, embed_arrays
from hscmae.trainer import TrainConfig, TrainResult, save_checkpoint, train_step
dc._WORKERS = 2
cfg = TrainConfig(model=ModelConfig(audio_widths=(12, 10, 10, 10), visual_widths=(24, 10, 10, 10),
                                    heads=2, proj_dim=10), cca_r=8, cca_post_dim=10)
mp = ModelParams(cfg.model, seed=0)
assert mp.arena.size <= dc.BLOCK
rng = np.random.default_rng(0)
train_step(mp, mp.copy(), rng.normal(size=(32, 12)), rng.normal(size=(32, 24)), cfg, 2, 5, 1e-3, 0.99, 1)
assert "concurrent.futures" not in sys.modules and threading.active_count() == 1
train_set, test_set = generate_synthetic(SynthConfig())
assert test_set.n == 500
with tempfile.TemporaryDirectory() as tmp:
    ckpt, test_path = os.path.join(tmp, "desk.ckpt"), os.path.join(tmp, "test.bin")
    cca_model = cca_linear.fit(*embed_arrays(mp, train_set.audio, train_set.visual), p=10)
    save_checkpoint(ckpt, TrainResult(params=mp, teacher=None, cca_model=cca_model, logs=[]))
    save_features(test_path, test_set)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["eval", "--checkpoint", ckpt, "--features", test_path]) == 0
assert "concurrent.futures" not in sys.modules and threading.active_count() == 1
dc.ParamArena([("w", (2, dc.BLOCK), True)]).prepare_step()
assert "concurrent.futures" in sys.modules and threading.active_count() == 2
"""


def test_desk_training_neither_imports_nor_starts_the_pool():
    """A fresh process: a desk train_step (a one-block arena) walks inline,
    and a desk ``hscmae eval`` (500 queries, below the ranking's parallel
    floor) ranks inline; the first two-block walk imports
    concurrent.futures and starts one thread."""
    src = Path(dc.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", DESK_STEP_THEN_BIG_WALK], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr


def test_first_layers_never_compute_an_input_gradient(monkeypatch):
    """A layer fed by data skips g @ w.T: both first encoder layers, in both
    taped passes; every other layer computes it."""
    seen = []
    make_node = dc._node

    def spying_node(op, value, parents, backward):
        if op not in ("encoder_layer", "linear_tanh", "linear"):
            return make_node(op, value, parents, backward)

        def spied(g):
            grads = backward(g)
            seen.append((op, parents[0].op, grads[0] is None))
            return grads

        return make_node(op, value, parents, spied)

    monkeypatch.setattr(dc, "_node", spying_node)
    cfg = desk_train_config(seed=6)
    rng = np.random.default_rng(6)
    train_step(ModelParams(cfg.model, seed=6), ModelParams(cfg.model, seed=6),
               rng.normal(size=(32, 12)), rng.normal(size=(32, 24)), cfg, 2, 5, 1e-3, 0.99, 1)
    assert len(seen) == 22
    assert [(op, skipped) for op, source, skipped in seen if source == "const"] == [
        ("encoder_layer", True)] * 4
    assert not any(skipped for _, source, skipped in seen if source != "const")


def test_student_passes_run_in_float32_and_the_loss_heads_in_float64(monkeypatch):
    """Every multi-element value of the taped student passes is float32,
    every loss value is a float64 1 x 1, the untaped teacher pass is float32
    (on the teacher's values rounded as it reads them), and every node sends
    each input its gradient in that input's dtype."""
    values, grads = [], []
    make_node = dc._node

    def spying_node(op, value, parents, backward):
        def spied(g):
            out = backward(g)
            grads.extend((op, p.value.dtype, pg.dtype) for p, pg in zip(parents, out) if pg is not None)
            return out

        node = make_node(op, value, parents, spied)
        values.append((op, node.shape, node.value.dtype, node.needs_grad))
        return node

    monkeypatch.setattr(dc, "_node", spying_node)
    cfg = desk_train_config(seed=7)
    rng = np.random.default_rng(7)
    mp = ModelParams(cfg.model, seed=7)
    teacher = mp.copy()
    train_step(mp, teacher, rng.normal(size=(32, 12)), rng.normal(size=(32, 24)), cfg,
               cfg.warmup_epochs + 1, 5, 1e-3, 0.99, 1)
    assert mp.arena.value32.dtype == np.float32 and teacher.arena.value32 is None
    trunk = {(op, dtype) for op, shape, dtype, taped in values if taped and shape != (1, 1)}
    scalars = {(op, dtype) for op, shape, dtype, taped in values if taped and shape == (1, 1)}
    untaped = {(op, dtype) for op, shape, dtype, taped in values if not taped}
    assert {op for op, _ in trunk} == {"encoder_layer", "matmul", "add_layer_norm", "linear",
                                       "linear_tanh", "l2_normalize_rows"}
    assert {dtype for _, dtype in trunk} == {np.dtype(np.float32)}
    assert {op for op, _ in scalars} == {"rec_loss", "distill_loss", "dcca", "soft_infonce",
                                         "weighted_terms", "total_loss"}
    assert {dtype for _, dtype in scalars} == {np.dtype(np.float64)}
    # the teacher pass: one node per encoder layer, fusion matmul, residual
    # and projection op
    assert sum(not taped for *_, taped in values) == 16
    assert {op for op, _ in untaped} == {"encoder_layer", "matmul", "add_layer_norm", "linear",
                                         "l2_normalize_rows"}
    assert {dtype for _, dtype in untaped} == {np.dtype(np.float32)}
    assert {dtype for _, dtype, _ in grads} == {np.dtype(np.float32), np.dtype(np.float64)}
    assert [(op, want, got) for op, want, got in grads if got != want] == []


@pytest.mark.parametrize("epoch", [1, 6], ids=("warm-up", "weighted"))
def test_desk_step_tapes_26_then_18_nodes(monkeypatch, epoch):
    """Whatever the weighting regime, a step walks two tapes, each of one
    node per trunk layer (encoder layer, decoder layer, fusion residual and
    matmul, projection op) and one per loss head: the masked tape ends in
    the root that sends its terms their weighted gradients, and the clean
    tape, walked second, in the weighted total."""
    tapes = []
    walk = dc.backward

    def recording_backward(loss):
        tapes.append([t.op for t, _ in tape_nodes(loss) if t._backward is not None])
        walk(loss)

    monkeypatch.setattr(dc, "backward", recording_backward)
    cfg = desk_train_config(seed=9)
    assert cfg.warmup_epochs == 5
    rng = np.random.default_rng(9)
    mp = ModelParams(cfg.model, seed=9)
    train_step(mp, mp.copy(), rng.normal(size=(32, 12)), rng.normal(size=(32, 24)), cfg,
               epoch, 5, 1e-3, 0.99, 1)
    masked, clean = tapes
    trunk = {"encoder_layer": 6, "matmul": 4, "add_layer_norm": 2, "l2_normalize_rows": 2}
    assert len(masked) == 26 and len(clean) == 18
    assert Counter(masked) == {**trunk, "linear": 4, "linear_tanh": 4, "rec_loss": 1,
                               "soft_infonce": 1, "distill_loss": 1, "weighted_terms": 1}
    assert Counter(clean) == {**trunk, "linear": 2, "dcca": 1, "total_loss": 1}


def test_batch_norm_statistics_follow_the_masked_then_the_clean_pass():
    """The masked student pass updates the running statistics, then the
    clean student pass does, each with the statistics of its float32 batch
    through the float32 first layer; the eval-mode teacher pass does not,
    and the teacher's buffers follow the student's by EMA."""
    cfg = desk_train_config(seed=8)
    rng = np.random.default_rng(8)
    x = {"audio": rng.normal(size=(30, 12)), "visual": rng.normal(size=(30, 24))}
    mp = ModelParams(cfg.model, seed=8)
    teacher = mp.copy()
    mp.buffers["enc.a.0.bn.mean"][...] = rng.normal(size=(1, 10))
    mp.buffers["enc.v.0.bn.var"][...] = rng.uniform(0.5, 2.0, size=(1, 10))
    before = {name: arr.copy() for name, arr in mp.state_entries().items()}
    teacher_before = {name: b.copy() for name, b in teacher.buffers.items()}
    rho, step_seed = 0.97, 9
    train_step(mp, teacher, x["audio"], x["visual"], cfg, 3, step_seed, 1e-3, rho, 1)
    plan = make_plan(30, 12, 24, cfg.mask_ratio, step_seed)
    for mod, modality in (("a", "audio"), ("v", "visual")):
        bn = f"enc.{mod}.0.bn"
        mean, var = before[f"{bn}.mean"].copy(), before[f"{bn}.var"].copy()
        w, b = (before[f"enc.{mod}.0.{p}"].astype(np.float32) for p in ("w", "b"))
        for batch in (apply_value_mask(x[modality], plan, modality), x[modality]):
            h = batch.astype(np.float32) @ w + b
            for running, stat in ((mean, h.mean(axis=0, keepdims=True)), (var, h.var(axis=0, keepdims=True))):
                running *= 1.0 - 0.1
                running += 0.1 * stat
        for kind, want in (("mean", mean), ("var", var)):
            name = f"{bn}.{kind}"
            np.testing.assert_array_equal(mp.buffers[name].view(np.uint64), want.view(np.uint64))
            ema = teacher_before[name] * rho
            ema += (1.0 - rho) * want
            np.testing.assert_array_equal(teacher.buffers[name].view(np.uint64), ema.view(np.uint64))


_CONFIG_VALUES = st.one_of(st.integers(-2, 12).map(float),
                           st.sampled_from([0.5, 2.5, -0.0, 2.0 ** 40, 1e300, math.nan,
                                            math.inf, -math.inf]))


def small_checkpoint_entries():
    """Config, tiny-model state and appended-CCA entries of a checkpoint."""
    cfg = tiny_model_config()
    mp = ModelParams(cfg, seed=30)
    rng = np.random.default_rng(30)
    za, zv = embed_arrays(mp, rng.normal(size=(20, 3)), rng.normal(size=(20, 5)))
    entries = config_entries(cfg)
    entries.update(mp.state_entries())
    entries.update(cca_linear.checkpoint_entries(cca_linear.fit(za, zv, p=2)))
    return entries


def config_matrix(key):
    """Cells for a config/* entry: any shape, or (for widths) one row ending
    at the tiny model's width, so that the config stays valid often and a
    huge, zero or negative inner width reaches ModelParams."""
    any_shape = st.tuples(st.sampled_from([0, 1, 1, 1, 2]), st.integers(0, 5)).flatmap(
        lambda shape: st.lists(_CONFIG_VALUES, min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1]).map(
            lambda cells: np.array(cells, dtype=np.float64).reshape(shape)))
    if not key.endswith("widths"):
        return any_shape
    return st.one_of(any_shape, st.lists(_CONFIG_VALUES, min_size=1, max_size=3).map(
        lambda inner: np.array([inner + [4.0]])))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_entry_fuzz_loads_or_raises_checkpoint_error(tmp_path, data):
    """Any config/* rewrite loads or raises CheckpointError, never MemoryError:
    every entry is checked before anything of the config's size is allocated."""
    entries = small_checkpoint_entries()
    keys = sorted(k for k in entries if k.startswith("config/"))
    for key in data.draw(st.sets(st.sampled_from(keys), min_size=1), label="keys"):
        entries[key] = data.draw(config_matrix(key), label=key)
    path = tmp_path / "fuzz.ckpt"
    save_entries(path, entries)
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


@pytest.mark.parametrize("widths", [[2.0, -2.0, 4.0], [0.0, 0.0, 4.0], [3.0, -4.0, 4.0]])
def test_config_widths_summing_to_zero_raise_checkpoint_error(tmp_path, widths):
    # a layer whose fan-in and fan-out cancel once divided by zero in the init
    # limit; ModelConfig refuses the widths before any entry is compared
    entries = small_checkpoint_entries()
    entries["config/audio_widths"] = np.array([widths])
    save_entries(tmp_path / "zero.ckpt", entries)
    with pytest.raises(CheckpointError, match="encoder widths must be >= 1"):
        load_checkpoint(tmp_path / "zero.ckpt")


def test_checkpoint_roundtrip(tmp_path):
    data = tiny_data()
    result = train(data.unlabeled(), tiny_train_config())
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, result)
    mp, cca_model = load_checkpoint(path)
    assert mp.config == result.params.config
    for name, p in result.params.params.items():
        np.testing.assert_array_equal(mp.params[name].value, p.value)
    for name, b in result.params.buffers.items():
        np.testing.assert_array_equal(mp.buffers[name], b)
    np.testing.assert_array_equal(cca_model.a, result.cca_model.a)
    np.testing.assert_array_equal(cca_model.rho, result.cca_model.rho)

    # re-saving the loaded state is byte-identical
    from hscmae.trainer import TrainResult
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(path2, TrainResult(params=mp, teacher=None,
                                       cca_model=cca_model, logs=[]))
    assert path.read_bytes() == path2.read_bytes()


def test_load_checkpoint_matches_modelparams_from_load_entries(tmp_path):
    """The streamed reader gives the bits of the whole-entry reader."""
    path = tmp_path / "small.ckpt"
    save_entries(path, small_checkpoint_entries())
    entries = load_entries(path)
    want = ModelParams(config_from_entries(entries), entries=entries)
    mp, cca_model = load_checkpoint(path)
    assert mp.config == want.config
    got, ref = mp.state_entries(), want.state_entries()  # parameters, then buffers
    assert list(got) == list(ref)
    for name, value in ref.items():
        assert got[name].dtype == np.float64 and got[name].tobytes() == value.tobytes()
    for name, arr in cca_linear.checkpoint_entries(cca_model).items():
        assert arr.tobytes() == entries[name].tobytes()


def checkpoint_blob(tmp_path):
    path = tmp_path / "good.ckpt"
    save_entries(path, small_checkpoint_entries())
    return path.read_bytes()


def container_cases(blob):
    """(case, damaged bytes, expected message after the path) of the
    container faults that load_entries reports."""
    name = b"enc.a.0.w"
    record = (struct.pack("<I", len(name)) + name + struct.pack("<II", 1, 1) + np.zeros(1).tobytes())
    first = 8 + 4 + len(b"config/audio_widths")
    return [
        ("bad-magic", b"NOTMAGIC" + blob[8:], "bad magic b'NOTMAGIC'"),
        ("short-magic", blob[:5], f"bad magic {blob[:5]!r}"),
        ("cut-header", blob[:10], "truncated record header at offset 8"),
        ("cut-name", blob[:14], "truncated record at offset 12"),
        ("cut-values", blob[:first + 8 + 5], "entry 'config/audio_widths' expects 24 bytes, 5 available"),
        ("cut-last", blob[:-5], "entry 'cca/rho' expects"),
        ("non-utf8", blob + struct.pack("<I", 2) + b"a\xff" + struct.pack("<II", 1, 1)
         + np.zeros(1).tobytes(), f"entry name at offset {len(blob) + 4} is not UTF-8"),
        ("duplicate", blob + record, "duplicate entry 'enc.a.0.w'"),
    ]


def test_load_checkpoint_reports_container_faults_as_load_entries_does(tmp_path):
    blob = checkpoint_blob(tmp_path)
    for case, damaged, message in container_cases(blob):
        path = tmp_path / f"{case}.ckpt"
        path.write_bytes(damaged)
        errors = []
        for reader in (load_entries, load_checkpoint):
            with pytest.raises(CheckpointError) as caught:
                reader(path)
            errors.append(str(caught.value))
        assert errors[0] == errors[1], case
        assert errors[0].startswith(f"{path}: {message}"), case


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_container_fuzz_through_load_checkpoint(tmp_path, data):
    """Any damage to a whole checkpoint loads or raises CheckpointError, and
    a container fault reads as load_entries reports it."""
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(corrupted(data, checkpoint_blob(tmp_path)))
    entries_error = None
    try:
        load_entries(path)
    except CheckpointError as exc:
        entries_error = str(exc)
    try:
        load_checkpoint(path)
    except CheckpointError as exc:
        assert entries_error is None or str(exc) == entries_error
    else:
        assert entries_error is None


class ArenaSpy:
    """Stands in for dc.ParamArena and counts constructions."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = dc.ParamArena

        def build(layout):
            self.calls += 1
            return real(layout)

        monkeypatch.setattr(dc, "ParamArena", build)


def test_rejected_checkpoint_never_allocates_an_arena(tmp_path, monkeypatch):
    blob = checkpoint_blob(tmp_path)
    rewrites = {
        "missing-weight": lambda e: e.pop("enc.v.1.w"),
        "wrong-shape": lambda e: e.update({"dec.a.2.w": e["dec.a.2.w"][:, :1]}),
        "missing-buffer": lambda e: e.pop("enc.a.0.bn.var"),
        "missing-cca": lambda e: e.pop("cca/B"),
        "cca-shape": lambda e: e.update({"cca/A": e["cca/A"][:1]}),
        "bad-config": lambda e: e.update({"config/heads": np.array([[0.0]])}),
        "huge-width": lambda e: e.update({"config/audio_widths": np.array([[3.0, 2.0 ** 40, 4.0]])}),
    }
    paths = []
    for case, damaged, _ in container_cases(blob):
        paths.append(tmp_path / f"{case}.ckpt")
        paths[-1].write_bytes(damaged)
    for case, rewrite in rewrites.items():
        entries = small_checkpoint_entries()
        rewrite(entries)
        paths.append(tmp_path / f"{case}.ckpt")
        save_entries(paths[-1], entries)
    spy = ArenaSpy(monkeypatch)
    for path in paths:
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: "):
            load_checkpoint(path)
    assert spy.calls == 0
    (tmp_path / "good.ckpt").write_bytes(blob)
    load_checkpoint(tmp_path / "good.ckpt")
    assert spy.calls == 1


def test_extra_entries_load_unread(tmp_path, monkeypatch):
    """A checkpoint with a teacher copy and fusion Q/K weights, as older ones
    hold, loads the same bits without reading any extra entry."""
    entries = small_checkpoint_entries()
    old = dict(entries)
    for name, arr in entries.items():
        if not name.startswith(("config/", "cca/")):
            old[f"teacher/{name}"] = arr + 1.0
    old["fuse.a2v.wq"] = np.full((4, 4), np.nan)
    save_entries(tmp_path / "new.ckpt", entries)
    save_entries(tmp_path / "old.ckpt", old)
    read = []
    real_read = StoredEntry.read

    def recording_read(entry, out=None):
        read.append(entry.name)
        return real_read(entry, out)

    monkeypatch.setattr(StoredEntry, "read", recording_read)
    new_mp, _ = load_checkpoint(tmp_path / "new.ckpt")
    assert sorted(read) == sorted(entries)
    read.clear()
    old_mp, _ = load_checkpoint(tmp_path / "old.ckpt")
    assert sorted(read) == sorted(entries)
    assert old_mp.arena.value.tobytes() == new_mp.arena.value.tobytes()


@pytest.mark.parametrize("bad, entry, problem", [
    ({"enc.v.1.w": np.nan}, "enc.v.1.w", "holds a non-finite value"),
    ({"cca/A": np.inf}, "cca/A", "holds a non-finite value"),
    ({"enc.a.0.bn.var": -5.0}, "enc.a.0.bn.var", "holds a negative variance"),
    ({"sigma.rec": np.nan}, "sigma.rec", "holds a non-finite value"),
    ({"enc.v.0.bn.mean": -np.inf}, "enc.v.0.bn.mean", "holds a non-finite value"),
    ({"cca/rho": np.nan}, "cca/rho", "holds a non-finite value"),
    # parameters in arena order come first, then buffers, then cca/* entries,
    # although the audio batch norm's mean is built before the visual weight
    ({"cca/A": np.inf, "enc.a.0.bn.mean": np.nan, "sigma.dis": np.inf, "enc.v.1.w": np.nan},
     "enc.v.1.w", "holds a non-finite value"),
    ({"cca/rho": np.nan, "enc.v.0.bn.var": np.inf}, "enc.v.0.bn.var", "holds a non-finite value"),
], ids=("nan-weight", "inf-cca", "negative-var", "nan-sigma", "inf-mean", "nan-rho",
        "weight-before-buffer-and-cca", "buffer-before-cca"))
def test_non_finite_or_negative_variance_entry_is_a_checkpoint_error(tmp_path, bad, entry, problem):
    entries = small_checkpoint_entries()
    for name, value in bad.items():
        entries[name] = entries[name].copy()
        entries[name].flat[-1] = value
    path = tmp_path / "bad.ckpt"
    save_entries(path, entries)
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: entry {entry!r} {problem}$"):
        load_checkpoint(path)


def test_a_numeric_failure_in_a_step_names_its_epoch_and_step(monkeypatch):
    """Two steps per epoch: the fourth step is step 2 of epoch 2."""
    steps = []
    real_step = trainer.train_step

    def failing_step(*args):
        steps.append(args[5])
        if len(steps) == 4:
            raise dc.NumericError("matmul: non-finite forward value")
        return real_step(*args)

    monkeypatch.setattr(trainer, "train_step", failing_step)
    with pytest.raises(dc.NumericError, match=r"^matmul: non-finite forward value \(epoch 2, step 2\)$"):
        train(tiny_data().unlabeled(), tiny_train_config(epochs=3))
    assert steps == [1, 1, 2, 2]


def test_epoch_log_rows_schema():
    data = tiny_data()
    result = train(data.unlabeled(), tiny_train_config())
    rows = epoch_log_rows(result.logs)
    assert rows[0].startswith("epoch,l_rec,l_cca,l_infonce,l_dis")
    assert len(rows) == 3
    assert all(len(r.split(",")) == len(rows[0].split(",")) for r in rows[1:])
