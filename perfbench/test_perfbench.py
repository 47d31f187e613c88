"""Tests of the benchmark itself: each correctness check fails on a
deliberately wrong input and passes on the program's output for two
independent seeds; the tracer's sums and its metric list agree with
BENCHMARK.json; the benchmark refuses to run without the program.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import tracer as tracing
import workloads
from hscmae import cca_linear, evaluate, model, trainer
from hscmae.model import ModelConfig, ModelParams
from hscmae.optim import OptimConfig
from hscmae.trainer import TrainConfig, TrainResult

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SEEDS = (0, 1)

TINY = ModelConfig(audio_widths=(3, 4, 4), visual_widths=(5, 4, 4), heads=2, proj_dim=3, dropout=0.1)


def tiny_config(seed):
    return TrainConfig(model=TINY, optim=OptimConfig(lr0=1e-2, clip_norm=0.5), epochs=10,
                       batch_size=12, warmup_epochs=2, k=3, cca_r=2, cca_post_dim=2, seed=seed)


def tiny_data(seed, n=40):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 4, n)
    centers = rng.normal(size=(4, 2))
    audio = centers[labels] @ rng.normal(size=(2, 3)) + 0.3 * rng.normal(size=(n, 3))
    visual = centers[labels] @ rng.normal(size=(2, 5)) + 0.3 * rng.normal(size=(n, 5))
    return audio, visual, labels


def tiny_result(seed):
    audio, visual, labels = tiny_data(seed)
    cfg = tiny_config(seed)
    mp = ModelParams(cfg.model, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for name, buf in mp.buffers.items():  # running statistics away from 0/1
        buf[...] = rng.uniform(0.5, 1.5, buf.shape) if name.endswith(".var") else rng.normal(size=buf.shape)
    za, zv = model.embed_arrays(mp, audio, visual)
    cca = cca_linear.fit(za, zv, p=2, eps=cfg.cca_eps)
    return TrainResult(params=mp, teacher=mp.copy(), cca_model=cca, logs=[]), audio, visual, labels


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------

def tied_embeddings(seed, n=30):
    """Unit rows on a coarse grid, so that many similarities tie exactly."""
    rng = np.random.default_rng(seed)
    unit = lambda z: z / np.linalg.norm(z, axis=1, keepdims=True)  # noqa: E731
    za = unit(rng.integers(1, 3, size=(n, 3)).astype(float))
    zv = unit(rng.integers(1, 3, size=(n, 3)).astype(float))
    return za, zv, rng.integers(0, 4, n)


@pytest.mark.parametrize("seed", SEEDS)
def test_retrieval_check_passes_on_program_report(seed):
    za, zv, labels = tied_embeddings(seed)
    report = evaluate.cross_modal_map(za, zv, labels)
    assert checks.check_retrieval(za, zv, labels, report, queries=range(labels.size)) == []
    assert checks.check_unit_rows(za, "audio") == []


def test_retrieval_check_fails_on_permuted_labels():
    za, zv, labels = tied_embeddings(0)
    report = evaluate.cross_modal_map(za, zv, labels)
    permuted = np.random.default_rng(1).permutation(labels)
    assert checks.check_retrieval(za, zv, permuted, report, queries=range(labels.size))


def test_retrieval_check_fails_on_perturbed_ap_and_mean():
    za, zv, labels = tied_embeddings(0)
    report = evaluate.cross_modal_map(za, zv, labels)
    ap = report.ap_v2a.copy()
    ap[3] += 1e-9
    assert checks.check_retrieval(za, zv, labels, replace(report, ap_v2a=ap), queries=[3])
    assert checks.check_retrieval(za, zv, labels, replace(report, map_avg=report.map_avg + 1e-9), queries=[])


def test_reference_ap_breaks_ties_toward_lower_index():
    sims = np.array([0.5, 0.9, 0.5, 0.1])
    # ranking 1, 0, 2, 3: relevant items 0 and 2 sit at ranks 2 and 3
    assert checks.reference_ap(sims, np.array([True, False, True, False])) == pytest.approx((1 / 2 + 2 / 3) / 2)
    # ranking puts item 2 after item 0 despite the tie
    assert checks.reference_ap(sims, np.array([False, False, True, False])) == pytest.approx(1 / 3)


def test_unit_rows_check_fails_off_unit():
    z = np.eye(3)
    z[1] *= 1.0 + 1e-9
    assert checks.check_unit_rows(z, "audio")


def test_margin_check():
    assert checks.check_margin([0.55, 0.57, 0.56], baseline=0.37, chance=0.125) == []
    assert checks.check_margin([0.55, 0.57, 0.56], baseline=0.55, chance=0.125)
    # every seed above the baseline, but too spread for the mean's lead to count
    assert checks.check_margin([0.38, 0.80, 0.39], baseline=0.37, chance=0.125)
    assert checks.check_margin([0.45, 0.75, 0.60], baseline=0.37, chance=0.125) == []


# ---------------------------------------------------------------------------
# checkpoints and the appended CCA
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_entries_roundtrip_passes_on_saved_checkpoint(tmp_path, seed):
    result = tiny_result(seed)[0]
    original = trainer.save_entries
    with workloads.Captures() as cap:
        trainer.save_checkpoint(str(tmp_path / "c.ckpt"), result)
    assert trainer.save_entries is original
    path, entries = cap.saved
    assert checks.check_entries_roundtrip(entries, model.load_entries(path)) == []
    assert checks.check_rho(entries["cca/rho"]) == []


def test_entries_roundtrip_fails_on_changed_entries(tmp_path):
    result = tiny_result(0)[0]
    path = str(tmp_path / "c.ckpt")
    trainer.save_checkpoint(path, result)
    saved = model.load_entries(path)
    bumped = model.load_entries(path)
    w = bumped["enc.a.0.w"]
    w[0, 0] = np.nextafter(w[0, 0], np.inf)
    assert checks.check_entries_roundtrip(saved, bumped)
    missing = dict(saved)
    missing.pop("cca/A")
    assert checks.check_entries_roundtrip(saved, missing)
    reordered = dict(reversed(list(saved.items())))
    assert checks.check_entries_roundtrip(saved, reordered)


def test_rho_check_fails_out_of_order_or_range():
    assert checks.check_rho([0.9, 0.5, 0.1]) == []
    assert checks.check_rho([0.5, 0.9])
    assert checks.check_rho([1.2, 0.5])
    assert checks.check_rho([0.5, -0.1])
    assert checks.check_rho([np.nan])


# ---------------------------------------------------------------------------
# a training step
# ---------------------------------------------------------------------------

def step(mp, teacher, cfg, epoch, seed, t):
    audio, visual, _ = tiny_data(seed, n=cfg.batch_size)
    rho = 0.9
    picks = [(name, np.arange(mp.params[name].value.size)) for name in ("enc.a.0.w", "proj.v.w")]
    before = checks.ema_sample(teacher, picks)
    sigmas = {n: float(mp.sigma(n).value[0, 0]) for n in ("rec", "cca", "infonce", "dis")}
    values, _, total = trainer.train_step(mp, teacher, audio, visual, cfg, epoch, seed + t, 1e-2, rho, t)
    return values, total, sigmas, picks, before, rho


@pytest.mark.parametrize("seed", SEEDS)
def test_step_checks_pass_in_both_regimes(seed):
    cfg = tiny_config(seed)
    mp = ModelParams(cfg.model, seed=seed)
    teacher = mp.copy()
    for t, epoch in enumerate((1, 2, 3, 4), start=1):
        values, total, sigmas, picks, before, rho = step(mp, teacher, cfg, epoch, seed, t)
        assert checks.check_step_losses(values, total, epoch, cfg.warmup_epochs, 2, sigmas) == []
        assert checks.check_clipped(mp.parameters(), cfg.optim.clip_norm) == []
        assert checks.check_finite(mp, "student") == [] and checks.check_finite(teacher, "teacher") == []
        assert checks.check_ema(before, checks.ema_sample(mp, picks), checks.ema_sample(teacher, picks), rho) == []


def test_step_checks_fail_on_wrong_inputs():
    cfg = tiny_config(0)
    mp = ModelParams(cfg.model, seed=0)
    teacher = mp.copy()
    values, total, sigmas, picks, before, rho = step(mp, teacher, cfg, 1, 0, 1)
    losses = lambda **kw: checks.check_step_losses({**values, **kw}, total, 1, 2, 2)  # noqa: E731
    assert losses(rec=-1.0) and losses(infonce=-1.0) and losses(dis=-1.0)
    assert losses(dis=4.5)
    assert losses(cca=0.1) and losses(cca=-2.5)
    assert checks.check_step_losses(values, total + 1e-6, 1, 2, 2)
    assert checks.check_step_losses(values, total, 3, 2, 2, sigmas)  # weighted formula on a warm-up total
    assert checks.check_ema(before, checks.ema_sample(mp, picks), checks.ema_sample(teacher, picks), rho + 0.01)
    mp.params["proj.a.w"].grad[0, 0] = 10.0 * cfg.optim.clip_norm
    assert checks.check_clipped(mp.parameters(), cfg.optim.clip_norm)
    teacher.params["dec.v.1.w"].value[0, 0] = np.inf
    assert checks.check_finite(teacher, "teacher")


# ---------------------------------------------------------------------------
# eval-mode embeddings
# ---------------------------------------------------------------------------

def saved_entries(tmp_path, result):
    path = str(tmp_path / "e.ckpt")
    trainer.save_checkpoint(path, result)
    return model.load_entries(path)


@pytest.mark.parametrize("seed", SEEDS)
def test_reference_embeddings_match_program(tmp_path, seed):
    result, audio, visual, _ = tiny_result(seed)
    za, zv = evaluate.retrieval_embeddings(result.params, result.cca_model, audio, visual)
    rows = np.arange(audio.shape[0])
    assert checks.check_embeddings(saved_entries(tmp_path, result), audio, visual, rows, za, zv) == []


def test_reference_embeddings_fail_on_perturbed_weight(tmp_path):
    result, audio, visual, _ = tiny_result(0)
    za, zv = evaluate.retrieval_embeddings(result.params, result.cca_model, audio, visual)
    entries = saved_entries(tmp_path, result)
    entries["fuse.v2a.wo"][1, 2] += 1e-6
    assert checks.check_embeddings(entries, audio, visual, np.arange(audio.shape[0]), za, zv)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_tracer_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    t = tracing.Tracer(clock=lambda: next(ticks))
    inner = t.wrap(lambda: None, "inner")
    outer = t.wrap(lambda: (inner(), inner()), "outer")
    outer()
    dur, own = t.durations()
    # outer [0, 10] holds inner [1, 3] and [4, 6]
    assert t.names == ["outer", "inner", "inner"] and t.parents == [-1, 0, 0]
    assert dur.tolist() == [10.0, 2.0, 2.0] and own.tolist() == [6.0, 2.0, 2.0]


def test_tracer_reports_every_metric_and_restores_bindings():
    from hscmae import cli, optim
    originals = (trainer.train_step, cli.load_checkpoint, optim.clip_global_norm, trainer.encode)
    t = tracing.Tracer()
    undo = t.install()
    try:
        assert trainer.train_step is not originals[0] and cli.load_checkpoint is not originals[1]
        cfg = tiny_config(0)
        mp = ModelParams(cfg.model, seed=0)
        step(mp, mp.copy(), cfg, 1, 0, 1)
        step(mp, mp.copy(), cfg, 3, 0, 2)
    finally:
        tracing.restore(undo)
    assert (trainer.train_step, cli.load_checkpoint, optim.clip_global_norm, trainer.encode) == originals
    metrics = t.layer_metrics()
    assert list(metrics) == [name for name, _, _ in tracing.metric_units()]
    assert metrics["trainer.steps"] == 2 and metrics["diffcore.nodes"] > 0
    assert 0 < metrics["trainer.train_step_self_s"] < metrics["trainer.train_step_s"]
    assert 0 < metrics["diffcore.backward_self_s"] < metrics["diffcore.backward_s"]
    for name in ("diffcore.matmul.fwd_s", "diffcore.matmul.bwd_s", "diffcore.dcca.bwd_s",
                 "teacher.mine_affinities_s", "masking.make_plan_s", "optim.adamw_step_s"):
        assert metrics[name] > 0, name


def test_benchmark_json_matches_the_code():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.metric_units()
    assert [m["name"] for m in spec["end_to_end"]] == list(workloads.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(workloads.END_TO_END_UNITS.values())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_desk_profile_is_the_test_suite_profile():
    spec = importlib.util.spec_from_file_location("_suite_conftest", REPO / "tests" / "conftest.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    for seed in SEEDS:
        assert workloads.desk_config(seed) == suite.desk_train_config(seed=seed)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(REPO / "src")  # a copy elsewhere must not stand in for the checkout's
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk-train", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert time.monotonic() - start < 60
