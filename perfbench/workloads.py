"""The benchmark's three workloads.

Each workload sets up (several times, keeping the median), then runs whole
rounds of its operation until the run's seconds are spent, timing only the
calls into the program. Checks run between operations and after the loop,
outside the timed calls and with the tracer paused, so they add nothing to
the end-to-end or per-layer figures.

- desk-train: one operation is a desk-profile training, its checkpoint
  write and an ``hscmae eval`` of that checkpoint.
- full-step: one operation is ``trainer.train_step`` at the paper recipe;
  rounds alternate a warm-up-regime and an uncertainty-weighted step.
- eval-full: one operation is ``hscmae eval`` of a full-scale checkpoint that
  a separate ``hscmae train`` process wrote during set-up.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import checks
from bootstrap import ROOT
from hscmae import cca_linear, cli, data_io, evaluate, model, trainer
from hscmae.data_io import FeatureSet, SynthConfig
from hscmae.model import ModelConfig
from hscmae.optim import OptimConfig, cosine_lr
from hscmae.teacher import anneal_momentum
from hscmae.trainer import TrainConfig, TrainResult
from tracer import probe, restore

clock = time.perf_counter

QUERY_SAMPLE = 16   # queries per direction whose AP is recomputed
ROW_SAMPLE = 32     # eval-full rows whose embeddings are recomputed in numpy
EMA_SAMPLE = 64     # coordinates per sampled parameter in the EMA check


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def import_seconds(probes=3):
    """Wall times of fresh interpreters importing hscmae from this checkout,
    the import share of set-up."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import hscmae.cli"
    times = []
    for _ in range(probes):
        t0 = clock()
        subprocess.run([sys.executable, "-c", code], check=True, stdin=subprocess.DEVNULL, timeout=60)
        times.append(clock() - t0)
    return times


def derived_seeds(seed, count, salt):
    """``count`` seeds for one purpose of a run, fixed by the run's seed."""
    return [int(s) for s in np.random.SeedSequence([seed, salt]).generate_state(count)]


@dataclass
class Run:
    """What a workload's phases share: the run's seed and length, its work
    directory and tracer, and what it found."""
    seed: int
    seconds: float
    workdir: str
    tracer: object = None
    failures: list = field(default_factory=list)
    failed_ops: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    child_metrics: list = field(default_factory=list)

    def path(self, name):
        return os.path.join(self.workdir, name)

    @contextlib.contextmanager
    def untraced(self):
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False


END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "items/s", "peak_rss_mb": "MB", "checkpoint_mb": "MB"}


@dataclass
class Outcome:
    setup_reps: list
    op_s: list
    items_per_op: int
    peak_rss_mb: float
    checkpoint_mb: float

    def end_to_end(self, import_reps):
        return {
            "setup_s": statistics.median(import_reps) + statistics.median(self.setup_reps),
            "items_per_s": self.items_per_op / statistics.median(self.op_s),
            "peak_rss_mb": self.peak_rss_mb,
            "checkpoint_mb": self.checkpoint_mb,
        }


def run_rounds(run, round_ops, check, min_rounds=1):
    """Whole rounds of operations until ``run.seconds`` have passed.

    ``round_ops`` is a list of callables, each one timed operation; ``check``
    sees each operation's index and output afterwards, untimed. An operation
    that raises counts as failed. Returns the times of the operations that
    completed."""
    times = []
    attempted = 0
    start = clock()
    rounds = 0
    while rounds < min_rounds or clock() - start < run.seconds:
        for op in round_ops:
            t0 = clock()
            try:
                out = op(attempted)
            except Exception as exc:  # an operation's failure is a result, not a crash
                run.failed_ops.append(f"operation {attempted}: {type(exc).__name__}: {exc}")
            else:
                times.append(clock() - t0)
                with run.untraced():
                    check(attempted, out)
            attempted += 1
        rounds += 1
    run.info["attempted"] = attempted
    return times


def quiet_cli(argv):
    """``hscmae`` in-process, its stdout kept off the benchmark's; a
    non-zero exit raises."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"hscmae {argv[0]} exited {rc}")


class Captures:
    """Keeps what ``hscmae`` handed to ``save_entries`` and what
    ``cross_modal_map`` computed, for the checks."""

    def __init__(self):
        self.saved = None
        self.retrieval = None
        self._undo = []

    def __enter__(self):
        self._undo += probe(model, "save_entries", self._on_save)
        self._undo += probe(evaluate, "cross_modal_map", self._on_map)
        return self

    def __exit__(self, *exc):
        restore(self._undo)
        self._undo = []

    def _on_save(self, args, kwargs, result):
        self.saved = (args[0], args[1])

    def _on_map(self, args, kwargs, report):
        self.retrieval = (args[0], args[1], args[2], report)


def check_retrieval(run, retrieval, where):
    z_a, z_v, labels, report = retrieval
    queries = np.random.default_rng(derived_seeds(run.seed, 1, 7)[0]).choice(
        labels.size, min(QUERY_SAMPLE, labels.size), replace=False)
    found = checks.check_retrieval(z_a, z_v, labels, report, queries)
    found += checks.check_unit_rows(z_a, "audio") + checks.check_unit_rows(z_v, "visual")
    run.failures += [f"{where}: {msg}" for msg in found]


def check_saved(run, saved, where):
    path, entries = saved
    found = checks.check_entries_roundtrip(entries, model.load_entries(path))
    found += checks.check_rho(entries["cca/rho"])
    run.failures += [f"{where}: {msg}" for msg in found]


# ---------------------------------------------------------------------------
# desk-train
# ---------------------------------------------------------------------------

# The desk profile of tests/conftest.py, the scale of acceptance criteria 5-7.
DESK_MODEL = ModelConfig(audio_widths=(12, 10, 10, 10), visual_widths=(24, 10, 10, 10),
                         heads=2, proj_dim=10, dropout=0.2)
DESK_SEEDS = 3      # distinct training seeds per run; later trainings repeat them
DESK_SETUPS = 3


def desk_config(seed):
    return TrainConfig(model=DESK_MODEL, optim=OptimConfig(lr0=3e-3), epochs=15,
                       batch_size=250, mask_ratio=0.2, cca_r=8, cca_post_dim=10, seed=seed)


def desk_train(run):
    train_path, test_path, ckpt = run.path("train.bin"), run.path("test.bin"), run.path("desk.ckpt")

    def setup():
        train_set, test_set = data_io.generate_synthetic(SynthConfig())
        data_io.save_features(train_path, train_set)
        data_io.save_features(test_path, test_set)
        return data_io.load_features(train_path, split="train"), train_set, test_set

    reps = []
    for _ in range(DESK_SETUPS):
        t0 = clock()
        loaded, train_set, test_set = setup()
        reps.append(clock() - t0)
    view = loaded.unlabeled()
    seeds = derived_seeds(run.seed, DESK_SEEDS, 1)
    cfg0 = desk_config(seeds[0])
    samples = cfg0.epochs * (train_set.n // cfg0.batch_size) * cfg0.batch_size
    maps = {}  # operation index -> test mAP

    with Captures() as cap:
        def op(i):
            result = trainer.train(view, desk_config(seeds[i % DESK_SEEDS]))
            trainer.save_checkpoint(ckpt, result)
            quiet_cli(["eval", "--checkpoint", ckpt, "--features", test_path])

        def check(i, _):
            where = f"training {i} (seed {seeds[i % DESK_SEEDS]})"
            check_saved(run, cap.saved, where)
            check_retrieval(run, cap.retrieval, where)
            maps[i] = cap.retrieval[3].map_avg
            first = maps.get(i - DESK_SEEDS)
            if first is not None and maps[i] != first:
                run.failures.append(f"{where}: rerun mAP {maps[i]!r} differs from {first!r}")

        times = run_rounds(run, [op], check, min_rounds=DESK_SEEDS)
    rss = peak_rss_mb()

    with run.untraced():
        baseline = evaluate.run_baseline("cca", train_set, test_set, cfg0).map_avg
    seed_maps = [maps[i] for i in range(DESK_SEEDS) if i in maps]
    run.failures += checks.check_margin(seed_maps, baseline, chance=1.0 / 8.0)
    run.info.update(map_avg=float(np.mean(seed_maps)), cca_baseline_map=baseline,
                    train_seeds=seeds)
    return Outcome(setup_reps=reps, op_s=times, items_per_op=samples, peak_rss_mb=rss,
                   checkpoint_mb=os.path.getsize(ckpt) / 1e6)


# ---------------------------------------------------------------------------
# full-step
# ---------------------------------------------------------------------------

# Synthetic data at the paper's feature dimensions; three batches of 400.
FULL_SYNTH = dict(classes=10, per_class=120, d_audio=128, d_visual=1024)
FULL_SETUPS = 3
EMA_PARAMS = ("enc.a.0.w", "enc.v.1.w", "fuse.a2v.wv", "proj.v.w", "dec.v.2.w")


class FullState:
    """A full-scale student and teacher with their step counter."""

    def __init__(self, run, cfg):
        train_path = run.path("full-train.bin")
        train_set, test_set = data_io.generate_synthetic(SynthConfig(seed=run.seed, **FULL_SYNTH))
        data_io.save_features(train_path, train_set)
        data_io.save_features(run.path("full-test.bin"), test_set)
        self.view = data_io.load_features(train_path, split="train").unlabeled()
        self.batches = data_io.batches(self.view.audio.shape[0], cfg.batch_size,
                                       seed=derived_seeds(run.seed, 1, 2)[0])
        self.mp = model.ModelParams(cfg.model, seed=derived_seeds(run.seed, 1, 3)[0])
        self.teacher = self.mp.copy()
        self.cfg = cfg
        self.seed = run.seed
        self.t = 0

    def batch(self):
        idx = self.batches[self.t % len(self.batches)]
        return self.view.audio[idx], self.view.visual[idx]

    def step_args(self, epoch):
        cfg = self.cfg
        step_seed = derived_seeds(self.seed, 1, 1000 + self.t)[0]
        return (cfg, epoch, step_seed, cosine_lr(epoch, cfg.optim),
                anneal_momentum(epoch, cfg.epochs), self.t + 1)


def full_step(run):
    cfg = TrainConfig()
    warm, weighted = cfg.warmup_epochs, cfg.warmup_epochs + 1
    r = cfg.cca_config().r

    reps = []
    state = None
    for _ in range(FULL_SETUPS):
        state = None
        gc.collect()
        t0 = clock()
        state = FullState(run, cfg)
        xa, xv = state.batch()
        trainer.train_step(state.mp, state.teacher, xa, xv, *state.step_args(warm))
        state.t += 1
        reps.append(clock() - t0)

    rng = np.random.default_rng(derived_seeds(run.seed, 1, 4)[0])
    picks = [(name, rng.choice(state.mp.params[name].value.size, EMA_SAMPLE, replace=False))
             for name in EMA_PARAMS]
    pending = {}

    def make_op(epoch):
        def op(i):
            # untimed preparation: the batch, and what the checks compare against
            xa, xv = state.batch()
            args = state.step_args(epoch)
            pending.update(epoch=epoch, rho=args[4],
                           before=checks.ema_sample(state.teacher, picks),
                           sigmas={n: float(state.mp.sigma(n).value[0, 0])
                                   for n in ("rec", "cca", "infonce", "dis")})
            t0 = clock()
            out = trainer.train_step(state.mp, state.teacher, xa, xv, *args)
            pending["step_s"] = clock() - t0
            state.t += 1
            return out
        return op

    def check(i, out):
        values, _, total = out
        found = checks.check_step_losses(values, total, pending["epoch"], cfg.warmup_epochs, r,
                                         pending["sigmas"])
        found += checks.check_clipped(state.mp.parameters(), cfg.optim.clip_norm)
        found += checks.check_finite(state.mp, "student") + checks.check_finite(state.teacher, "teacher")
        found += checks.check_ema(pending["before"], checks.ema_sample(state.mp, picks),
                                  checks.ema_sample(state.teacher, picks), pending["rho"])
        run.failures += [f"step {i} (epoch {pending['epoch']}): {msg}" for msg in found]
        step_times.append(pending["step_s"])

    step_times = []
    run_rounds(run, [make_op(warm), make_op(weighted)], check)
    rss = peak_rss_mb()

    # The end of a training, as trainer.train does it: the appended CCA on
    # clean training embeddings, the checkpoint, then hscmae eval of it.
    ckpt = run.path("full.ckpt")
    with Captures() as cap:
        za, zv = model.embed_arrays(state.mp, state.view.audio, state.view.visual)
        cca_model = cca_linear.fit(za, zv, p=min(cfg.cca_post_dim, cfg.model.proj_dim), eps=cfg.cca_eps)
        trainer.save_checkpoint(ckpt, TrainResult(params=state.mp, teacher=state.teacher,
                                                  cca_model=cca_model, logs=[]))
        state = None
        gc.collect()
        quiet_cli(["eval", "--checkpoint", ckpt, "--features", run.path("full-test.bin")])
    with run.untraced():
        check_retrieval(run, cap.retrieval, "eval after training")
        run.failures += checks.check_rho(cca_model.rho)
    run.info["map_avg"] = cap.retrieval[3].map_avg
    return Outcome(setup_reps=reps, op_s=step_times, items_per_op=cfg.batch_size,
                   peak_rss_mb=rss, checkpoint_mb=os.path.getsize(ckpt) / 1e6)


# ---------------------------------------------------------------------------
# eval-full
# ---------------------------------------------------------------------------

# 10 classes at the paper's dimensions: the generator's 2400-item train split
# is the evaluated file; 400 items of its test split train the checkpoint.
EVAL_SYNTH = dict(classes=10, per_class=240, d_audio=128, d_visual=1024)
EVAL_TRAIN_ITEMS = 400
EVAL_SETUPS = 3


def eval_setup(seed, workdir):
    """Write the evaluated feature file and train the checkpoint with
    ``hscmae train`` (paper recipe, one epoch of one batch)."""
    train_set, test_set = data_io.generate_synthetic(SynthConfig(seed=seed, **EVAL_SYNTH))
    pick = np.random.default_rng(derived_seeds(seed, 1, 5)[0]).permutation(test_set.n)[:EVAL_TRAIN_ITEMS]
    data_io.save_features(os.path.join(workdir, "eval.bin"), train_set)
    data_io.save_features(os.path.join(workdir, "eval-train.bin"),
                          FeatureSet(audio=test_set.audio[pick], visual=test_set.visual[pick], labels=None))
    quiet_cli(["train", "--features", os.path.join(workdir, "eval-train.bin"),
               "--out", os.path.join(workdir, "eval.ckpt"), "--epochs", "1",
               "--batch-size", str(EVAL_TRAIN_ITEMS), "--seed", str(seed)])


def eval_full(run):
    ckpt, eval_path = run.path("eval.ckpt"), run.path("eval.bin")
    reps = []
    for rep in range(EVAL_SETUPS):
        report_path = run.path(f"setup-{rep}.json")
        argv = [sys.executable, str(ROOT / "perfbench" / "eval_setup.py"), "--seed", str(run.seed),
                "--workdir", run.workdir, "--trace", str(int(run.tracer is not None)),
                "--report", report_path]
        proc = subprocess.run(argv, stdin=subprocess.DEVNULL, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"eval-full set-up exited {proc.returncode}")
        with open(report_path) as fh:
            report = json.load(fh)
        reps.append(report["setup_s"])
        run.failures += [f"set-up {rep}: {msg}" for msg in report["failures"]]
        if report.get("layer_metrics"):
            run.child_metrics.append(report["layer_metrics"])

    maps = []
    with Captures() as cap:
        def op(i):
            quiet_cli(["eval", "--checkpoint", ckpt, "--features", eval_path])

        def check(i, _):
            check_retrieval(run, cap.retrieval, f"eval {i}")
            maps.append(cap.retrieval[3].map_avg)
            if maps[-1] != maps[0]:
                run.failures.append(f"eval {i}: mAP {maps[-1]!r} differs from the first eval's {maps[0]!r}")

        times = run_rounds(run, [op], check)
    rss = peak_rss_mb()

    with run.untraced():
        entries = model.load_entries(ckpt)
        data = data_io.load_features(eval_path, split="test")
        rows = np.random.default_rng(derived_seeds(run.seed, 1, 6)[0]).choice(data.n, ROW_SAMPLE, replace=False)
        z_a, z_v = cap.retrieval[0], cap.retrieval[1]
        run.failures += checks.check_rho(entries["cca/rho"])
        run.failures += checks.check_embeddings(entries, data.audio, data.visual, rows, z_a, z_v)
    run.info["map_avg"] = maps[0] if maps else None
    return Outcome(setup_reps=reps, op_s=times, items_per_op=2 * data.n, peak_rss_mb=rss,
                   checkpoint_mb=os.path.getsize(ckpt) / 1e6)


WORKLOADS = {"desk-train": desk_train, "full-step": full_step, "eval-full": eval_full}
