"""Command-line front end: synth, train, eval, baseline, sweep, ablate.

Every knob is a field of a config class (``SynthConfig``, ``ModelConfig``,
``OptimConfig``, ``TrainConfig``), and that class holds its default. A
plain-text config file (key = value) can set knobs, and explicit flags
override the file.
Exit codes: 0 success, 1 usage error, 2 data error (an unreadable input or
an unwritable output among them), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, fields, replace

import numpy as np

from . import __version__
from .cca_linear import CcaFitError
from .data_io import DataError, SynthConfig, generate_synthetic, load_features, save_features
from .diffcore import DiffError
from .evaluate import (BASELINES, cross_modal_map, evaluate_model, rank_list_rows, report_rows,
                       retrieval_embeddings, run_baseline, score_variants)
from .model import LOSS_NAMES, CheckpointError, ModelConfig
from .optim import OptimConfig
from .trainer import TrainConfig, epoch_log_rows, load_checkpoint, save_checkpoint, train


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _widths(raw):
    """'auto' or a comma-separated list of layer widths."""
    return raw if raw == "auto" else tuple(int(w) for w in raw.split(","))


def _bool(raw):
    word = raw.strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


# CLI key -> (config field, cast). The key is the config-file key and, with
# "-" for "_", the flag; a loss switch use_X is turned off by the flag --no-X.
# A knob sets the field of that name in every config class that has one.
KNOBS = {
    "epochs": ("epochs", int), "batch_size": ("batch_size", int),
    "mask_ratio": ("mask_ratio", float), "k": ("k", int), "tau": ("tau", float),
    "warmup_epochs": ("warmup_epochs", int), "seed": ("seed", int),
    "lr": ("lr0", float), "weight_decay": ("weight_decay", float),
    "clip_norm": ("clip_norm", float), "t_max": ("cosine_t_max", int),
    "heads": ("heads", int), "proj_dim": ("proj_dim", int), "dropout": ("dropout", float),
    "cca_post_dim": ("cca_post_dim", int),
    "audio_widths": ("audio_widths", _widths), "visual_widths": ("visual_widths", _widths),
    **{f"use_{name}": (f"use_{name}", _bool) for name in LOSS_NAMES},
    "eval_every": ("eval_every", int),
    "classes": ("classes", int), "per_class": ("per_class", int),
    "d_audio": ("d_audio", int), "d_visual": ("d_visual", int),
    "noise": ("noise_scale", float), "mean_scale": ("mean_scale", float),
}


def _knob_keys(*classes):
    names = {f.name for cls in classes for f in fields(cls)}
    return [key for key, (name, _) in KNOBS.items() if name in names]


def read_config_file(path):
    """key -> (raw value, "file:line") for each ``key = value`` line."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except IsADirectoryError:
        raise UsageError(f"{path}: is a directory, not a config file") from None
    except OSError as exc:
        raise UsageError(f"{path}: cannot read config file: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: config file is not UTF-8 text (byte {exc.start})") from None
    values = {}
    for ln, line in enumerate(text.split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in KNOBS:
            raise UsageError(f"{path}:{ln}: unknown key {key!r}")
        values[key] = (value, f"{path}:{ln}")
    return values


def knob(args, key):
    """A knob's flag value, else its config-file value, else None. A file
    value its cast rejects is a usage error naming its file, line and key."""
    value = getattr(args, key, None)
    if value is None and key in args._file_values:
        raw, where = args._file_values[key]
        try:
            value = KNOBS[key][1](raw)
        except ValueError:
            raise UsageError(f"{where}: cannot parse {key} = {raw!r}") from None
    return value


def build(config_class, args, **fixed):
    """``config_class`` with the fields that a flag or the config file sets,
    then ``fixed``; every other field keeps the class's default. A value the
    class rejects is a usage error."""
    values = {KNOBS[key][0]: value for key in _knob_keys(config_class)
              if (value := knob(args, key)) is not None}
    try:
        return config_class(**{**values, **fixed})
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _trunk(args, key, d_in):
    """Encoder widths from a knob; 'auto' or unset is ModelConfig's trunk
    on the data dim."""
    widths = knob(args, key)
    if widths in (None, "auto"):
        return (d_in,) + getattr(ModelConfig, key)[1:]
    if widths[0] != d_in:
        raise DataError(f"encoder widths {widths} do not start at the data dim {d_in}")
    return widths


def build_train_config(args, d_audio, d_visual):
    """The TrainConfig of flags > config file > the config classes' defaults."""
    model = build(ModelConfig, args, audio_widths=_trunk(args, "audio_widths", d_audio),
                  visual_widths=_trunk(args, "visual_widths", d_visual))
    return build(TrainConfig, args, model=model, optim=build(OptimConfig, args))


def _dims(data):
    return data.audio.shape[1], data.visual.shape[1]


def load_matching(path, dims, source):
    """``load_features`` of a split to be scored, which must have the
    audio/visual dims ``dims`` of ``source`` and class labels; other dims, or
    no labels, are a data error."""
    data = load_features(path)
    d_audio, d_visual = _dims(data)
    if (d_audio, d_visual) != dims:
        raise DataError(f"{path}: feature dims {d_audio}/{d_visual} differ from the "
                        f"{dims[0]}/{dims[1]} of {source}")
    if data.labels is None:
        raise DataError(f"{path}: evaluation needs class labels")
    return data


def check_batch_size(cfg, n):
    """Training drops incomplete batches, so a batch larger than the split
    would leave no step to take."""
    if cfg.batch_size > n:
        raise UsageError(f"batch_size {cfg.batch_size} exceeds the {n} samples of the training split")


# the options of every subcommand that name a file it writes
OUTPUTS = ("out_train", "out_test", "out", "log_csv", "manifest", "report_csv", "ranklists_csv", "out_csv")


def check_outputs(args):
    """Open every output path for appending before any work starts, so that
    a path that cannot be written fails at once, as a data error naming it.
    A file this creates is removed again; an existing one is left as it was."""
    for key in OUTPUTS:
        path = getattr(args, key, None)
        if path is None:
            continue
        existed = os.path.lexists(path)
        try:
            with open(path, "a"):
                pass
        except OSError as exc:
            raise DataError(f"{path}: cannot write: {exc.strerror}") from None
        if not existed:
            os.remove(path)


def write_manifest(path, command, config, outputs, seed, elapsed=None):
    payload = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": config,
        "outputs": outputs,
        "elapsed_seconds": elapsed,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _write_lines(path, rows):
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args):
    cfg = build(SynthConfig, args, warp=not args.no_warp)
    train_set, test_set = generate_synthetic(cfg)
    save_features(args.out_train, train_set)
    save_features(args.out_test, test_set)
    if args.manifest:
        write_manifest(args.manifest, "synth", asdict(cfg),
                       {"train": args.out_train, "test": args.out_test}, cfg.seed)
    print(f"wrote {train_set.n} train samples to {args.out_train}, "
          f"{test_set.n} test samples to {args.out_test}")
    return 0


def cmd_train(args):
    data = load_features(args.features)
    eval_set = (load_matching(args.eval_features, _dims(data), f"training split {args.features}")
                if args.eval_features else None)
    score = None if eval_set is None else lambda mp: evaluate_model(mp, None, eval_set)
    cfg = build_train_config(args, *_dims(data))
    if eval_set is not None and not cfg.eval_every:
        raise UsageError("--eval-features needs eval_every >= 1 (--eval-every or the config file)")
    check_batch_size(cfg, data.n)
    start = time.monotonic()
    result = train(data.unlabeled(), cfg, score=score)
    elapsed = time.monotonic() - start
    save_checkpoint(args.out, result)
    if args.log_csv:
        _write_lines(args.log_csv, epoch_log_rows(result.logs))
    if args.manifest:
        write_manifest(args.manifest, "train", asdict(cfg),
                       {"checkpoint": args.out, "log_csv": args.log_csv}, cfg.seed, elapsed)
    print(f"trained {cfg.epochs} epochs in {elapsed:.1f}s; checkpoint at {args.out}")
    return 0


def cmd_eval(args):
    mp, cca_model = load_checkpoint(args.checkpoint)
    data = load_matching(args.features, (mp.config.d_audio, mp.config.d_visual),
                         f"checkpoint {args.checkpoint}")
    za, zv = retrieval_embeddings(mp, cca_model, data.audio, data.visual)
    del mp  # the parameter arena is freed before the ranking
    report = cross_modal_map(za, zv, data.labels)
    if args.report_csv:
        _write_lines(args.report_csv, report_rows([("model", report)]))
    if args.ranklists_csv:
        _write_lines(args.ranklists_csv, rank_list_rows(za, zv, data.labels))
    print(f"mAP A2V {report.map_a2v:.4f}  V2A {report.map_v2a:.4f}  avg {report.map_avg:.4f}")
    return 0


def load_experiment(args):
    """The training split, the test split and the TrainConfig of baseline,
    sweep and ablate."""
    train_set = load_features(args.train_features)
    test_set = load_matching(args.test_features, _dims(train_set),
                             f"training split {args.train_features}")
    return train_set, test_set, build_train_config(args, *_dims(train_set))


def cmd_baseline(args):
    train_set, test_set, cfg = load_experiment(args)
    if args.name == "infonce-single":  # the only baseline that trains
        check_batch_size(cfg, train_set.n)
    report = run_baseline(args.name, train_set, test_set, cfg)
    if args.report_csv:
        _write_lines(args.report_csv, report_rows([(args.name, report)]))
    print(f"{args.name}: mAP A2V {report.map_a2v:.4f}  V2A {report.map_v2a:.4f}  "
          f"avg {report.map_avg:.4f}")
    return 0


def write_scores(path, label, grid, train_set, test_set):
    """Train and score the TrainConfig of each (label cells, TrainConfig)
    pair of ``grid``, then write one CSV row per pair: its label cells, then
    its report cells."""
    cells, variants = zip(*grid)
    _write_lines(path, report_rows(zip(cells, score_variants(train_set, test_set, variants)), label))


DEFAULT_SWEEP_RATIOS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)


def cmd_sweep(args):
    train_set, test_set, cfg = load_experiment(args)
    check_batch_size(cfg, train_set.n)
    try:
        ratios = tuple(float(r) for r in args.ratios.split(",")) if args.ratios else DEFAULT_SWEEP_RATIOS
        # each ratio is range-checked here, before any training
        grid = [(repr(ratio), replace(cfg, mask_ratio=ratio)) for ratio in ratios]
    except ValueError as exc:
        raise UsageError(f"--ratios: {exc}") from None
    write_scores(args.out_csv, "ratio", grid, train_set, test_set)
    print(f"swept {len(grid)} mask ratios; results in {args.out_csv}")
    return 0


ABLATION_ROWS = (  # (cca, rec, infonce, dis) flag combinations
    (True, True, True, True),
    (False, True, True, True),
    (True, True, True, False),
    (True, True, False, True),
    (True, True, False, False),
    (True, False, False, True),
    (True, False, False, False),
)


def cmd_ablate(args):
    train_set, test_set, cfg = load_experiment(args)
    check_batch_size(cfg, train_set.n)
    grid = [(",".join(str(int(flag)) for flag in row),
             replace(cfg, use_cca=row[0], use_rec=row[1], use_infonce=row[2], use_dis=row[3]))
            for row in ABLATION_ROWS]
    write_scores(args.out_csv, "cca,rec,infonce,dis", grid, train_set, test_set)
    print(f"ran {len(grid)} ablation rows; results in {args.out_csv}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_knob_flags(p, keys):
    """--config plus one flag per knob in ``keys``; an unset flag is None,
    so the config file and then the config class decide."""
    p.add_argument("--config", help="key = value config file; flags override it")
    for key in keys:
        cast = KNOBS[key][1]
        if cast is _bool:
            p.add_argument("--no-" + key.removeprefix("use_"), dest=key, action="store_false",
                           default=None)
        else:
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=cast)


def build_parser():
    parser = Parser(prog="hscmae", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    train_keys = _knob_keys(TrainConfig, ModelConfig, OptimConfig)
    experiment_keys = [key for key in train_keys if key != "eval_every"]

    p = sub.add_parser("synth", help="generate synthetic paired feature files")
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.add_argument("--no-warp", action="store_true")
    p.add_argument("--manifest")
    _add_knob_flags(p, _knob_keys(SynthConfig))
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on a paired feature file")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log-csv", dest="log_csv")
    p.add_argument("--manifest")
    p.add_argument("--eval-features", dest="eval_features")
    _add_knob_flags(p, train_keys)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a labeled test file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--report-csv", dest="report_csv")
    p.add_argument("--ranklists-csv", dest="ranklists_csv")
    p.set_defaults(func=cmd_eval)

    for name, help_text, func, own in (
            ("baseline", "run a reference system", cmd_baseline, ("--report-csv",)),
            ("sweep", "mask-ratio sweep, one training per ratio", cmd_sweep, ("--out-csv", "--ratios")),
            ("ablate", "run the loss-flag ablation grid", cmd_ablate, ("--out-csv",))):
        p = sub.add_parser(name, help=help_text)
        if name == "baseline":
            p.add_argument("--name", required=True, choices=BASELINES)
        for flag in ("--train-features", "--test-features", *own):
            p.add_argument(flag, required=flag in ("--train-features", "--test-features", "--out-csv"))
        _add_knob_flags(p, experiment_keys)
        p.set_defaults(func=func)

    return parser


def parse_args(argv=None):
    """The parsed flags, with the ``--config`` file's values attached."""
    args = build_parser().parse_args(argv)
    args._file_values = read_config_file(args.config) if getattr(args, "config", None) else {}
    return args


def main(argv=None):
    try:
        args = parse_args(argv)
        check_outputs(args)
        with np.errstate(all="ignore"):  # the finiteness checks report; no value changes
            return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size no allocation can meet; numpy's message gives the bytes
        print(f"usage error: cannot allocate memory: {exc}", file=sys.stderr)
        return 1
    except (DataError, CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (DiffError, CcaFitError, np.linalg.LinAlgError) as exc:  # NumericError is a DiffError
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
