"""Command-line front end: synth, train, eval, baseline, sweep, ablate.

Defaults follow the AVE training recipe; a plain-text config file
(key = value) can override them, and explicit flags override the file.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .cca_linear import CcaFitError
from .data_io import DataError, FeatureSet, SynthConfig, generate_synthetic, load_features, save_features
from .diffcore import DiffError
from .evaluate import (BASELINES, DEFAULT_SWEEP_RATIOS, cross_modal_map, evaluate_model,
                       mask_ratio_sweep, rank_list_rows, report_rows, retrieval_embeddings,
                       run_baseline)
from .model import LOSS_NAMES, CheckpointError, ModelConfig
from .optim import OptimConfig
from .trainer import TrainConfig, epoch_log_rows, load_checkpoint, save_checkpoint, train


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


DEFAULTS = {
    "epochs": 100, "batch_size": 400, "mask_ratio": 0.2, "k": 5, "tau": 0.05,
    "warmup_epochs": 5, "seed": 0, "eval_every": 0,
    "lr": 3e-4, "weight_decay": 1e-4, "clip_norm": 1.0, "t_max": 50,
    "heads": 64, "proj_dim": 32, "dropout": 0.2, "cca_post_dim": 10,
    "audio_widths": "auto", "visual_widths": "auto",
    "classes": 8, "per_class": 250, "d_audio": 12, "d_visual": 24,
    "noise": 0.8, "mean_scale": 1.0,
    **{f"use_{name}": True for name in LOSS_NAMES},
}


def read_config_file(path):
    """key -> (raw value, "file:line") for each ``key = value`` line."""
    values = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{ln}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in DEFAULTS:
                raise UsageError(f"{path}:{ln}: unknown key {key!r}")
            values[key] = (value, f"{path}:{ln}")
    return values


def resolve(args, key, cast=None):
    """CLI flag > config file > built-in default. A config-file value that
    ``cast`` rejects is a usage error naming its file, line and key."""
    cli_value = getattr(args, key, None)
    if cli_value is not None:
        return cli_value
    file_values = getattr(args, "_file_values", {})
    if key in file_values:
        raw, where = file_values[key]
        try:
            return cast(raw) if cast else raw
        except ValueError:
            raise UsageError(f"{where}: cannot parse {key} = {raw!r}") from None
    return DEFAULTS.get(key)


def _widths(raw):
    """'auto' or a comma-separated list of layer widths."""
    return raw if raw == "auto" else tuple(int(w) for w in raw.split(","))


def _parse_widths(widths, d_in):
    if widths == "auto":
        return (d_in, 1024, 1024, 1024)
    if widths[0] != d_in:
        raise DataError(f"encoder widths {widths} do not start at the data dim {d_in}")
    return widths


def _bool(raw):
    word = raw.strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def build_train_config(args, d_audio, d_visual):
    """The TrainConfig of flags > config file > defaults; a value the config
    constructors reject is a usage error."""
    try:
        return _train_config(args, d_audio, d_visual)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _train_config(args, d_audio, d_visual):
    model = ModelConfig(
        audio_widths=_parse_widths(resolve(args, "audio_widths", _widths), d_audio),
        visual_widths=_parse_widths(resolve(args, "visual_widths", _widths), d_visual),
        heads=resolve(args, "heads", int),
        proj_dim=resolve(args, "proj_dim", int),
        dropout=resolve(args, "dropout", float),
    )
    optim = OptimConfig(
        lr0=resolve(args, "lr", float),
        weight_decay=resolve(args, "weight_decay", float),
        clip_norm=resolve(args, "clip_norm", float),
        cosine_t_max=resolve(args, "t_max", int),
    )
    use = {name: not getattr(args, f"no_{name}", False) and resolve(args, f"use_{name}", _bool)
           for name in LOSS_NAMES}
    if not any(use.values()):
        raise UsageError("all loss terms disabled; enable at least one")
    return TrainConfig(
        model=model, optim=optim,
        epochs=resolve(args, "epochs", int),
        batch_size=resolve(args, "batch_size", int),
        mask_ratio=resolve(args, "mask_ratio", float),
        k=resolve(args, "k", int),
        tau=resolve(args, "tau", float),
        warmup_epochs=resolve(args, "warmup_epochs", int),
        use_rec=use["rec"], use_cca=use["cca"], use_infonce=use["infonce"], use_dis=use["dis"],
        cca_post_dim=resolve(args, "cca_post_dim", int),
        seed=resolve(args, "seed", int),
        eval_every=resolve(args, "eval_every", int),
    )


def check_batch_size(cfg, n):
    """Training drops incomplete batches, so a batch larger than the split
    would leave no step to take."""
    if cfg.batch_size > n:
        raise UsageError(f"batch_size {cfg.batch_size} exceeds the {n} samples of the training split")


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
    cfg = SynthConfig(
        classes=resolve(args, "classes", int),
        per_class=resolve(args, "per_class", int),
        d_audio=resolve(args, "d_audio", int),
        d_visual=resolve(args, "d_visual", int),
        mean_scale=resolve(args, "mean_scale", float),
        noise_scale=resolve(args, "noise", float),
        warp=not args.no_warp,
        seed=resolve(args, "seed", int),
    )
    if args.manifest:
        write_manifest(args.manifest, "synth", asdict(cfg),
                       {"train": args.out_train, "test": args.out_test}, cfg.seed)
    train_set, test_set = generate_synthetic(cfg)
    save_features(args.out_train, train_set)
    save_features(args.out_test, test_set)
    print(f"wrote {train_set.n} train samples to {args.out_train}, "
          f"{test_set.n} test samples to {args.out_test}")
    return 0


def cmd_train(args):
    data = load_features(args.features, split="train")
    cfg = build_train_config(args, data.audio.shape[1], data.visual.shape[1])
    check_batch_size(cfg, data.n)
    eval_set = load_features(args.eval_features, split="test") if args.eval_features else None
    if args.manifest:
        write_manifest(args.manifest, "train", asdict(cfg),
                       {"checkpoint": args.out, "log_csv": args.log_csv}, cfg.seed)
    start = time.monotonic()
    result = train(data.unlabeled(), cfg, eval_set=eval_set)
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
    data = load_features(args.features, split="test")
    if data.labels is None:
        raise DataError(f"{args.features}: evaluation needs class labels")
    za, zv = retrieval_embeddings(mp, cca_model, data.audio, data.visual)
    report = cross_modal_map(za, zv, data.labels)
    if args.report_csv:
        _write_lines(args.report_csv, report_rows([("model", report)]))
    if args.ranklists_csv:
        _write_lines(args.ranklists_csv, rank_list_rows(za, zv, data.labels))
    print(f"mAP A2V {report.map_a2v:.4f}  V2A {report.map_v2a:.4f}  avg {report.map_avg:.4f}")
    return 0


def cmd_baseline(args):
    train_set = load_features(args.train_features, split="train")
    test_set = load_features(args.test_features, split="test")
    cfg = build_train_config(args, train_set.audio.shape[1], train_set.visual.shape[1])
    if args.name == "infonce-single":  # the only baseline that trains
        check_batch_size(cfg, train_set.n)
    report = run_baseline(args.name, train_set, test_set, cfg)
    if args.report_csv:
        _write_lines(args.report_csv, report_rows([(args.name, report)]))
    print(f"{args.name}: mAP A2V {report.map_a2v:.4f}  V2A {report.map_v2a:.4f}  "
          f"avg {report.map_avg:.4f}")
    return 0


def cmd_sweep(args):
    train_set = load_features(args.train_features, split="train")
    test_set = load_features(args.test_features, split="test")
    cfg = build_train_config(args, train_set.audio.shape[1], train_set.visual.shape[1])
    check_batch_size(cfg, train_set.n)
    try:
        ratios = tuple(float(r) for r in args.ratios.split(",")) if args.ratios else DEFAULT_SWEEP_RATIOS
        for ratio in ratios:
            replace(cfg, mask_ratio=ratio)  # range-checks each ratio before any training
    except ValueError as exc:
        raise UsageError(f"--ratios: {exc}") from None
    rows = mask_ratio_sweep(train_set, test_set, cfg, ratios)
    lines = ["ratio,map_a2v,map_v2a,map_avg,gap"]
    lines += [",".join(repr(v) for v in row) for row in rows]
    _write_lines(args.out_csv, lines)
    print(f"swept {len(rows)} mask ratios; results in {args.out_csv}")
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
    train_set = load_features(args.train_features, split="train")
    test_set = load_features(args.test_features, split="test")
    cfg = build_train_config(args, train_set.audio.shape[1], train_set.visual.shape[1])
    check_batch_size(cfg, train_set.n)
    lines = ["cca,rec,infonce,dis,map_a2v,map_v2a,map_avg,gap"]
    for cca, rec, infonce, dis in ABLATION_ROWS:
        variant = replace(cfg, use_cca=cca, use_rec=rec, use_infonce=infonce, use_dis=dis)
        result = train(train_set.unlabeled(), variant)
        report = evaluate_model(result.params, result.cca_model, test_set)
        lines.append(f"{int(cca)},{int(rec)},{int(infonce)},{int(dis)},"
                     f"{report.map_a2v!r},{report.map_v2a!r},{report.map_avg!r},{report.gap!r}")
    _write_lines(args.out_csv, lines)
    print(f"ran {len(ABLATION_ROWS)} ablation rows; results in {args.out_csv}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_train_flags(p):
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--mask-ratio", type=float, dest="mask_ratio")
    p.add_argument("--k", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--warmup-epochs", type=int, dest="warmup_epochs")
    p.add_argument("--seed", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--clip-norm", type=float, dest="clip_norm")
    p.add_argument("--t-max", type=int, dest="t_max")
    p.add_argument("--heads", type=int)
    p.add_argument("--proj-dim", type=int, dest="proj_dim")
    p.add_argument("--dropout", type=float)
    p.add_argument("--cca-post-dim", type=int, dest="cca_post_dim")
    p.add_argument("--audio-widths", dest="audio_widths", type=_widths)
    p.add_argument("--visual-widths", dest="visual_widths", type=_widths)
    p.add_argument("--no-cca", action="store_true")
    p.add_argument("--no-rec", action="store_true")
    p.add_argument("--no-infonce", action="store_true")
    p.add_argument("--no-dis", action="store_true")


def build_parser():
    parser = Parser(prog="hscmae", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic paired feature files")
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.add_argument("--classes", type=int)
    p.add_argument("--per-class", type=int, dest="per_class")
    p.add_argument("--d-audio", type=int, dest="d_audio")
    p.add_argument("--d-visual", type=int, dest="d_visual")
    p.add_argument("--noise", type=float)
    p.add_argument("--mean-scale", type=float, dest="mean_scale")
    p.add_argument("--no-warp", action="store_true")
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on a paired feature file")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log-csv", dest="log_csv")
    p.add_argument("--manifest")
    p.add_argument("--eval-features", dest="eval_features")
    p.add_argument("--eval-every", type=int, dest="eval_every")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a labeled test file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--report-csv", dest="report_csv")
    p.add_argument("--ranklists-csv", dest="ranklists_csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("baseline", help="run a reference system")
    p.add_argument("--name", required=True, choices=BASELINES)
    p.add_argument("--train-features", required=True, dest="train_features")
    p.add_argument("--test-features", required=True, dest="test_features")
    p.add_argument("--report-csv", dest="report_csv")
    _add_train_flags(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("sweep", help="mask-ratio sweep, one training per ratio")
    p.add_argument("--train-features", required=True, dest="train_features")
    p.add_argument("--test-features", required=True, dest="test_features")
    p.add_argument("--out-csv", required=True, dest="out_csv")
    p.add_argument("--ratios")
    _add_train_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ablate", help="run the loss-flag ablation grid")
    p.add_argument("--train-features", required=True, dest="train_features")
    p.add_argument("--test-features", required=True, dest="test_features")
    p.add_argument("--out-csv", required=True, dest="out_csv")
    _add_train_flags(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args._file_values = read_config_file(args.config) if getattr(args, "config", None) else {}
        if getattr(args, "classes", None) is not None and args.classes < 2:
            raise UsageError("--classes must be at least 2")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, CheckpointError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (DiffError, CcaFitError, np.linalg.LinAlgError) as exc:  # NumericError is a DiffError
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
