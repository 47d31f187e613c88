"""End-to-end tests of the command-line front end, run in process."""

import argparse
import json
import os
import re
import resource
import shlex
import struct
import subprocess
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import hscmae.diffcore as dc
from hscmae import cli, evaluate, trainer
from hscmae.cli import build, build_parser, build_train_config, main, parse_args
from hscmae.data_io import FeatureSet, SynthConfig, load_features, save_features
from hscmae.model import ModelConfig, ModelParams, load_entries, save_entries
from hscmae.optim import OptimConfig
from hscmae.trainer import TrainConfig, load_checkpoint

SMALL_FLAGS = [
    "--audio-widths", "12,8,8", "--visual-widths", "24,8,8",
    "--heads", "2", "--proj-dim", "4", "--dropout", "0.1",
    "--epochs", "2", "--batch-size", "30", "--warmup-epochs", "1",
    "--cca-post-dim", "2", "--lr", "1e-3",
]


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("clidata")
    train_path = str(root / "train.bin")
    test_path = str(root / "test.bin")
    rc = main(["synth", "--out-train", train_path, "--out-test", test_path,
               "--classes", "2", "--per-class", "30", "--seed", "3"])
    assert rc == 0
    return train_path, test_path


@pytest.fixture(scope="module")
def trained(data_files, tmp_path_factory):
    train_path, test_path = data_files
    root = tmp_path_factory.mktemp("clickpt")
    ckpt = str(root / "model.ckpt")
    log_csv = str(root / "log.csv")
    manifest = str(root / "manifest.json")
    rc = main(["train", "--features", train_path, "--out", ckpt,
               "--log-csv", log_csv, "--manifest", manifest, "--seed", "1",
               *SMALL_FLAGS])
    assert rc == 0
    return ckpt, log_csv, manifest


def test_synth_outputs(data_files):
    train_path, test_path = data_files
    train_set = load_features(train_path)
    test_set = load_features(test_path, split="test")
    assert train_set.n == 60 and test_set.n == 15
    assert train_set.audio.shape[1] == 12 and train_set.visual.shape[1] == 24
    assert train_set.labels is not None


def test_train_outputs(trained):
    ckpt, log_csv, manifest = trained
    mp, cca_model = load_checkpoint(ckpt)
    assert mp.config.proj_dim == 4
    assert cca_model.rho.size == 2
    assert not any(name.startswith("teacher/") for name in load_entries(ckpt))
    lines = open(log_csv).read().strip().split("\n")
    assert lines[0].startswith("epoch,")
    assert len(lines) == 3
    payload = json.load(open(manifest))
    assert payload["command"] == "train"
    assert payload["seed"] == 1
    assert payload["elapsed_seconds"] is not None


def test_eval_command(trained, data_files, tmp_path):
    ckpt, _, _ = trained
    _, test_path = data_files
    report_csv = str(tmp_path / "report.csv")
    ranks_csv = str(tmp_path / "ranks.csv")
    rc = main(["eval", "--checkpoint", ckpt, "--features", test_path,
               "--report-csv", report_csv, "--ranklists-csv", ranks_csv])
    assert rc == 0
    lines = open(report_csv).read().strip().split("\n")
    assert lines[0] == "name,map_a2v,map_v2a,map_avg,gap"
    avg = float(lines[1].split(",")[3])
    assert 0.0 <= avg <= 1.0
    assert open(ranks_csv).readline().strip() == "query,rank,gallery,relevant"


def test_old_format_checkpoint_evaluates_the_same(trained, data_files, tmp_path, capsys):
    # older checkpoints also hold fusion Q/K weights and a teacher copy
    ckpt, _, _ = trained
    _, test_path = data_files
    entries = load_entries(ckpt)
    rng = np.random.default_rng(0)
    old = dict(entries)
    for name, arr in entries.items():
        if not name.startswith(("config/", "cca/")):
            old[f"teacher/{name}"] = arr + rng.normal(size=arr.shape)
    for direction in ("a2v", "v2a"):
        for proj in ("wq", "wk"):
            old[f"fuse.{direction}.{proj}"] = rng.normal(size=entries[f"fuse.{direction}.wv"].shape)
    old_ckpt = str(tmp_path / "old.ckpt")
    save_entries(old_ckpt, old)
    outputs = []
    for path in (ckpt, old_ckpt):
        report_csv = tmp_path / "report.csv"
        assert main(["eval", "--checkpoint", path, "--features", test_path,
                     "--report-csv", str(report_csv)]) == 0
        outputs.append((capsys.readouterr().out, report_csv.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("entry, cut", [
    ("cca/A", None), ("dec.v.1.w", None),
    ("enc.a.0.w", np.s_[:1]),  # a (1, 8) weight would broadcast silently into (12, 8)
    ("cca/A", np.s_[:1]), ("cca/B", np.s_[:, :1]), ("cca/mean_v", np.s_[:, :3]),
    ("cca/mean_a", np.s_[[0, 0]]), ("cca/rho", np.s_[:, :0]),
], ids=("missing-cca", "missing-weight", "wrong-shape", "cca-directions-rows",
        "cca-directions-columns", "cca-mean-width", "cca-mean-rows", "cca-rho-empty"))
def test_corrupt_checkpoint_exits_two(trained, data_files, tmp_path, capsys, entry, cut):
    ckpt, _, _ = trained
    _, test_path = data_files
    entries = load_entries(ckpt)
    if cut is None:
        del entries[entry]
    else:
        entries[entry] = entries[entry][cut]
    bad = str(tmp_path / "bad.ckpt")
    save_entries(bad, entries)
    assert main(["eval", "--checkpoint", bad, "--features", test_path]) == 2
    err = capsys.readouterr().err
    assert bad in err and repr(entry) in err


@pytest.mark.parametrize("heads, reason", [([[0.0]], "heads must be >= 1"),
                                           ([[np.inf]], "infinity"),
                                           (np.zeros((1, 0)), "out of bounds")],
                         ids=("zero", "inf", "empty"))
def test_invalid_config_entry_exits_two(trained, data_files, tmp_path, capsys, heads, reason):
    ckpt, _, _ = trained
    _, test_path = data_files
    entries = load_entries(ckpt)
    entries["config/heads"] = np.asarray(heads)
    bad = str(tmp_path / "bad.ckpt")
    save_entries(bad, entries)
    assert main(["eval", "--checkpoint", bad, "--features", test_path]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: config/* entries describe no valid model" in err and reason in err


def test_huge_config_width_exits_two(trained, data_files, tmp_path, capsys):
    # the model is built from the entries, so the width is refused before 96 TiB is asked for
    ckpt, _, _ = trained
    _, test_path = data_files
    entries = load_entries(ckpt)
    entries["config/audio_widths"] = np.array([[12.0, 2.0 ** 40, 8.0]])
    bad = str(tmp_path / "huge.ckpt")
    save_entries(bad, entries)
    assert main(["eval", "--checkpoint", bad, "--features", test_path]) == 2
    assert (f"{bad}: entry 'enc.a.0.w' has shape (12, 8), the model expects (12, {2 ** 40})"
            in capsys.readouterr().err)


def test_duplicate_checkpoint_entry_exits_two(trained, data_files, tmp_path, capsys):
    ckpt, _, _ = trained
    _, test_path = data_files
    # save_entries takes a dict, so append a second 'enc.a.0.w' record by hand
    weight = load_entries(ckpt)["enc.a.0.w"]
    name = b"enc.a.0.w"
    record = (struct.pack("<I", len(name)) + name + struct.pack("<II", *weight.shape)
              + weight.astype("<f8").tobytes())
    bad = tmp_path / "dup.ckpt"
    with open(ckpt, "rb") as fh:
        bad.write_bytes(fh.read() + record)
    assert main(["eval", "--checkpoint", str(bad), "--features", test_path]) == 2
    assert f"{bad}: duplicate entry 'enc.a.0.w'" in capsys.readouterr().err


@pytest.mark.parametrize("entry, value, problem", [
    ("enc.v.1.w", np.nan, "holds a non-finite value"),
    ("cca/A", np.inf, "holds a non-finite value"),
    ("enc.a.0.bn.var", -5.0, "holds a negative variance"),
    ("sigma.rec", np.nan, "holds a non-finite value"),
], ids=("nan-weight", "inf-cca", "negative-var", "nan-sigma"))
def test_non_finite_checkpoint_exits_two_before_any_compute(trained, data_files, tmp_path, capsys,
                                                            entry, value, problem):
    ckpt, _, _ = trained
    _, test_path = data_files
    entries = load_entries(ckpt)
    entries[entry][...] = value
    bad = str(tmp_path / "bad.ckpt")
    save_entries(bad, entries)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would mean compute ran
        assert main(["eval", "--checkpoint", bad, "--features", test_path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"data error: {bad}: entry {entry!r} {problem}\n"


def test_non_utf8_entry_name_exits_two(trained, data_files, tmp_path, capsys):
    ckpt, _, _ = trained
    _, test_path = data_files
    record = struct.pack("<I", 2) + b"a\xff" + struct.pack("<II", 1, 1) + np.zeros(1).tobytes()
    bad = tmp_path / "name.ckpt"
    with open(ckpt, "rb") as fh:
        blob = fh.read()
    bad.write_bytes(blob + record)
    assert main(["eval", "--checkpoint", str(bad), "--features", test_path]) == 2
    assert f"{bad}: entry name at offset {len(blob) + 4} is not UTF-8" in capsys.readouterr().err


def test_malformed_features_exit_two(trained, data_files, tmp_path, capsys):
    ckpt, _, _ = trained
    _, test_path = data_files
    test_set = load_features(test_path, split="test")
    csv_path = tmp_path / "test.csv"
    save_features(csv_path, test_set)
    lines = csv_path.read_text().split("\n")
    cells = lines[2].split(",")
    cells[1] = "x"
    bad_cell = tmp_path / "cell.csv"
    bad_cell.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]))
    header_only = tmp_path / "header.csv"
    header_only.write_text(lines[0] + "\n")
    label_byte = tmp_path / "labels.bin"
    blob = bytearray(open(test_path, "rb").read())
    blob[20] = 7
    label_byte.write_bytes(bytes(blob))
    for path, reason in ((bad_cell, f"{bad_cell}:3: could not convert string to float: 'x'"),
                         (header_only, f"{header_only}: no data rows"),
                         (label_byte, f"{label_byte}: has-labels byte is 7, expected 0 or 1")):
        assert main(["eval", "--checkpoint", ckpt, "--features", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and reason in err


def test_feature_file_without_samples_exits_two(trained, data_files, tmp_path, capsys):
    # a container with n = 0 is refused on load, as a header-only CSV is:
    # before the first train step, and before mAP over no queries reads nan
    ckpt, _, _ = trained
    train_path, test_path = data_files
    empty = str(tmp_path / "empty.bin")
    save_features(empty, FeatureSet(audio=np.zeros((0, 12)), visual=np.zeros((0, 24)),
                                    labels=np.zeros(0, dtype=int)))
    out = tmp_path / "out"
    runs = (["eval", "--checkpoint", ckpt, "--features", empty, "--report-csv", str(out)],
            ["baseline", "--name", "cca", "--train-features", train_path, "--test-features", empty,
             "--report-csv", str(out), *SMALL_FLAGS],
            ["baseline", "--name", "random", "--train-features", train_path, "--test-features", empty,
             "--report-csv", str(out), *SMALL_FLAGS],
            ["train", "--features", empty, "--out", str(out), *SMALL_FLAGS],
            ["train", "--features", train_path, "--out", str(out), "--eval-features", empty,
             *SMALL_FLAGS])
    for argv in runs:
        assert main(argv) == 2
        out_text, err = capsys.readouterr()
        assert err == f"data error: {empty}: no samples\n" and "nan" not in out_text
    assert not out.exists()


def test_mismatched_feature_dims_exit_two(trained, data_files, tmp_path, capsys):
    # a file whose dims differ from the checkpoint's or the training split's is
    # refused before any work: nothing is trained and no output is written
    ckpt, _, _ = trained
    train_path, _ = data_files
    other = str(tmp_path / "other.bin")
    save_features(other, FeatureSet(audio=np.zeros((20, 7)), visual=np.zeros((20, 9)),
                                     labels=np.arange(20) % 2))
    out = tmp_path / "out"
    runs = (
        (["eval", "--checkpoint", ckpt, "--features", other, "--report-csv", str(out)],
         f"checkpoint {ckpt}"),
        (["train", "--features", train_path, "--out", str(out), "--eval-features", other,
          *SMALL_FLAGS], f"training split {train_path}"),
        (["baseline", "--name", "cca", "--train-features", train_path, "--test-features", other,
          "--report-csv", str(out), *SMALL_FLAGS], f"training split {train_path}"),
        (["sweep", "--train-features", train_path, "--test-features", other,
          "--out-csv", str(out), *SMALL_FLAGS], f"training split {train_path}"),
        (["ablate", "--train-features", train_path, "--test-features", other,
          "--out-csv", str(out), *SMALL_FLAGS], f"training split {train_path}"),
    )
    for argv, source in runs:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert f"{other}: feature dims 7/9 differ from the 12/24 of {source}" in err
    assert not out.exists()


def test_unlabeled_scored_split_exits_two(trained, data_files, tmp_path, capsys, monkeypatch):
    # every command that scores a test split refuses one without labels
    # before any training, and writes no output
    ckpt, _, _ = trained
    train_path, _ = data_files
    unlabeled = str(tmp_path / "unlabeled.bin")
    save_features(unlabeled, FeatureSet(audio=np.zeros((20, 12)), visual=np.zeros((20, 24)), labels=None))

    def no_training(*args, **kwargs):
        raise AssertionError("trained before checking the labels")

    monkeypatch.setattr(cli, "train", no_training)
    monkeypatch.setattr(evaluate, "train", no_training)
    out = tmp_path / "out"
    runs = (
        ["eval", "--checkpoint", ckpt, "--features", unlabeled, "--report-csv", str(out)],
        ["train", "--features", train_path, "--out", str(out), "--eval-features", unlabeled,
         "--eval-every", "1", *SMALL_FLAGS],
        *(["baseline", "--name", name, "--train-features", train_path, "--test-features", unlabeled,
           "--report-csv", str(out), *SMALL_FLAGS] for name in ("cca", "random")),
        *([command, "--train-features", train_path, "--test-features", unlabeled,
           "--out-csv", str(out), *SMALL_FLAGS] for command in ("sweep", "ablate")),
    )
    for argv in runs:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"data error: {unlabeled}: evaluation needs class labels\n"
    assert not out.exists()


@pytest.mark.parametrize("widths", [[[12.0, 0.0, 8.0]], [[12.0, -3.0, 8.0]]], ids=("zero", "negative"))
def test_nonpositive_config_width_exits_two(trained, data_files, tmp_path, capsys, widths):
    ckpt, _, _ = trained
    _, test_path = data_files
    entries = load_entries(ckpt)
    entries["config/audio_widths"] = np.array(widths)
    bad = str(tmp_path / "bad.ckpt")
    save_entries(bad, entries)
    assert main(["eval", "--checkpoint", bad, "--features", test_path]) == 2
    assert "encoder widths must be >= 1" in capsys.readouterr().err


def test_baseline_commands(data_files, tmp_path):
    train_path, test_path = data_files
    for name in ("random", "cca"):
        report_csv = str(tmp_path / f"{name}.csv")
        rc = main(["baseline", "--name", name, "--train-features", train_path,
                   "--test-features", test_path, "--report-csv", report_csv,
                   *SMALL_FLAGS])
        assert rc == 0
        assert open(report_csv).read().startswith("name,")


def test_sweep_command(data_files, tmp_path):
    train_path, test_path = data_files
    out_csv = str(tmp_path / "sweep.csv")
    rc = main(["sweep", "--train-features", train_path, "--test-features", test_path,
               "--out-csv", out_csv, "--ratios", "0.0,0.3", *SMALL_FLAGS])
    assert rc == 0
    lines = open(out_csv).read().strip().split("\n")
    assert lines[0] == "ratio,map_a2v,map_v2a,map_avg,gap"
    assert len(lines) == 3


def test_ablate_command(data_files, tmp_path):
    train_path, test_path = data_files
    out_csv = str(tmp_path / "ablate.csv")
    rc = main(["ablate", "--train-features", train_path, "--test-features", test_path,
               "--out-csv", out_csv, *SMALL_FLAGS, "--epochs", "1"])
    assert rc == 0
    lines = open(out_csv).read().strip().split("\n")
    assert lines[0] == "cca,rec,infonce,dis,map_a2v,map_v2a,map_avg,gap"
    assert len(lines) == 8
    assert lines[1].startswith("1,1,1,1,")


def test_train_byte_identical_reruns(data_files, tmp_path):
    train_path, _ = data_files
    outputs = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"{tag}.ckpt"
        log = tmp_path / f"{tag}.csv"
        rc = main(["train", "--features", train_path, "--out", str(ckpt),
                   "--log-csv", str(log), "--seed", "7", *SMALL_FLAGS])
        assert rc == 0
        outputs.append((ckpt.read_bytes(), log.read_bytes()))
    assert outputs[0] == outputs[1]


def test_config_file_and_flag_precedence(data_files, tmp_path):
    train_path, _ = data_files
    config = tmp_path / "run.cfg"
    config.write_text(
        "epochs = 5  # overridden by the flag below\n"
        "proj-dim = 4\n"
        "heads = 2\n"
        "audio-widths = 12,8,8\n"
        "visual-widths = 24,8,8\n"
        "batch-size = 30\n"
        "warmup-epochs = 1\n"
        "cca-post-dim = 2\n"
        "use_dis = false\n"
    )
    ckpt = str(tmp_path / "cfg.ckpt")
    log = tmp_path / "cfg.csv"
    rc = main(["train", "--features", train_path, "--out", ckpt,
               "--log-csv", str(log), "--config", str(config), "--epochs", "1"])
    assert rc == 0
    lines = log.read_text().strip().split("\n")
    assert len(lines) == 2  # the flag won over the file value
    # use_dis = false zeroes the distillation column
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert float(row[header.index("l_dis")]) == 0.0


def test_config_typo_exits_one(data_files, tmp_path, capsys):
    train_path, _ = data_files
    config = tmp_path / "typo.cfg"
    config.write_text("batch-size = 30\nepochz = 3\n")
    assert main(["train", "--features", train_path, "--out", str(tmp_path / "x.ckpt"),
                 "--config", str(config), *SMALL_FLAGS]) == 1
    assert f"{config}:2: unknown key 'epochz'" in capsys.readouterr().err


@pytest.mark.parametrize("line, key", [("epochs = abc", "epochs"), ("lr = 1e-3x", "lr"),
                                       ("audio-widths = 12,x,8", "audio_widths"),
                                       ("use_dis = flase", "use_dis")])
def test_config_unparsable_value_exits_one(data_files, tmp_path, capsys, line, key):
    train_path, _ = data_files
    config = tmp_path / "bad.cfg"
    config.write_text(f"batch-size = 30\n{line}\n")
    flags = list(SMALL_FLAGS)
    flag = "--" + key.replace("_", "-")
    if flag in flags:  # a flag would override the file value
        del flags[flags.index(flag):flags.index(flag) + 2]
    assert main(["train", "--features", train_path, "--out", str(tmp_path / "x.ckpt"),
                 "--config", str(config), *flags]) == 1
    assert f"{config}:2: cannot parse {key} = " in capsys.readouterr().err


def test_usage_errors_exit_one(data_files, tmp_path, capsys):
    train_path, test_path = data_files
    assert main(["synth", "--out-train", str(tmp_path / "t.bin"),
                 "--out-test", str(tmp_path / "e.bin"), "--classes", "1"]) == 1
    assert main(["train", "--features", train_path, "--out", str(tmp_path / "x.ckpt"),
                 "--no-rec", "--no-cca", "--no-infonce", "--no-dis",
                 *SMALL_FLAGS]) == 1
    assert main(["baseline", "--name", "bogus", "--train-features", train_path,
                 "--test-features", test_path]) == 1
    assert main(["train", "--features", train_path, "--out", str(tmp_path / "x.ckpt"),
                 *SMALL_FLAGS, "--audio-widths", "12,x,8"]) == 1
    capsys.readouterr()
    # synth values that SynthConfig rejects write nothing
    synth_out = ["--out-train", str(tmp_path / "t.bin"), "--out-test", str(tmp_path / "e.bin")]
    for flag, value, reason in (("--noise", "-1", "scales must be positive"),
                                ("--per-class", "-1", "per_class, d_audio"),
                                ("--per-class", "0", "per_class, d_audio"),
                                ("--d-audio", "0", "per_class, d_audio"),
                                ("--seed", "-3", "SynthConfig: seed must be >= 0, got -3")):
        assert main(["synth", *synth_out, flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and reason in err
    assert not (tmp_path / "t.bin").exists() and not (tmp_path / "e.bin").exists()
    classes = tmp_path / "classes.cfg"
    classes.write_text("classes = 1\n")
    not_utf8 = tmp_path / "latin1.cfg"
    not_utf8.write_bytes("k = 3 # caf\xe9\n".encode("latin-1"))
    directory = tmp_path / "dir.cfg"
    directory.mkdir()
    for config, reason in ((classes, "need at least 2 classes"),
                           (not_utf8, f"{not_utf8}: config file is not UTF-8"),
                           (directory, f"{directory}: is a directory")):
        assert main(["synth", *synth_out, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and reason in err
    # widths below 1, given or derived from a zero data dim
    zero_dim = str(tmp_path / "zero.bin")
    save_features(zero_dim, FeatureSet(audio=np.zeros((60, 0)), visual=np.ones((60, 4)), labels=None))
    for features, widths in ((train_path, ["--audio-widths", "12,-3,8"]),
                             (train_path, ["--audio-widths", "12,0,8"]),
                             (zero_dim, ["--audio-widths", "auto", "--visual-widths", "auto"])):
        assert main(["train", "--features", features, "--out", str(tmp_path / "x.ckpt"),
                     *SMALL_FLAGS, *widths]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "encoder widths must be >= 1" in err
    # out-of-range values are rejected before any training starts
    out = tmp_path / "never.ckpt"
    for flag, value, reason in (("--lr", "-1", "lr0 must be positive"),
                                ("--k", "0", "k must be >= 1"),
                                ("--heads", "0", "heads must be >= 1"),
                                ("--batch-size", "1", "batch_size must be >= 2"),
                                ("--epochs", "0", "epochs must be >= 1"),
                                ("--mask-ratio", "1.5", "mask_ratio must be in [0, 1)"),
                                ("--dropout", "1.0", "dropout must be in [0, 1)"),
                                ("--tau", "0", "tau must be > 0"),
                                ("--t-max", "0", "cosine_t_max must be >= 1"),
                                ("--cca-post-dim", "0", "cca_post_dim must be >= 1"),
                                ("--seed", "-1", "seed must be >= 0, got -1"),
                                ("--eval-every", "-1", "eval_every must be >= 0, got -1"),
                                ("--warmup-epochs", "-4", "warmup_epochs must be >= 0, got -4"),
                                ("--weight-decay", "-1", "weight_decay must be >= 0, got -1.0"),
                                ("--lr", "nan", "OptimConfig: lr0 must be finite, got nan"),
                                ("--weight-decay", "nan", "OptimConfig: weight_decay must be finite, got nan"),
                                ("--clip-norm", "nan", "OptimConfig: clip_norm must be finite, got nan"),
                                ("--clip-norm", "inf", "OptimConfig: clip_norm must be finite, got inf"),
                                ("--clip-norm", "2e18", "OptimConfig: clip_norm must be in (0, 1e+18], got 2e+18"),
                                ("--batch-size", "61", "batch_size 61 exceeds the 60 samples")):
        assert main(["train", "--features", train_path, "--out", str(out),
                     *SMALL_FLAGS, flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and reason in err
    for command, extra in (("sweep", ["--out-csv", str(tmp_path / "s.csv"), "--ratios", "0.2,1.5"]),
                           ("sweep", ["--out-csv", str(tmp_path / "s.csv"), "--batch-size", "61"]),
                           ("ablate", ["--out-csv", str(tmp_path / "a.csv"), "--batch-size", "61"])):
        assert main([command, "--train-features", train_path, "--test-features", test_path,
                     *SMALL_FLAGS, *extra]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "a.csv").exists()
    config = tmp_path / "range.cfg"
    config.write_text("k = 0\n")
    assert main(["baseline", "--name", "random", "--train-features", train_path,
                 "--test-features", test_path, "--config", str(config), *SMALL_FLAGS]) == 1
    assert "usage error: k must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--noise", "nan"), ("--noise", "inf"),
                                         ("--mean-scale", "inf"), ("--mean-scale", "nan")])
def test_synth_refuses_non_finite_scales_and_writes_nothing(tmp_path, capsys, flag, value):
    out_train, out_test = tmp_path / "t.bin", tmp_path / "e.bin"
    assert main(["synth", "--out-train", str(out_train), "--out-test", str(out_test),
                 "--manifest", str(tmp_path / "m.json"), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: SynthConfig: scales must be positive and finite")
    assert list(tmp_path.iterdir()) == []


def test_data_errors_exit_two(tmp_path, capsys):
    assert main(["train", "--features", str(tmp_path / "missing.bin"),
                 "--out", str(tmp_path / "x.ckpt")]) == 2
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTAFILE")
    assert main(["eval", "--checkpoint", str(bad),
                 "--features", str(tmp_path / "missing.bin")]) == 2
    capsys.readouterr()


def test_unwritable_outputs_exit_two_before_any_work(data_files, tmp_path, capsys, monkeypatch):
    """An output path that is a directory, or lies in a missing directory,
    exits 2 with one line naming it before any data is generated or read;
    the check leaves no file behind and an existing one as it was."""
    train_path, test_path = data_files

    def never(*args, **kwargs):
        raise AssertionError("work started before the outputs were checked")

    for name in ("generate_synthetic", "load_features", "load_checkpoint", "train"):
        monkeypatch.setattr(cli, name, never)
    directory = str(tmp_path / "a-dir")
    (tmp_path / "a-dir").mkdir()
    missing = str(tmp_path / "missing" / "x.out")
    fresh = str(tmp_path / "fresh.out")
    kept = tmp_path / "kept.out"
    kept.write_text("kept\n")
    experiment = ["--train-features", train_path, "--test-features", test_path]
    cases = [
        (["synth", "--out-train", directory, "--out-test", fresh], directory),
        (["synth", "--out-train", str(kept), "--out-test", missing], missing),
        (["synth", "--out-train", fresh, "--out-test", fresh, "--manifest", directory], directory),
        (["train", "--features", train_path, "--out", directory], directory),
        (["train", "--features", train_path, "--out", missing], missing),
        (["train", "--features", train_path, "--out", str(kept), "--log-csv", directory], directory),
        (["train", "--features", train_path, "--out", fresh, "--manifest", missing], missing),
        (["eval", "--checkpoint", str(kept), "--features", test_path, "--report-csv", directory], directory),
        (["eval", "--checkpoint", str(kept), "--features", test_path, "--ranklists-csv", missing], missing),
        (["baseline", "--name", "cca", *experiment, "--report-csv", directory], directory),
        (["sweep", *experiment, "--out-csv", missing], missing),
        (["ablate", *experiment, "--out-csv", directory], directory),
    ]
    for argv, bad in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}: cannot write: ") and err.count("\n") == 1, err
        assert not os.path.exists(fresh)
        assert kept.read_text() == "kept\n"


def test_output_write_failure_exits_two(data_files, tmp_path, capsys, monkeypatch):
    """An output that fails once work has started is a data error too."""
    train_path, _ = data_files
    out = str(tmp_path / "x.ckpt")

    def full_disk(path, result):
        raise OSError(28, "No space left on device", path)

    monkeypatch.setattr(cli, "save_checkpoint", full_disk)
    assert main(["train", "--features", train_path, "--out", out, *SMALL_FLAGS, "--epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and out in err and err.count("\n") == 1


def test_unreadable_config_file_exits_one(tmp_path, capsys):
    """A --config file that is missing, a directory or not UTF-8 is a usage
    error, and nothing is written."""
    synth_out = ["--out-train", str(tmp_path / "t.bin"), "--out-test", str(tmp_path / "e.bin")]
    missing = tmp_path / "missing.cfg"
    directory = tmp_path / "dir.cfg"
    directory.mkdir()
    not_utf8 = tmp_path / "latin1.cfg"
    not_utf8.write_bytes("k = 3 # caf\xe9\n".encode("latin-1"))
    for config, reason in ((missing, f"{missing}: cannot read config file: No such file"),
                           (directory, f"{directory}: is a directory"),
                           (not_utf8, f"{not_utf8}: config file is not UTF-8")):
        assert main(["synth", *synth_out, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and reason in err
    assert not (tmp_path / "t.bin").exists() and not (tmp_path / "e.bin").exists()


def test_numeric_failure_exits_three(tmp_path, capsys):
    # 6 samples cannot support the post-training CCA fit on an 8-D projection
    rng = np.random.default_rng(0)
    fs = FeatureSet(audio=rng.normal(size=(6, 3)), visual=rng.normal(size=(6, 4)),
                    labels=None)
    feat = str(tmp_path / "tiny.bin")
    save_features(feat, fs)
    rc = main(["train", "--features", feat, "--out", str(tmp_path / "x.ckpt"),
               "--audio-widths", "3,8,8", "--visual-widths", "4,8,8",
               "--heads", "2", "--proj-dim", "8", "--epochs", "1",
               "--batch-size", "6", "--warmup-epochs", "1", "--cca-post-dim", "8"])
    assert rc == 3
    capsys.readouterr()


def test_non_finite_weighted_total_exits_three_naming_terms_and_sigmas(data_files, tmp_path, capsys,
                                                                      monkeypatch):
    """sigma_rec = -800 overflows exp(-sigma_rec) at the first weighted
    epoch: train exits 3 with the total's message, and numpy warns of
    nothing before it."""
    make_params = trainer.ModelParams

    def far_sigma_params(config, seed):
        mp = make_params(config, seed=seed)
        mp.sigma("rec").value[...] = -800.0
        return mp

    monkeypatch.setattr(trainer, "ModelParams", far_sigma_params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["train", "--features", data_files[0], "--out", str(tmp_path / "x.ckpt"),
                   "--seed", "1", *SMALL_FLAGS])
    assert rc == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numeric failure: total_loss: non-finite weighted total at epoch 2; terms {'rec': ")
    assert "sigmas {'rec': -800.0, 'cca': 0.0, 'infonce': 0.0, 'dis': 0.0}" in err
    assert err.count("\n") == 1 and err.endswith(" (epoch 2, step 1)\n")


# an arena of several blocks, so that AdamW walks part of it on a pool thread
WIDE_FLAGS = ["--audio-widths", "12,128,128", "--visual-widths", "24,128,128"]


@pytest.mark.parametrize("flags", [["--lr", "1e300"], ["--tau", "1e-320"], ["--lr", "1e300", *WIDE_FLAGS]],
                         ids=("lr", "tau", "lr-pool"))
def test_numeric_failure_prints_no_numpy_warning_and_leaves_no_output(data_files, tmp_path, capsys,
                                                                     monkeypatch, flags):
    """An overflowing step exits 3 with one line; numpy warns of nothing,
    also on the arena's pool threads, and neither the checkpoint nor the
    manifest is written."""
    monkeypatch.setattr(dc, "_WORKERS", max(2, dc._WORKERS))
    assert ModelParams(ModelConfig(audio_widths=(12, 128, 128), visual_widths=(24, 128, 128), heads=2,
                                   proj_dim=4)).arena.size > dc.BLOCK
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["train", "--features", data_files[0], "--out", str(tmp_path / "x.ckpt"),
                   "--manifest", str(tmp_path / "m.json"), *SMALL_FLAGS, *flags])
    assert rc == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numeric failure: ") and err.count("\n") == 1
    assert "Warning" not in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# the command-line surface against the config classes
# ---------------------------------------------------------------------------

TRAIN_OPTIONS = [
    "--audio-widths", "--batch-size", "--cca-post-dim", "--clip-norm", "--config", "--dropout",
    "--epochs", "--heads", "--k", "--lr", "--mask-ratio", "--no-cca", "--no-dis", "--no-infonce",
    "--no-rec", "--proj-dim", "--seed", "--t-max", "--tau", "--visual-widths", "--warmup-epochs",
    "--weight-decay",
]
OPTIONS = {
    "synth": ["--classes", "--config", "--d-audio", "--d-visual", "--manifest", "--mean-scale",
              "--no-warp", "--noise", "--out-test", "--out-train", "--per-class", "--seed"],
    "train": TRAIN_OPTIONS + ["--eval-every", "--eval-features", "--features", "--log-csv",
                              "--manifest", "--out"],
    "eval": ["--checkpoint", "--features", "--ranklists-csv", "--report-csv"],
    "baseline": TRAIN_OPTIONS + ["--name", "--report-csv", "--test-features", "--train-features"],
    "sweep": TRAIN_OPTIONS + ["--out-csv", "--ratios", "--test-features", "--train-features"],
    "ablate": TRAIN_OPTIONS + ["--out-csv", "--test-features", "--train-features"],
}
CONFIG_KEYS = {
    "epochs", "batch_size", "mask_ratio", "k", "tau", "warmup_epochs", "seed", "eval_every",
    "lr", "weight_decay", "clip_norm", "t_max", "heads", "proj_dim", "dropout", "cca_post_dim",
    "audio_widths", "visual_widths", "classes", "per_class", "d_audio", "d_visual", "noise",
    "mean_scale", "use_rec", "use_cca", "use_infonce", "use_dis",
}
# a valid value other than the default for every config key
NON_DEFAULT = {
    "epochs": "7", "batch_size": "64", "mask_ratio": "0.3", "k": "3", "tau": "0.1",
    "warmup_epochs": "2", "seed": "9", "eval_every": "2", "lr": "0.001", "weight_decay": "0.01",
    "clip_norm": "2.5", "t_max": "20", "heads": "2", "proj_dim": "6", "dropout": "0.1",
    "cca_post_dim": "3", "audio_widths": "12,16,1024", "visual_widths": "24,32,1024",
    "classes": "3", "per_class": "20", "d_audio": "5", "d_visual": "6", "noise": "0.5",
    "mean_scale": "2.0", "use_rec": "off", "use_cca": "no", "use_infonce": "false", "use_dis": "0",
}
SYNTH_KEYS = {"classes", "per_class", "d_audio", "d_visual", "noise", "mean_scale", "seed"}


# config fields that no knob sets, each with what sets it
UNKNOBBED = {"model": "a sub-config", "optim": "a sub-config",
             "cca_r": "the benchmark's desk profile", "warp": "--no-warp"}


def test_every_config_field_is_a_knob_or_has_a_named_setter():
    settable = [f.name for cls in (ModelConfig, TrainConfig, OptimConfig, SynthConfig) for f in fields(cls)]
    assert sorted(set(settable) - {name for name, _ in cli.KNOBS.values()}) == sorted(UNKNOBBED)
    assert len(settable) == 33


def test_option_strings_per_subcommand():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(OPTIONS)
    for command, expected in OPTIONS.items():
        found = [s for a in subparsers.choices[command]._actions for s in a.option_strings
                 if s not in ("-h", "--help")]
        assert sorted(found) == sorted(expected), command
    assert [len(OPTIONS[c]) for c in OPTIONS] == [12, 28, 4, 26, 26, 25]


def test_config_file_keys(tmp_path):
    assert len(CONFIG_KEYS) == 28 and set(NON_DEFAULT) == CONFIG_KEYS
    for sep in ("_", "-"):
        config = tmp_path / f"all{sep}.cfg"
        config.write_text("".join(f"{key.replace('_', sep)} = {NON_DEFAULT[key]}\n"
                                  for key in sorted(CONFIG_KEYS)))
        args = parse_args(["train", "--features", "f", "--out", "o", "--config", str(config)])
        assert set(args._file_values) == CONFIG_KEYS


def test_unset_knobs_take_the_config_classes_defaults(tmp_path):
    args = parse_args(["train", "--features", "f", "--out", "o"])
    assert build_train_config(args, 12, 24) == TrainConfig(
        model=ModelConfig(audio_widths=(12, 1024, 1024, 1024), visual_widths=(24, 1024, 1024, 1024)))
    manifest = tmp_path / "synth.json"
    assert main(["synth", "--out-train", str(tmp_path / "t.bin"), "--out-test",
                 str(tmp_path / "e.bin"), "--manifest", str(manifest)]) == 0
    assert json.loads(manifest.read_text())["config"] == asdict(SynthConfig())


def _flag(key, value):
    return ["--no-" + key[4:]] if key.startswith("use_") else ["--" + key.replace("_", "-"), value]


@pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
def test_flag_and_config_file_set_the_same_config(tmp_path, key):
    config = tmp_path / "one.cfg"
    config.write_text(f"{key} = {NON_DEFAULT[key]}\n")
    if key in SYNTH_KEYS:
        head = ["synth", "--out-train", "t", "--out-test", "e"]
        resolve = lambda args: build(SynthConfig, args)  # noqa: E731
    else:
        head = ["train", "--features", "f", "--out", "o"]
        resolve = lambda args: build_train_config(args, 12, 24)  # noqa: E731
    by_flag = resolve(parse_args([*head, *_flag(key, NON_DEFAULT[key])]))
    by_file = resolve(parse_args([*head, "--config", str(config)]))
    assert by_flag == by_file != resolve(parse_args(head))


def test_loss_flag_beats_config_file(tmp_path):
    config = tmp_path / "dis.cfg"
    config.write_text("use_dis = true\nuse_rec = off\n")
    args = parse_args(["train", "--features", "f", "--out", "o", "--config", str(config), "--no-dis"])
    cfg = build_train_config(args, 12, 24)
    assert (cfg.use_dis, cfg.use_rec, cfg.use_cca, cfg.use_infonce) == (False, False, True, True)


def test_eval_features_need_eval_every(data_files, tmp_path, capsys, monkeypatch):
    """--eval-features with eval_every 0 would score nothing: a usage error
    before any training. eval_every without --eval-features trains, since a
    shared config file may set it."""
    train_path, test_path = data_files
    config = tmp_path / "shared.cfg"
    config.write_text("eval_every = 1\n")
    assert main(["train", "--features", train_path, "--out", str(tmp_path / "ok.ckpt"),
                 "--config", str(config), *SMALL_FLAGS]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("trained"))
    out = tmp_path / "x.ckpt"
    assert main(["train", "--features", train_path, "--out", str(out), "--eval-features", test_path,
                 *SMALL_FLAGS]) == 1
    assert capsys.readouterr() == ("", "usage error: --eval-features needs eval_every >= 1 "
                                       "(--eval-every or the config file)\n")
    assert not out.exists()


def _two_gib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("argv", [
    ["train", "--features", "{train}", "--out", "{tmp}/x.ckpt", "--log-csv", "{tmp}/log.csv",
     "--manifest", "{tmp}/m.json", *SMALL_FLAGS, "--proj-dim", "1000000000"],
    ["synth", "--out-train", "{tmp}/t.bin", "--out-test", "{tmp}/e.bin", "--manifest", "{tmp}/m.json",
     "--per-class", "100000000000"],
], ids=("train-proj-dim", "synth-per-class"))
def test_an_impossible_allocation_is_a_usage_error(data_files, tmp_path, argv):
    """In a child limited to 2 GiB of address space, an allocation that
    cannot be met exits 1 with one line that keeps numpy's byte count, no
    traceback and no output file."""
    root = tmp_path / "outputs"
    root.mkdir()
    argv = [a.format(train=data_files[0], tmp=root) for a in argv]
    src = Path(dc.__file__).resolve().parents[1]
    # one BLAS thread, so that the buffers of many cores cannot fill the limit
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-m", "hscmae.cli", *argv], capture_output=True, text=True,
                          env=env, preexec_fn=_two_gib_address_space, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert re.fullmatch(r"usage error: cannot allocate memory: Unable to allocate [0-9.]+ [KMGTPE]iB"
                        r" for an array with shape .*\n", proc.stderr)
    assert list(root.iterdir()) == []


HUGE = "10000000000000000000"  # above np.intp's largest value


@pytest.mark.parametrize("argv, message", [
    (["synth", "--out-train", "{tmp}/t.bin", "--out-test", "{tmp}/e.bin", "--manifest", "{tmp}/m.json",
      "--per-class", HUGE],
     f"SynthConfig: classes * per_class * max(d_audio, d_visual, 8) = {8 * int(HUGE) * 24} values"),
    (["synth", "--out-train", "{tmp}/t.bin", "--out-test", "{tmp}/e.bin", "--d-visual", HUGE + "0"],
     f"SynthConfig: classes * per_class * max(d_audio, d_visual, 8) = {2000 * int(HUGE + '0')} values"),
    (["train", "--features", "{train}", "--out", "{tmp}/x.ckpt", "--log-csv", "{tmp}/log.csv",
      *SMALL_FLAGS, "--audio-widths", f"12,{HUGE},8"], "the model's "),
    (["train", "--features", "{train}", "--out", "{tmp}/x.ckpt", "--manifest", "{tmp}/m.json",
      *SMALL_FLAGS, "--proj-dim", HUGE], "the model's "),
], ids=("synth-per-class", "synth-d-visual", "train-audio-widths", "train-proj-dim"))
def test_a_size_past_numpys_largest_array_is_a_usage_error(data_files, tmp_path, capsys, argv, message):
    """A size whose array numpy cannot even describe (more than np.intp's
    largest value in bytes) is refused by its config before anything is
    allocated or written: one usage error line, exit 1, no output file."""
    root = tmp_path / "outputs"
    root.mkdir()
    assert main([a.format(train=data_files[0], tmp=root) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage error: {message}") and err.count("\n") == 1
    assert err.endswith(f" exceed numpy's largest float64 array ({np.iinfo(np.intp).max // 8}"
                        + (" values)\n" if argv[0] == "train" else ")\n"))
    assert list(root.iterdir()) == []


def readme_commands():
    """The argument lists of every ``hscmae ...`` line in the README's code
    blocks, with backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```[a-z]*\n(.*?)^```", text, re.S | re.M):
        for line in block.replace("\\\n", " ").split("\n"):
            words = shlex.split(line, comments=True)
            if words[:1] == ["hscmae"]:
                commands.append(words[1:])
    return commands


def test_every_readme_command_parses():
    """Each README command parses with today's options; none is run."""
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(OPTIONS)
    for argv in commands:
        build_parser().parse_args(argv)
