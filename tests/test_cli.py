import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aefs
import aefs.cli as cli_mod
import aefs.selection as selection_mod
from aefs.cli import main
from aefs.data import read_format_b
from aefs.numerics import Tensor
from aefs.training import (
    NumericAbort,
    TrainConfig,
    build_model,
    evaluate,
    load_checkpoint,
    parse_config_text,
    prepare,
)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(["synth", "--out", str(out), "--records", "4000", "--fields", "6",
               "--informative", "3", "--vocab", "8", "--seed", "3"])
    assert rc == 0
    return out


def train_args(synth_dir, out_dir, *extra):
    return ["train", "--data", str(synth_dir), "--out", str(out_dir),
            "--method", "aefs", "--d1", "8", "--d2", "2", "--max-epochs", "1",
            "--batch-size", "256", "--min-freq", "1", "--seed", "0", *extra]


class TestSynth:
    def test_writes_expected_files(self, synth_dir):
        assert (synth_dir / "data.csv").exists()
        assert (synth_dir / "schema.json").exists()
        meta = json.loads((synth_dir / "meta.json").read_text())
        assert meta["n_records"] == 4000
        assert len(meta["informative_fields"]) == 3
        assert meta["teacher_auc"] > 0.6

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert main(["synth", "--out", str(d), "--records", "300", "--seed", "5"]) == 0
        assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
        assert (a / "schema.json").read_bytes() == (b / "schema.json").read_bytes()

    def test_zero_informative_teacher_is_chance(self, tmp_path):
        out = tmp_path / "noise"
        assert main(["synth", "--out", str(out), "--records", "2000",
                     "--informative", "0", "--seed", "2"]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert abs(meta["teacher_auc"] - 0.5) < 0.02

    def test_invalid_flags_nonzero_exit(self, tmp_path, capsys):
        for n, flags in enumerate([["--informative", "9", "--fields", "4"],
                                   ["--records", "-5"],
                                   ["--informative", "-1"],
                                   ["--fields", "0", "--informative", "0"],
                                   ["--fields", "-2", "--informative", "0"],
                                   ["--seed", "-1"]]):
            out = tmp_path / str(n)
            rc = main(["synth", "--out", str(out), *flags])
            err = capsys.readouterr().err.splitlines()
            assert rc == 2, flags
            assert len(err) == 1 and err[0].startswith("data error: "), (flags, err)
            manifest = json.loads((out / "manifest.json").read_text())
            assert (manifest["status"], manifest["exit_code"]) == ("failed", 2), flags


    @pytest.mark.parametrize("flags,named", [
        (["--records", "10", "--vocab", str(2**61)], "--vocab 2305843009213693952"),
        (["--records", "0"], "--records 0"),
        (["--records", "1", "--seed", "3"], "--records 1"),
    ])
    def test_unusable_sizes_fail_before_writing_data(self, tmp_path, capsys, flags, named):
        # a vocabulary too large to allocate, and labels all of one class
        out = tmp_path / "s"
        rc = main(["synth", "--out", str(out), *flags])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("data error: ") and named in err[0], err
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["status"], manifest["exit_code"]) == ("failed", 2)
        assert [p.name for p in out.iterdir()] == ["manifest.json"]


class TestTrain:
    def test_full_run_artifacts(self, synth_dir, tmp_path, capsys):
        rc = main(train_args(synth_dir, tmp_path / "runs"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "test AUC" in out
        assert "delta_pae: 25%" in out  # (1 - 1/2) - 2/8
        run_dirs = list((tmp_path / "runs").iterdir())
        assert len(run_dirs) == 1
        run = run_dirs[0]
        for name in ("manifest.json", "config.txt", "train_report.jsonl",
                     "report.jsonl", "report.txt", "model.ckpt", "vocab_sizes.json"):
            assert (run / name).exists(), name
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["status"] == "done"
        assert (manifest["exit_code"], manifest["error"]) == (0, None)

    def test_reference_delta_pae_printed(self, synth_dir, tmp_path, capsys):
        # 16-field config: d1=32, d2=4, r=0.5
        out = tmp_path / "s16"
        assert main(["synth", "--out", str(out), "--records", "1000",
                     "--fields", "16", "--informative", "8", "--seed", "1"]) == 0
        rc = main(["train", "--data", str(out), "--out", str(tmp_path / "runs"),
                   "--method", "aefs", "--r", "0.5", "--d1", "32", "--d2", "4",
                   "--max-epochs", "1", "--batch-size", "128", "--min-freq", "1",
                   "--seed", "0"])
        assert rc == 0
        assert "delta_pae: 37.5%" in capsys.readouterr().out

    def test_existing_run_dir_needs_force(self, synth_dir, tmp_path):
        out = tmp_path / "runs"
        assert main(train_args(synth_dir, out)) == 0
        assert main(train_args(synth_dir, out)) == 1
        assert main(train_args(synth_dir, out, "--force")) == 0

    def test_deterministic_reports_across_out_dirs(self, synth_dir, tmp_path):
        assert main(train_args(synth_dir, tmp_path / "r1")) == 0
        assert main(train_args(synth_dir, tmp_path / "r2")) == 0
        r1 = next((tmp_path / "r1").iterdir())
        r2 = next((tmp_path / "r2").iterdir())
        assert (r1 / "report.jsonl").read_bytes() == (r2 / "report.jsonl").read_bytes()
        assert (r1 / "report.txt").read_bytes() == (r2 / "report.txt").read_bytes()
        assert (r1 / "model.ckpt").read_bytes() == (r2 / "model.ckpt").read_bytes()

    def test_baseline_methods(self, synth_dir, tmp_path):
        for method, extra in (("none", []), ("adafs", ["--mode", "soft"])):
            rc = main(["train", "--data", str(synth_dir), "--out",
                       str(tmp_path / f"runs-{method}"), "--method", method,
                       "--d1", "8", "--max-epochs", "1", "--batch-size", "256",
                       "--min-freq", "1", "--seed", "0", *extra])
            assert rc == 0

    def test_config_file_with_flag_override(self, synth_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method=aefs\nd1=8\nd2=2\nmax_epochs=1\nbatch_size=256\n"
                       "min_freq=1\nseed=9\n")
        rc = main(["train", "--data", str(synth_dir), "--config", str(cfg),
                   "--out", str(tmp_path / "runs"), "--seed", "4"])
        assert rc == 0
        run = next((tmp_path / "runs").iterdir())
        assert run.name.endswith("seed4")  # flag wins over file

    def test_selection_dump(self, synth_dir, tmp_path):
        rc = main(train_args(synth_dir, tmp_path / "runs", "--dump-selection"))
        assert rc == 0
        run = next((tmp_path / "runs").iterdir())
        lines = (run / "selections.jsonl").read_text().splitlines()
        entry = json.loads(lines[0])
        assert "indices" in entry and "weights" in entry

    def test_config_error_exit_code(self, synth_dir, tmp_path):
        rc = main(["train", "--data", str(synth_dir), "--out", str(tmp_path / "r"),
                   "--config", str(tmp_path / "missing.cfg")])
        assert rc == 1

    def test_data_error_exit_code(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["train", "--data", str(empty), "--out", str(tmp_path / "r"),
                   "--max-epochs", "1"])
        assert rc == 2
        manifest = json.loads((next((tmp_path / "r").iterdir()) / "manifest.json").read_text())
        assert (manifest["status"], manifest["exit_code"]) == ("failed", 2)
        assert manifest["error"].startswith("data error: no data.csv")

    @pytest.mark.parametrize("flags,config_text", [
        (["--d2", "0"], None),
        (["--d1", "0", "--d2", "0"], None),
        ([], "hidden_dims=\n"),
        ([], "hidden_dims=0\n"),
        ([], "backbone_main=dcn\nn_cross_layers=-1\n"),
        (["--lr", "-1"], None),
        (["--min-freq", "-3"], None),
        (["--min-freq", "0"], None),
    ])
    def test_invalid_config_value_exits_1(self, synth_dir, tmp_path, capsys, flags,
                                          config_text):
        extra = list(flags)
        if config_text is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config_text)
            extra += ["--config", str(cfg)]
        out = tmp_path / "runs"
        assert main(train_args(synth_dir, out, *extra)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err
        assert not out.exists()  # rejected before a run directory is made

    def test_usage_error_exit_code(self, synth_dir, tmp_path):
        rc = main(["train", "--data", str(synth_dir), "--method", "bogus"])
        assert rc == 1

    def test_single_class_split_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "one-class"
        data.mkdir()
        (data / "data.csv").write_text(
            "label,f0,f1\n" + "".join(f"0,a{i % 5},b{i % 3}\n" for i in range(200)))
        (data / "schema.json").write_text(json.dumps({"fields": [
            {"name": "f0", "kind": "categorical"}, {"name": "f1", "kind": "categorical"}]}))
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "r"),
                   "--method", "none", "--d1", "4", "--max-epochs", "1",
                   "--batch-size", "64", "--min-freq", "1"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: "), err
        manifest = json.loads((next((tmp_path / "r").iterdir()) / "manifest.json").read_text())
        assert (manifest["status"], manifest["exit_code"], manifest["error"]) == \
            ("failed", 2, err[0])

    def test_checkpoint_reproduces_reported_auc(self, synth_dir, tmp_path):
        assert main(train_args(synth_dir, tmp_path / "runs")) == 0
        run = next((tmp_path / "runs").iterdir())
        config = parse_config_text((run / "config.txt").read_text())
        columns, schema = read_format_b(synth_dir / "data.csv", synth_dir / "schema.json")
        data = prepare(columns, schema, seed=config.seed, min_freq=config.min_freq)
        fresh = build_model(data.vocab.vocab_sizes, config,
                            np.random.default_rng(123), np.random.default_rng(4))
        load_checkpoint(fresh, run / "model.ckpt")
        report = json.loads((run / "report.jsonl").read_text().splitlines()[0])
        assert evaluate(fresh, data.test, config.batch_size).auc == report["auc"]


MIXED_SCHEMA = json.dumps({"fields": [{"name": "c0", "kind": "categorical"},
                                       {"name": "n0", "kind": "numerical"}]}).encode()


def mixed_rows(bad_numeric):
    rows = [f"{i % 2},a{i % 3},{i}" for i in range(30)]
    rows[17] = f"1,a0,{bad_numeric}"
    return ("label,c0,n0\n" + "\n".join(rows) + "\n").encode()


class TestInputFaults:
    """Faulty input files end a run with exit 2, one stderr line and a
    failed manifest, never a traceback. A learning rate that is not finite
    is a configuration error; one that drives the model's scores non-finite
    is a numeric abort."""

    @pytest.mark.parametrize("files,message", [
        ({"data.csv": mixed_rows("inf"), "schema.json": MIXED_SCHEMA},
         "numeric token 'inf' is NaN or +inf"),
        ({"data.csv": mixed_rows("1e400"), "schema.json": MIXED_SCHEMA},
         "numeric token '1e400' is NaN or +inf"),
        ({"data.csv": mixed_rows("1").replace(b"label,c0,n0", b"label,n0,c0"),
          "schema.json": MIXED_SCHEMA}, "header column 2 is 'n0', schema field 0 is 'c0'"),
        ({"data.csv": mixed_rows("1"), "schema.json": b"{"}, "schema.json: invalid JSON"),
        ({"data.csv": mixed_rows("1"), "schema.json": b'{"columns": []}'},
         "schema.json: missing key 'fields'"),
        ({"data.csv": mixed_rows("1"), "schema.json": b'{"fields": [{"name": "c0"}]}'},
         "schema.json: missing key 'kind'"),
        ({"data.csv": mixed_rows("1"), "schema.json": b'{"fields": [{"kind": "numerical"}]}'},
         "schema.json: missing key 'name'"),
        ({"data.csv": b"\xff\xfe" + mixed_rows("1"), "schema.json": MIXED_SCHEMA},
         "data.csv:1: not UTF-8 text"),
        ({"clicks.tsv": "\t".join(["1"] + ["4"] * 13 + ["aa"] * 26).encode() + b"\n\xff\n"},
         "clicks.tsv:2: not UTF-8 text"),
        ({"data.csv": mixed_rows("1"), "schema.json": MIXED_SCHEMA, "meta.json": b"{"},
         "meta.json: invalid JSON"),
        ({"data.csv": mixed_rows("1"), "schema.json": MIXED_SCHEMA, "meta.json": b"[0, 1]"},
         "meta.json: expected a JSON object"),
        ({"data.csv": mixed_rows("1"), "schema.json": MIXED_SCHEMA,
          "meta.json": b'{"informative_fields": "abc"}'},
         "informative_fields must be a list of distinct field positions in [0, 2), got 'abc'"),
        ({"data.csv": mixed_rows("1"), "schema.json": MIXED_SCHEMA,
          "meta.json": b'{"informative_fields": [99]}'}, "in [0, 2), got [99]"),
        ({"data.csv": mixed_rows("1"), "schema.json": MIXED_SCHEMA,
          "meta.json": b'{"informative_fields": [-1]}'}, "in [0, 2), got [-1]"),
        ({"data.csv": mixed_rows("1"), "schema.json": MIXED_SCHEMA,
          "meta.json": b'{"informative_fields": [1, 1]}'}, "in [0, 2), got [1, 1]"),
        # one field past csv.field_size_limit()'s default of 131072 characters
        ({"data.csv": mixed_rows("1").replace(b"1,a1,1\n", b"1,a" + b"1" * 131072 + b",1\n"),
          "schema.json": MIXED_SCHEMA}, "data.csv:3: field larger than field limit (131072)"),
    ], ids=["inf", "1e400", "header-names", "invalid-json", "no-fields", "no-kind", "no-name",
            "format-b-not-utf8", "format-a-not-utf8", "meta-invalid-json", "meta-not-object",
            "informative-not-list", "informative-out-of-range", "informative-negative",
            "informative-repeated", "format-b-oversize-field"])
    def test_exits_2_with_one_line(self, tmp_path, capsys, files, message):
        data = tmp_path / "data"
        data.mkdir()
        for name, content in files.items():
            (data / name).write_bytes(content)
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "r"),
                   "--method", "none", "--d1", "4", "--max-epochs", "1",
                   "--batch-size", "64", "--min-freq", "1"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: ") and message in err[0], err
        manifest = json.loads((next((tmp_path / "r").iterdir()) / "manifest.json").read_text())
        assert (manifest["status"], manifest["exit_code"], manifest["error"]) == \
            ("failed", 2, err[0])


    @pytest.fixture(scope="class")
    def tiny_synth(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("tiny")
        assert main(["synth", "--out", str(out), "--records", "300", "--seed", "7"]) == 0
        return out

    def test_infinite_lr_exits_1_with_one_line(self, tiny_synth, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "r"
        assert main(["train", "--data", str(tiny_synth), "--out", str(out), "--lr", "inf",
                     "--max-epochs", "1"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: lr must be positive and finite, got inf"]
        assert not out.exists()

    def test_non_finite_scores_exit_3_and_fail_the_run(self, tiny_synth, tmp_path, capsys):
        # one Adam step of about 1e308 per parameter (240 training records,
        # one batch): the validation scores come out NaN
        capsys.readouterr()
        out = tmp_path / "r"
        assert main(["train", "--data", str(tiny_synth), "--out", str(out), "--lr", "1e308",
                     "--max-epochs", "1"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric abort: non-finite score nan"), err
        manifest = json.loads((next(out.iterdir()) / "manifest.json").read_text())
        assert (manifest["status"], manifest["exit_code"], manifest["error"]) == \
            ("failed", 3, err[0])

    def test_quoted_nul_in_format_b(self, tmp_path, capsys):
        # csv.reader rejects a NUL before Python 3.11 and reads it from 3.11 on
        data = tmp_path / "data"
        data.mkdir()
        rows = [f"{i % 2},a{i % 3},{i}" for i in range(200)]
        rows[5] = '1,"a\x00b",5'  # line 7 of the file
        (data / "data.csv").write_bytes(("label,c0,n0\n" + "\n".join(rows) + "\n").encode())
        (data / "schema.json").write_bytes(MIXED_SCHEMA)
        capsys.readouterr()
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "r"),
                   "--method", "none", "--d1", "4", "--max-epochs", "1",
                   "--batch-size", "64", "--min-freq", "1"])
        err = capsys.readouterr().err.splitlines()
        if sys.version_info < (3, 11):
            assert rc == 2
            assert err == [f"data error: {data / 'data.csv'}:7: line contains NUL"], err
        else:
            assert (rc, err) == (0, [])
            columns, _ = read_format_b(data / "data.csv", data / "schema.json")
            assert "a\x00b" in columns.keys[0]


def _flags(**values):
    """``--name=value`` arguments, so that negative values do not read as
    options."""
    return [f"--{name.replace('_', '-')}={value}" for name, value in values.items()]


_NAN_OR_NON_POSITIVE = st.one_of(st.floats(max_value=0.0), st.just(math.nan))
# a keep rate outside (0, 1] or dimensions outside 1 <= d2 <= d1, which
# `train`, `compare` and `params` all take
INVALID_KEEP_OR_DIMS = st.one_of(
    st.one_of(_NAN_OR_NON_POSITIVE, st.floats(min_value=1.0, exclude_min=True))
    .map(lambda r: _flags(r=r)),
    st.integers(1, 64).flatmap(lambda d1: st.integers(d1 + 1, d1 + 64).map(
        lambda d2: _flags(d1=d1, d2=d2))),
    st.integers(max_value=0).map(lambda d1: _flags(d1=d1)),
    st.integers(max_value=0).map(lambda d2: _flags(d2=d2)),
)
INVALID_TRAIN_FLAGS = st.one_of(
    INVALID_KEEP_OR_DIMS,
    st.integers(max_value=1).map(lambda b: _flags(batch_size=b)),
    st.integers(max_value=0).map(lambda e: _flags(max_epochs=e)),
    st.integers(max_value=-1).map(lambda e: _flags(pretrain_epochs=e)),
    st.integers(max_value=-1).map(lambda seed: _flags(seed=seed)),
    st.one_of(_NAN_OR_NON_POSITIVE, st.just(math.inf)).map(lambda lr: _flags(lr=lr)),
)


class TestTrainFlags:
    def test_every_flag_reaches_its_config_field(self):
        """Each `aefs train` flag stored under a `TrainConfig` field name,
        set to a value other than that field's default, reaches the field;
        every other flag is named here."""
        parser = cli_mod.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        actions = [a for a in sub.choices["train"]._actions if a.option_strings]
        fields = {f.name for f in dataclasses.fields(TrainConfig)}
        assert {a.dest for a in actions} - fields == {"help", "data", "config", "out", "force",
                                                      "dump_selection"}
        argv, expected = ["train", "--data", "d"], {}
        for action in actions:
            if action.dest not in fields:
                continue
            default = getattr(TrainConfig(), action.dest)
            if isinstance(action, argparse._StoreFalseAction):
                argv.append(action.option_strings[0])
                expected[action.dest] = False
                continue
            if action.choices:
                value = next(c for c in action.choices if c != default)
            else:
                value = default / 2 if isinstance(default, float) else default + 1
            argv += [action.option_strings[0], str(value)]
            expected[action.dest] = value
        config = cli_mod._load_config(parser.parse_args(argv))
        assert config == dataclasses.replace(TrainConfig(), **expected)
        assert all(getattr(config, key) != getattr(TrainConfig(), key) for key in expected)


class TestInvalidTrainFlags:
    @settings(max_examples=150, deadline=None)
    @given(flags=INVALID_TRAIN_FLAGS)
    def test_exit_1_with_one_config_error_line(self, synth_dir, tmp_path_factory, flags):
        out = tmp_path_factory.getbasetemp() / "never-made"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(train_args(synth_dir, out, *flags))
        lines = err.getvalue().splitlines()
        assert rc == 1, (flags, lines)
        assert len(lines) == 1 and lines[0].startswith("config error: "), (flags, lines)
        assert not out.exists()


class TestFailedRunManifest:
    def read_manifest(self, out):
        return json.loads((next(out.iterdir()) / "manifest.json").read_text())

    @pytest.mark.parametrize("command", [["train"], ["compare", "--methods", "none,aefs",
                                                      "--seeds", "0,1"]])
    def test_numeric_abort_marks_run_failed(self, synth_dir, tmp_path, monkeypatch,
                                            capsys, command):
        def abort(data, config):
            raise NumericAbort("non-finite loss inf at epoch 1, batch 1")

        monkeypatch.setattr(cli_mod, "train", abort)
        out = tmp_path / "runs"
        rc = main(command + ["--data", str(synth_dir), "--out", str(out), "--d1", "8",
                             "--d2", "2", "--max-epochs", "1", "--min-freq", "1"])
        assert rc == 3
        err = capsys.readouterr().err.strip()
        manifest = self.read_manifest(out)
        assert manifest["status"] == "failed"
        assert manifest["exit_code"] == 3
        assert manifest["error"] == err == "numeric abort: non-finite loss inf at epoch 1, batch 1"
        assert manifest["finished_at"] is not None

    def test_failed_run_reruns_without_force(self, synth_dir, tmp_path, monkeypatch):
        def abort(data, config):
            raise NumericAbort("non-finite loss inf at epoch 1, batch 1")

        out = tmp_path / "runs"
        with monkeypatch.context() as patch:
            patch.setattr(cli_mod, "train", abort)
            assert main(train_args(synth_dir, out)) == 3
        assert self.read_manifest(out)["status"] == "failed"
        assert main(train_args(synth_dir, out)) == 0
        manifest = self.read_manifest(out)
        assert (manifest["status"], manifest["exit_code"], manifest["error"]) == ("done", 0, None)
        # a finished or running run still needs --force
        assert main(train_args(synth_dir, out)) == 1
        path = next(out.iterdir()) / "manifest.json"
        path.write_text(path.read_text().replace('"done"', '"running"'))
        assert main(train_args(synth_dir, out)) == 1

    def test_infinite_eal_exits_3_and_names_the_term(self, synth_dir, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.setattr(selection_mod, "embedding_alignment_loss",
                            lambda aux, main, rows, weights, fc: Tensor(np.array(np.inf)))
        out = tmp_path / "runs"
        assert main(train_args(synth_dir, out)) == 3
        err = capsys.readouterr().err.strip()
        manifest = self.read_manifest(out)
        assert manifest["status"] == "failed"
        assert manifest["exit_code"] == 3
        assert manifest["error"] == err == ("numeric abort: non-finite loss inf at epoch 1, "
                                            "batch 1 (first non-finite term: eal)")

    @pytest.mark.parametrize("d1", [2**60, 10**400], ids=["beyond-address-space", "beyond-float"])
    def test_unallocatable_dimension_exits_1_and_marks_run_failed(self, synth_dir, tmp_path,
                                                                   capsys, d1):
        out = tmp_path / "runs"
        rc = main(["train", "--data", str(synth_dir), "--out", str(out), "--method", "none",
                   "--d1", str(d1), "--max-epochs", "1", "--min-freq", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"config error: d1={d1}, d2=4, hidden_dims=16,16 too large: "
                              "the model cannot be allocated (")
        manifest = self.read_manifest(out)
        assert (manifest["status"], manifest["exit_code"], manifest["error"]) == \
            ("failed", 1, err.strip())

    def test_unallocatable_hidden_width_is_named(self, synth_dir, tmp_path, capsys):
        # xavier_init refuses a 2**62-wide layer before allocating anything
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"hidden_dims={2**62}\n")
        out = tmp_path / "runs"
        assert main(train_args(synth_dir, out, "--config", str(cfg))) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"config error: d1=8, d2=2, hidden_dims={2**62} too large: the "
                              "model cannot be allocated (")
        manifest = self.read_manifest(out)
        assert (manifest["status"], manifest["exit_code"], manifest["error"]) == \
            ("failed", 1, err.strip())

    def test_unhandled_error_marks_run_failed_and_goes_on(self, synth_dir, tmp_path,
                                                          monkeypatch):
        def bug(data, config):
            raise RuntimeError("not a user error\nsecond line")

        monkeypatch.setattr(cli_mod, "train", bug)
        out = tmp_path / "runs"
        with pytest.raises(RuntimeError, match="not a user error"):
            main(train_args(synth_dir, out))
        manifest = self.read_manifest(out)
        assert (manifest["status"], manifest["exit_code"], manifest["error"]) == \
            ("failed", None, "RuntimeError: not a user error")
        assert manifest["finished_at"] is not None

    @pytest.mark.parametrize("method", ["adafs", "aefs"])
    def test_overflow_prints_only_the_abort_line(self, tmp_path, method):
        # in a process of its own: pytest would capture numpy's warnings
        src = Path(aefs.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONWARNINGS="default",
                   OPENBLAS_NUM_THREADS="1")
        script = "import sys; from aefs.cli import main; sys.exit(main(sys.argv[1:]))"

        def run(*args):
            return subprocess.run([sys.executable, "-c", script, *args], env=env,
                                  capture_output=True, text=True, timeout=120)

        assert run("synth", "--out", str(tmp_path / "synth"), "--records", "300").returncode == 0
        done = run("train", "--data", str(tmp_path / "synth"), "--out", str(tmp_path / "runs"),
                   "--method", method, "--lr", "1e308", "--max-epochs", "1")
        assert done.returncode == 3
        assert done.stderr.count("\n") == 1 and done.stderr.startswith("numeric abort: ")
        assert "Warning" not in done.stdout + done.stderr

    def test_zero_variance_comparison_marks_run_failed(self, synth_dir, tmp_path,
                                                       monkeypatch, capsys):
        # every cell scores the same AUC, so the Welch test has no variance
        def same_row(config, data, run_dir, dump_selection=False):
            return {"method": config.method, "auc": 0.75, "logloss": 0.5, "delta_pae": 0.0}

        monkeypatch.setattr(cli_mod, "_run_single", same_row)
        out = tmp_path / "runs"
        rc = main(["compare", "--data", str(synth_dir), "--out", str(out),
                   "--methods", "none,randomhalf", "--seeds", "0,1", "--min-freq", "1"])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err == "data error: both samples have zero variance"
        manifest = self.read_manifest(out)
        assert (manifest["status"], manifest["exit_code"], manifest["error"]) == \
            ("failed", 2, err)


class TestCompare:
    def test_two_methods_two_seeds(self, synth_dir, tmp_path, capsys):
        rc = main(["compare", "--data", str(synth_dir), "--out", str(tmp_path / "cmp"),
                   "--methods", "none,aefs", "--seeds", "0,1", "--d1", "8", "--d2", "2",
                   "--max-epochs", "1", "--batch-size", "256", "--min-freq", "1"])
        assert rc == 0
        run = next((tmp_path / "cmp").iterdir())
        rows = [json.loads(l) for l in (run / "report.jsonl").read_text().splitlines()]
        assert {r["method"] for r in rows} == {"none", "aefs"}
        assert all(r["n_seeds"] == 2 for r in rows)
        ttests = [json.loads(l) for l in (run / "ttests.jsonl").read_text().splitlines()]
        assert len(ttests) == 1
        assert 0.0 <= ttests[0]["p_auc"] <= 1.0
        assert "pairwise Welch p-values" in (run / "report.txt").read_text()

    def test_single_method_rejected(self, synth_dir, tmp_path):
        rc = main(["compare", "--data", str(synth_dir), "--out", str(tmp_path / "c"),
                   "--methods", "aefs", "--seeds", "0,1"])
        assert rc == 1

    @pytest.mark.parametrize("methods,seeds,repeated", [
        ("none,randomhalf", "3,3", "seed: 3"), ("none,aefs,none", "0,1", "method: none")])
    def test_repeated_seed_or_method_rejected_before_training(
            self, synth_dir, tmp_path, monkeypatch, capsys, methods, seeds, repeated):
        def no_training(data, config):
            raise AssertionError("trained a repeated cell")

        monkeypatch.setattr(cli_mod, "train", no_training)
        out = tmp_path / "c"
        rc = main(["compare", "--data", str(synth_dir), "--out", str(out),
                   "--methods", methods, "--seeds", seeds, "--min-freq", "1"])
        assert rc == 1
        assert capsys.readouterr().err.strip() == f"config error: compare got a repeated {repeated}"
        assert not out.exists()

    @pytest.mark.parametrize("methods,seeds,message", [
        ("none,aefs", "0,x", "compare got a seed that is not an integer: 'x'"),
        ("none,aefs", "1, 2.5", "compare got a seed that is not an integer: '2.5'"),
        ("none,aefs", "0,,1e3", "compare got a seed that is not an integer: '1e3'"),
        ("none,aefs", "0,-1", "seed must be nonnegative, got -1"),
        ("none,nope", "0,1", "method must be one of"),
    ], ids=["letter", "float", "exponent", "negative", "unknown-method"])
    def test_bad_cell_rejected_before_any_run(self, synth_dir, tmp_path, capsys, methods, seeds,
                                              message):
        out = tmp_path / "c"
        rc = main(["compare", "--data", str(synth_dir), "--out", str(out),
                   "--methods", methods, "--seeds", seeds, "--min-freq", "1"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {message}"), err
        assert not out.exists()


class TestParams:
    def test_reference_accounting(self, tmp_path, capsys):
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps({"total_ids": 2018012}))
        rc = main(["params", "--vocab-file", str(vocab), "--d1", "32", "--d2", "4",
                   "--r", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "64576384" in out and "64.58M" in out
        assert "8072048" in out and "8.07M" in out
        assert "delta_pae: 37.5%" in out
        assert "delta_el: 50%" in out

    def test_zero_reduction_ratio(self, tmp_path, capsys):
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps({"vocab_sizes": [100, 200]}))
        rc = main(["params", "--vocab-file", str(vocab), "--d1", "32", "--d2", "16"])
        assert rc == 0
        assert "delta_pae: 0%" in capsys.readouterr().out

    def test_missing_vocab(self, tmp_path):
        rc = main(["params", "--vocab-file", str(tmp_path / "nope.json")])
        assert rc == 2

    @settings(max_examples=100, deadline=None)
    @given(flags=INVALID_KEEP_OR_DIMS)
    def test_invalid_flags_exit_1_with_one_config_error_line(self, tmp_path_factory, flags):
        vocab = tmp_path_factory.getbasetemp() / "params-vocab.json"
        vocab.write_text(json.dumps({"total_ids": 1000}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["params", "--vocab-file", str(vocab), *flags])
        lines = err.getvalue().splitlines()
        assert rc == 1, (flags, lines)
        assert len(lines) == 1 and lines[0].startswith("config error: "), (flags, lines)
        assert out.getvalue() == ""

    @pytest.mark.parametrize("dims", [["--d1", str(10**400)],
                                      ["--d1", str(10**400), "--d2", str(10**400)]],
                             ids=["d1", "d1-and-d2"])
    def test_dimension_too_large_for_a_float_exits_1_with_one_line(self, tmp_path, capsys,
                                                                  dims):
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps({"vocab_sizes": [50, 60, 70]}))
        rc = main(["params", "--vocab-file", str(vocab), *dims])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err == "config error: --d1 and --d2 make parameter counts too large for a float\n"

    @pytest.mark.parametrize("r", ["1e-9", "5e-324"])
    def test_keep_rate_too_small_to_round(self, tmp_path, capsys, r):
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps({"total_ids": 1000}))
        rc = main(["params", "--vocab-file", str(vocab), "--r", r])
        assert rc == 0
        assert "delta_el: 100%" in capsys.readouterr().out

    @pytest.mark.parametrize("content,message", [
        ("{", "vocab.json: invalid JSON"),
        ('{"vocab_sizes": "abc"}', "vocab_sizes must be a list of nonnegative integers"),
        ('{"vocab_sizes": [3, -1]}', "vocab_sizes must be a list of nonnegative integers"),
        ('{"total_ids": "x"}', "total_ids must be a nonnegative integer, got 'x'"),
        ("[1, 2]", "vocab.json: expected a JSON object"),
        ('{"total_ids": 1%s}' % ("0" * 400), "401-digit id count is too large for a float"),
    ], ids=["invalid-json", "sizes-not-list", "negative-size", "total-not-int", "not-object",
            "total-too-large-for-a-float"])
    def test_malformed_vocab_exits_2_with_one_line(self, tmp_path, capsys, content, message):
        vocab = tmp_path / "vocab.json"
        vocab.write_text(content)
        rc = main(["params", "--vocab-file", str(vocab)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: ") and message in err[0], err


class TestWrongPathKinds:
    """A directory where the CLI reads or writes a file, or a regular file
    where it makes a directory, ends with one stderr line naming the path:
    exit 2 for data and vocab files, exit 1 for the config file and the
    outputs. A run that had started is marked failed."""

    @pytest.mark.parametrize("as_dir", ["data.csv", "schema.json", "meta.json", "clicks.tsv"])
    def test_directory_as_data_file_exits_2(self, tmp_path, capsys, as_dir):
        data = tmp_path / "data"
        data.mkdir()
        if as_dir != "clicks.tsv":
            files = {"data.csv": mixed_rows("1"), "schema.json": MIXED_SCHEMA, "meta.json": b"{}"}
            for name, content in files.items():
                (data / name).write_bytes(content)
            (data / as_dir).unlink()
        (data / as_dir).mkdir()
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "r"),
                   "--method", "none", "--d1", "4", "--max-epochs", "1", "--min-freq", "1"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"data error: {data / as_dir}: Is a directory"]
        manifest = json.loads((next((tmp_path / "r").iterdir()) / "manifest.json").read_text())
        assert (manifest["status"], manifest["exit_code"], manifest["error"]) == \
            ("failed", 2, err[0])

    @pytest.mark.parametrize("cmd", ["train", "compare", "synth"])
    @pytest.mark.parametrize("below", [True, False], ids=["below-a-file", "a-file"])
    def test_output_directory_at_a_file_exits_1(self, synth_dir, tmp_path, capsys, cmd, below):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file\n")
        out = blocker / "runs" if below else blocker
        args = {"train": ["train", "--data", str(synth_dir), "--method", "none"],
                "compare": ["compare", "--data", str(synth_dir), "--methods", "none,aefs",
                            "--seeds", "0,1"],
                "synth": ["synth", "--records", "100"]}[cmd]
        assert main(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {blocker}"), err
        assert err[0].endswith(": Not a directory" if below or cmd != "synth"
                               else ": File exists"), err
        assert blocker.read_text() == "a regular file\n"

    @pytest.mark.parametrize("cmd,output", [("train", "config.txt"), ("synth", "data.csv")])
    def test_directory_as_output_file_fails_the_run(self, synth_dir, tmp_path, capsys, cmd,
                                                    output):
        if cmd == "train":
            args = train_args(synth_dir, tmp_path / "r")
            assert main(args) == 0
            run = next((tmp_path / "r").iterdir())
            (run / output).unlink()
            args.append("--force")
        else:
            run = tmp_path / "s"
            args = ["synth", "--out", str(run), "--records", "100"]
        (run / output).mkdir(parents=True)
        capsys.readouterr()
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: {run / output}: Is a directory"]
        manifest = json.loads((run / "manifest.json").read_text())
        assert (manifest["status"], manifest["exit_code"], manifest["error"]) == \
            ("failed", 1, err[0])

    @pytest.mark.parametrize("cmd", ["train", "compare"])
    def test_directory_as_config_exits_1(self, synth_dir, tmp_path, capsys, cmd):
        cfg = tmp_path / "run.cfg"
        cfg.mkdir()
        extra = ["--methods", "none,aefs", "--seeds", "0,1"] if cmd == "compare" else []
        out = tmp_path / "r"
        rc = main([cmd, "--data", str(synth_dir), "--out", str(out), "--config", str(cfg)]
                  + extra)
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"config error: {cfg}: Is a directory"]
        assert not out.exists()

    def test_directory_as_vocab_file_exits_2(self, tmp_path, capsys):
        vocab = tmp_path / "vocab_sizes.json"
        vocab.mkdir()
        assert main(["params", "--vocab-file", str(vocab)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"data error: {vocab}: Is a directory"]


class TestEnvOutputRoot:
    def test_env_var_sets_default_root(self, synth_dir, tmp_path, monkeypatch):
        root = tmp_path / "env-root"
        monkeypatch.setenv("AEFS_OUT_ROOT", str(root))
        rc = main(["train", "--data", str(synth_dir), "--method", "none",
                   "--d1", "4", "--max-epochs", "1", "--batch-size", "256",
                   "--min-freq", "1", "--seed", "0"])
        assert rc == 0
        assert root.exists() and any(root.iterdir())
