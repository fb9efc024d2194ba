"""Command-line behavior: exit codes, output files, overrides, determinism.

Commands are invoked in-process through cli.main so exit codes and file
side effects can be asserted directly; two cases run a subprocess, for the
BLAS thread count and the OpenBLAS core of its environment.
"""

import csv
import ctypes
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest
import reference

from lbi import cli, config, datasets, engine, experiments, gradcheck


def read(path):
    with open(path) as fh:
        return fh.read()


read_json = reference.read_json


TINY_DATA = [
    "--set", "data.n_pretrain=10", "--set", "data.n_train=8",
    "--set", "data.n_val=6", "--set", "data.n_test=8",
    "--set", "data.corrupt_frac=0.3", "--set", "data.shift=0.5",
]


def run_args(out, extra=()):
    return ["run", "--out", str(out), *TINY_DATA,
            "--set", "iterations=5", *extra]


class TestRun:
    def test_zero_iterations_writes_header_only_trace(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(run_args(out, ["--set", "iterations=0"]))
        assert code == 0
        trace = read(out / "trace.csv")
        assert trace == cli.TRACE_HEADER + "\n"
        assert (out / "state.json").exists()
        assert (out / "summary.json").exists()
        assert (out / "manifest.json").exists()
        assert "run complete" in capsys.readouterr().out

    def test_trace_has_one_row_per_iteration(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(run_args(out)) == 0
        lines = read(out / "trace.csv").strip().splitlines()
        assert lines[0] == cli.TRACE_HEADER
        assert len(lines) == 6
        assert lines[1].startswith("0,")
        assert lines[5].startswith("4,")

    def test_set_overrides_echo_in_manifest(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(run_args(out, ["--set", "lambda=7e-3",
                                       "--set", "gamma=1"]))
        assert code == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["config"]["lambda"] == 7e-3
        assert manifest["config"]["gamma"] == 1
        assert manifest["data"]["spec"]["n_pretrain"] == 10
        assert manifest["tool"]["name"] == "lbi"
        assert "input_sha256" in manifest
        assert sorted(manifest["run_env"]) == [
            "blas", "blas_core", "blas_threads", "blas_threads_in_effect",
            "cpu_count", "duration_s", "numpy", "numpy_simd", "python"]
        assert sorted(manifest["run_env"]["blas_threads"]) == sorted(
            cli.BLAS_THREAD_VARS)
        in_effect = manifest["run_env"]["blas_threads_in_effect"]
        assert in_effect == cli.blas_threads_in_effect()
        assert in_effect is None or in_effect >= 1

    def test_manifest_records_blas_threads_in_effect(self, tmp_path):
        """Under OPENBLAS_NUM_THREADS=1, numpy's OpenBLAS runs on 1 thread,
        and the manifest says so (null for a BLAS without the getter)."""
        out = tmp_path / "out"
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        subprocess.run([sys.executable, "-m", "lbi.cli", *run_args(out)],
                       check=True, capture_output=True, env={
                           **os.environ, "PYTHONPATH": src,
                           "OPENBLAS_NUM_THREADS": "1"})
        run_env = read_json(out / "manifest.json")["run_env"]
        assert run_env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert run_env["blas_threads_in_effect"] == (
            None if cli.blas_threads_in_effect() is None else 1)

    def test_manifest_names_the_cpu_kernels(self, tmp_path, monkeypatch):
        """The OpenBLAS core and numpy's dispatch target that the bytes
        rest on, each null where the build does not expose it."""
        out = tmp_path / "out"
        assert cli.main(run_args(out)) == 0
        run_env = read_json(out / "manifest.json")["run_env"]
        kernels = cli.cpu_kernels()
        assert {k: run_env[k] for k in kernels} == kernels
        assert all(v is None or isinstance(v, str) and v
                   for v in kernels.values())

        def no_library(path):
            raise OSError(path)

        monkeypatch.setattr(ctypes, "CDLL", no_library)
        monkeypatch.setitem(sys.modules, "numpy.lib.introspect", None)
        assert cli.cpu_kernels() == {"blas_core": None, "numpy_simd": None}
        assert cli.blas_threads_in_effect() is None

    def test_blas_core_follows_openblas_coretype(self):
        """The core is the one OpenBLAS runs, not the build's default.
        Nehalem's SSE4.2 is within numpy's own x86-64 baseline."""
        if (cli.cpu_kernels()["blas_core"] is None
                or platform.machine() not in ("x86_64", "AMD64")):
            pytest.skip("no x86-64 OpenBLAS that reports its core")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        got = subprocess.run(
            [sys.executable, "-c",
             "from lbi import cli; print(cli.cpu_kernels()['blas_core'])"],
            check=True, capture_output=True, text=True, env={
                **os.environ, "PYTHONPATH": src,
                "OPENBLAS_CORETYPE": "Nehalem"}).stdout.strip()
        assert got == "Nehalem"

    def test_config_file_plus_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            "data:\n  n_pretrain: 10\n  n_train: 8\n  n_val: 6\n"
            "  n_test: 8\n  corrupt_frac: 0.3\n"
            "lbi:\n  iterations: 3\n  lambda: 0.001\n"
        )
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--set", "lbi.lambda=0.5"])
        assert code == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["config"]["lambda"] == 0.5
        assert manifest["config"]["iterations"] == 3

    def test_malformed_config_exits_2_without_outputs(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text("lbi: [unclosed\n")
        out = tmp_path / "never"
        code = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path):
        out = tmp_path / "never"
        code = cli.main(run_args(out, ["--set", "lbi.bogus=1"]))
        assert code == 2
        assert not out.exists()

    def test_unknown_section_exits_2(self, tmp_path):
        code = cli.main(["run", "--out", str(tmp_path / "never"),
                         "--set", "nosuch.key=1"])
        assert code == 2

    @pytest.mark.parametrize("text, section", [("lbi: 5\n", "lbi"),
                                               ("data: [1, 2]\n", "data")])
    def test_non_mapping_section_exits_2(self, text, section, tmp_path,
                                         capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(text)
        code = cli.main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "never")])
        assert code == 2
        assert f"section {section!r} must be a mapping" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_exits_3_with_partial_trace(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(run_args(out, [
            "--set", "iterations=50",
            "--set", "lr_pretrain_encoder=1e200",
            "--set", "lr_finetune_encoder=1e200",
            "--set", "lambda=1.0",
        ]))
        assert code == 3
        err = capsys.readouterr().err
        assert "numeric failure at iteration" in err
        assert (out / "trace.csv").exists()
        assert not (out / "state.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(run_args(out1)) == 0
        assert cli.main(run_args(out2)) == 0
        assert read(out1 / "trace.csv") == read(out2 / "trace.csv")
        assert read(out1 / "state.json") == read(out2 / "state.json")
        assert read(out1 / "summary.json") == read(out2 / "summary.json")

    def test_seed_flag_changes_run(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(run_args(out1, ["--seed", "0"])) == 0
        assert cli.main(run_args(out2, ["--seed", "1"])) == 0
        assert read(out1 / "trace.csv") != read(out2 / "trace.csv")

    def test_out_root_env_used_without_out_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path / "root"))
        code = cli.main(["run", *TINY_DATA, "--set", "iterations=1"])
        assert code == 0
        runs = list((tmp_path / "root").iterdir())
        assert len(runs) == 1
        assert runs[0].name.startswith("run-")
        assert (runs[0] / "trace.csv").exists()

    def test_resume_continues_from_state(self, tmp_path):
        out1 = tmp_path / "first"
        assert cli.main(run_args(out1)) == 0
        out2 = tmp_path / "second"
        code = cli.main(run_args(out2, [
            "--set", "iterations=8",
            "--set", f"run.resume={out1 / 'state.json'}",
        ]))
        assert code == 0
        state, _ = engine.load_state(out2 / "state.json")
        assert state.iteration == 8
        lines = read(out2 / "trace.csv").strip().splitlines()
        assert len(lines) == 4  # header + iterations 5..7

    def test_resumed_run_gets_its_own_directory(self, tmp_path,
                                                monkeypatch):
        """A resumed run's state file enters its manifest and its input
        hash, so it does not overwrite the fresh run of the same config;
        a fresh run's hash is the one it had before resuming existed."""
        monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path / "root"))
        fresh_argv = ["run", *TINY_DATA, "--set", "iterations=5"]
        assert cli.main(fresh_argv) == 0
        (fresh,) = (tmp_path / "root").iterdir()
        trace = read(fresh / "trace.csv")
        manifest = read_json(fresh / "manifest.json")
        assert "resume" not in manifest
        assert manifest["input_sha256"] == cli._content_hash(
            "run", manifest["config"], manifest["data"])
        state = str(fresh / "state.json")
        assert cli.main([*fresh_argv, "--set", f"run.resume={state}"]) == 0
        (resumed,) = set((tmp_path / "root").iterdir()) - {fresh}
        assert read(fresh / "trace.csv") == trace
        assert read(resumed / "trace.csv") == cli.TRACE_HEADER + "\n"
        with open(state, "rb") as fh:
            assert read_json(resumed / "manifest.json")["resume"] == {
                "path": state, "sha256": hashlib.sha256(fh.read()).hexdigest()}

    def test_resume_past_iterations_exits_2(self, tmp_path, capsys):
        """A state already past the config's iterations is named, not
        reported as a finished run of the state's own count."""
        out1 = tmp_path / "first"
        assert cli.main(run_args(out1, ["--set", "iterations=8"])) == 0
        code = cli.main(run_args(tmp_path / "second", [
            "--set", f"run.resume={out1 / 'state.json'}"]))
        assert code == 2
        err = capsys.readouterr().err
        assert "iteration 8" in err and "iterations=5" in err
        assert not (tmp_path / "second").exists()

    def test_resume_at_iterations_runs_nothing(self, tmp_path):
        out1 = tmp_path / "first"
        assert cli.main(run_args(out1)) == 0
        out2 = tmp_path / "second"
        code = cli.main(run_args(out2, [
            "--set", f"run.resume={out1 / 'state.json'}"]))
        assert code == 0
        assert read(out2 / "trace.csv") == cli.TRACE_HEADER + "\n"
        assert read(out2 / "state.json") == read(out1 / "state.json")
        assert read_json(out2 / "summary.json")["iterations"] == 5

    @pytest.mark.parametrize("setting", [
        "ignore_mode=sigmoid", "mode=basic", "hidden=8",
    ])
    def test_resume_with_other_modes_exits_2(self, tmp_path, capsys, setting):
        out1 = tmp_path / "first"
        assert cli.main(run_args(out1)) == 0
        code = cli.main(run_args(tmp_path / "second", [
            "--set", "iterations=8", "--set", setting,
            "--set", f"run.resume={out1 / 'state.json'}",
        ]))
        assert code == 2
        assert setting.split("=")[0] in capsys.readouterr().err
        # No directory, so no trace, temp file or manifest, is left behind.
        assert not (tmp_path / "second").exists()

    def test_resume_with_short_finetune_scores_exits_2(self, tmp_path, capsys):
        out1 = tmp_path / "first"
        assert cli.main(run_args(out1)) == 0
        state = read_json(out1 / "state.json")
        state["ignore_finetune_raw"] = state["ignore_finetune_raw"][:7]
        with open(out1 / "state.json", "w") as fh:
            json.dump(state, fh)
        for extra in ([], ["--set", "batch_size=4"]):
            code = cli.main(run_args(tmp_path / "second", [
                "--set", "iterations=8", *extra,
                "--set", f"run.resume={out1 / 'state.json'}",
            ]))
            assert code == 2
            assert "finetuning ignore scores" in capsys.readouterr().err

    def test_summary_reports_recovery_auc(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(run_args(out)) == 0
        summary = read_json(out / "summary.json")
        assert 0.0 <= summary["recovery_auc_pretrain"] <= 1.0
        assert 0.0 <= summary["test_accuracy"] <= 1.0
        assert summary["iterations"] == 5


class TestVerify:
    def test_default_instance_passes(self, capsys):
        assert cli.main(["verify", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "seed 0" in out
        assert "pretrain" in out

    def test_multiple_seeds_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("verify:\n  seeds: [0, 1]\n")
        assert cli.main(["verify", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "seed 0" in out and "seed 1" in out

    def test_seed_flag_beats_config_seeds(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("verify:\n  seeds: [0, 1]\n")
        out = tmp_path / "v"
        assert cli.main(["verify", "--config", str(cfg), "--seed", "5",
                         "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "seed 5:" in printed
        assert "seed 0:" not in printed and "seed 1:" not in printed
        assert [r["seed"] for r in read_json(out / "verify.json")["reports"]
                ] == [5]
        assert read_json(out / "manifest.json")["verify"]["seeds"] == [5]

    def test_lambda_zero_instance_passes(self, capsys):
        cfg_args = ["--set", "verify.lambda=0.0"]
        assert cli.main(["verify", "--seed", "3", *cfg_args]) == 0

    def test_sigmoid_instance_passes(self):
        assert cli.main(["verify", "--seed", "1",
                         "--set", "ignore_mode=sigmoid"]) == 0

    def test_basic_instance_passes(self, tmp_path, capsys):
        """Basic mode has no gamma term, so its instances take gamma 0;
        a gamma the user sets is still checked against the mode."""
        out = tmp_path / "v"
        assert cli.main(["verify", "--seed", "0", "--set", "mode=basic",
                         "--out", str(out)]) == 0
        (report,) = read_json(out / "verify.json")["reports"]
        assert {e["which"] for e in report["entries"]} == {"pretrain"}
        assert cli.main(["verify", "--seed", "0", "--set", "mode=basic",
                         "--set", "verify.gamma=0.5"]) == 2
        assert "gamma has no effect in basic mode" in capsys.readouterr().err

    def test_impossible_threshold_exits_1(self, tmp_path):
        code = cli.main(["verify", "--seed", "0",
                         "--set", "verify.threshold=1e-18"])
        assert code == 1

    @pytest.mark.parametrize("setting", [
        "verify.step=0", "verify.step=-1e-4", "verify.step=.nan",
        "verify.threshold=abc", "verify.threshold=0",
    ])
    def test_bad_step_or_threshold_exits_2(self, setting, capsys):
        code = cli.main(["verify", "--seed", "0", "--set", setting])
        assert code == 2
        err = capsys.readouterr().err
        assert setting.partition("=")[0] in err

    def test_report_written_with_out(self, tmp_path):
        out = tmp_path / "v"
        assert cli.main(["verify", "--seed", "0", "--out", str(out)]) == 0
        report = read_json(out / "verify.json")
        assert report["passed"] is True
        assert report["reports"][0]["seed"] == 0
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("setting", [
        "verify.lam=abc", "verify.gamma=abc", "verify.lambda=[1]",
        "lbi.hidden=abc", "lbi.hidden=2.5",
        "verify.dim=abc", "verify.classes=abc", "verify.n_pretrain=abc",
        "verify.n_train=abc", "verify.n_val=abc",
    ])
    def test_bad_instance_key_exits_2(self, setting, capsys):
        code = cli.main(["verify", "--seed", "0", "--set", setting])
        assert code == 2
        assert setting.partition("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("at", [0, 2])
    def test_nan_difference_exits_1(self, at, tmp_path, monkeypatch):
        """A NaN numeric value fails the check wherever it sits."""
        true_fd = gradcheck._Lookahead.central_differences

        def nan_at(lookahead, indices, *args, **kwargs):
            values = true_fd(lookahead, indices, *args, **kwargs)
            return {which: np.where(np.asarray(indices[which]) == at,
                                    math.nan, v)
                    for which, v in values.items()}

        monkeypatch.setattr(gradcheck._Lookahead, "central_differences",
                            nan_at)
        out = tmp_path / "v"
        code = cli.main(["verify", "--seed", "0", "--out", str(out)])
        assert code == cli.EXIT_VERIFY_FAILED
        report = read_json(out / "verify.json")
        assert report["passed"] is False
        # JSON has no NaN: the difference and its errors are written null.
        entry = report["reports"][0]["entries"][at]
        assert entry["numeric"] is entry["rel_err"] is None
        assert report["reports"][0]["max_rel_err"] is None
        read_json(out / "manifest.json")

    def test_json_writer_refuses_nan(self, tmp_path):
        """A non-finite float that reached a writer would make a file
        that strict JSON readers refuse: it raises, and no file is left."""
        path = tmp_path / "x.json"
        with pytest.raises(ValueError):
            cli._write_json(str(path), {"x": math.nan})
        assert list(tmp_path.iterdir()) == []


class TestAblate:
    def test_counting_contract(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["ablate", "--out", str(out), *TINY_DATA,
                         "--set", "iterations=4",
                         "--ids", "A1,A5,FULL", "--seeds", "0,1"])
        assert code == 0
        lines = read(out / "results.csv").strip().splitlines()
        assert len(lines) == 7  # header + 3 ids x 2 seeds
        summary = read_json(out / "summary.json")
        assert len(summary["aggregates"]) == 3
        assert summary["any_failed"] is False

    def test_table_printed(self, tmp_path, capsys):
        out = tmp_path / "out"
        cli.main(["ablate", "--out", str(out), *TINY_DATA,
                  "--set", "iterations=2", "--ids", "A1", "--seeds", "0"])
        printed = capsys.readouterr().out
        assert "A1" in printed
        assert "test_acc" in printed

    def test_rerun_byte_identical(self, tmp_path):
        args = [*TINY_DATA, "--set", "iterations=3",
                "--ids", "A1,FULL", "--seeds", "0,1"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["ablate", "--out", str(out1), *args]) == 0
        assert cli.main(["ablate", "--out", str(out2), *args]) == 0
        assert read(out1 / "results.csv") == read(out2 / "results.csv")
        assert read(out1 / "summary.json") == read(out2 / "summary.json")

    def test_unknown_id_exits_2(self, tmp_path):
        code = cli.main(["ablate", "--out", str(tmp_path / "x"), *TINY_DATA,
                         "--ids", "A9", "--seeds", "0"])
        assert code == 2


@pytest.mark.parametrize("args", [
    ["ablate", "--ids", "A1,A5,FULL", "--seeds", "0,1"],
    ["sweep", "--param", "lambda", "--grid", "0,0.01,0.1", "--seeds", "0,1"],
    ["run", "--set", "hidden=3"],
])
def test_manifest_records_plan(tmp_path, monkeypatch, overlap, split, args):
    """A command records the ``engine.plan`` its stack followed: the
    processes that trained it and whether it overlapped, as counted here,
    with both constants out of reach and at 0 (on two usable CPUs).  Each
    plan writes the same bytes."""
    out = {}
    for least in (10 ** 9, 0):
        for name in ("SPLIT_MIN_CELL_ROW_ITERATIONS",
                     "OVERLAP_MIN_ACTIVATIONS"):
            monkeypatch.setattr(engine, name, least)
        split.clear()
        overlap.workspaces.clear()
        out[least] = tmp_path / str(least)
        assert cli.main([*args, "--out", str(out[least]), *TINY_DATA,
                         "--set", "iterations=3"]) == 0
        assert read_json(out[least] / "manifest.json")["plan"] == {
            "processes": 1 + len(split),
            "overlap": bool(overlap.workspaces)}
    assert split if args[0] != "run" else overlap.workspaces
    files = sorted(os.listdir(out[0]))
    assert files == sorted(os.listdir(out[10 ** 9]))
    files.remove("manifest.json")
    for file in files:
        assert read(out[0] / file) == read(out[10 ** 9] / file)


class TestSweep:
    def test_curve_and_argmax_written(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["sweep", "--out", str(out), *TINY_DATA,
                         "--set", "iterations=3", "--param", "lambda",
                         "--grid", "0,0.01,0.1", "--seeds", "0,1"])
        assert code == 0
        lines = read(out / "sweep.csv").strip().splitlines()
        assert len(lines) == 7  # header + 3 values x 2 seeds
        summary = read_json(out / "summary.json")
        assert len(summary["points"]) == 3
        assert summary["argmax_value"] in (0.0, 0.01, 0.1)
        assert "best lambda" in capsys.readouterr().out

    def test_gamma_sweep_via_config(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "data: {n_pretrain: 10, n_train: 8, n_val: 6, n_test: 8,"
            " corrupt_frac: 0.3}\n"
            "lbi: {iterations: 3}\n"
            "sweep: {param: gamma, grid: [0.0, 0.5, 1.0], seeds: [0]}\n"
        )
        out = tmp_path / "out"
        code = cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        summary = read_json(out / "summary.json")
        assert summary["param"] == "gamma"
        assert [p["value"] for p in summary["points"]] == [0.0, 0.5, 1.0]

    def test_missing_param_exits_2(self, tmp_path):
        code = cli.main(["sweep", "--out", str(tmp_path / "x"), *TINY_DATA,
                         "--grid", "0,1,2"])
        assert code == 2

    def test_short_grid_exits_2(self, tmp_path):
        code = cli.main(["sweep", "--out", str(tmp_path / "x"), *TINY_DATA,
                         "--param", "lambda", "--grid", "0,1"])
        assert code == 2

    def test_rerun_byte_identical(self, tmp_path):
        args = [*TINY_DATA, "--set", "iterations=3", "--param", "lambda",
                "--grid", "0,0.01,0.1", "--seeds", "0"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["sweep", "--out", str(out1), *args]) == 0
        assert cli.main(["sweep", "--out", str(out2), *args]) == 0
        assert read(out1 / "sweep.csv") == read(out2 / "sweep.csv")


# Finetuning rates that overflow in every cell with a proximity term.
OVERFLOWING = ["--set", "iterations=4", "--set", "lr_finetune_encoder=1e100",
               "--set", "lr_finetune_head=1e100"]
CELL_ERROR = re.compile(r"numeric failure at iteration \d+: non-finite .+")


class TestFailingCells:
    """A failed cell keeps its row, with the error instead of scores; the
    command writes every file and exits 4."""

    def test_ablate(self, tmp_path):
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["ablate", "--out", str(out), *TINY_DATA,
                             *OVERFLOWING, "--ids", "A1,FULL",
                             "--seeds", "0,1"])
        assert code == 4
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["ablation"], r["seed"]) for r in rows] == [
            ("A1", "0"), ("A1", "1"), ("FULL", "0"), ("FULL", "1")]
        for r in rows[:2]:
            assert r["error"] == "" and r["test_accuracy"] != ""
        for r in rows[2:]:
            assert CELL_ERROR.fullmatch(r["error"])  # no seed prefix
            assert r["test_accuracy"] == r["recovery_auc_pretrain"] == ""
        summary = read_json(out / "summary.json")
        assert summary["any_failed"] is True
        assert [(a["ablation"], a["n_ok"]) for a in summary["aggregates"]] == [
            ("A1", 2), ("FULL", 0)]
        assert summary["aggregates"][1]["test_accuracy_mean"] is None
        assert (out / "manifest.json").exists()

    def test_sweep(self, tmp_path):
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["sweep", "--out", str(out), *TINY_DATA,
                             *OVERFLOWING, "--param", "lambda",
                             "--grid", "0,0.01,1", "--seeds", "2,0"])
        assert code == 4
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["value"], r["seed"]) for r in rows] == [
            (v, s) for v in ("0", "0.01", "1") for s in ("2", "0")]
        for r in rows[:2]:
            assert r["error"] == "" and r["val_accuracy"] != ""
        for r in rows[2:]:
            prefix = f"seed {r['seed']}: "
            assert r["error"].startswith(prefix)
            assert CELL_ERROR.fullmatch(r["error"][len(prefix):])
            assert r["val_accuracy"] == r["test_accuracy"] == ""
        summary = read_json(out / "summary.json")
        assert summary["any_failed"] is True
        assert [p["errors"] for p in summary["points"]] == [
            [], [r["error"] for r in rows[2:4]], [r["error"] for r in rows[4:]]]
        assert [p["val_accuracy_mean"] is None
                for p in summary["points"]] == [False, True, True]
        assert summary["argmax_value"] == 0.0
        assert summary["argmax_interior"] is False


class TestGenDataAndEval:
    def test_gen_data_round_trips(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["gen-data", "--out", str(out), *TINY_DATA,
                         "--set", "data.seed=9"])
        assert code == 0
        bundle = datasets.load_csv(out / "data.csv")
        assert bundle.pretrain.n == 10
        assert bundle.corrupted.sum() == 3
        manifest = read_json(out / "manifest.json")
        assert manifest["data"]["spec"]["seed"] == 9

    @pytest.mark.parametrize("command", ["gen-data", "run"])
    def test_source_means_from_a_flag(self, tmp_path, command):
        """The table a flag gives reaches the spec as an array, which the
        spec holds as rows of floats before it checks them."""
        means = [[0.0] * 5, [1.0] * 5]
        out = tmp_path / "out"
        extra = ["--set", "iterations=1"] if command == "run" else []
        code = cli.main([command, "--out", str(out), *TINY_DATA, *extra,
                         "--set", "data.source_means=[[0,0,0,0,0],[1,1,1,1,1]]"])
        assert code == 0
        spec = read_json(out / "manifest.json")["data"]["spec"]
        assert spec["source_means"] == means
        if command == "gen-data":
            side = read_json(datasets.sidecar_path(out / "data.csv"))
            assert side["spec"] == spec

    def test_csv_sidecar_is_hashed(self, tmp_path, monkeypatch):
        """Editing the sidecar's corruption flags changes the input hash
        and so the default output directory."""
        gen_out = tmp_path / "data"
        assert cli.main(["gen-data", "--out", str(gen_out), *TINY_DATA]) == 0
        data = gen_out / "data.csv"
        monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path / "root"))
        argv = ["run", "--set", f"data.path={data}", "--set", "iterations=1"]

        def rerun():
            assert cli.main(argv) == 0
            runs = {p.name for p in (tmp_path / "root").iterdir()}
            (new,) = runs - seen
            seen.add(new)
            return new, read_json(tmp_path / "root" / new / "manifest.json")

        seen = set()
        first, manifest = rerun()
        assert first.startswith("run-")
        assert first == "run-" + manifest["input_sha256"][:12]
        assert manifest["data"]["sidecar_sha256"] is not None
        side = read_json(datasets.sidecar_path(data))
        side["corrupted_pretrain_indices"] = [0]
        with open(datasets.sidecar_path(data), "w") as fh:
            json.dump(side, fh)
        second, edited = rerun()
        assert edited["input_sha256"] != manifest["input_sha256"]
        assert edited["data"]["sha256"] == manifest["data"]["sha256"]

    def test_csv_entry_hashes_the_bytes_read_on_a_miss_and_a_hit(
            self, tmp_path):
        """The data entry records the sha256 of the CSV that load_csv read
        and whether its table came from the cache, which is no input: both
        runs hash alike."""
        gen_out = tmp_path / "data"
        assert cli.main(["gen-data", "--out", str(gen_out), *TINY_DATA]) == 0
        data = gen_out / "data.csv"
        manifests = []
        for out in ("first", "second"):
            assert cli.main(["run", "--out", str(tmp_path / out), "--set",
                             f"data.path={data}", "--set",
                             "iterations=1"]) == 0
            manifests.append(read_json(tmp_path / out / "manifest.json"))
        sha256 = hashlib.sha256(data.read_bytes()).hexdigest()
        assert [(m["data"]["sha256"], m["data"]["cache"]) for m in manifests] \
            == [(sha256, "miss"), (sha256, "hit")]
        assert manifests[0]["input_sha256"] == manifests[1]["input_sha256"]

    def test_csv_sidecar_is_read_once_and_hashed(self, tmp_path,
                                                 monkeypatch):
        """The manifest's sidecar digest is of the bytes the load parsed,
        from the one time it opened the sidecar, on a parse and on a
        cache hit."""
        gen_out = tmp_path / "data"
        assert cli.main(["gen-data", "--out", str(gen_out), *TINY_DATA]) == 0
        data = str(gen_out / "data.csv")
        side = datasets.sidecar_path(data)
        with open(side, "rb") as fh:
            want = hashlib.sha256(fh.read()).hexdigest()
        opened = []

        def counted(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(datasets, "open", counted, raising=False)
        for cache in ("miss", "hit"):
            opened.clear()
            out = tmp_path / cache
            assert cli.main(["run", "--out", str(out), "--set",
                             f"data.path={data}", "--set",
                             "iterations=1"]) == 0
            entry = read_json(out / "manifest.json")["data"]
            assert entry["cache"] == cache
            assert entry["sidecar_sha256"] == want
            assert opened.count(side) == 1

    def test_csv_without_sidecar_hashes_none(self, tmp_path):
        gen_out = tmp_path / "data"
        assert cli.main(["gen-data", "--out", str(gen_out), *TINY_DATA]) == 0
        os.remove(datasets.sidecar_path(gen_out / "data.csv"))
        out = tmp_path / "run"
        assert cli.main(["run", "--out", str(out), "--set",
                         f"data.path={gen_out / 'data.csv'}",
                         "--set", "iterations=1"]) == 0
        assert read_json(out / "manifest.json")["data"]["sidecar_sha256"] is None

    def test_run_on_generated_csv(self, tmp_path):
        gen_out = tmp_path / "data"
        assert cli.main(["gen-data", "--out", str(gen_out), *TINY_DATA]) == 0
        run_out = tmp_path / "run"
        code = cli.main(["run", "--out", str(run_out),
                         "--set", "data.kind=csv",
                         "--set", f"data.path={gen_out / 'data.csv'}",
                         "--set", "iterations=3"])
        assert code == 0
        manifest = read_json(run_out / "manifest.json")
        assert manifest["data"]["kind"] == "csv"
        assert "sha256" in manifest["data"]

    def test_eval_matches_run_summary(self, tmp_path):
        run_out = tmp_path / "run"
        assert cli.main(run_args(run_out)) == 0
        eval_out = tmp_path / "eval"
        code = cli.main(["eval", "--out", str(eval_out), *TINY_DATA,
                         "--state", str(run_out / "state.json")])
        assert code == 0
        report = read_json(eval_out / "eval.json")
        summary = read_json(run_out / "summary.json")
        assert report["test_accuracy"] == summary["test_accuracy"]
        assert report["val_accuracy"] == summary["val_accuracy"]
        assert report["iteration"] == 5

    def test_eval_manifest_names_the_state_by_its_bytes(self, tmp_path):
        """As a resumed run's manifest does: the state's path and the
        sha256 of the bytes scored, both inside the input hash."""
        run_out = tmp_path / "run"
        assert cli.main(run_args(run_out)) == 0
        state = str(run_out / "state.json")
        eval_out = tmp_path / "eval"
        assert cli.main(["eval", "--out", str(eval_out), *TINY_DATA,
                         "--state", state]) == 0
        manifest = read_json(eval_out / "manifest.json")
        with open(state, "rb") as fh:
            assert manifest["state"] == {
                "path": state, "sha256": hashlib.sha256(fh.read()).hexdigest()}
        assert manifest["input_sha256"] == cli._content_hash(
            "eval", manifest["data"], {"eval": manifest["eval"]},
            {"state": manifest["state"]})

    @pytest.mark.parametrize("setting, message", [
        ("data.dim=3", "state architecture (5 dims, 2 classes) does not "
                       "match data (3 dims, 2 classes)"),
        ("data.classes=3", "state architecture (5 dims, 2 classes) does not "
                           "match data (5 dims, 3 classes)"),
        ("data.n_pretrain=50", "state has 200 pretraining ignore scores, "
                               "data has 50 pretraining examples"),
    ], ids=["dim", "classes", "n_pretrain"])
    def test_eval_on_data_that_does_not_fit_exits_2(self, setting, message,
                                                    tmp_path, capsys):
        run_out = tmp_path / "run"
        assert cli.main(["run", "--out", str(run_out),
                         "--set", "iterations=2"]) == 0
        eval_out = tmp_path / "eval"
        code = cli.main(["eval", "--out", str(eval_out), "--set", setting,
                         "--state", str(run_out / "state.json")])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (eval_out / "eval.json").exists()

    @pytest.mark.parametrize("argv", [["run", "--set", "hidden=8"],
                                      ["eval", "--set", "data.dim=3"]],
                             ids=["run", "eval"])
    def test_a_state_that_does_not_fit_makes_no_directory(self, argv,
                                                          tmp_path, capsys):
        """The fit checks run before the output directory is made."""
        run_out = tmp_path / "r1"
        assert cli.main(["run", "--out", str(run_out),
                         "--set", "iterations=2"]) == 0
        state = str(run_out / "state.json")
        given = (["--set", f"run.resume={state}"] if argv[0] == "run"
                 else ["--state", state])
        out = tmp_path / "fit"
        assert cli.main([*argv, *given, "--out", str(out)]) == 2
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    def test_eval_without_state_exits_2(self, tmp_path):
        assert cli.main(["eval", *TINY_DATA]) == 2

    def test_eval_missing_state_file_exits_2(self, tmp_path, capsys):
        code = cli.main(["eval", *TINY_DATA,
                         "--state", str(tmp_path / "nope.json")])
        assert code == 2
        assert "state file not found" in capsys.readouterr().err

    def test_data_path_implies_csv(self, tmp_path):
        gen_out = tmp_path / "data"
        assert cli.main(["gen-data", "--out", str(gen_out), *TINY_DATA]) == 0
        run_out = tmp_path / "run"
        code = cli.main(["run", "--out", str(run_out),
                         "--set", f"data.path={gen_out / 'data.csv'}",
                         "--set", "iterations=3"])
        assert code == 0
        assert read_json(run_out / "manifest.json")["data"]["kind"] == "csv"


class TestOverrideParsing:
    def test_missing_equals_rejected(self):
        assert cli.main(["run", "--set", "lambda"]) == 2

    def test_batch_size_none_round_trips(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(run_args(out, ["--set", "batch_size=none"]))
        assert code == 0
        assert read_json(out / "manifest.json")["config"]["batch_size"] is None

    @pytest.mark.parametrize("value", ["2.5", "true"])
    def test_non_integer_batch_size_exits_2(self, value, tmp_path, capsys):
        code = cli.main(run_args(tmp_path / "out",
                                 ["--set", f"batch_size={value}"]))
        assert code == 2
        assert "batch_size" in capsys.readouterr().err

    def test_batch_size_int(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(run_args(out, ["--set", "batch_size=4"]))
        assert code == 0
        assert read_json(out / "manifest.json")["config"]["batch_size"] == 4

    def test_bool_value(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(run_args(out, ["--set", "step_decay=true"]))
        assert code == 0
        assert read_json(out / "manifest.json")["config"]["step_decay"] is True


class TestSeedsGridIds:
    """Seeds, grids and ids read from a flag or a config key: a bad value is
    a configuration error (exit 2), never a traceback."""

    def test_ablate_single_int_seed(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["ablate", "--out", str(out), *TINY_DATA,
                         "--set", "iterations=2", "--ids", "A1",
                         "--set", "ablate.seeds=3"])
        assert code == 0
        assert read_json(out / "summary.json")["seeds"] == [3]

    def test_flag_beats_set(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["ablate", "--out", str(out), *TINY_DATA,
                         "--set", "iterations=2", "--ids", "A1",
                         "--set", "ablate.ids=FULL", "--set", "ablate.seeds=3",
                         "--seeds", "1"])
        assert code == 0
        summary = read_json(out / "summary.json")
        assert (summary["ids"], summary["seeds"]) == (["A1"], [1])
        assert read_json(out / "manifest.json")["ablate"] == {
            "ids": ["A1"], "seeds": [1]}

    @pytest.mark.parametrize("command", ["ablate", "sweep", "gen-data",
                                         "eval"])
    def test_seed_flag_only_where_read(self, command, tmp_path):
        """--seed sets lbi.seed for run and verify.seeds for verify; the
        other commands have no such flag."""
        with pytest.raises(SystemExit) as e:
            cli.main([command, "--out", str(tmp_path / "x"), "--seed", "1"])
        assert e.value.code == 2
        assert not (tmp_path / "x").exists()

    def test_ablate_ids_string_split_on_commas(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["ablate", "--out", str(out), *TINY_DATA,
                         "--set", "iterations=2", "--seeds", "0",
                         "--set", "ablate.ids=FULL"])
        assert code == 0
        assert read_json(out / "summary.json")["ids"] == ["FULL"]
        code = cli.main(["ablate", "--out", str(out), *TINY_DATA,
                         "--set", "iterations=2", "--seeds", "0",
                         "--set", "ablate.ids=A1,FULL"])
        assert code == 0
        assert read_json(out / "summary.json")["ids"] == ["A1", "FULL"]

    @pytest.mark.parametrize("argv", [
        ["verify", "--set", "verify.seeds=abc"],
        ["verify", "--set", "verify.seeds=[-3]"],
        ["verify", "--set", "verify.seeds=1.5"],
        ["verify", "--seed", "-1"],
        ["ablate", "--set", "ablate.seeds=[0, x]", "--ids", "A1"],
        ["ablate", "--seeds", "0,-2", "--ids", "A1"],
        ["sweep", "--set", "sweep.seeds=true", "--param", "lambda",
         "--grid", "0,1,2"],
        ["run", "--seed", "-1"],
        ["run", "--set", "seed=0.5"],
    ])
    def test_bad_seeds_exit_2(self, argv, tmp_path, capsys):
        code = cli.main([argv[0], "--out", str(tmp_path / "x"), *TINY_DATA,
                         "--set", "iterations=2", *argv[1:]])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [["--set", "sweep.grid=abc"],
                                      ["--grid", "0,abc,1"],
                                      ["--set", "sweep.grid=[0, {}, 1]"]])
    def test_non_numeric_grid_exits_2(self, grid, tmp_path, capsys):
        code = cli.main(["sweep", "--out", str(tmp_path / "x"), *TINY_DATA,
                         "--param", "lambda", "--seeds", "0", *grid])
        assert code == 2
        assert "grid" in capsys.readouterr().err

    def test_grid_string_from_config(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["sweep", "--out", str(out), *TINY_DATA,
                         "--set", "iterations=2", "--param", "lambda",
                         "--seeds", "0", "--set", "sweep.grid=0,0.01,0.1"])
        assert code == 0
        assert read_json(out / "summary.json")["grid"] == [0.0, 0.01, 0.1]


class TestBadDataInputs:
    """Data from config or from a CSV file: a bad value is a configuration
    or parse error (exit 2) naming the field or the line, never a
    traceback."""

    @pytest.mark.parametrize("argv, field", [
        (["gen-data", "--set", "data.n_pretrain=abc"], "data.n_pretrain"),
        (["run", "--set", "data.n_train=2.5"], "data.n_train"),
    ])
    def test_bad_spec_field_exits_2(self, argv, field, tmp_path, capsys):
        code = cli.main([argv[0], "--out", str(tmp_path / "x"), *argv[1:]])
        assert code == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_csv_feature_exits_2(self, text, tmp_path, capsys):
        gen = tmp_path / "data"
        assert cli.main(["gen-data", "--out", str(gen), *TINY_DATA]) == 0
        lines = read(gen / "data.csv").splitlines()
        fields = lines[4].split(",")
        fields[3] = text
        lines[4] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = cli.main(["run", "--out", str(tmp_path / "run"),
                         "--set", f"data.path={bad}", "--set", "iterations=1"])
        assert code == 2
        assert "line 5: non-finite feature value" in capsys.readouterr().err

    @pytest.mark.parametrize("split, command, resume", [
        ("test", "run", False), ("test", "ablate", False),
        ("test", "eval", True), ("val", "run", True), ("train", "run", True),
        ("train", "run", False)])
    def test_csv_without_a_split_exits_2(self, split, command, resume,
                                         tmp_path, capsys):
        """A CSV with no train, val or test rows is refused before any
        training, also where a state is resumed or evaluated."""
        gen = tmp_path / "data"
        assert cli.main(["gen-data", "--out", str(gen), *TINY_DATA]) == 0
        lines = read(gen / "data.csv").splitlines(keepends=True)
        path = tmp_path / "cut.csv"
        path.write_text("".join(line for line in lines
                                if not line.startswith(split + ",")))
        argv = [command, "--out", str(tmp_path / "out"),
                "--set", f"data.path={path}"]
        if command != "eval":  # eval reads no lbi key
            argv += ["--set", "iterations=8"]
        if resume:
            first = tmp_path / "first"
            assert cli.main(run_args(first)) == 0
            state = str(first / "state.json")
            argv += (["--state", state] if command == "eval"
                     else ["--set", f"run.resume={state}"])
        assert cli.main(argv) == 2
        assert f"{path}: empty {split} split" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trace.csv").exists()

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_csv_without_pretraining_rows_runs(self, command, tmp_path):
        """An empty pretraining split is allowed: its run has no scores and
        traces a pretraining loss and score norms of 0."""
        gen = tmp_path / "data"
        assert cli.main(["gen-data", "--out", str(gen), *TINY_DATA]) == 0
        lines = read(gen / "data.csv").splitlines(keepends=True)
        path = tmp_path / "cut.csv"  # and so without a sidecar
        path.write_text("".join(line for line in lines
                                if not line.startswith("pretrain,")))
        out = tmp_path / "out"
        assert cli.main([command, "--out", str(out), "--set",
                         f"data.path={path}", "--set", "iterations=4"]) == 0
        if command == "run":
            assert engine.load_state(out / "state.json")[0].iteration == 4
            with open(out / "trace.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 4
            assert {float(row[key]) for row in rows for key in (
                "pretrain_loss", "ignore_grad_pretrain_norm",
                "ignore_grad_finetune_norm")} == {0.0}

    def test_sidecar_field_of_wrong_type_exits_2(self, tmp_path, capsys):
        """A bool index would otherwise flag every pretraining row."""
        gen = tmp_path / "data"
        assert cli.main(["gen-data", "--out", str(gen), *TINY_DATA]) == 0
        side = datasets.sidecar_path(gen / "data.csv")
        manifest = read_json(side)
        manifest["corrupted_pretrain_indices"] = [True]
        with open(side, "w") as fh:
            json.dump(manifest, fh)
        code = cli.main(["run", "--out", str(tmp_path / "run"), "--set",
                         f"data.path={gen / 'data.csv'}", "--set", "iterations=1"])
        assert code == 2
        assert (f"{side}: corrupted_pretrain_indices must be a list of "
                "integers") in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["data.path=5", "run.resume=5"])
    def test_path_key_takes_strings_only(self, setting, tmp_path, capsys):
        """A number is not read as a file descriptor (0 would read stdin)."""
        code = cli.main(run_args(tmp_path / "x", ["--set", setting]))
        assert code == 2
        key = setting.partition("=")[0]
        assert f"{key} must be a path string" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["missing.csv", "a-directory"])
    def test_unreadable_data_path_exits_2(self, name, tmp_path, capsys):
        (tmp_path / "a-directory").mkdir()
        path = tmp_path / name
        code = cli.main(["run", "--out", str(tmp_path / "run"),
                         "--set", f"data.path={path}"])
        assert code == 2
        assert f"{path}: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("content, where", [
        (b"\xff\xfe\x00abc\n", "line 1: not UTF-8 text"),
        (b"split,label,f_0\npretrain,0,1\ntrain,0,\xff\n",
         "line 3: not UTF-8 text"),
        (b"split,label,f_0\npretrain,0,1\npretrain,0," + b"1" * 200_000
         + b"\n", "line 3: non-finite feature value"),
    ], ids=["utf16-bom", "bad-byte-line-3", "long-field"])
    def test_unparseable_csv_bytes_exit_2(self, content, where, tmp_path,
                                          capsys):
        """Bytes the reader refuses name their line, and so does a field
        longer than the csv module's limit (numpy reads it, as inf)."""
        path = tmp_path / "bin.csv"
        path.write_bytes(content)
        code = cli.main(["run", "--out", str(tmp_path / "run"),
                         "--set", f"data.path={path}"])
        assert code == 2
        assert f"{path} {where}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("[]", "state must be a JSON object, got list"),
        ('{"format": "lbi-state", "version": 1}', "state has no arch key"),
        ('{"format": "lbi-state", "version": 1, "arch": [], "iteration": 0, '
         '"ignore_mode": "clamp", "pretrain_encoder": [], '
         '"pretrain_head": [], "finetune_encoder": [], "finetune_head": [], '
         '"ignore_pretrain_raw": [], "ignore_finetune_raw": null}',
         "bad state: "),
    ], ids=["list", "no-keys", "bad-arch"])
    def test_malformed_state_exits_2(self, text, message, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(text)
        code = cli.main(["eval", *TINY_DATA, "--state", str(path)])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, index, value", [
        ("iteration", None, -2), ("iteration", None, 1.5),
        ("iteration", None, True), ("iteration", None, "2"),
        ("finetune_encoder", 0, None), ("pretrain_head", 1, "0.5"),
        ("ignore_pretrain_raw", 0, True), ("finetune_head", 0, math.nan),
        ("ignore_finetune_raw", 2, -math.inf), ("pretrain_encoder", 3, [1.0]),
        ("arch", "dim", 5.0), ("arch", "hidden", False),
        ("arch", "classes", "2"),
    ])
    @pytest.mark.parametrize("command", ["run", "eval"])
    def test_state_field_of_wrong_type_exits_2(self, key, index, value,
                                               command, tmp_path, capsys):
        """A count that is not a JSON integer >= 0, or a block entry that
        is not a finite number, is named, not read as some number.  Both
        commands read their state before the output directory is made."""
        first = tmp_path / "first"
        assert cli.main(run_args(first, ["--set", "iterations=3"])) == 0
        state = read_json(first / "state.json")
        if index is None:
            state[key] = value
        else:
            state[key][index] = value
        path = tmp_path / "edited.json"
        with open(path, "w") as fh:
            json.dump(state, fh)
        out = tmp_path / "out"
        argv = ([command, "--out", str(out), *TINY_DATA] + (
            ["--state", str(path)] if command == "eval" else
            ["--set", "iterations=5", "--set", f"run.resume={path}"]))
        assert cli.main(argv) == 2
        name = key if index is None or key != "arch" else f"arch.{index}"
        assert f"error: bad state: {name} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_saved_states_load_to_their_bytes(self, tmp_path):
        """What ``save_state`` writes passes the checks unchanged: every
        block, empty score sets and a basic-mode state included."""
        bundle = datasets.generate(datasets.SynthSpec(
            dim=3, classes=3, n_pretrain=5, n_train=4, n_val=3, n_test=2))
        for cfg, data in (
                (engine.LbiConfig(iterations=2, hidden=2), bundle),
                (engine.LbiConfig(iterations=2, mode="basic", gamma=0.0),
                 bundle),
                (engine.LbiConfig(iterations=2, ignore_mode="sigmoid"),
                 reference.without_pretraining(bundle))):
            state, _ = engine.run(data, cfg)
            engine.save_state(state, tmp_path / "s.json")
            loaded, _ = engine.load_state(tmp_path / "s.json")
            assert loaded.iteration == 2
            assert ([b.tobytes() for b in engine._blocks(loaded)]
                    == [b.tobytes() for b in engine._blocks(state)])

    @pytest.mark.parametrize("argv", [
        run_args("{out}"), ["verify", "--seed", "0", "--out", "{out}"],
        ["eval", *TINY_DATA, "--state", "{state}", "--out", "{out}"],
        ["ablate", *TINY_DATA, "--ids", "A1", "--seeds", "0", "--out", "{out}"],
        ["sweep", *TINY_DATA, "--param", "lambda", "--grid", "0,1,2",
         "--seeds", "0", "--out", "{out}"],
        ["gen-data", *TINY_DATA, "--out", "{out}"],
    ], ids=["run", "verify", "eval", "ablate", "sweep", "gen-data"])
    def test_out_naming_a_file_exits_2(self, argv, tmp_path, capsys,
                                       monkeypatch):
        """Before any work: no training, check, matrix or sweep runs and
        no data is written.  eval's state is read before, as every
        command's state is."""
        state = tmp_path / "first" / "state.json"
        if "{state}" in argv:
            assert cli.main(run_args(state.parent)) == 0

        def never(*args, **kwargs):
            raise AssertionError("ran before the output directory was made")

        for module, name in [(engine, "run"), (gradcheck, "verify_hypergrads"),
                             (experiments, "score"),
                             (experiments, "run_matrix"),
                             (experiments, "sweep"), (datasets, "save_csv")]:
            monkeypatch.setattr(module, name, never)
        afile = tmp_path / "afile"
        afile.write_text("")
        code = cli.main([a.format(out=afile, state=state) for a in argv])
        assert code == 2
        assert f"cannot make output directory {afile}" in (
            capsys.readouterr().err)

    def test_unreadable_state_exits_2(self, tmp_path, capsys):
        code = cli.main(run_args(tmp_path / "run",
                                 ["--set", f"run.resume={tmp_path}"]))
        assert code == 2
        assert f"cannot read state file {tmp_path}" in capsys.readouterr().err

    @pytest.mark.parametrize("name, message", [
        ("missing.json", "state file not found: "),
        ("a-directory", "cannot read state file "),
        ("empty.json", "not a state file (format=None)"),
    ], ids=["missing", "directory", "empty-object"])
    @pytest.mark.parametrize("command", ["run", "eval"])
    def test_state_that_cannot_be_read_makes_no_directory(
            self, command, name, message, tmp_path, capsys):
        (tmp_path / "a-directory").mkdir()
        (tmp_path / "empty.json").write_text("{}")
        path, out = tmp_path / name, tmp_path / "out"
        argv = ([command, "--out", str(out), *TINY_DATA] + (
            ["--state", str(path)] if command == "eval" else
            ["--set", f"run.resume={path}"]))
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["ablate", "--ids", "A1", "--seeds", "0", "--set", "iterations=2"],
        ["sweep", "--param", "lambda", "--grid", "0,1,2", "--seeds", "0",
         "--set", "iterations=2"],
        ["verify", "--seed", "0"], ["gen-data"],
        ["eval", "--state", "state.json"],
    ], ids=["ablate", "sweep", "verify", "gen-data", "eval"])
    def test_resume_outside_run_exits_2(self, argv, tmp_path, capsys):
        """Only run resumes: elsewhere run.resume is refused, not ignored."""
        out = tmp_path / "out"
        code = cli.main([*argv, *TINY_DATA, "--out", str(out), "--set",
                         f"run.resume={tmp_path / 'state.json'}"])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: lbi {argv[0]} does not read ")
        assert "run.resume" in line.partition(" (it reads")[0]
        assert not out.exists()


# What each command reads, written out: config sections and single keys.
READS = {
    "run": {"lbi", "data", "run.out", "run.resume"},
    "verify": {"verify", "lbi.hidden", "lbi.ignore_mode", "lbi.mode"},
    "ablate": {"lbi", "data", "ablate", "run.out"},
    "sweep": {"lbi", "data", "sweep", "run.out"},
    "gen-data": {"data", "run.out"},
    "eval": {"data", "eval"},
}
FIELD_KEYS = [f"{s}.{k}" for s, table in config.SECTIONS.items()
              for k in table]
ALIAS_KEYS = [f"{s}.{alias}" for alias, name in config.ALIASES.items()
              for s, table in config.SECTIONS.items() if name in table]
# A valid --set value of each key without a default ({state}, {csv} and
# {dir} are filled in); every other key is set to its default.
VALUES = {
    "lbi.batch_size": "none", "data.kind": "synth", "data.path": "{csv}",
    "data.source_means": "[[0, 0, 0, 0, 0], [1, 1, 1, 1, 1]]",
    "run.out": "{dir}/run-out", "run.resume": "{state}",
    "verify.dim": "3", "verify.classes": "2", "verify.n_pretrain": "4",
    "verify.n_train": "4", "verify.n_val": "4", "verify.lam": "0.5",
    "verify.lambda": "0.5", "verify.gamma": "0.5", "sweep.param": "gamma",
    "sweep.grid": "0,1,2", "eval.state": "{state}",
}
# The flags a command requires.
REQUIRED = {"sweep": ["--param", "lambda", "--grid", "0,1,2"],
            "eval": ["--state", "{state}"]}


def reads(entries, key):
    """Whether ``entries``, sections and single keys, cover dotted ``key``."""
    section, _, name = key.partition(".")
    return (section in entries
            or f"{section}.{config.ALIASES.get(name, name)}" in entries)


def value_text(key):
    """A valid --set value of ``key``: its VALUES entry, else its default."""
    if key in VALUES:
        return VALUES[key]
    section, _, name = key.partition(".")
    default = config.SECTIONS[section][config.ALIASES.get(name, name)].default
    return json.dumps(list(default) if isinstance(default, tuple) else default)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """{state}: a state of the default config; {csv}: the default data as
    CSV, which it fits."""
    root = tmp_path_factory.mktemp("inputs")
    assert cli.main(["run", "--out", str(root / "run"),
                     "--set", "iterations=1"]) == 0
    assert cli.main(["gen-data", "--out", str(root / "data")]) == 0
    return {"state": str(root / "run" / "state.json"),
            "csv": str(root / "data" / "data.csv")}


class TestReads:
    """Each command reads the config that ``Command.reads`` declares.  A key
    given on the command line that the command does not read is refused
    (exit 2) before any data, state or directory is touched; one from a
    config file is listed in the manifest as unread, outside the hash."""

    @pytest.mark.parametrize("key", FIELD_KEYS + ALIAS_KEYS)
    @pytest.mark.parametrize("command", READS)
    def test_every_key_on_every_command(self, command, key, inputs, tmp_path,
                                        monkeypatch, capsys):
        section, _, name = key.partition(".")
        read = reads(READS[command], key)
        fill = {**inputs, "dir": str(tmp_path)}
        if not read:
            def never(*args, **kwargs):
                raise AssertionError("read before the key was refused")
            monkeypatch.setattr(cli, "load_data", never)
            monkeypatch.setattr(engine, "load_state", never)
        # The command's work is not run: only its resolution is checked.
        monkeypatch.setitem(cli.COMMANDS, command, cli.COMMANDS[
            command]._replace(work=lambda job: 0))
        out = tmp_path / "out"
        argv = [command, "--out", str(out),
                *(a.format(**fill) for a in REQUIRED.get(command, [])),
                "--set", f"{key}={value_text(key).format(**fill)}"]
        code = cli.main(argv)
        err = capsys.readouterr().err
        if read and (command, key) == ("gen-data", "data.path"):
            assert code == 2
            assert "gen-data requires synthetic data" in err
        elif read:
            assert code == 0, err
            assert read_json(out / "manifest.json")["unread"] == []
        else:
            assert code == 2
            field = f"{section}.{config.ALIASES.get(name, name)}"
            assert f"error: lbi {command} does not read {field} (" in err
            assert not out.exists()
            assert not (tmp_path / "run-out").exists()

    @pytest.mark.parametrize("argv, keys", [
        (["gen-data", "--set", "lam=0.5"], "lbi.lam"),
        (["gen-data", "--set", "iterations=5", "--set", "sweep.grid=1"],
         "lbi.iterations, sweep.grid"),
        (["eval", "--state", "{missing}", "--set", "lam=9",
          "--set", "batch_size=4"], "lbi.batch_size, lbi.lam"),
        (["verify", "--set", "lam=0.5"], "lbi.lam"),
        (["verify", "--set", "lambda=0.5", "--set", "iterations=7"],
         "lbi.iterations, lbi.lam"),
        (["verify", "--set", "ablate.ids=A1"], "ablate.ids"),
        (["ablate", "--set", "verify.lam=3"], "verify.lam"),
        (["sweep", "--param", "lambda", "--grid", "0,1,2",
          "--set", "eval.state=x"], "eval.state"),
        (["run", "--set", "verify.step=0.1"], "verify.step"),
        (["eval", "--state", "{missing}", "--set", "run.out={dir}/d"],
         "run.out"),
        (["verify", "--set", "run.out={dir}/d"], "run.out"),
    ])
    def test_a_key_the_command_never_reads_exits_2(self, argv, keys,
                                                    tmp_path, monkeypatch,
                                                    capsys):
        monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path / "root"))
        fill = {"dir": tmp_path, "missing": tmp_path / "missing.json"}
        assert cli.main([a.format(**fill) for a in argv]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: lbi {argv[0]} does not read {keys} (it reads ")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command, argv, unread", [
        ("gen-data", [], ["lbi.hidden"]),
        ("verify", ["--seed", "0"], ["data.n_pretrain"]),
    ])
    def test_unread_file_keys_are_listed_outside_the_hash(
            self, command, argv, unread, tmp_path):
        """One file may serve several commands: a key that this command
        does not read is listed, and leaves its input hash as it was."""
        read = "data:\n  n_pretrain: 10\nlbi:\n  hidden: 0\n"
        other = ("  lambda: 0.5\nrun:\n  resume: missing.json\n"
                 "eval:\n  state: missing.json\n")
        manifests = []
        for name, text in (("without", read), ("with", read + other)):
            cfg = tmp_path / f"{name}.yaml"
            cfg.write_text(text)
            out = tmp_path / name
            assert cli.main([command, "--config", str(cfg), *argv,
                             "--out", str(out)]) == 0
            manifests.append(read_json(out / "manifest.json"))
        without, with_ = manifests
        assert without["unread"] == unread
        assert with_["unread"] == sorted(
            [*unread, "eval.state", "lbi.lam", "run.resume"])
        assert with_["input_sha256"] == without["input_sha256"]


def test_every_key_is_read_and_every_flag_by_its_command():
    """A config key that no command reads, a flag or state key outside its
    command's reads, or a reads entry that names no section or key fails
    here."""
    commands = cli.COMMANDS.values()
    assert {name: set(c.reads) for name, c in cli.COMMANDS.items()} == READS
    for c in commands:
        for entry in c.reads:
            section, _, name = entry.partition(".")
            assert name in config.SECTIONS[section] or not name, entry
        for key in [*c.flags.values(), *[c.state] * bool(c.state)]:
            assert reads(c.reads, key), (c.help, key)
    for key in FIELD_KEYS:
        assert any(reads(c.reads, key) for c in commands), key
