"""Command-line front end.

Subcommands: run, verify, ablate, sweep, gen-data, eval.  Configuration
comes from an optional YAML file with the sections of ``config.SECTIONS``,
then ``--set dotted.key=value`` overrides (values parsed as YAML; a bare key
like ``--set lambda=7e-3`` means ``lbi.lambda``), then the command's flags.
Each flag sets one config key (``COMMANDS``), so a flag beats ``--set``.
``config.read_config`` types and checks all of it before a command starts.
A key that the command does not read (``Command.reads``) is an error when
given on the command line, and listed as ``unread`` when from the file.

``main`` owns every command's envelope.  Before any work it resolves the lbi
config, loads the data and the state (``Command.state``), and makes the output
directory: ``--out``, else ``run.out``, else ``$LBI_OUT_ROOT/<command>-<hash>``
(default root ./lbi-runs), the hash being the first 12 hex digits of
``input_sha256``; a command that does not read ``run.out`` writes files only
with ``--out``.  When the command returns, ``main`` writes ``manifest.json``
there: the resolved configuration, the data entry (a synthetic spec, or a CSV's
path with the sha256 of the CSV and of its sidecar), the command's own
settings, the state file read (``resume`` or ``state``: its path and sha256),
their content hash ``input_sha256``, and outside the hash the ``unread`` file
keys, a timestamp, the environment and wall time of the command (``run_env``:
CPU count, Python, numpy, BLAS, its thread variables, the thread count in
effect and ``cpu_kernels``), and for ``run``, ``ablate`` and ``sweep`` the
``engine.plan`` that trains the stack (``plan``).  Data files are written
atomically (temp file, then rename) and all numeric CSV output uses 17
significant digits, so reruns of the same deterministic command produce
byte-identical data files.

Exit codes: 0 success, 1 verification failure, 2 configuration or parse
error, 3 numeric failure during optimization, 4 one or more matrix or sweep
cells failed (the surviving table is still written).
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from typing import Callable, NamedTuple

import numpy as np
import yaml

from . import __version__, datasets, engine, experiments, gradcheck
from .config import ALIASES, SECTIONS, read_config
from .engine import LbiConfig
from .errors import ConfigError, LbiError, NumericError, ParseError

OUT_ROOT_ENV = "LBI_OUT_ROOT"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CELLS_FAILED = 4


def _fmt(x) -> str:
    """A CSV field: floats at 17 significant digits, None as empty."""
    if isinstance(x, float):
        return format(x, ".17g")
    return "" if x is None else str(x)


def _write_json(path: str, obj):
    """Write ``obj`` as strict JSON: a NaN or infinite float raises
    ValueError, as JSON has no token for one."""
    with datasets.atomic_open(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
                 + "\n")


def _write_csv(path: str, header: list[str], rows: list[list]):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with datasets.atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


# Configuration plumbing ----------------------------------------------------

def load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror}") from None
    except yaml.YAMLError as e:
        raise ParseError(f"{path}: {e}") from None
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return raw


def _parse_set(item: str) -> tuple[str, str, object]:
    """(label, dotted key, value) of one --set KEY=VALUE."""
    key, eq, raw_value = item.partition("=")
    key = key.strip()
    if not (eq and key):
        raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
    try:
        value = yaml.safe_load(raw_value)
    except yaml.YAMLError:
        raise ConfigError(f"--set {item!r}: unparseable value") from None
    return f"--set {item!r}", key if "." in key else f"lbi.{key}", value


def apply_overrides(config: dict, given) -> dict:
    """Apply the (label, dotted key, value) triples ``given``, in order."""
    config = copy.deepcopy(config)
    for label, key, value in given:
        *path, last = key.split(".")
        node = config
        for p in path:
            if node.get(p) is None:
                node[p] = {}
            node = node[p]
            if not isinstance(node, dict):
                raise ConfigError(f"{label}: {p!r} is not a mapping")
        node[last] = value
    return config


_CSV_KEYS = ("kind", "path", "dim", "classes")


def load_data(config: dict):
    """(spec or path, bundle, manifest entry) of the data section.  A CSV's
    entry holds the sha256 of the bytes its table was read from and of its
    sidecar (None when there is none), and whether the table came from the
    cache beside the CSV ("hit") or from parsing it ("miss")."""
    section = config["data"]
    kind = section.get("kind", "csv" if "path" in section else "synth")
    keys = _CSV_KEYS if kind == "csv" else set(SECTIONS["data"]) - {"path"}
    stray = [k for k in section if k not in keys]
    if stray:
        raise ConfigError(f"data.{stray[0]} does not apply to data.kind={kind}")
    if kind == "csv":
        if "path" not in section:
            raise ConfigError("data.kind=csv requires data.path")
        path = section["path"]
        bundle, sha256, cache, side = datasets._load(
            path, section.get("dim"), section.get("classes"))
        return path, bundle, {"kind": "csv", "path": path, "sha256": sha256,
                              "cache": cache, "sidecar_sha256": side}
    spec = datasets.SynthSpec(**{k: section.get(k, SECTIONS["data"][k].default)
                                 for k in keys if k != "kind"})
    return spec, datasets.generate(spec), {"kind": "synth",
                                           "spec": spec.to_dict()}


def _content_hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(json.dumps(part, sort_keys=True, default=str).encode())
        h.update(b"\x00")
    return h.hexdigest()


@dataclass
class Job:
    """A command as ``main`` resolves it before any work: the checked
    config, the lbi config, the data, the command's settings (its config
    section with defaults), the manifest so far, the output directory
    (None when the command writes no files) and the state it reads."""

    command: str
    config: dict
    cfg: LbiConfig | None = None
    source: object = None  # the data's SynthSpec or CSV path
    bundle: datasets.DatasetBundle | None = None
    settings: dict = field(default_factory=dict)
    manifest: dict = field(default_factory=dict)
    out: str | None = None
    state: engine.LbiState | None = None


def resolve(args) -> Job:
    """The Job of parsed ``args``, its output directory made."""
    cmd = COMMANDS[args.command]
    given = [*map(_parse_set, args.sets),
             *((f"--{flag}", key, getattr(args, flag))
               for flag, key in cmd.flags.items()
               if getattr(args, flag) is not None)]
    job = Job(args.command, read_config(apply_overrides(
        load_config_file(args.config), given)))
    config, command = job.config, job.command
    unread = sorted(f"{s}.{k}" for s in config for k in config[s]
                    if s not in cmd.reads and f"{s}.{k}" not in cmd.reads)
    # Only a key from the file may go unread: the file may serve others.
    on_line = {f"{s}.{ALIASES.get(k, k)}" for s, _, k in
               (key.partition(".") for _, key, _ in given)}
    if refused := [key for key in unread if key in on_line]:
        raise ConfigError(f"lbi {command} does not read {', '.join(refused)} "
                          f"(it reads {', '.join(cmd.reads)})")
    for flag, key in cmd.flags.items():
        section, name = key.split(".")
        if SECTIONS[section][name].default is None and name not in config[section]:
            raise ConfigError(f"{command} requires --{flag} or {key}")

    job.manifest = {"tool": {"name": "lbi", "version": __version__},
                    "command": command, "unread": unread}
    parts = [command]
    if "lbi" in cmd.reads:
        job.cfg = LbiConfig(**config["lbi"])
        job.manifest["config"] = job.cfg.to_dict()
        parts.append(job.manifest["config"])
    if "data" in cmd.reads:
        job.source, job.bundle, entry = load_data(config)
        if command == "gen-data" and entry["kind"] != "synth":
            raise ConfigError("gen-data requires synthetic data configuration")
        job.manifest["data"] = entry
        # Whether the CSV's table came from its cache is no input.
        parts.append({k: v for k, v in entry.items() if k != "cache"})
    if command in cmd.reads:
        # Its own section with defaults, and the lbi keys it reads singly.
        job.settings = {k: f.default for k, f in SECTIONS[command].items()
                        if f.default is not None} | config[command] | {
            k: v for k, v in config["lbi"].items() if f"lbi.{k}" in cmd.reads}
        job.manifest[command] = job.settings
        parts.append({command: job.settings})
    if cmd.state:
        section, name = cmd.state.split(".")
        if path := config[section].get(name):
            job.state, sha256 = engine.load_state(path)
            job.manifest[name] = {"path": path, "sha256": sha256}
            parts.append({name: job.manifest[name]})
            # A state that does not fit is refused before any directory.
            if job.cfg is not None:
                engine._check_state(job.state, job.bundle, job.cfg)
            else:
                engine.check_fit(job.state, job.bundle)
    job.manifest["input_sha256"] = _content_hash(*parts)

    job.out = args.out or None
    if job.out is None and "run.out" in cmd.reads:
        job.out = config["run"].get("out") or os.path.join(
            os.environ.get(OUT_ROOT_ENV, "lbi-runs"),
            f"{command}-{job.manifest['input_sha256'][:12]}")
    if job.out is not None:
        try:
            os.makedirs(job.out, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot make output directory {job.out}: "
                              f"{e.strerror}") from None
    return job


# The variables that set how many threads BLAS runs on.  The engine's
# overlap of an iteration's two stages pays only with BLAS on one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def blas_name() -> str:
    """The BLAS numpy was built against, as "<name>-<version>"."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']}-{blas['version']}"


def _openblas(name: str, text: bool = False):
    """``scipy_openblas_<name>64_()`` of numpy's bundled OpenBLAS, an int
    (or text), or None for a BLAS that does not export it."""
    import ctypes  # not imported with lbi
    try:
        call = getattr(ctypes.CDLL(np._core._multiarray_umath.__file__),
                       f"scipy_openblas_{name}64_")
    except (AttributeError, OSError):
        return None
    call.argtypes, call.restype = [], ctypes.c_char_p if text else ctypes.c_int
    return call().decode() if text else call()


def blas_threads_in_effect() -> int | None:
    """The thread count of numpy's bundled OpenBLAS (scipy-openblas), or
    None for a BLAS that does not export its getter."""
    return _openblas("get_num_threads")


def cpu_kernels() -> dict:
    """The CPU-specific kernels the output bytes rest on: the core that
    numpy's bundled OpenBLAS picked (``blas_core``) and numpy's dispatch
    target for float64 exp, log and tanh (``numpy_simd``).  Each is None
    where the build does not expose it (numpy 1.26 has no introspect)."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        simd = None
    else:
        info = opt_func_info(func_name="^(exp|log|tanh)$", signature="float64")
        simd = "+".join(sorted({loop["current"] for func in info.values()
                                for loop in func.values()})) or None
    return {"blas_core": _openblas("get_corename", text=True),
            "numpy_simd": simd}


def write_manifest(job: Job, started: float):
    """The job's manifest.json, for a command that started at
    ``time.perf_counter()`` value ``started``."""
    _write_json(os.path.join(job.out, "manifest.json"), {
        **job.manifest,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "run_env": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_name(),
            "blas_threads": {var: os.environ.get(var)
                             for var in BLAS_THREAD_VARS},
            "blas_threads_in_effect": blas_threads_in_effect(),
            **cpu_kernels(),
            "duration_s": round(time.perf_counter() - started, 3),
        },
    })


# Commands -------------------------------------------------------------------

TRACE_HEADER = ",".join(f.name for f in fields(engine.TraceRow))


def _trace_line(row: engine.TraceRow) -> str:
    return ",".join(_fmt(getattr(row, f.name)) for f in fields(row))


def _reported(scores: dict) -> dict:
    """What ``run`` and ``eval`` report of ``experiments.score``'s scores:
    test and val accuracy, and the pretraining weights' recovery AUC when
    it is defined."""
    out = {k: scores[k] for k in ("test_accuracy", "val_accuracy")}
    if scores["recovery_auc_pretrain"] is not None:
        out["recovery_auc_pretrain"] = scores["recovery_auc_pretrain"]
    return out


def _mean(weights: np.ndarray | None) -> float | None:
    """The mean weight; None for no set or an empty one."""
    if weights is None or not weights.size:
        return None
    return float(np.mean(weights))


def cmd_run(job: Job) -> int:
    bundle = job.bundle
    job.manifest["plan"] = engine.plan(bundle, job.cfg, 1)._asdict()

    trace_path = os.path.join(job.out, "trace.csv")
    failure: NumericError | None = None
    # Any other exception leaves no trace file; a numeric failure keeps the
    # rows before it.
    with datasets.atomic_open(trace_path) as fh:
        fh.write(TRACE_HEADER + "\n")
        try:
            state, _ = engine.run(
                bundle, job.cfg, initial_state=job.state,
                trace_hook=lambda row: fh.write(_trace_line(row) + "\n"),
            )
        except NumericError as e:
            failure = e
    if failure is not None:
        print(f"numeric failure at iteration {failure.iteration}: {failure}",
              file=sys.stderr)
        print(f"partial trace ({len(failure.partial_trace)} rows) written to "
              f"{trace_path}", file=sys.stderr)
        return EXIT_NUMERIC

    engine.save_state(state, os.path.join(job.out, "state.json"))
    scores = experiments.score(state, bundle)
    summary = {
        "iterations": state.iteration,
        **_reported(scores),
        "final_ignore_pretrain_mean": _mean(scores["final_ignore_pretrain"]),
        "final_ignore_finetune_mean": _mean(scores["final_ignore_finetune"]),
    }
    _write_json(os.path.join(job.out, "summary.json"), summary)
    print(f"run complete: {state.iteration} iterations, "
          f"test accuracy {summary['test_accuracy']:.4f}, "
          f"val accuracy {summary['val_accuracy']:.4f}")
    print(f"outputs in {job.out}")
    return EXIT_OK


def cmd_verify(job: Job) -> int:
    step, threshold = job.settings["step"], job.settings["threshold"]
    # The instance keys given; the rest of the instance is drawn per seed.
    instance_keys = {k: v for k, v in job.settings.items()
                     if k not in ("step", "threshold", "seeds")}
    all_passed = True
    reports = []
    for seed in job.settings["seeds"]:
        inst = gradcheck.make_check_instance(seed, **instance_keys)
        report = gradcheck.verify_hypergrads(
            inst.state, inst.arrays, inst.cfg, step=step, threshold=threshold)
        reports.append((seed, report))
        print(f"seed {seed}:")
        print(report.as_table())
        all_passed = all_passed and report.passed()
    if job.out:
        _write_json(os.path.join(job.out, "verify.json"), {
            "reports": [
                {"seed": s, **r.to_dict()} for s, r in reports
            ],
            "passed": all_passed,
        })
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def _matrix_rows(result: experiments.MatrixResult) -> list[list]:
    return [[r.ablation, r.seed, r.test_accuracy, r.val_accuracy,
             r.recovery_auc_pretrain, r.recovery_auc_finetune, r.error]
            for r in result.results]


def cmd_ablate(job: Job) -> int:
    ids, seeds = job.settings["ids"], job.settings["seeds"]
    job.manifest["plan"] = engine.plan(job.bundle, job.cfg,
                                       len(ids) * len(seeds))._asdict()
    result = experiments.run_matrix(job.bundle, ids, seeds, job.cfg)
    _write_csv(
        os.path.join(job.out, "results.csv"),
        ["ablation", "seed", "test_accuracy", "val_accuracy",
         "recovery_auc_pretrain", "recovery_auc_finetune", "error"],
        _matrix_rows(result),
    )
    _write_json(os.path.join(job.out, "summary.json"), {
        "aggregates": [asdict(a) for a in result.aggregates],
        "ids": ids, "seeds": seeds,
        "any_failed": result.any_failed,
    })

    print(f"{'id':<6} {'n':>2} {'test_acc':>10} {'std':>8} {'auc':>8}")
    for a in result.aggregates:
        test = "-" if a.test_accuracy_mean is None else f"{a.test_accuracy_mean:.4f}"
        std = "-" if a.test_accuracy_std is None else f"{a.test_accuracy_std:.4f}"
        auc = "-" if a.recovery_auc_mean is None else f"{a.recovery_auc_mean:.4f}"
        print(f"{a.ablation:<6} {a.n_ok:>2} {test:>10} {std:>8} {auc:>8}")
    print(f"outputs in {job.out}")
    return EXIT_CELLS_FAILED if result.any_failed else EXIT_OK


def cmd_sweep(job: Job) -> int:
    param, grid, seeds = (job.settings[k] for k in ("param", "grid", "seeds"))
    job.manifest["plan"] = engine.plan(job.bundle, job.cfg,
                                       len(grid) * len(seeds))._asdict()
    result = experiments.sweep(param, grid, job.bundle, seeds, job.cfg)

    def error(r: experiments.RunResult) -> str | None:
        return None if r.ok else f"seed {r.seed}: {r.error}"

    # One row per seed; a failed seed carries its error message instead.
    _write_csv(
        os.path.join(job.out, "sweep.csv"),
        ["param", "value", "seed", "val_accuracy", "test_accuracy", "error"],
        [[param, r.ablation, r.seed, r.val_accuracy, r.test_accuracy,
          error(r)] for r in result.results],
    )
    points = [{"value": row.ablation,
               "val_accuracy_mean": row.val_accuracy_mean,
               "val_accuracy_std": row.val_accuracy_std,
               "test_accuracy_mean": row.test_accuracy_mean,
               "errors": [error(r) for r in cells if not r.ok]}
              for row, cells in result.blocks()]
    summary = {"param": param, "grid": grid, "points": points,
               "any_failed": result.any_failed}
    try:
        summary["argmax_value"] = result.argmax_value
        summary["argmax_interior"] = result.argmax_interior
    except NumericError:
        pass
    _write_json(os.path.join(job.out, "summary.json"), summary)
    for p in points:
        mean = p["val_accuracy_mean"]
        print(f"{param}={p['value']:g}: val accuracy "
              + ("-" if mean is None else f"{mean:.4f}")
              + (f" ({len(p['errors'])} failed)" if p["errors"] else ""))
    if "argmax_value" in summary:
        where = "interior" if summary["argmax_interior"] else "endpoint"
        print(f"best {param} = {summary['argmax_value']:g} ({where})")
    print(f"outputs in {job.out}")
    return EXIT_CELLS_FAILED if result.any_failed else EXIT_OK


def cmd_gen_data(job: Job) -> int:
    path = os.path.join(job.out, "data.csv")
    datasets.save_csv(job.bundle, path, spec=job.source)
    sizes = {name: split.n for name, split in job.bundle.splits().items()}
    print(f"wrote {path} ({sizes})")
    return EXIT_OK


def cmd_eval(job: Job) -> int:
    report = {"state": job.settings["state"], "iteration": job.state.iteration,
              **_reported(experiments.score(job.state, job.bundle))}
    auc = report.get("recovery_auc_pretrain")
    print(f"test accuracy {report['test_accuracy']:.4f}, "
          f"val accuracy {report['val_accuracy']:.4f}"
          + (f", recovery auc {auc:.4f}" if auc is not None else ""))
    if job.out:
        _write_json(os.path.join(job.out, "eval.json"), report)
    return EXIT_OK


# Entry point ----------------------------------------------------------------

class Command(NamedTuple):
    work: Callable[[Job], int]
    help: str
    reads: tuple  # the config sections and single section.keys it reads
    flags: dict   # flag name: the config key it sets
    state: str | None = None  # the key naming the state file it reads


COMMANDS = {
    "run": Command(cmd_run, "one full training run",
                   ("lbi", "data", "run.out", "run.resume"),
                   {"seed": "lbi.seed"}, state="run.resume"),
    "verify": Command(cmd_verify, "check hypergradients against finite "
                      "differences",
                      ("verify", "lbi.hidden", "lbi.ignore_mode", "lbi.mode"),
                      {"seed": "verify.seeds"}),
    "ablate": Command(cmd_ablate, "run the ablation matrix",
                      ("lbi", "data", "ablate", "run.out"),
                      {"ids": "ablate.ids", "seeds": "ablate.seeds"}),
    "sweep": Command(cmd_sweep, "sweep lambda or gamma",
                     ("lbi", "data", "sweep", "run.out"),
                     {"param": "sweep.param", "grid": "sweep.grid",
                      "seeds": "sweep.seeds"}),
    "gen-data": Command(cmd_gen_data, "write a synthetic bundle as CSV",
                        ("data", "run.out"), {}),
    "eval": Command(cmd_eval, "score a saved state on a dataset",
                    ("data", "eval"), {"state": "eval.state"},
                    state="eval.state"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lbi",
        description="Train classifiers that learn which pretraining "
                    "examples to ignore.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        # No abbreviations: --seed must not stand for --seeds.
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        p.add_argument("--config", help="YAML configuration file")
        p.add_argument("--set", dest="sets", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config value (bare keys mean lbi.KEY)")
        p.add_argument("--out", help="output directory")
        for flag, key in command.flags.items():
            p.add_argument(f"--{flag}", help=f"set {key}")
    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    args = build_parser().parse_args(argv)
    try:
        job = resolve(args)
        code = COMMANDS[job.command].work(job)
        if job.out is not None:
            write_manifest(job, started)
        return code
    except (ConfigError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as e:
        loc = f" at iteration {e.iteration}" if e.iteration is not None else ""
        print(f"numeric failure{loc}: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except LbiError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
