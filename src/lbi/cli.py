"""Command-line front end.

Subcommands: run, verify, ablate, sweep, gen-data, eval.  Configuration
comes from an optional YAML file with the sections of ``config.SECTIONS``
plus ``--set dotted.key=value`` overrides; a bare key like ``--set
lambda=7e-3`` means ``lbi.lambda``.  Override values are parsed as YAML, and
``config.read_config`` types and checks all of it before a command starts.

Every command that produces files writes them into one output directory
(``--out``, else ``run.out`` from the config, else a deterministic directory
under $LBI_OUT_ROOT or ./lbi-runs) together with a manifest recording the
full resolved configuration, a content hash of the inputs, a timestamp, and
the environment and wall time of the command (``run_env``, outside the hash).
Data files are written atomically (temp file, then rename) and all numeric
CSV output uses 17 significant digits, so reruns of the same deterministic
command produce byte-identical data files.

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
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np
import yaml

from . import __version__, datasets, engine, experiments, gradcheck
from .config import SECTIONS, SWEEP_PARAMS, read_config, read_flag
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


def _atomic_write_text(path: str, text: str):
    tmp = os.path.join(
        os.path.dirname(path) or ".",
        f".{os.path.basename(path)}.tmp.{os.getpid()}",
    )
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path: str, obj):
    _atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, header: list[str], rows: list[list]):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


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


def apply_overrides(config: dict, sets: list[str]) -> dict:
    """Apply --set KEY=VALUE pairs; bare keys alias into the lbi section."""
    config = copy.deepcopy(config)
    for item in sets:
        key, eq, raw_value = item.partition("=")
        key = key.strip()
        if not (eq and key):
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        try:
            value = yaml.safe_load(raw_value)
        except yaml.YAMLError:
            raise ConfigError(f"--set {item!r}: unparseable value") from None
        parts = key.split(".")
        if len(parts) == 1:
            parts = ["lbi", parts[0]]
        node = config
        for p in parts[:-1]:
            if node.get(p) is None:
                node[p] = {}
            node = node[p]
            if not isinstance(node, dict):
                raise ConfigError(f"--set {item!r}: {p!r} is not a mapping")
        node[parts[-1]] = value
    return config


def build_lbi_config(config: dict, seed_flag: int | None) -> LbiConfig:
    section = config["lbi"]
    if seed_flag is not None:
        section = {**section,
                   "seed": read_flag("lbi", "seed", seed_flag, "--seed")}
    return engine.config_with(LbiConfig(), **section)


def _setting(config: dict, section: str, key: str, flag=None, flag_value=None):
    """``section.key`` from its command-line flag when one is given, else
    from the config, else the field's default."""
    if flag_value is not None:
        return read_flag(section, key, flag_value, flag)
    return config[section].get(key, SECTIONS[section][key].default)


_CSV_KEYS = ("kind", "path", "dim", "classes")


def resolve_data(config: dict):
    """Returns (kind, spec_or_path, bundle)."""
    section = config["data"]
    kind = section.get("kind", "csv" if "path" in section else "synth")
    keys = _CSV_KEYS if kind == "csv" else set(SECTIONS["data"]) - {"path"}
    stray = [k for k in section if k not in keys]
    if stray:
        raise ConfigError(f"data.{stray[0]} does not apply to data.kind={kind}")
    if kind == "csv":
        if "path" not in section:
            raise ConfigError("data.kind=csv requires data.path")
        schema = datasets.CsvSchema(section.get("dim"), section.get("classes"))
        return "csv", section["path"], datasets.load_csv(section["path"], schema)
    spec = datasets.SynthSpec(**{k: section.get(k, SECTIONS["data"][k].default)
                                 for k in keys if k != "kind"})
    return "synth", spec, datasets.generate(spec)


def _content_hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
        else:
            h.update(json.dumps(part, sort_keys=True, default=str).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _data_manifest_entry(kind: str, spec_or_path) -> dict:
    if kind == "synth":
        return {"kind": "synth", "spec": spec_or_path.to_dict()}
    with open(spec_or_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"kind": "csv", "path": str(spec_or_path), "sha256": digest}


def write_manifest(out_dir: str, command: str, cfg: LbiConfig | None,
                   data_entry: dict | None, extra: dict | None = None, *,
                   started: float):
    """manifest.json for a command that started at ``time.perf_counter()``
    value ``started``."""
    manifest = {
        "tool": {"name": "lbi", "version": __version__},
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    hash_parts = [command]
    if cfg is not None:
        manifest["config"] = cfg.to_dict()
        hash_parts.append(cfg.to_dict())
    if data_entry is not None:
        manifest["data"] = data_entry
        hash_parts.append(data_entry)
    if extra:
        manifest.update(extra)
        hash_parts.append(extra)
    manifest["input_sha256"] = _content_hash(*hash_parts)
    manifest["run_env"] = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "duration_s": round(time.perf_counter() - started, 3),
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def resolve_out_dir(args, config: dict, command: str, cfg_for_hash) -> str:
    out = args.out or config["run"].get("out")
    if out is None:
        root = os.environ.get(OUT_ROOT_ENV, "lbi-runs")
        tag = _content_hash(command, cfg_for_hash)[:12]
        out = os.path.join(root, f"{command}-{tag}")
    return _make_out_dir(out)


def _make_out_dir(out: str) -> str:
    """Create the output directory ``out`` if it is not there; ConfigError
    naming it when it cannot be (a regular file of that name, say)."""
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as e:
        raise ConfigError(
            f"cannot make output directory {out}: {e.strerror}") from None
    return out


# Commands -------------------------------------------------------------------

TRACE_HEADER = ("iteration,pretrain_loss,train_loss,val_loss,"
                "ignore_grad_pretrain_norm,ignore_grad_finetune_norm")


def _trace_line(row: engine.TraceRow) -> str:
    return ",".join([
        str(row.iteration),
        _fmt(row.pretrain_loss), _fmt(row.train_loss), _fmt(row.val_loss),
        _fmt(row.ignore_grad_pretrain_norm), _fmt(row.ignore_grad_finetune_norm),
    ])


def cmd_run(args, config: dict) -> int:
    cfg = build_lbi_config(config, args.seed)
    kind, spec_or_path, bundle = resolve_data(config)
    out_dir = resolve_out_dir(args, config, "run",
                              [cfg.to_dict(), _data_manifest_entry(kind, spec_or_path)])

    initial = None
    resume = config["run"].get("resume")
    if resume:
        initial = engine.load_state(resume)

    trace_path = os.path.join(out_dir, "trace.csv")
    tmp_path = trace_path + f".tmp.{os.getpid()}"
    failure: NumericError | None = None
    with open(tmp_path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        try:
            state, _ = engine.run(
                bundle, cfg, initial_state=initial,
                trace_hook=lambda row: fh.write(_trace_line(row) + "\n"),
            )
        except NumericError as e:
            failure = e
    os.replace(tmp_path, trace_path)
    write_manifest(out_dir, "run", cfg, _data_manifest_entry(kind, spec_or_path),
                   started=args.started)
    if failure is not None:
        print(f"numeric failure at iteration {failure.iteration}: {failure}",
              file=sys.stderr)
        print(f"partial trace ({len(failure.partial_trace)} rows) written to "
              f"{trace_path}", file=sys.stderr)
        return EXIT_NUMERIC

    engine.save_state(state, os.path.join(out_dir, "state.json"))
    test_acc = experiments.accuracy(state.finetune_model,
                                    bundle.test.X, bundle.test.y)
    val_acc = experiments.accuracy(state.finetune_model,
                                   bundle.val.X, bundle.val.y)
    summary = {
        "iterations": state.iteration,
        "test_accuracy": test_acc,
        "val_accuracy": val_acc,
        "final_ignore_pretrain_mean": float(np.mean(
            state.ignore_pretrain.effective())) if bundle.pretrain.n else None,
        "final_ignore_finetune_mean": float(np.mean(
            state.ignore_finetune.effective()))
        if state.ignore_finetune is not None and bundle.pretrain.n else None,
    }
    auc = experiments.corrupted_recovery_auc(
        state.ignore_pretrain.effective(), bundle.corrupted)
    if auc is not None:
        summary["recovery_auc_pretrain"] = auc
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    print(f"run complete: {state.iteration} iterations, "
          f"test accuracy {test_acc:.4f}, val accuracy {val_acc:.4f}")
    print(f"outputs in {out_dir}")
    return EXIT_OK


def cmd_verify(args, config: dict) -> int:
    section = config["verify"]
    step = _setting(config, "verify", "step")
    threshold = _setting(config, "verify", "threshold")
    seeds = section.get("seeds") or _setting(config, "verify", "seeds",
                                             "--seed", args.seed)
    # The instance keys given in the verify section, and the architecture
    # from the lbi section; the rest of the instance is drawn per seed.
    instance_keys = {k: v for k, v in section.items()
                     if k not in ("step", "threshold", "seeds")}
    instance_keys.update((k, config["lbi"][k]) for k in
                         ("hidden", "ignore_mode", "mode") if k in config["lbi"])
    if args.out:
        _make_out_dir(args.out)

    all_passed = True
    reports = []
    for seed in seeds:
        inst = gradcheck.make_check_instance(seed, **instance_keys)
        report = gradcheck.verify_hypergrads(
            inst.state, inst.arrays, inst.cfg, step=step, threshold=threshold)
        reports.append((seed, report))
        print(f"seed {seed}:")
        print(report.as_table())
        all_passed = all_passed and report.passed()
    if args.out:
        _write_json(os.path.join(args.out, "verify.json"), {
            "reports": [
                {"seed": s, **r.to_dict()} for s, r in reports
            ],
            "passed": all_passed,
        })
        write_manifest(args.out, "verify", None, None,
                       extra={"verify": {"step": step, "threshold": threshold,
                                         "seeds": seeds,
                                         **instance_keys}},
                       started=args.started)
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def _matrix_rows(result: experiments.MatrixResult) -> list[list]:
    return [[r.ablation, r.seed, r.test_accuracy, r.val_accuracy,
             r.recovery_auc_pretrain, r.recovery_auc_finetune, r.error]
            for r in result.results]


def cmd_ablate(args, config: dict) -> int:
    ids = _setting(config, "ablate", "ids", "--ids", args.ids)
    seeds = _setting(config, "ablate", "seeds", "--seeds", args.seeds)
    cfg = build_lbi_config(config, args.seed)
    kind, spec_or_path, bundle = resolve_data(config)
    out_dir = resolve_out_dir(
        args, config, "ablate",
        [cfg.to_dict(), ids, seeds, _data_manifest_entry(kind, spec_or_path)])

    result = experiments.run_matrix(bundle, ids, seeds, cfg)
    _write_csv(
        os.path.join(out_dir, "results.csv"),
        ["ablation", "seed", "test_accuracy", "val_accuracy",
         "recovery_auc_pretrain", "recovery_auc_finetune", "error"],
        _matrix_rows(result),
    )
    _write_json(os.path.join(out_dir, "summary.json"), {
        "aggregates": [asdict(a) for a in result.aggregates],
        "ids": ids, "seeds": seeds,
        "any_failed": result.any_failed,
    })
    write_manifest(out_dir, "ablate", cfg,
                   _data_manifest_entry(kind, spec_or_path),
                   extra={"ablate": {"ids": ids, "seeds": seeds}},
                   started=args.started)

    print(f"{'id':<6} {'n':>2} {'test_acc':>10} {'std':>8} {'auc':>8}")
    for a in result.aggregates:
        test = "-" if a.test_accuracy_mean is None else f"{a.test_accuracy_mean:.4f}"
        std = "-" if a.test_accuracy_std is None else f"{a.test_accuracy_std:.4f}"
        auc = "-" if a.recovery_auc_mean is None else f"{a.recovery_auc_mean:.4f}"
        print(f"{a.ablation:<6} {a.n_ok:>2} {test:>10} {std:>8} {auc:>8}")
    print(f"outputs in {out_dir}")
    return EXIT_CELLS_FAILED if result.any_failed else EXIT_OK


def cmd_sweep(args, config: dict) -> int:
    param = _setting(config, "sweep", "param", "--param", args.param)
    if param is None:
        raise ConfigError("sweep requires --param or sweep.param")
    grid = _setting(config, "sweep", "grid", "--grid", args.grid)
    if grid is None:
        raise ConfigError("sweep requires --grid or sweep.grid")
    seeds = _setting(config, "sweep", "seeds", "--seeds", args.seeds)
    cfg = build_lbi_config(config, args.seed)
    kind, spec_or_path, bundle = resolve_data(config)
    out_dir = resolve_out_dir(
        args, config, "sweep",
        [cfg.to_dict(), param, grid, seeds,
         _data_manifest_entry(kind, spec_or_path)])

    result = experiments.sweep(param, grid, bundle, seeds, cfg)
    # One row per seed; a failed seed carries its error message instead.
    rows = [[param, point.value, o.seed, o.val_accuracy, o.test_accuracy,
             o.error] for point in result.points for o in point.outcomes]
    _write_csv(
        os.path.join(out_dir, "sweep.csv"),
        ["param", "value", "seed", "val_accuracy", "test_accuracy", "error"],
        rows,
    )
    summary = {
        "param": param,
        "grid": grid,
        "points": [
            {"value": p.value,
             "val_accuracy_mean": p.val_accuracy_mean,
             "val_accuracy_std": p.val_accuracy_std,
             "test_accuracy_mean": p.test_accuracy_mean,
             "errors": p.errors}
            for p in result.points
        ],
        "any_failed": result.any_failed,
    }
    try:
        summary["argmax_value"] = result.argmax_value
        summary["argmax_interior"] = result.argmax_interior
    except NumericError:
        pass
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    write_manifest(out_dir, "sweep", cfg,
                   _data_manifest_entry(kind, spec_or_path),
                   extra={"sweep": {"param": param, "grid": grid,
                                    "seeds": seeds}},
                   started=args.started)
    for p in result.points:
        mean = ("-" if p.val_accuracy_mean is None
                else f"{p.val_accuracy_mean:.4f}")
        print(f"{param}={p.value:g}: val accuracy {mean}"
              + (f" ({len(p.errors)} failed)" if p.errors else ""))
    if "argmax_value" in summary:
        where = "interior" if summary["argmax_interior"] else "endpoint"
        print(f"best {param} = {summary['argmax_value']:g} ({where})")
    print(f"outputs in {out_dir}")
    return EXIT_CELLS_FAILED if result.any_failed else EXIT_OK


def cmd_gen_data(args, config: dict) -> int:
    kind, spec_or_path, bundle = resolve_data(config)
    if kind != "synth":
        raise ConfigError("gen-data requires synthetic data configuration")
    out_dir = resolve_out_dir(args, config, "gen-data",
                              [_data_manifest_entry(kind, spec_or_path)])
    path = os.path.join(out_dir, "data.csv")
    datasets.save_csv(bundle, path, spec=spec_or_path)
    write_manifest(out_dir, "gen-data", None,
                   _data_manifest_entry(kind, spec_or_path),
                   started=args.started)
    sizes = {name: split.n for name, split in bundle.splits().items()}
    print(f"wrote {path} ({sizes})")
    return EXIT_OK


def cmd_eval(args, config: dict) -> int:
    state_path = _setting(config, "eval", "state", "--state", args.state)
    if state_path is None:
        raise ConfigError("eval requires --state or eval.state")
    if args.out:
        _make_out_dir(args.out)
    state = engine.load_state(state_path)
    kind, spec_or_path, bundle = resolve_data(config)
    report = {
        "state": str(state_path),
        "iteration": state.iteration,
        "test_accuracy": experiments.accuracy(
            state.finetune_model, bundle.test.X, bundle.test.y),
        "val_accuracy": experiments.accuracy(
            state.finetune_model, bundle.val.X, bundle.val.y),
    }
    auc = experiments.corrupted_recovery_auc(
        state.ignore_pretrain.effective(), bundle.corrupted)
    if auc is not None:
        report["recovery_auc_pretrain"] = auc
    print(f"test accuracy {report['test_accuracy']:.4f}, "
          f"val accuracy {report['val_accuracy']:.4f}"
          + (f", recovery auc {auc:.4f}" if auc is not None else ""))
    if args.out:
        _write_json(os.path.join(args.out, "eval.json"), report)
        write_manifest(args.out, "eval", None,
                       _data_manifest_entry(kind, spec_or_path),
                       extra={"eval": {"state": str(state_path)}},
                       started=args.started)
    return EXIT_OK


# Entry point ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lbi",
        description="Train classifiers that learn which pretraining "
                    "examples to ignore.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="YAML configuration file")
        p.add_argument("--set", dest="sets", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config value (bare keys mean lbi.KEY)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="override lbi.seed")

    p = sub.add_parser("run", help="one full training run")
    add_common(p)
    p = sub.add_parser("verify", help="check hypergradients against "
                                      "finite differences")
    add_common(p)
    p = sub.add_parser("ablate", help="run the ablation matrix")
    add_common(p)
    p.add_argument("--ids", help="comma-separated ablation ids")
    p.add_argument("--seeds", help="comma-separated seeds")
    p = sub.add_parser("sweep", help="sweep lambda or gamma")
    add_common(p)
    p.add_argument("--param", choices=SWEEP_PARAMS)
    p.add_argument("--grid", help="comma-separated values")
    p.add_argument("--seeds", help="comma-separated seeds")
    p = sub.add_parser("gen-data", help="write a synthetic bundle as CSV")
    add_common(p)
    p = sub.add_parser("eval", help="score a saved state on a dataset")
    add_common(p)
    p.add_argument("--state", help="state JSON to evaluate")
    return parser


_COMMANDS = {
    "run": cmd_run,
    "verify": cmd_verify,
    "ablate": cmd_ablate,
    "sweep": cmd_sweep,
    "gen-data": cmd_gen_data,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    started = time.perf_counter()
    args = build_parser().parse_args(argv)
    args.started = started
    try:
        config = read_config(
            apply_overrides(load_config_file(args.config), args.sets))
        return _COMMANDS[args.command](args, config)
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
