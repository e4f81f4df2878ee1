"""Configuration-driven experiment runner and results emitter.

Subcommands: ``run`` (one experiment config), ``grid`` (the full default
hyper-parameter sweep), ``compare`` (several learners on one stream,
side-by-side), ``selftest`` (the oracle property suites).  Reports are
written as nested JSON plus flat and long-format CSVs for external
plotting; a manifest ties outputs to a content hash of the config.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace

from .errors import LlbError
from .learners import LEARNER_NAMES
from .metrics import MetricsReport
from .protocol import (
    ExperimentConfig,
    HyperParams,
    SeedResult,
    aggregate_reports,
    parse_learner,
    run_seed,
)

# the full default sweep (per-learner regularization grid only where used)
DEFAULT_LR_GRID = [0.3, 0.1, 0.03, 0.01, 0.003, 0.001, 0.0003, 0.0001]
DEFAULT_REG_GRID = [1.0, 10.0, 100.0, 1000.0, 10000.0]

FLAT_HEADER = [
    "learner", "seed", "A_T", "F_T", "LCA_10", "F_wst_test", "F_wst_mem",
    "violations", "mean_step_seconds", "params",
]
CURVE_HEADER = ["learner", "seed", "kind", "task", "x", "value"]


def config_hash(config_dict: dict) -> str:
    """Content hash of a config; stable under key reordering."""
    blob = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def config_to_dict(config: ExperimentConfig) -> dict:
    d = asdict(config)
    d["hidden"] = list(config.hidden)
    d["seeds"] = list(config.seeds)
    return d


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(map(_is_int, value))


# config key -> (test of its JSON value, what the test wants)
_CONFIG_VALUES = {
    "learner": (lambda v: isinstance(v, str), "a string"),
    "stream": (lambda v: isinstance(v, dict), "an object"),
    "hidden": (_is_int_list, "a list of integers"),
    "base": (lambda v: isinstance(v, dict), "an object"),
    "grid": (
        lambda v: isinstance(v, dict) and all(isinstance(x, (list, tuple)) for x in v.values()),
        "an object of lists",
    ),
    "seeds": (_is_int_list, "a list of integers"),
    "study_epochs": (_is_int, "an integer"),
}


def config_from_dict(data: dict) -> ExperimentConfig:
    """An ``ExperimentConfig`` from its JSON form; a malformed one raises LlbError."""
    if not isinstance(data, dict):
        raise LlbError("config must be a JSON object")
    unknown = set(data) - set(_CONFIG_VALUES)
    if unknown:
        raise LlbError(f"unknown config key(s): {sorted(unknown)}; valid: {sorted(_CONFIG_VALUES)}")
    for key, value in data.items():
        test, wanted = _CONFIG_VALUES[key]
        if not test(value):
            raise LlbError(f"config {key!r} must be {wanted}, got {value!r}")
    kwargs = dict(data)
    for key in ("hidden", "seeds"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    try:
        if "base" in kwargs:
            kwargs["base"] = HyperParams(**kwargs["base"])
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise LlbError(f"bad config: {exc}") from exc


def _check_learner(name: str) -> None:
    base, _ = parse_learner(name)
    if base not in LEARNER_NAMES:
        raise LlbError(
            f"unknown learner {name!r}; valid: "
            + ", ".join(LEARNER_NAMES)
            + " (each optionally with a -je suffix)"
        )


def run_config_seeds(config: ExperimentConfig, jobs: int = 1) -> list[SeedResult]:
    _check_learner(config.learner)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run_seed, [config] * len(config.seeds), config.seeds))
    return [run_seed(config, seed) for seed in config.seeds]


# ---------------------------------------------------------------------------
# emission


def _flat_row(r: MetricsReport) -> list:
    return [
        r.learner, r.seed, r.avg_accuracy, r.forgetting, r.lca,
        r.worst_case_forgetting_test, r.worst_case_forgetting_memory,
        r.violations, r.mean_step_seconds, r.param_count,
    ]


def emit_report(
    reports: list[MetricsReport],
    aggregate: dict,
    config_dict: dict,
    out_dir: str,
    wall_seconds: float,
) -> dict:
    """Write report.json, results.csv, curves.csv, and manifest.json.

    Returns the manifest.  All metric content is reproducible byte-for-byte
    under a fixed seed; wall-clock fields are inherently not.
    """
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path, "w") as f:
        json.dump(
            {
                "config": config_dict,
                "config_hash": config_hash(config_dict),
                "reports": [r.to_dict() for r in reports],
                "aggregate": aggregate,
            },
            f,
            indent=2,
            sort_keys=True,
        )

    flat_path = os.path.join(out_dir, "results.csv")
    with open(flat_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(FLAT_HEADER)
        for r in reports:
            w.writerow(_flat_row(r))

    curve_path = os.path.join(out_dir, "curves.csv")
    with open(curve_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CURVE_HEADER)
        for r in reports:
            for task, b, acc in r.bshot_curves:
                w.writerow([r.learner, r.seed, "bshot", task, b, acc])
            for b, z in enumerate(r.zb_curve):
                w.writerow([r.learner, r.seed, "zb", "", b, z])
            for task, acc in r.zero_shot:
                w.writerow([r.learner, r.seed, "zero_shot", task, task, acc])

    seed_dir = os.path.join(out_dir, "seeds")
    os.makedirs(seed_dir, exist_ok=True)
    seed_paths = {}
    for r in reports:
        path = os.path.join(seed_dir, f"{r.learner}_seed{r.seed}.json")
        with open(path, "w") as f:
            json.dump(r.to_dict(), f, indent=2, sort_keys=True)
        seed_paths[f"{r.learner}/{r.seed}"] = path

    manifest = {
        "config": config_dict,
        "config_hash": config_hash(config_dict),
        "outputs": {
            "report": report_path,
            "results_csv": flat_path,
            "curves_csv": curve_path,
            "per_seed": seed_paths,
        },
        "wall_seconds": wall_seconds,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return manifest


# ---------------------------------------------------------------------------
# subcommands


def _int_flag(flag: str, text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise LlbError(f"{flag} takes comma-separated integers, got {text!r}") from None


def _load_config(args) -> ExperimentConfig:
    """The config file (or the defaults) with the command-line overrides applied;
    a malformed file or flag raises LlbError."""
    data = {}
    if args.config:
        with open(args.config) as f:
            try:
                data = json.load(f)
            except json.JSONDecodeError as exc:
                raise LlbError(f"{args.config} is not valid JSON: {exc}") from None
    config = config_from_dict(data)
    overrides = {}
    if args.learner:
        overrides["learner"] = args.learner
    if args.stream:
        overrides["stream"] = {**config.stream, "kind": args.stream}
    if args.seeds:
        overrides["seeds"] = _int_flag("--seeds", args.seeds)
    if args.hidden:
        overrides["hidden"] = _int_flag("--hidden", args.hidden)
    if args.study_epochs:
        overrides["study_epochs"] = args.study_epochs
    return replace(config, **overrides)


def cmd_run(args) -> int:
    config = _load_config(args)
    if args.print_config:
        print(json.dumps(config_to_dict(config), indent=2, sort_keys=True))
        return 0
    start = time.perf_counter()
    results = run_config_seeds(config, jobs=args.jobs)
    wall = time.perf_counter() - start
    reports = [r.report for r in results]
    aggregate = aggregate_reports(reports)
    manifest = emit_report(reports, aggregate, config_to_dict(config), args.out, wall)
    print(f"wrote {manifest['outputs']['report']}")
    for key, value in aggregate.items():
        if value is not None:
            print(f"  {key}: {value['mean']:.4f} (+- {value['std']:.4f}, n={value['n']})")
    return 0


def cmd_grid(args) -> int:
    """Full default sweep for each learner; emits the per-candidate CV table."""
    config = _load_config(args)
    learners = args.learners.split(",") if args.learners else [config.learner]
    for name in learners:
        _check_learner(name)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for name in learners:
        base, _ = parse_learner(name)
        grid = {"lr": DEFAULT_LR_GRID}
        if base == "ewc":
            grid["lam"] = DEFAULT_REG_GRID
        sub = replace(config, learner=name, grid=grid)
        start = time.perf_counter()
        results = run_config_seeds(sub, jobs=args.jobs)
        wall = time.perf_counter() - start
        reports = [r.report for r in results]
        emit_report(
            reports, aggregate_reports(reports), config_to_dict(sub),
            os.path.join(args.out, name), wall,
        )
        for res in results:
            for cand in res.cv.candidates:
                rows.append(
                    [name, res.report.seed, cand.hp.lr, cand.hp.lam,
                     cand.accuracy if cand.accuracy is not None else "failed",
                     int(cand.hp == res.cv.best)]
                )
    table = os.path.join(args.out, "cv_table.csv")
    with open(table, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["learner", "seed", "lr", "lam", "cv_accuracy", "selected"])
        w.writerows(rows)
    print(f"wrote {table}")
    return 0


def cmd_compare(args) -> int:
    """Run a learner list on one stream; one flat row per learner per seed."""
    config = _load_config(args)
    learners = args.learners.split(",")
    for name in learners:
        _check_learner(name)
    all_reports: list[MetricsReport] = []
    summary = {}
    start = time.perf_counter()
    for name in learners:
        sub = replace(config, learner=name)
        results = run_config_seeds(sub, jobs=args.jobs)
        reports = [r.report for r in results]
        all_reports.extend(reports)
        summary[name] = aggregate_reports(reports)
    wall = time.perf_counter() - start
    emit_report(all_reports, summary, config_to_dict(config), args.out, wall)
    print(f"{'learner':<14}{'A_T':>10}{'F_T':>10}{'LCA':>10}{'viol':>8}{'s/step':>12}")
    for name, agg in summary.items():
        def cell(key, scale=1.0):
            v = agg.get(key)
            return f"{v['mean'] * scale:>10.4f}" if v else f"{'-':>10}"
        print(
            f"{name:<14}{cell('A_T')}{cell('F_T')}{cell('LCA')}"
            f"{cell('violations'):>8}{cell('mean_step_seconds'):>12}"
        )
    return 0


def cmd_selftest(args) -> int:
    """Oracle property suites; prints one pass/fail line per suite."""
    from . import selftest

    return selftest.run_all(fast=args.fast)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="llb",
        description="single-pass lifelong-learning benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--learner", help="learner name (optional -je suffix)")
        p.add_argument("--stream", choices=["permuted-mnist", "synthetic-split"])
        p.add_argument("--seeds", help="comma-separated seed list")
        p.add_argument("--hidden", help="comma-separated hidden widths")
        p.add_argument("--study-epochs", type=int, dest="study_epochs",
                       help="epochs per EV task (study mode when > 1)")
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--out", default="llb-out")

    p_run = sub.add_parser("run", help="run one experiment config")
    common(p_run)
    p_run.add_argument("--print-config", action="store_true")
    p_run.set_defaults(fn=cmd_run)

    p_grid = sub.add_parser("grid", help="full default hyper-parameter sweep")
    common(p_grid)
    p_grid.add_argument("--learners", help="comma-separated learner list")
    p_grid.set_defaults(fn=cmd_grid)

    p_cmp = sub.add_parser("compare", help="side-by-side learner comparison")
    common(p_cmp)
    p_cmp.add_argument("--learners", default="vanilla,ewc,agem,gem")
    p_cmp.set_defaults(fn=cmd_compare)

    p_self = sub.add_parser("selftest", help="run the oracle property suites")
    p_self.add_argument("--fast", action="store_true", help="smaller sample sizes")
    p_self.set_defaults(fn=cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (LlbError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
