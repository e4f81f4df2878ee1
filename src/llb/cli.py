"""Configuration-driven experiment runner and results emitter.

Subcommands: ``run`` (one experiment config), ``compare`` (a learner list
on one stream), ``grid`` (``compare`` over the full default sweep) and
``selftest`` (the oracle property suites).  The first three write one
layout: nested JSON keyed by learner, flat and long-format CSVs for
external plotting, and the CV table of every candidate.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, astuple, fields, replace

from .errors import LlbError, reject_unknown
from .metrics import MetricsReport
from .protocol import (
    ExperimentConfig,
    HyperParams,
    SeedResult,
    aggregate_reports,
    fork_map,
    parse_learner,
    run_seed,
    warm_base,
)

# the full default sweep (per-learner regularization grid only where used)
DEFAULT_LR_GRID = [0.3, 0.1, 0.03, 0.01, 0.003, 0.001, 0.0003, 0.0001]
DEFAULT_REG_GRID = [1.0, 10.0, 100.0, 1000.0, 10000.0]

FLAT_HEADER = [
    "learner", "seed", "A_T", "F_T", "LCA", "lca_beta", "F_wst_test", "F_wst_mem",
    "violations", "mean_step_seconds", "params",
]
CURVE_HEADER = ["learner", "seed", "kind", "task", "x", "value"]
CV_HP_COLUMNS = [f.name for f in fields(HyperParams)]


def config_hash(config_dict: dict) -> str:
    """Content hash of a config; stable under key reordering."""
    blob = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def config_to_dict(config: ExperimentConfig) -> dict:
    d = asdict(config)
    d["hidden"] = list(config.hidden)
    d["seeds"] = list(config.seeds)
    return d


def config_from_dict(data: dict) -> ExperimentConfig:
    """An ``ExperimentConfig`` from its JSON form; a malformed one raises LlbError."""
    if not isinstance(data, dict):
        raise LlbError("config must be a JSON object")
    reject_unknown("config", data, (f.name for f in fields(ExperimentConfig)))
    kwargs = dict(data)
    for key in ("hidden", "seeds"):
        if isinstance(kwargs.get(key), list):
            kwargs[key] = tuple(kwargs[key])
    if isinstance(kwargs.get("base"), dict):
        reject_unknown("base", kwargs["base"], (f.name for f in fields(HyperParams)))
        kwargs["base"] = HyperParams(**kwargs["base"])
    return ExperimentConfig(**kwargs)


def run_config_seeds(config: ExperimentConfig, jobs: int = 1) -> list[SeedResult]:
    """Each seed's result, in seed order, from up to ``jobs`` processes of
    ``protocol.fork_map`` (never more than seeds), which keep the caller's
    BLAS threads.  Each seed's selection sizes its own one-thread workers
    by the usable cores (see ``protocol.cross_validate``), so results do
    not depend on ``jobs``.  Before more than one worker starts, the
    parent builds the stream's base, which they all then share."""
    if min(jobs, len(config.seeds)) > 1:
        warm_base(config.stream)
    # run_seed is looked up here, so a wrapper set on this module is what the workers run
    return fork_map(functools.partial(run_seed, config), config.seeds, jobs)


# ---------------------------------------------------------------------------
# emission


def emit_report(
    reports: list[MetricsReport],
    aggregate: dict,
    config_dict: dict,
    out_dir: str,
    wall_seconds: float,
) -> None:
    """Write report.json, results.csv and curves.csv.

    All metric content is reproducible byte-for-byte under a fixed seed;
    wall-clock fields are inherently not.
    """
    os.makedirs(out_dir, exist_ok=True)
    report = {"config": config_dict, "config_hash": config_hash(config_dict),
              "reports": [r.to_dict() for r in reports], "aggregate": aggregate,
              "wall_seconds": wall_seconds}
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)

    with open(os.path.join(out_dir, "results.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(FLAT_HEADER)
        w.writerows(
            [r.learner, r.seed, r.avg_accuracy, r.forgetting, r.lca, r.lca_beta,
             r.worst_case_forgetting_test, r.worst_case_forgetting_memory, r.violations,
             r.mean_step_seconds, r.param_count]
            for r in reports
        )

    with open(os.path.join(out_dir, "curves.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CURVE_HEADER)
        for r in reports:
            for task, b, acc in r.bshot_curves:
                w.writerow([r.learner, r.seed, "bshot", task, b, acc])
            for b, z in enumerate(r.zb_curve):
                w.writerow([r.learner, r.seed, "zb", "", b, z])
            for task, acc in r.zero_shot:
                w.writerow([r.learner, r.seed, "zero_shot", task, task, acc])


# ---------------------------------------------------------------------------
# subcommands


def _list_flag(flag: str, text: str, parse=str) -> tuple:
    """A comma-separated flag value as a tuple of ``parse``d items; an empty
    value or item, or one ``parse`` refuses, raises LlbError naming the flag."""
    items = text.split(",")
    try:
        if all(item.strip() for item in items):
            return tuple(parse(item) for item in items)
    except ValueError:
        pass
    raise LlbError(f"{flag} takes comma-separated {'integers' if parse is int else 'names'}, "
                   f"got {text!r}")


def _load_config(args) -> ExperimentConfig:
    """The config file (or the defaults), each flag that is given replacing its
    config value; a malformed file or flag raises LlbError."""
    if args.jobs < 1:
        raise LlbError(f"--jobs must be at least 1, got {args.jobs}")
    data = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as f:
            try:
                data = json.load(f)
            except ValueError as exc:       # not UTF-8, or not JSON
                raise LlbError(f"{args.config} is not valid JSON: {exc}") from None
    config = config_from_dict(data)
    overrides = {key: _list_flag(f"--{key}", getattr(args, key), int)
                 for key in ("seeds", "hidden") if getattr(args, key) is not None}
    if args.study_epochs is not None:
        overrides["study_epochs"] = args.study_epochs
    return replace(config, **overrides)


def _learner_configs(args, flag: str = "--learners") -> list[ExperimentConfig]:
    """The config once per learner the flag names (default: its own learner), all checked."""
    config = _load_config(args)
    text = getattr(args, flag[2:])
    names = (config.learner,) if text is None else _list_flag(flag, text)
    if len(set(names)) < len(names):
        raise LlbError(f"{flag} names a learner twice: {text}")
    return [replace(config, learner=name) for name in names]


def cmd_run(args) -> int:
    configs = _learner_configs(args, "--learner")
    if len(configs) > 1:
        raise LlbError(f"--learner takes one name, got {args.learner!r}")
    if args.print_config:
        print(json.dumps(config_to_dict(configs[0]), indent=2, sort_keys=True))
        return 0
    run_learners(configs, args.out, args.jobs)
    return 0


def run_learners(configs: list[ExperimentConfig], out_dir: str, jobs: int) -> None:
    """Run each learner's config over its seeds, write one report for them
    all, and print the per-learner table.  The report's ``config`` maps each
    learner to its config and ``aggregate`` is keyed by learner;
    ``cv_table.csv`` holds one row per learner, seed and CV candidate.
    ``out_dir`` is made before any seed runs."""
    os.makedirs(out_dir, exist_ok=True)
    start = time.perf_counter()
    results = {c.learner: run_config_seeds(c, jobs=jobs) for c in configs}
    wall = time.perf_counter() - start
    reports = [r.report for rs in results.values() for r in rs]
    aggregate = {name: aggregate_reports([r.report for r in rs]) for name, rs in results.items()}
    emit_report(reports, aggregate, {c.learner: config_to_dict(c) for c in configs}, out_dir, wall)
    with open(os.path.join(out_dir, "cv_table.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["learner", "seed", *CV_HP_COLUMNS, "cv_accuracy", "selected"])
        w.writerows(
            [name, res.report.seed, *astuple(cand.hp),
             cand.accuracy if cand.accuracy is not None else "failed", int(cand.hp == res.cv.best)]
            for name, seed_results in results.items()
            for res in seed_results
            for cand in res.cv.candidates
        )
    print(f"wrote {out_dir}")
    print(f"{'learner':<14}{'A_T':>10}{'F_T':>10}{'LCA':>10}{'viol':>10}{'s/step':>12}")
    for name, agg in aggregate.items():
        cells = [f"{agg[key]['mean']:>10.4f}" if agg.get(key) else f"{'-':>10}"
                 for key in ("A_T", "F_T", "LCA", "violations", "mean_step_seconds")]
        print(f"{name:<14}{''.join(cells[:4])}{cells[4]:>12}")


def cmd_grid(args) -> int:
    """The full default sweep: lr for every learner, times lam for EWC."""
    configs = []
    for config in _learner_configs(args):
        grid = {"lr": DEFAULT_LR_GRID}
        if parse_learner(config.learner)[0] == "ewc":
            grid["lam"] = DEFAULT_REG_GRID
        configs.append(replace(config, grid=grid))
    run_learners(configs, args.out, args.jobs)
    return 0


def cmd_compare(args) -> int:
    """A learner list on one stream."""
    run_learners(_learner_configs(args), args.out, args.jobs)
    return 0


def cmd_selftest(args) -> int:
    """Oracle property suites; prints one pass/fail line per suite."""
    from . import selftest

    return selftest.run_all(fast=args.fast)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llb",
        description="single-pass lifelong-learning benchmark harness",
    )
    # no subcommand takes abbreviated flags, so "--learner" cannot pass for "--learners"
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seeds", help="comma-separated seed list")
        p.add_argument("--hidden", help="comma-separated hidden widths")
        p.add_argument("--study-epochs", type=int, dest="study_epochs",
                       help="epochs per EV task (study mode when > 1)")
        p.add_argument("--jobs", type=int, default=1,
                       help="run up to this many seeds side by side (default 1); each keeps "
                            "the caller's BLAS threads, so on 2 cores 2 is slower than 1")
        p.add_argument("--out", default="llb-out")

    p_run = sub.add_parser("run", help="run one experiment config", allow_abbrev=False)
    common(p_run)
    p_run.add_argument("--learner", help="learner name (optional -je suffix)")
    p_run.add_argument("--print-config", action="store_true")
    p_run.set_defaults(fn=cmd_run)

    p_grid = sub.add_parser("grid", help="full default hyper-parameter sweep", allow_abbrev=False)
    common(p_grid)
    p_grid.add_argument("--learners", help="comma-separated learner list (default: the config's)")
    p_grid.set_defaults(fn=cmd_grid)

    p_cmp = sub.add_parser("compare", help="side-by-side learner comparison", allow_abbrev=False)
    common(p_cmp)
    p_cmp.add_argument("--learners", default="vanilla,ewc,agem,gem")
    p_cmp.set_defaults(fn=cmd_compare)

    p_self = sub.add_parser("selftest", help="run the oracle property suites", allow_abbrev=False)
    p_self.add_argument("--fast", action="store_true", help="smaller sample sizes")
    p_self.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (LlbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
