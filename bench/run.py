#!/usr/bin/env python3
"""Benchmark for llb: runs the experiment protocol the way ``llb run`` does.

    python3 bench/run.py --workload pmnist-agem --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

Each repetition takes the next config seed of the workload and runs every
learner of the workload through ``cli.run_config_seeds(config, jobs=1)``
and ``cli.emit_report``, all in this process, until the next repetition
would overrun ``--seconds``.  BLAS threads stay at the library default.
Every (learner, seed) run is checked: the protocol's audits pass, the
report holds finite metrics in range, the emitted report.json matches it,
and its average accuracy matches the accuracy recorded for that seed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each
(learner, seed) untraced and then traced, checks that both give the same
metric content, and prints the per-layer metrics.  The last line of
output is one JSON object: correct, attempted, failed, metrics.  Exit
status 1 means some check failed; 2 means the llb sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPS = 7
TIMING_KEYS = ("mean_step_seconds", "step_seconds_by_task")


def import_llb():
    """Import llb from this checkout's sources, never from anywhere else."""
    sys.path.insert(0, SRC)
    try:
        import llb
    except ImportError as exc:
        print(f"error: cannot import llb from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(llb.__file__).startswith(SRC + os.sep):
        print(f"error: llb imported from {llb.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# provenance


def _git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def _blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS uses by default, if it can be asked."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def provenance(workload: str, seed: int) -> dict:
    """What a result depends on besides the code: compare only equal ones."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# output checks


def _in_range(value, lo, hi) -> bool:
    return isinstance(value, (int, float)) and lo <= value <= hi


def check_report(report: dict, ev_steps: int, has_memory: bool, ref_acc: float, tol: float):
    """Problems with one run's report; an empty list means it passed."""
    problems = []
    numbers = [report["A_T"], report["F_T"], report["F_wst_test"], report["mean_step_seconds"]]
    lca = [v for k, v in report.items() if k.startswith("LCA_")]
    accs = report["Z_b"] + [v for *_, v in report["bshot"]] + [v for _, v in report["zero_shot"]]
    if not all(isinstance(v, (int, float)) and v == v and abs(v) != float("inf")
               for v in numbers + lca + accs):
        problems.append("non-finite or missing metric")
    if not all(_in_range(v, 0.0, 1.0) for v in [report["A_T"], *lca, *accs]):
        problems.append("accuracy outside [0, 1]")
    if not all(_in_range(report[k], -1.0, 1.0) for k in ("F_T", "F_wst_test")):
        problems.append("forgetting outside [-1, 1]")
    if has_memory != (report["F_wst_mem"] is not None) or (
        has_memory and not _in_range(report["F_wst_mem"], -1.0, 1.0)
    ):
        problems.append("memory forgetting missing or outside [-1, 1]")
    if not (isinstance(report["violations"], int) and 0 <= report["violations"] <= ev_steps):
        problems.append(f"violations {report['violations']} not in [0, {ev_steps} EV steps]")
    if not report["mean_step_seconds"] > 0:
        problems.append("mean_step_seconds not positive")
    if abs(report["A_T"] - ref_acc) > tol:
        problems.append(
            f"A_T {report['A_T']:.4f} differs from the reference {ref_acc:.4f} by more than {tol:.4f}"
        )
    return problems


def content(report: dict) -> dict:
    return {k: v for k, v in report.items() if k not in TIMING_KEYS}


# ---------------------------------------------------------------------------
# runs


def warm_up(seconds: float = 1.0) -> None:
    """Matrix products before anything is timed, so an idle CPU and the BLAS
    thread pool are up to speed when the first timer starts."""
    import numpy as np

    a = np.random.default_rng(0).random((256, 784))
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        a @ a.T


def time_setup(workload, seed: int) -> float:
    """build_stream + arch_for_stream + init_model for one seed."""
    from llb import cli, nn, protocol

    config = cli.config_from_dict(workload.config_dict(workload.learners[0], seed))
    _, je = protocol.parse_learner(config.learner)
    gc.collect()
    start = time.perf_counter()
    continuum = protocol.build_stream(config.stream, seed)
    arch = protocol.arch_for_stream(continuum, config.hidden, je)
    nn.init_model(arch, seed)
    return time.perf_counter() - start


def run_checked(workload, learner: str, seed: int, reference: dict, layers: bool) -> dict:
    """One (learner, seed) run as ``llb run`` makes it, timed and checked."""
    from llb import cli, protocol
    from tracer import Tracer

    run = {"learner": learner, "seed": seed, "problems": [], "spans": []}
    out_dir = os.path.join(OUT_DIR, workload.name, learner)
    try:
        config = cli.config_from_dict(workload.config_dict(learner, seed))
        gc.collect()
        with Tracer(layers=layers) as tracer:
            start = time.perf_counter()
            results = cli.run_config_seeds(config, jobs=1)
            run["seed_s"] = time.perf_counter() - start
            reports = [r.report for r in results]
            cli.emit_report(
                reports, protocol.aggregate_reports(reports), cli.config_to_dict(config),
                out_dir, run["seed_s"],
            )
        spans = tracer.spans
        ev = [s for s in spans if s.name == "protocol.run_single_pass" and s.ev]
        run["cv_s"] = sum(s.seconds for s in spans if s.name == "protocol.cross_validate")
        run["ev_s"] = sum(s.seconds for s in ev)
        run["ev_steps"] = sum(s.attrs["steps"] for s in ev)
        run["spans"] = spans if layers else []
        report = json.loads(json.dumps(reports[0].to_dict()))
        run["report"] = report
        with open(os.path.join(out_dir, "report.json")) as f:
            if json.load(f)["reports"] != [report]:
                run["problems"].append("emitted report.json differs from the run's report")
        ref = reference["workloads"][workload.name][learner]
        run["problems"] += check_report(
            report, run["ev_steps"], learner.split("-")[0] in ("agem", "gem"),
            ref["A_T"][str(seed)], ref["tol"],
        )
    except Exception:  # a failed run is counted, reported and the loop goes on
        run["problems"].append(traceback.format_exc().strip().splitlines()[-1])
        traceback.print_exc()
    return run


def _median_line(name: str, values: list[float], unit: str) -> str:
    return (
        f"{name:<16} {statistics.median(values):>12.4f} {unit:<8} "
        f"median of n={len(values)} (min {min(values):.4f}, max {max(values):.4f})"
    )


def measure(workload, seed: int, seconds: float, traced: bool) -> tuple[dict, list[dict]]:
    """Run repetitions for ``seconds``; return the metrics and every run record."""
    from workloads import config_seed, load_reference

    reference = load_reference()
    warm_up()
    setup = [time_setup(workload, config_seed(seed, i)) for i in range(SETUP_REPS)]
    reps: list[list[dict]] = []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        s = config_seed(seed, len(reps))
        runs = []
        for learner in workload.learners:
            plain = run_checked(workload, learner, s, reference, layers=False)
            runs.append(plain)
            if traced:
                spanned = run_checked(workload, learner, s, reference, layers=True)
                spanned["traced"] = True
                if "report" in plain and "report" in spanned and (
                    content(plain["report"]) != content(spanned["report"])
                ):
                    spanned["problems"].append("traced metric content differs from untraced")
                runs.append(spanned)
        reps.append(runs)
        for r in runs:
            status = "ok" if not r["problems"] else "FAILED: " + "; ".join(r["problems"])
            timing = f"seed_s={r['seed_s']:.3f}" if "seed_s" in r else ""
            tag = " traced" if r.get("traced") else ""
            print(f"run {workload.name} {r['learner']}{tag} seed={s} {timing} {status}", flush=True)
        now = time.perf_counter()
        if now - start + (now - rep_start) > seconds:
            break

    records = [r for runs in reps for r in runs]
    good = [runs for runs in reps if not any(r["problems"] for r in runs)]
    plain_reps = [[r for r in runs if not r.get("traced")] for runs in good]
    lines = [_median_line("setup_s", setup, "s")]
    metrics: dict[str, tuple[float, str]] = {"setup_s": (statistics.median(setup), "s")}
    if good:
        seed_s = [sum(r["seed_s"] for r in runs) for runs in plain_reps]
        cv_s = [sum(r["cv_s"] for r in runs) for runs in plain_reps]
        rate = [
            sum(r["ev_steps"] for r in runs) / sum(r["ev_s"] for r in runs) for runs in plain_reps
        ]
        for name, values, unit in (
            ("seed_s", seed_s, "s"), ("cv_s", cv_s, "s"), ("ev_steps_per_s", rate, "steps/s"),
        ):
            lines.append(_median_line(name, values, unit))
            metrics[name] = (statistics.median(values), unit)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    if traced and good:
        from layers import ev_coverage, layer_metrics
        from tracer import write_spans

        traced_reps = [[s for r in runs if r.get("traced") for s in r["spans"]] for runs in good]
        traced_seed_s = [sum(r["seed_s"] for r in runs if r.get("traced")) for runs in good]
        overhead = statistics.median(traced_seed_s) - metrics["seed_s"][0]
        lines.append(_median_line("traced seed_s", traced_seed_s, "s"))
        lines.append(
            f"tracing overhead {overhead:.4f} s "
            f"({overhead / metrics['seed_s'][0]:+.1%} of untraced seed_s)"
        )
        for i, spans in enumerate(traced_reps):
            cover = ", ".join(f"{c:.3f}" for c in ev_coverage(spans))
            lines.append(f"rep {i}: child spans cover {cover} of each EV run_single_pass")
        metrics = layer_metrics(traced_reps, overhead)
        write_spans(
            os.path.join(OUT_DIR, f"{workload.name}-seed{seed}-spans.jsonl.gz"),
            [r for r in records if r.get("traced")],
        )
    for line in lines:
        print(line)
    return metrics, records


def run_workload(args) -> int:
    import_llb()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    prov = provenance(workload.name, args.seed)
    print("provenance " + json.dumps(prov, sort_keys=True))
    metrics, records = measure(workload, args.seed, args.seconds, bool(args.trace))
    failed = sum(1 for r in records if r["problems"])
    attempted = len(records)
    print(f"failed_frac      {failed / attempted:>12.4f} ratio    ({failed} of {attempted} runs)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({
            "provenance": prov,
            "result": result,
            "runs": [{k: v for k, v in r.items() if k != "spans"} for r in records],
        }, f, indent=1, sort_keys=True)
    if args.trace:
        for name, (value, unit) in sorted(metrics.items()):
            print(f"{name:<44} {value:>16.6g} {unit}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    from workloads import WORKLOADS

    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            status = 1
        if proc.returncode == 2:
            return 2
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        result = json.loads(last)
        rows.append((name, result))
    if not args.trace:
        print("\nworkload         metric           value        unit")
        for name, result in rows:
            for metric, m in result.get("metrics", {}).items():
                print(f"{name:<16} {metric:<16} {m['value']:>12.4f} {m['unit']}")
            print(f"{name:<16} {'failed_frac':<16} "
                  f"{result['failed'] / max(result['attempted'], 1):>12.4f} ratio")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; valid: {', '.join(WORKLOADS)}, all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
