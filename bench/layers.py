"""Per-layer metrics from the spans of a traced run.

Naming: ``<module>.<function>.<stat>``.  ``s`` is self seconds per
repetition (one workload seed through every learner of the workload),
the median over the traced repetitions.  ``calls`` and the other counts
come from the first repetition only, so they repeat exactly for a given
``--seed``.  ``ms_p50`` and ``ms_p95`` are per-call wall milliseconds
(children included) pooled over all traced repetitions.  Step statistics
and cost slopes use evaluation-stream (EV) steps only.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

# learner class names; an ``-je`` learner reports under its base name
STEP_LEARNERS = ("agem", "gem", "ewc")
MEMORY_LEARNERS = ("agem", "gem")

SELF_SECONDS = (
    ("streams.build_stream.s", "streams.build_stream"),
    ("streams.minibatches.s", "streams.minibatches"),
    ("nn.apply_update.s", "nn.apply_update"),
    ("nn.predict.s", "nn.predict"),
    ("embedding.je_loss_and_grad.s", "embedding.je_loss_and_grad"),
    ("embedding.je_predict.s", "embedding.je_predict"),
    ("memory.sample_ref_batch.s", "memory.sample_ref_batch"),
    ("memory.update_eps_mem.s", "memory.update_eps_mem"),
    ("qp.DualProblem.from_gradients.s", "qp.DualProblem.from_gradients"),
    ("qp.solve_nonneg_qp.s", "qp.solve_nonneg_qp"),
    ("qp.drop_zero_rows.s", "qp.drop_zero_rows"),
    ("qp.reconstruct.s", "qp.reconstruct"),
    ("learners.batch_loss_and_grad.s", "learners.batch_loss_and_grad"),
    ("learners.mixed_loss_and_grad.s", "learners.mixed_loss_and_grad"),
    ("learners.agem_project.s", "learners.agem_project"),
    ("learners.gem_step.s", "learners.gem_step"),
    ("learners.ewc_penalty_and_grad.s", "learners.ewc_penalty_and_grad"),
    ("learners.ewc_consolidate.s", "learners.ewc_consolidate"),
    ("protocol.eval_accuracy.s", "protocol.eval_accuracy"),
    ("protocol.eval_all.s", "protocol.eval_all"),
    ("protocol.run_single_pass.self_s", "protocol.run_single_pass"),
    ("protocol.cross_validate.s", "protocol.cross_validate"),
    ("protocol.build_report.s", "protocol.build_report"),
    ("cli.emit_report.s", "cli.emit_report"),
)
AUDITS = ("protocol.audit_single_pass", "protocol.audit_isolation", "protocol.audit_reset")
CALL_COUNTS = (
    ("nn.trunk_forward.calls", "nn.trunk_forward"),
    ("qp.solve_nonneg_qp.calls", "qp.solve_nonneg_qp"),
    ("learners.batch_loss_and_grad.calls", "learners.batch_loss_and_grad"),
    ("learners.mixed_loss_and_grad.calls", "learners.mixed_loss_and_grad"),
    ("metrics.record.calls", "metrics.record"),
    ("protocol.eval_accuracy.calls", "protocol.eval_accuracy"),
)
CALL_MS = (
    ("nn.apply_update", (50,)),
    ("memory.sample_ref_batch", (50,)),
    ("qp.solve_nonneg_qp", (50, 95)),
)


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _slope(x, y) -> float:
    """Least-squares slope of y on x; 0 without two distinct x values."""
    if len(set(x)) < 2:
        return 0.0
    return float(np.polyfit(np.asarray(x, float), np.asarray(y, float), 1)[0])


def layer_metrics(reps: list[list], overhead_s: float) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit) from the spans of each traced repetition."""
    out: dict[str, tuple[float, str]] = {}
    self_sums = []
    for spans in reps:
        acc: dict[str, float] = defaultdict(float)
        for s in spans:
            acc[s.name] += s.self_s
        self_sums.append(acc)

    def per_rep(*names) -> float:
        return statistics.median(sum(acc[n] for n in names) for acc in self_sums)

    for metric, name in SELF_SECONDS:
        out[metric] = (per_rep(name), "s")
    out["protocol.audit.s"] = (per_rep(*AUDITS), "s")

    first = reps[0]
    by_name: dict[str, list] = defaultdict(list)
    for s in first:
        by_name[s.name].append(s)
    for metric, name in CALL_COUNTS:
        out[metric] = (len(by_name[name]), "count")

    pooled: dict[str, list[float]] = defaultdict(list)
    for spans in reps:
        for s in spans:
            pooled[s.name].append(s.seconds * 1e3)
    for name, qs in CALL_MS:
        for q in qs:
            out[f"{name}.ms_p{q}"] = (_pct(pooled[name], q), "ms")

    trunk = by_name["nn.trunk_forward"]
    out["nn.trunk_forward.rows"] = (sum(s.attrs["rows"] for s in trunk), "count")
    out["nn.trunk_gflop"] = (
        2 * sum(s.attrs["rows"] * s.attrs["macs"] for s in trunk) / 1e9, "GFLOP_computed",
    )
    out["streams.batches"] = (
        sum(s.attrs["batches"] for s in by_name["streams.minibatches"]), "count",
    )
    mixed_tasks = [s.attrs["tasks"] for s in by_name["learners.mixed_loss_and_grad"]]
    out["learners.mixed_loss_and_grad.tasks_p50"] = (_pct(mixed_tasks, 50), "count")

    qp_runs = by_name["qp.solve_nonneg_qp"]
    iters = [s.attrs["iterations"] for s in qp_runs]
    out["qp.iterations_p50"] = (_pct(iters, 50), "count")
    out["qp.iterations_max"] = (max(iters, default=0), "count")
    unconverged = sum(not s.attrs["converged"] for s in qp_runs)
    out["qp.unconverged_frac"] = (unconverged / len(qp_runs) if qp_runs else 0.0, "ratio")

    ev_runs = [s for s in first if s.name == "protocol.run_single_pass" and s.ev]
    out["protocol.ev_steps"] = (sum(s.attrs["steps"] for s in ev_runs), "count")
    out["memory.bytes"] = (max((s.attrs["memory_bytes"] for s in ev_runs), default=0), "bytes")
    out["learners.ewc.anchor_bytes"] = (
        max((s.attrs["anchor_bytes"] for s in ev_runs), default=0), "bytes",
    )
    for name in MEMORY_LEARNERS:
        mine = [s for s in ev_runs if s.attrs["learner"] == name]
        steps = sum(s.attrs["steps"] for s in mine)
        rate = sum(s.attrs["violations"] for s in mine) / steps if steps else 0.0
        out[f"learners.{name}.violation_rate"] = (rate, "ratio")

    ev_steps = [s for spans in reps for s in spans if s.name == "learners.step" and s.ev]
    for name in STEP_LEARNERS:
        ms = [s.seconds * 1e3 for s in ev_steps if s.attrs["learner"] == name]
        out[f"learners.{name}.step.ms_p50"] = (_pct(ms, 50), "ms")
        out[f"learners.{name}.step.ms_p95"] = (_pct(ms, 95), "ms")
    for name in MEMORY_LEARNERS:
        # with nothing stored a step takes the plain path; fit the constrained ones
        mine = [s for s in ev_steps if s.attrs["learner"] == name and s.attrs["stored"] > 0]
        out[f"learners.{name}.ms_per_stored_task"] = (
            _slope([s.attrs["stored"] for s in mine], [s.seconds * 1e3 for s in mine]),
            "ms/task",
        )

    coverage = [c for spans in reps for c in ev_coverage(spans)]
    out["protocol.run_single_pass.child_coverage"] = (statistics.median(coverage), "ratio")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def ev_coverage(spans: list) -> list[float]:
    """Share of each EV single pass that its child spans cover.

    A span's self time is the part its children leave uncovered.
    """
    return [
        1.0 - s.self_s / s.seconds
        for s in spans
        if s.name == "protocol.run_single_pass" and s.ev
    ]
