"""Spans around calls into llb's modules, recorded from outside the library.

A ``Tracer`` replaces module attributes with timing wrappers and restores
them on exit.  Each wrapper records one span: name, start, end, the id of
the span that was open when it started, its self time (duration minus the
time its child spans cover) and a few attributes read from the call's
arguments or result.  Spans stay in memory; ``write_spans`` dumps them
when the run ends.

Wrappers must sit on the name each caller looks up.  ``llb.learners``
binds ``apply_update``, ``sample_ref_batch``, ``update_eps_mem``,
``solve_nonneg_qp``, ``drop_zero_rows``, ``reconstruct`` and ``DualProblem``
at import time, ``llb.protocol`` binds ``je_predict``, ``minibatches`` and
``record``, and ``llb.embedding`` binds ``trunk_forward``, so a wrapper on
``llb.nn.apply_update`` alone would miss every training step.  The targets
below list each consumer module.  Attribute readers only read:
tracing must leave RNG streams and results untouched.
"""

from __future__ import annotations

import functools
import gzip
import json
import time

import numpy as np

from llb import cli, embedding, learners, nn, protocol, qp


def _trunk_attrs(args, kwargs, result):
    model, inputs = args[0], args[1]
    macs = sum(fan_in * fan_out for _, _, fan_in, fan_out in nn.layout(model.arch).trunk)
    return {"rows": len(inputs), "macs": macs}


def _minibatch_attrs(args, kwargs, result):
    return {"batches": len(result)}


def _mixed_attrs(args, kwargs, result):
    return {"tasks": len(np.unique(args[1].tasks))}


def _qp_attrs(args, kwargs, result):
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def _step_attrs(args, kwargs, result):
    learner = args[0]
    memory = learner.state.memory
    return {
        "learner": learner.name,
        "stored": len(memory.per_task) if memory is not None else 0,
    }


def _run_attrs(args, kwargs, result):
    state = result[0]
    memory_bytes = 0
    if state.memory is not None:
        memory_bytes = sum(
            b.x.nbytes + b.y.nbytes + b.ids.nbytes for b in state.memory.per_task.values()
        )
    anchor_bytes = sum(a.theta_star.nbytes + a.fisher.nbytes for a in state.ewc_anchors)
    return {
        "learner": args[0].name,
        "steps": state.step_count,
        "violations": state.violation_count,
        "memory_bytes": memory_bytes,
        "anchor_bytes": anchor_bytes,
    }


# (owner, attribute, span name, attribute reader).  Both wrappers of a name
# defined in one module and imported into another share the span name.
_E2E_TARGETS = (
    (protocol, "cross_validate", "protocol.cross_validate", None),
    (protocol, "run_single_pass", "protocol.run_single_pass", _run_attrs),
)

_LAYER_TARGETS = (
    (protocol, "build_stream", "streams.build_stream", None),
    (protocol, "minibatches", "streams.minibatches", _minibatch_attrs),
    (nn, "trunk_forward", "nn.trunk_forward", _trunk_attrs),
    (embedding, "trunk_forward", "nn.trunk_forward", _trunk_attrs),
    (nn, "apply_update", "nn.apply_update", None),
    (learners, "apply_update", "nn.apply_update", None),
    (nn, "predict", "nn.predict", None),
    (learners, "je_loss_and_grad", "embedding.je_loss_and_grad", None),
    (protocol, "je_predict", "embedding.je_predict", None),
    (learners, "sample_ref_batch", "memory.sample_ref_batch", None),
    (learners, "update_eps_mem", "memory.update_eps_mem", None),
    (learners, "drop_zero_rows", "qp.drop_zero_rows", None),
    (learners, "solve_nonneg_qp", "qp.solve_nonneg_qp", _qp_attrs),
    (learners, "reconstruct", "qp.reconstruct", None),
    (learners.Learner, "timed_step", "learners.step", _step_attrs),
    (learners, "batch_loss_and_grad", "learners.batch_loss_and_grad", None),
    (learners, "mixed_loss_and_grad", "learners.mixed_loss_and_grad", _mixed_attrs),
    (learners, "agem_project", "learners.agem_project", None),
    (learners, "gem_step", "learners.gem_step", None),
    (learners, "ewc_penalty_and_grad", "learners.ewc_penalty_and_grad", None),
    (learners, "ewc_consolidate", "learners.ewc_consolidate", None),
    (protocol, "record", "metrics.record", None),
    (protocol, "eval_accuracy", "protocol.eval_accuracy", None),
    (protocol, "eval_all", "protocol.eval_all", None),
    (protocol, "audit_single_pass", "protocol.audit_single_pass", None),
    (protocol, "audit_isolation", "protocol.audit_isolation", None),
    (protocol, "audit_reset", "protocol.audit_reset", None),
    (protocol, "build_report", "protocol.build_report", None),
    (cli, "run_seed", "protocol.run_seed", None),
    (cli, "emit_report", "cli.emit_report", None),
)

# ``DualProblem`` is one class object shared by qp and learners, so its
# classmethod is wrapped once on the class itself.
_CLASSMETHOD_TARGETS = ((qp.DualProblem, "from_gradients", "qp.DualProblem.from_gradients"),)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "self_s", "ev", "attrs")

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that wraps the targets and collects spans.

    ``layers=False`` wraps only the two protocol calls that the end-to-end
    metrics need (selection and the single pass); ``layers=True`` wraps
    every module boundary listed above.
    """

    def __init__(self, layers: bool):
        self.layers = layers
        self.spans: list[Span] = []
        self._stack: list[list] = []   # [span, child seconds]
        self._saved: list[tuple[object, str, object]] = []
        self._next_id = 0

    def _wrap(self, fn, name, reader):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span()
            span.id = tracer._next_id
            tracer._next_id += 1
            span.name = name
            span.attrs = None
            parent = tracer._stack[-1][0] if tracer._stack else None
            span.parent = parent.id if parent is not None else None
            # EV marks work under the evaluation single pass, not under selection
            if name == "protocol.cross_validate":
                span.ev = False
            elif name == "protocol.run_single_pass" and (parent is None or parent.ev is None):
                span.ev = True
            else:
                span.ev = parent.ev if parent is not None else None
            frame = [span, 0.0]
            tracer._stack.append(frame)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                span.self_s = span.seconds - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += span.seconds
                tracer.spans.append(span)
            if reader is not None:
                span.attrs = reader(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        targets = _E2E_TARGETS + (_LAYER_TARGETS if self.layers else ())
        for owner, attr, name, reader in targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, reader))
        if self.layers:
            for cls, attr, name in _CLASSMETHOD_TARGETS:
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, classmethod(self._wrap(original.__func__, name, None)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()



def write_spans(path: str, runs: list[dict]) -> None:
    """One JSON line per span, tagged with the learner and seed of its run."""
    with gzip.open(path, "wt") as f:
        for run in runs:
            for s in run["spans"]:
                f.write(json.dumps({
                    "learner": run["learner"], "seed": run["seed"], "id": s.id,
                    "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                    "self_s": s.self_s, "attrs": s.attrs,
                }) + "\n")
