#!/usr/bin/env python3
"""Record the accuracy reference that every benchmark run is checked against.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs every learner of the named workloads (default: all) on each config
seed of the pool and writes, keeping the entries of the other workloads,
``reference.json``: the final average accuracy A_T per seed, and a
tolerance of half the seed-to-seed standard deviation of A_T.  Under that
tolerance a swapped learner fails the check: on pmnist-agem, plain SGD
(``vanilla``, recorded here as a control) trails A-GEM by more than the
tolerance on every seed of the pool.  Re-record only when a change is
meant to alter what the program computes, and say so.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from llb import cli  # noqa: E402
from workloads import REFERENCE_PATH, SEED_POOL, WORKLOADS  # noqa: E402

CONTROLS = {"pmnist-agem": ("vanilla",)}
TOLERANCE_SHARE_OF_STD = 0.5


def accuracies(workload, learner: str) -> dict[str, float]:
    out = {}
    for seed in range(SEED_POOL):
        config = cli.config_from_dict(workload.config_dict(learner, seed))
        out[str(seed)] = cli.run_config_seeds(config, jobs=1)[0].report.avg_accuracy
        print(f"{workload.name} {learner} seed={seed} A_T={out[str(seed)]:.4f}", flush=True)
    return out


def main(names: list[str]) -> int:
    reference = {"workloads": {}, "controls": {}}
    if names and os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as f:
            reference = json.load(f)
    reference["seed_pool"] = SEED_POOL
    reference["tolerance"] = f"{TOLERANCE_SHARE_OF_STD} x seed-to-seed stdev of A_T"
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        entry = reference["workloads"][name] = {}
        for learner in workload.learners:
            acc = accuracies(workload, learner)
            std = statistics.stdev(acc.values())
            entry[learner] = {"A_T": acc, "std": std, "tol": TOLERANCE_SHARE_OF_STD * std}
        for learner in CONTROLS.get(name, ()):
            reference["controls"].setdefault(name, {})[learner] = {
                "A_T": accuracies(workload, learner)
            }
    with open(REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
