"""The benchmark's workloads and the seeds their inputs come from.

Each workload is a closed loop with one caller: for each repetition the
benchmark picks a config seed and runs every learner of the workload on
it, one after another, through the same calls ``llb run`` makes.  Config
seeds come from a fixed pool, so every run is checked against an
accuracy recorded on that exact seed (``reference.json``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
SEED_POOL = 10


@dataclass(frozen=True)
class Workload:
    name: str
    learners: tuple[str, ...]
    config: dict

    def config_dict(self, learner: str, seed: int) -> dict:
        """The config the program receives for one learner on one seed."""
        return {**self.config, "learner": learner, "seeds": [seed]}


def config_seed(workload_seed: int, rep: int) -> int:
    """Config seed of repetition ``rep``: consecutive pool entries from the workload seed."""
    return (workload_seed + rep) % SEED_POOL


_PMNIST_BASE = {"batch_size": 10, "beta": 10}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pmnist-agem",
            ("agem",),
            {
                "stream": {"kind": "permuted-mnist", "tasks": 8, "cv_split": 3,
                           "train_per_task": 1000, "test_per_task": 500},
                "hidden": [256, 256],
                "base": {**_PMNIST_BASE, "lr": 0.03, "memory_per_task": 250,
                         "ref_batch_size": 256},
                "grid": {"lr": [0.1, 0.03]},
            },
        ),
        Workload(
            "pmnist-long",
            ("gem", "ewc"),
            {
                "stream": {"kind": "permuted-mnist", "tasks": 14, "cv_split": 2,
                           "train_per_task": 300, "test_per_task": 250},
                "hidden": [256, 256],
                "base": {**_PMNIST_BASE, "lr": 0.03, "memory_per_task": 100},
                "grid": {"lr": [0.1, 0.03]},
            },
        ),
        Workload(
            "split-je",
            ("agem-je",),
            {
                "stream": {"kind": "synthetic-split", "num_classes": 200,
                           "classes_per_task": 5, "tasks": 40, "cv_split": 3,
                           "attributes": 32, "input_dim": 64,
                           "train_per_class": 200, "test_per_class": 40},
                "hidden": [64, 64],
                "base": {**_PMNIST_BASE, "lr": 0.1, "memory_per_task": 100,
                         "ref_batch_size": 128},
                # selection here is short (3 small tasks), so four candidates
                # give cv_s enough work to time steadily
                "grid": {"lr": [0.1, 0.03, 0.01, 0.003]},
            },
        ),
    )
}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)
