"""Named RNG sub-streams derived from one master seed.

Every source of randomness in a run (weight init, shuffling, memory
sampling, reference batches, constraint sampling) draws from its own
named stream so that two learners sharing a master seed see identical
data order and identical initial weights, and adding a consumer of
randomness to one learner cannot perturb the others.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _name_key(names: tuple[str, ...]) -> int:
    digest = hashlib.sha256("/".join(names).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def substream(master_seed: int, *names: str) -> np.random.Generator:
    """Return a Generator for the sub-stream identified by ``names``.

    Deterministic in (master_seed, names) and stable across processes;
    distinct names yield statistically independent streams.
    """
    return np.random.default_rng(
        np.random.SeedSequence([int(master_seed), _name_key(names)])
    )


def spawn_seed(master_seed: int, *names: str) -> int:
    """A derived integer seed, for APIs that take a seed rather than a Generator."""
    return int(substream(master_seed, *names).integers(0, 2**63 - 1))
