#!/usr/bin/env python3
"""Compare two benchmark results of one workload, seed and machine set-up.

    python3 bench/compare.py PARENT.json CHANGE.json

The files are the ``bench/out/<workload>-seed<n>-trace<t>.json`` that
``run.py`` writes.  Two results are compared only when their provenance
matches apart from the commit (git SHA and source hash); otherwise the
script names the differing fields and exits 2.
"""

from __future__ import annotations

import json
import sys

COMMIT_KEYS = ("git_sha", "src_sha256")


def load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (load(path) for path in argv)
    pa, pb = ({k: v for k, v in x["provenance"].items() if k not in COMMIT_KEYS} for x in (a, b))
    differ = sorted(k for k in pa.keys() | pb.keys() if pa.get(k) != pb.get(k))
    if differ:
        print(f"not comparable: provenance differs in {', '.join(differ)}", file=sys.stderr)
        return 2
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    print(f"{'metric':<44} {'first':>14} {'second':>14} {'change':>9}")
    for name in sorted(ma.keys() & mb.keys()):
        va, vb = ma[name]["value"], mb[name]["value"]
        change = f"{vb / va - 1:+9.1%}" if va else f"{'-':>9}"
        print(f"{name:<44} {va:>14.6g} {vb:>14.6g} {change} {ma[name]['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
