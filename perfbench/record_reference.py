"""Rebuild reference.json: the tree pool and the recorded answer of every
question any seed can ask.

Run from the repository root:  python3 perfbench/record_reference.py

Each answer is recorded only after the workload's own gate accepts it,
so a reference cannot enshrine an answer that contradicts the paper's
results.  Re-record only in a change that alters the benchmark.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from cslab import compute_csf, random_tree  # noqa: E402

from benchlib import reference_entry  # noqa: E402
from workloads import REFERENCE_PATH, TREE_BASES, TREE_SIZES, WORKLOADS  # noqa: E402

POOL_SIZE = 7


def edge_spec(G) -> str:
    return f"edges:{G.n}:" + ",".join(f"{u}-{v}" for u, v in sorted(G.edges))


def tree_pool() -> dict:
    """POOL_SIZE distinct random trees per size on which `auto` takes the
    edge-subset route (no family recurrence applies)."""
    pool = {}
    for n in TREE_SIZES:
        rng = random.Random(1000 + n)
        specs: list = []
        while len(specs) < POOL_SIZE:
            G = random_tree(n, rng)
            spec = edge_spec(G)
            if spec not in specs and compute_csf(G).route == "edge-p":
                specs.append(spec)
        pool[str(n)] = specs
    return pool


def main() -> int:
    reference = {"tree_pool": tree_pool()}
    reference.update({name: {} for name in WORKLOADS})
    for name, cls in WORKLOADS.items():
        workload = cls(0, reference)
        if name == "tree-expand":
            workload.questions = [
                (basis, spec)
                for n in TREE_SIZES
                for spec in reference["tree_pool"][str(n)]
                for basis in TREE_BASES
            ]
        answers = [a for q in workload.questions for a in workload.answers(q, workload.ask(q))]
        problems = workload.gate(answers)
        if problems:
            print(f"{name}: gate failed:", *problems[:20], sep="\n  ", file=sys.stderr)
            return 1
        reference[name] = {a["qid"]: reference_entry(a) for a in answers}
        print(f"{name}: recorded {len(answers)} answers", file=sys.stderr)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
