"""The benchmark's workloads: inputs made from the seed, and their grids.

Every input is a pure function of ``(workload, seed, size)``; the
program under test only ever sees the generated trees and job specs.
``size="smoke"`` shrinks each workload for the benchmark's own tests.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro import registry
from repro.analysis.campaign import Campaign
from repro.analysis.store import ColumnarStore, JsonlStore
from repro.workloads.dataset import TreeInstance, build_dataset
from repro.workloads.synthetic import random_weighted_tree

LIST_ALGOS = (
    "ParInnerFirst",
    "ParDeepestFirst",
    "ParInnerFirst/naiveO",
    "ParDeepestFirst/hops",
    "MemoryBounded",
)
LIST_CAPS = (1.0, 1.5, 2.0, 4.0)
SERVE_ALGOS = ("ParSubtrees", "ParDeepestFirst", "MemoryBounded")
SERVE_PROCS = (2, 8)
SERVE_TREES_PER_JOB = 4
# the host-speed probe (hostspeed.py) whose work is most like each
# campaign's: the paper grid is interpreter-bound (optimal_postorder,
# TaskTree.subtree), the list grid is array-bound (simulate, sweep_batch
# over 1e5-node arrays), and the host's slow phases slow the two kinds
# of work by different factors
PROBE = {"paper-campaign": "python", "list-grid": "array"}


def campaign_inputs(workload: str, seed: int, size: str):
    """``(instances, campaign, store backend)`` of a campaign workload."""
    if workload == "paper-campaign":
        if size == "smoke":
            instances = build_dataset("tiny", seed=seed)[:4]
        else:
            instances = build_dataset("small", seed=seed)
        return instances, Campaign(algorithms=tuple(registry.names("parallel"))), "jsonl"
    if workload == "list-grid":
        nodes, count = (2_000, 2) if size == "smoke" else (100_000, 4)
        rng = np.random.default_rng(seed)
        instances = [
            TreeInstance(
                name=f"random-{nodes}-{k}",
                tree=random_weighted_tree(nodes, rng),
                matrix_name="random",
                ordering="none",
                amalgamation=1,
            )
            for k in range(count)
        ]
        return instances, Campaign(algorithms=LIST_ALGOS, cap_factors=LIST_CAPS), "columnar"
    raise ValueError(f"not a campaign workload: {workload!r}")


def _stamped(base):
    """A record store that notes when each unit of work is checkpointed.

    ``run_campaign`` appends one tree's slice of the grid at a time, so
    the append times give the latency of every tree-sized job.
    """

    class Stamped(base):
        def __init__(self, path: str) -> None:
            super().__init__(path)
            self.stamps: list[float] = []

        def append(self, records) -> None:
            super().append(records)
            self.stamps.append(time.perf_counter())

    return Stamped


STORES = {"jsonl": _stamped(JsonlStore), "columnar": _stamped(ColumnarStore)}


def serve_jobs(seed: int, size: str, count: int) -> list[dict]:
    """``count`` distinct job specs, each 4 seeded trees of the tiny set.

    No two specs share a tree subset, so the service never dedupes a
    submission; spec 0 is the warm-up job.
    """
    instances = build_dataset("tiny", seed=seed)
    if size == "smoke":
        instances = instances[:8]
    trees = [
        {
            "name": inst.name,
            "parent": inst.tree.parent.tolist(),
            "w": inst.tree.w.tolist(),
            "f": inst.tree.f.tolist(),
            "sizes": inst.tree.sizes.tolist(),
        }
        for inst in instances
    ]
    count = min(count, math.comb(len(trees), SERVE_TREES_PER_JOB))
    rng = np.random.default_rng(seed)
    seen: set[tuple[int, ...]] = set()
    specs = []
    while len(specs) < count:
        pick = tuple(sorted(rng.choice(len(trees), SERVE_TREES_PER_JOB, replace=False).tolist()))
        if pick in seen:
            continue
        seen.add(pick)
        specs.append(
            {
                "trees": [trees[i] for i in pick],
                "campaign": {
                    "algorithms": list(SERVE_ALGOS),
                    "processor_counts": list(SERVE_PROCS),
                },
            }
        )
    return specs


def scenarios_per_job() -> int:
    return SERVE_TREES_PER_JOB * len(SERVE_ALGOS) * len(SERVE_PROCS)
