"""Memory-aware ParSubtrees: spend parallelism only while it fits.

A second answer to the paper's future-work question ("take as input a
cap on the memory usage"), complementary to the list-scheduling variant
of :mod:`repro.parallel.memory_bounded`: keep ParSubtrees's two-phase
structure but choose *how many* subtrees run concurrently from the
memory budget.

The scheduler tries concurrency levels ``q = p, p-1, ..., 2`` -- running
the ``q`` heaviest subtrees of the Algorithm 2 splitting in parallel and
the rest sequentially -- and returns the first schedule whose *measured*
peak fits under the cap (the cheap sum-of-peaks predictor
:func:`predicted_parallel_memory` prunes hopeless levels first). With
``q = 1`` it degenerates to the memory-optimal sequential traversal, so
any ``cap >= M_seq`` is feasible; below that it raises
:class:`~repro.parallel.memory_bounded.MemoryCapError`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.prepared import PreparedTree, as_prepared
from repro.core.schedule import Schedule
from repro.core.simulator import peak_memory
from repro.core.tree import TaskTree
from .memory_bounded import MemoryCapError
from .par_subtrees import SequentialOrder, _assemble, _default_order
from .split_subtrees import split_subtrees

__all__ = ["par_subtrees_memory_aware", "predicted_parallel_memory"]


def predicted_parallel_memory(
    tree: TaskTree | PreparedTree, roots: Sequence[int], q: int
) -> float:
    """Optimistic phase-1 peak predictor for ``q``-way concurrency.

    The ``q`` concurrently active subtrees need at least the sum of the
    ``q`` *smallest* sequential subtree peaks; any concurrency level
    whose prediction already exceeds the cap cannot fit and is pruned
    without building the schedule. The peaks are a gather from the
    prepared tree's per-subtree optimal postorder peaks.
    """
    sub_peaks = as_prepared(tree).subtree_postorder()[0]
    peaks = sorted(sub_peaks[np.asarray(roots, dtype=np.int64)].tolist())
    return float(sum(peaks[:q]))


def par_subtrees_memory_aware(
    tree: TaskTree | PreparedTree,
    p: int,
    cap: float,
    sequential_order: SequentialOrder = _default_order,
) -> Schedule:
    """ParSubtrees constrained to a memory budget (see module docstring).

    Raises
    ------
    MemoryCapError
        when even the fully sequential fallback exceeds ``cap`` (i.e.
        ``cap`` is below the sequential optimum of ``sequential_order``).
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    prepared = as_prepared(tree)
    split = prepared.split_for(p, split_subtrees)
    roots = list(split.frontier_roots)
    work = prepared.tree.subtree_work().tolist()
    heaviest = sorted(roots, key=lambda r: work[r], reverse=True)
    for q in range(min(p, len(roots)), 1, -1):
        if predicted_parallel_memory(prepared, roots, q) > cap:
            continue
        schedule = _assemble(prepared, p, [[r] for r in heaviest[:q]], sequential_order)
        if peak_memory(schedule) <= cap + 1e-9:
            return schedule
    # q = 1: the fully sequential traversal
    schedule = _assemble(prepared, p, [], sequential_order)
    peak = peak_memory(schedule)
    if peak > cap + 1e-9:
        raise MemoryCapError(
            f"cap {cap:g} below the sequential optimum {peak:g}: infeasible"
        )
    return schedule
