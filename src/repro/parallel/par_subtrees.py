"""``ParSubtrees`` and ``ParSubtreesOptim`` (Section 5.1, Algorithm 1).

ParSubtrees splits the tree into subtrees with
:func:`~repro.parallel.split_subtrees.split_subtrees`, processes the (up
to) ``p`` heaviest subtrees concurrently -- each with the sequential
memory-optimal traversal -- and finally processes all remaining nodes
sequentially, again in a memory-minimizing order.

Guarantees proved in the paper and property-tested here:

* **memory**: peak at most :math:`(p+1) \\cdot M_{seq}` (each parallel
  subtree needs at most the sequential memory of the whole tree; the
  sequential phase adds at most ``p`` retained subtree outputs);
* **makespan**: a ``p``-approximation, tight on fork trees (Figure 3).

``ParSubtreesOptim`` allocates *all* produced subtrees over the ``p``
processors in LPT fashion (heaviest first onto the least-loaded
processor), which improves the makespan at the price of a (slightly)
higher memory usage -- exactly the trade-off reported in Table 1.

The family (with :mod:`repro.parallel.memory_aware_subtrees`) reads its
per-tree state from a :class:`~repro.core.prepared.PreparedTree`, so a
grid of ``p`` values and algorithms pays each derivation once per tree:
the splitting per ``p`` (:meth:`~repro.core.prepared.PreparedTree.split_for`),
and one whole-tree optimal postorder of which each subtree's
memory-optimal order is a contiguous slice
(:meth:`~repro.core.prepared.PreparedTree.subtree_order`) -- no subtree
is copied or re-traversed. A bare :class:`TaskTree` is wrapped with
:func:`~repro.core.prepared.as_prepared`. Every schedule is assembled
by one packer, :func:`_assemble`; a caller-supplied
``sequential_order`` feeds it the orders of subtree copies instead.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.prepared import PreparedTree, as_prepared
from repro.core.schedule import Schedule
from repro.core.tree import TaskTree
from .split_subtrees import SplitResult, split_subtrees

__all__ = ["par_subtrees", "par_subtrees_optim"]

#: A sequential-order provider: maps a tree to a topological order.
SequentialOrder = Callable[[TaskTree], np.ndarray]


def _default_order(tree: TaskTree) -> np.ndarray:
    """The paper's sequential reference: Liu's optimal postorder."""
    from repro.sequential.postorder import optimal_postorder

    return optimal_postorder(tree).order


def _assemble(
    prepared: PreparedTree,
    p: int,
    roots_per_proc: Sequence[Sequence[int]],
    sequential_order: SequentialOrder,
) -> Schedule:
    """Assemble the two-phase schedule.

    Phase 1: processor ``q`` executes the subtrees rooted at
    ``roots_per_proc[q]`` back-to-back, each in its ``sequential_order``.
    Phase 2: the remaining nodes run on processor 0, in the whole-tree
    ``sequential_order`` restricted to them (a restriction of a
    topological order is one of the induced sub-forest, and keeps its
    locality), starting when every subtree has completed (the cost
    model of Algorithm 2). Start times are per-processor ``cumsum``
    runs over the durations -- the same left-to-right additions as a
    running ``t += w``.
    """
    tree = prepared.tree
    if sequential_order is _default_order:
        subtree_order = prepared.subtree_order
        full = prepared.optimal().order
    else:

        def subtree_order(r: int) -> np.ndarray:
            sub, nodes = tree.subtree(r)
            return nodes[sequential_order(sub)]

        full = np.asarray(sequential_order(tree), dtype=np.int64)
    w = tree.w
    start = np.empty(tree.n, dtype=np.float64)
    proc = np.empty(tree.n, dtype=np.int64)
    keep = np.zeros(tree.n, dtype=bool)
    phase1_end = 0.0
    for q, roots in enumerate(roots_per_proc):
        if not roots:
            continue
        nodes = np.concatenate([subtree_order(r) for r in roots])
        t = np.cumsum(np.concatenate(([0.0], w[nodes])))
        start[nodes] = t[:-1]
        proc[nodes] = q
        keep[nodes] = True
        phase1_end = max(phase1_end, float(t[-1]))
    rest = full[~keep[full]]
    start[rest] = np.cumsum(np.concatenate(([phase1_end], w[rest])))[:-1]
    proc[rest] = 0
    return Schedule(tree, start, proc, p)


def par_subtrees(
    tree: TaskTree | PreparedTree,
    p: int,
    sequential_order: SequentialOrder = _default_order,
    split: SplitResult | None = None,
) -> Schedule:
    """Algorithm 1: ParSubtrees.

    Parameters
    ----------
    tree, p:
        the instance (bare or prepared).
    sequential_order:
        the memory-minimizing sequential algorithm used for each subtree
        and for the remainder (default: optimal postorder, as in the
        paper's experiments; pass Liu's exact algorithm for the O(n^2)
        variant).
    split:
        an optional precomputed splitting (default: the prepared
        tree's cached one for ``p``).
    """
    prepared = as_prepared(tree)
    if split is None:
        split = prepared.split_for(p, split_subtrees)
    roots_per_proc = [[r] for r in split.parallel_roots]
    return _assemble(prepared, p, roots_per_proc, sequential_order)


def par_subtrees_optim(
    tree: TaskTree | PreparedTree,
    p: int,
    sequential_order: SequentialOrder = _default_order,
    split: SplitResult | None = None,
) -> Schedule:
    """ParSubtreesOptim: allocate *all* subtrees to processors (LPT).

    Subtrees are sorted by non-increasing work and greedily assigned to
    the processor with the smallest total load (the lowest index among
    equal loads); each processor runs its subtrees back-to-back (each
    internally in memory-optimal order). The split nodes are processed
    sequentially afterwards.
    """
    prepared = as_prepared(tree)
    if split is None:
        split = prepared.split_for(p, split_subtrees)
    work = prepared.tree.subtree_work().tolist()
    roots = sorted(split.frontier_roots, key=lambda r: work[r], reverse=True)
    loads = [0.0] * p
    roots_per_proc: list[list[int]] = [[] for _ in range(p)]
    for r in roots:
        q = loads.index(min(loads))
        roots_per_proc[q].append(r)
        loads[q] += work[r]
    return _assemble(prepared, p, roots_per_proc, sequential_order)
