"""The subtree-splitting family as it was before it moved onto
:class:`~repro.core.prepared.PreparedTree` -- a test-only golden
reference, kept verbatim.

Every subtree is copied with ``TaskTree.subtree`` and re-traversed with
``optimal_postorder``, the splitting is recomputed per call, the
sequential phase is a list-comprehension restriction and the schedule
is packed node by node. ``tests/parallel/test_golden_subtrees.py``
pins the current implementation against these functions bit for bit.
Only the imports are adapted, and ``split_subtrees`` /
``subtree_work`` call the embedded copies below.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.schedule import Schedule
from repro.core.simulator import peak_memory
from repro.core.tree import NO_PARENT, TaskTree
from repro.parallel.memory_bounded import MemoryCapError
from repro.parallel.split_subtrees import SplitResult, _Key, _TopP

#: A sequential-order provider: maps a tree to a topological order.
SequentialOrder = Callable[[TaskTree], np.ndarray]


def subtree_work(tree: TaskTree) -> np.ndarray:
    """Total processing time of each subtree (``W_i`` in Section 5.1)."""
    parent = tree.parent.tolist()
    work = tree.w.tolist()
    for node in tree.postorder().tolist():
        p = parent[node]
        if p != NO_PARENT:
            work[p] += work[node]
    return np.asarray(work, dtype=np.float64)


def _default_order(tree: TaskTree) -> np.ndarray:
    """The paper's sequential reference: Liu's optimal postorder."""
    from repro.sequential.postorder import optimal_postorder

    return optimal_postorder(tree).order


def _restricted_order(full_order: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Subsequence of ``full_order`` restricted to the ``keep`` mask.

    A restriction of a topological order is a topological order of the
    induced sub-forest, and restricting the memory-optimal order keeps
    its locality, which is why both phases use it.
    """
    return np.asarray([i for i in full_order if keep[i]], dtype=np.int64)


def _pack_schedule(
    tree: TaskTree,
    p: int,
    per_proc_orders: list[list[np.ndarray]],
    seq_nodes_order: np.ndarray,
) -> Schedule:
    """Assemble the two-phase schedule.

    Phase 1: processor ``q`` executes its subtree orders back-to-back.
    Phase 2: the remaining nodes run on processor 0 starting when every
    subtree has completed (the cost model of Algorithm 2).
    """
    start = np.empty(tree.n, dtype=np.float64)
    proc = np.empty(tree.n, dtype=np.int64)
    phase1_end = 0.0
    for q, orders in enumerate(per_proc_orders):
        t = 0.0
        for order in orders:
            for node in order:
                start[node] = t
                proc[node] = q
                t += float(tree.w[node])
        phase1_end = max(phase1_end, t)
    t = phase1_end
    for node in seq_nodes_order:
        start[node] = t
        proc[node] = 0
        t += float(tree.w[node])
    return Schedule(tree, start, proc, p)


def par_subtrees(
    tree: TaskTree,
    p: int,
    sequential_order: SequentialOrder = _default_order,
    split: SplitResult | None = None,
) -> Schedule:
    """Algorithm 1: ParSubtrees.

    Parameters
    ----------
    tree, p:
        the instance.
    sequential_order:
        the memory-minimizing sequential algorithm used for each subtree
        and for the remainder (default: optimal postorder, as in the
        paper's experiments; pass Liu's exact algorithm for the O(n^2)
        variant).
    split:
        an optional precomputed splitting (shared with
        :func:`par_subtrees_optim` in the benchmark harness).
    """
    if split is None:
        split = split_subtrees(tree, p)
    full_order = sequential_order(tree)
    keep = np.zeros(tree.n, dtype=bool)
    per_proc: list[list[np.ndarray]] = [[] for _ in range(p)]
    for q, r in enumerate(split.parallel_roots):
        sub, nodes = tree.subtree(r)
        sub_order = sequential_order(sub)
        per_proc[q].append(nodes[sub_order])
        keep[nodes] = True
    seq_order = _restricted_order(full_order, ~keep)
    return _pack_schedule(tree, p, per_proc, seq_order)


def par_subtrees_optim(
    tree: TaskTree,
    p: int,
    sequential_order: SequentialOrder = _default_order,
    split: SplitResult | None = None,
) -> Schedule:
    """ParSubtreesOptim: allocate *all* subtrees to processors (LPT).

    Subtrees are sorted by non-increasing work and greedily assigned to
    the processor with the smallest total load; each processor runs its
    subtrees back-to-back (each internally in memory-optimal order). The
    split nodes are processed sequentially afterwards.
    """
    if split is None:
        split = split_subtrees(tree, p)
    full_order = sequential_order(tree)
    work = subtree_work(tree)
    roots = sorted(split.frontier_roots, key=lambda r: float(work[r]), reverse=True)
    loads = np.zeros(p, dtype=np.float64)
    keep = np.zeros(tree.n, dtype=bool)
    per_proc: list[list[np.ndarray]] = [[] for _ in range(p)]
    for r in roots:
        q = int(np.argmin(loads))
        sub, nodes = tree.subtree(r)
        sub_order = sequential_order(sub)
        per_proc[q].append(nodes[sub_order])
        loads[q] += float(work[r])
        keep[nodes] = True
    seq_order = _restricted_order(full_order, ~keep)
    return _pack_schedule(tree, p, per_proc, seq_order)


def predicted_parallel_memory(tree: TaskTree, roots: list[int], q: int) -> float:
    """Optimistic phase-1 peak predictor for ``q``-way concurrency.

    The ``q`` concurrently active subtrees need at least the sum of the
    ``q`` *smallest* sequential subtree peaks; any concurrency level
    whose prediction already exceeds the cap cannot fit and is pruned
    without building the schedule.
    """
    from repro.sequential.postorder import optimal_postorder

    peaks = []
    for r in roots:
        sub, _ = tree.subtree(r)
        peaks.append(optimal_postorder(sub).peak_memory)
    peaks.sort()
    return float(sum(peaks[:q]))


def _build(tree, p, q, roots, work, sequential_order):
    chosen = sorted(roots, key=lambda r: float(work[r]), reverse=True)[:q]
    keep = np.zeros(tree.n, dtype=bool)
    per_proc: list[list[np.ndarray]] = [[] for _ in range(p)]
    for k, r in enumerate(chosen):
        sub, nodes = tree.subtree(r)
        sub_order = sequential_order(sub)
        per_proc[k].append(nodes[sub_order])
        keep[nodes] = True
    full_order = sequential_order(tree)
    seq_order = _restricted_order(full_order, ~keep)
    return _pack_schedule(tree, p, per_proc, seq_order)


def par_subtrees_memory_aware(
    tree: TaskTree,
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
    split = split_subtrees(tree, p)
    roots = list(split.frontier_roots)
    work = subtree_work(tree)
    for q in range(min(p, len(roots)), 1, -1):
        if predicted_parallel_memory(tree, roots, q) > cap:
            continue
        schedule = _build(tree, p, q, roots, work, sequential_order)
        if peak_memory(schedule) <= cap + 1e-9:
            return schedule
    order = sequential_order(tree)
    schedule = Schedule.sequential(tree, order, p)
    peak = peak_memory(schedule)
    if peak > cap + 1e-9:
        raise MemoryCapError(
            f"cap {cap:g} below the sequential optimum {peak:g}: infeasible"
        )
    return schedule


def split_subtrees(tree: TaskTree, p: int) -> SplitResult:
    """Run Algorithm 2 and reconstruct the minimum-cost splitting.

    The loop records the sequence of popped nodes; after selecting the
    best step ``x``, the splitting is rebuilt by replaying the first
    ``x`` pops (the pop order is deterministic).
    """
    if p < 1:
        raise ValueError("p must be positive")
    work = subtree_work(tree)

    def key(i: int) -> _Key:
        return (float(work[i]), float(tree.w[i]), -i)

    frontier = _TopP(p)
    frontier.insert(key(tree.root))
    popped: list[int] = []
    seq_w = 0.0
    costs: list[float] = [float(work[tree.root])]  # Cost(0) = W_root
    while True:
        head = frontier.head()
        head_node = -head[2]
        # Loop condition of Algorithm 2: continue while W_head > w_head.
        # Equality means the head subtree is a single node (a leaf, or an
        # inner node whose whole subtree has zero extra work) and further
        # splitting cannot reduce the parallel time.
        if tree.is_leaf(head_node) or head[0] <= float(tree.w[head_node]) * (1 + 1e-12) + 1e-12:
            break
        node = -frontier.pop_max()[2]
        popped.append(node)
        seq_w += float(tree.w[node])
        for c in tree.children(node):
            frontier.insert(key(c))
        costs.append(float(frontier.head()[0]) + seq_w + frontier.surplus_work())
    best_step = int(np.argmin(costs))

    # Replay the first `best_step` pops to rebuild that frontier.
    frontier = _TopP(p)
    frontier.insert(key(tree.root))
    for node in popped[:best_step]:
        frontier.pop_max()
        for c in tree.children(node):
            frontier.insert(key(c))
    all_roots = [-k[2] for k in frontier.top] + [k[2] for k in frontier.rest]
    all_roots.sort(key=lambda i: key(i), reverse=True)
    parallel_roots = tuple(all_roots[:p])
    in_parallel = np.zeros(tree.n, dtype=bool)
    for r in parallel_roots:
        in_parallel[tree.subtree_nodes(r)] = True
    seq_nodes = tuple(int(i) for i in range(tree.n) if not in_parallel[i])
    return SplitResult(
        parallel_roots=parallel_roots,
        frontier_roots=tuple(all_roots),
        seq_nodes=seq_nodes,
        cost=float(costs[best_step]),
        steps=len(costs),
    )
