"""``SplitSubtrees`` (Algorithm 2): makespan-optimal splitting into subtrees.

The routine repeatedly replaces the heaviest frontier subtree by its
children (ties broken by non-increasing ``w_i``), evaluating after each
split the ParSubtrees makespan

.. math::

   C_{max}(s) = W_{head(PQ)} \\;+\\; \\sum_{i \\in seqSet} w_i
                \\;+\\; \\sum_{i = PQ[p+1]}^{|PQ|} W_i ,

i.e. the heaviest parallel subtree, plus the sequentially processed split
nodes, plus the surplus subtrees beyond the ``p`` heaviest. The splitting
with minimum cost is returned; Lemma 1 of the paper proves it is optimal
for ParSubtrees.

The frontier is maintained with a *top-p + rest* two-heap structure so
each step costs :math:`O(p + \\log n)` and the whole routine
:math:`O(n (p + \\log n))`, matching the paper's complexity analysis.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass

import numpy as np

from repro.core.tree import TaskTree

__all__ = ["SplitResult", "split_subtrees"]

# Frontier entries sort by (W_i, w_i, -index): non-increasing subtree work,
# ties by non-increasing node work (as in the paper), then by node index
# for determinism.
_Key = tuple[float, float, int]


class _TopP:
    """Frontier of subtree roots with O(p + log n) access to the p largest.

    ``top`` is a sorted list (ascending) of at most ``p`` keys -- the
    largest elements; ``rest`` is a max-heap of the others. ``p`` is at
    most a few dozen in all experiments, so list insertion in ``top`` is
    cheap.
    """

    def __init__(self, p: int) -> None:
        self.p = p
        self.top: list[_Key] = []
        self.rest: list[_Key] = []  # negated keys (max-heap)
        self.sum_top = 0.0  # total W over `top`
        self.sum_all = 0.0  # total W over the whole frontier

    def __len__(self) -> int:
        return len(self.top) + len(self.rest)

    def insert(self, key: _Key) -> None:
        self.sum_all += key[0]
        if len(self.top) < self.p:
            insort(self.top, key)
            self.sum_top += key[0]
        elif key > self.top[0]:
            insort(self.top, key)
            self.sum_top += key[0]
            demoted = self.top.pop(0)
            self.sum_top -= demoted[0]
            heapq.heappush(self.rest, tuple(-v for v in demoted))
        else:
            heapq.heappush(self.rest, tuple(-v for v in key))

    def pop_max(self) -> _Key:
        key = self.top.pop()
        self.sum_top -= key[0]
        self.sum_all -= key[0]
        if self.rest:
            promoted = tuple(-v for v in heapq.heappop(self.rest))
            insort(self.top, promoted)
            self.sum_top += promoted[0]
        return key

    def head(self) -> _Key:
        return self.top[-1]

    def surplus_work(self) -> float:
        """Total W of the frontier beyond the p largest subtrees."""
        return self.sum_all - self.sum_top


@dataclass(frozen=True)
class SplitResult:
    """Outcome of :func:`split_subtrees`.

    Attributes
    ----------
    parallel_roots:
        roots of the (up to ``p``) heaviest subtrees of the selected
        splitting -- these are processed concurrently in ParSubtrees.
    frontier_roots:
        roots of *all* subtrees of the selected splitting (used by
        ParSubtreesOptim, which allocates every subtree LPT-style).
    seq_nodes:
        the split (popped) nodes, processed sequentially after the
        parallel phase, in no particular order.
    cost:
        the predicted ParSubtrees makespan :math:`C_{max}(x)` of the
        selected splitting.
    steps:
        number of splitting steps evaluated (diagnostic).
    """

    parallel_roots: tuple[int, ...]
    frontier_roots: tuple[int, ...]
    seq_nodes: tuple[int, ...]
    cost: float
    steps: int


def split_subtrees(tree: TaskTree, p: int) -> SplitResult:
    """Run Algorithm 2 and reconstruct the minimum-cost splitting.

    The loop records the sequence of popped nodes; after selecting the
    best step ``x``, the splitting is rebuilt by replaying the first
    ``x`` pops (the pop order is deterministic). The loop reads the
    per-node columns as Python lists (the same float values, without
    per-access numpy scalars).
    """
    if p < 1:
        raise ValueError("p must be positive")
    work = tree.subtree_work().tolist()
    w = tree.w.tolist()
    ptr = tree.child_ptr.tolist()
    cidx = tree.child_idx.tolist()

    def key(i: int) -> _Key:
        return (work[i], w[i], -i)

    frontier = _TopP(p)
    frontier.insert(key(tree.root))
    popped: list[int] = []
    seq_w = 0.0
    costs: list[float] = [work[tree.root]]  # Cost(0) = W_root
    while True:
        head = frontier.head()
        head_node = -head[2]
        # Loop condition of Algorithm 2: continue while W_head > w_head.
        # Equality means the head subtree is a single node (a leaf, or an
        # inner node whose whole subtree has zero extra work) and further
        # splitting cannot reduce the parallel time.
        if ptr[head_node] == ptr[head_node + 1] or head[0] <= w[head_node] * (1 + 1e-12) + 1e-12:
            break
        node = -frontier.pop_max()[2]
        popped.append(node)
        seq_w += w[node]
        for c in cidx[ptr[node] : ptr[node + 1]]:
            frontier.insert(key(c))
        costs.append(frontier.head()[0] + seq_w + frontier.surplus_work())
    best_step = int(np.argmin(costs))

    # Replay the first `best_step` pops to rebuild that frontier.
    frontier = _TopP(p)
    frontier.insert(key(tree.root))
    for node in popped[:best_step]:
        frontier.pop_max()
        for c in cidx[ptr[node] : ptr[node + 1]]:
            frontier.insert(key(c))
    all_roots = [-k[2] for k in frontier.top] + [k[2] for k in frontier.rest]
    all_roots.sort(key=key, reverse=True)
    parallel_roots = tuple(all_roots[:p])
    in_parallel = np.zeros(tree.n, dtype=bool)
    for r in parallel_roots:
        in_parallel[tree.subtree_nodes(r)] = True
    return SplitResult(
        parallel_roots=parallel_roots,
        frontier_roots=tuple(all_roots),
        seq_nodes=tuple(np.flatnonzero(~in_parallel).tolist()),
        cost=float(costs[best_step]),
        steps=len(costs),
    )
