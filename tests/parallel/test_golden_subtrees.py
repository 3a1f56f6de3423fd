"""Bit-identity of the subtree-splitting family against its golden copy.

``tests/parallel/golden_subtrees.py`` keeps the family as it was before
it moved onto :class:`~repro.core.prepared.PreparedTree` (one subtree
copy and one ``optimal_postorder`` per subtree, the splitting recomputed
per call). Every schedule of the current code must match it exactly --
``start`` and ``proc`` ``array_equal``, ``MemoryCapError`` raised on the
same instances -- over the tiny assembly-tree data set and a seeded zoo
that reaches both postorder-peak kernels and both tie rules.
"""

from __future__ import annotations

from importlib import import_module

import numpy as np
import pytest

from repro import registry
from repro.core.prepared import PreparedTree
from repro.core.tree import TaskTree, use_level_sweeps
from repro.parallel.memory_aware_subtrees import (
    par_subtrees_memory_aware,
    predicted_parallel_memory,
)
from repro.parallel.memory_bounded import MemoryCapError
from repro.parallel.par_subtrees import par_subtrees, par_subtrees_optim
from repro.parallel.split_subtrees import split_subtrees
from repro.sequential.liu import liu_optimal_traversal
from repro.sequential.postorder import optimal_postorder, postorder_peaks
from repro.workloads.dataset import build_dataset
from repro.workloads.synthetic import caterpillar, random_attachment_tree
from tests.parallel import golden_subtrees as golden

PROCS = (1, 2, 3, 8, 32)
CAP_FACTORS = (1.0, 1.05, 1.5, 2, 4)


def _zoo() -> dict[str, TaskTree]:
    """Seeded adversarial trees, one per regime of the family's code."""
    rng = np.random.default_rng(13)
    zoo: dict[str, TaskTree] = {}
    for k in range(3):
        # unit Pebble-Game weights: sibling ties everywhere
        zoo[f"pebble-{k}"] = TaskTree.pebble_game(random_attachment_tree(60, rng))
        n = 50
        zoo[f"smallint-{k}"] = TaskTree(
            random_attachment_tree(n, rng),
            rng.integers(0, 3, n).astype(float),
            rng.integers(0, 3, n).astype(float),
            rng.integers(0, 2, n).astype(float),
        )
        zoo[f"float-{k}"] = TaskTree(
            random_attachment_tree(n, rng, bias=-1.0),
            rng.random(n) + 0.1,
            rng.random(n),
            rng.random(n),
        )
        # non-integral f over equal sizes: leaves tie on M - f = size,
        # and the tie order moves the f prefix sums by an ulp
        zoo[f"float-ties-{k}"] = TaskTree(
            random_attachment_tree(n, rng, bias=-4.0),
            rng.random(n) + 0.1,
            np.round(rng.random(n), 1),
            np.zeros(n),
        )
    # deeper than the level-sweep threshold: the per-node peak kernels
    spine = caterpillar(120, 1)
    zoo["deep-caterpillar"] = TaskTree.from_parents(
        spine, w=rng.integers(1, 4, len(spine)).astype(float), f=1.0 + rng.random(len(spine))
    )
    zoo["deep-chain"] = TaskTree.from_parents(
        [-1] + list(range(99)), w=rng.random(100) + 0.5, f=rng.random(100), sizes=0.0
    )
    zoo["star"] = TaskTree.from_parents([-1] + [0] * 40, w=rng.integers(1, 5, 41).astype(float))
    zoo["unit-star"] = TaskTree.pebble_game([-1] + [0] * 33)
    zoo["single"] = TaskTree.from_parents([-1], w=2.0)
    return zoo


ZOO = _zoo()


@pytest.fixture(scope="module")
def trees() -> list[TaskTree]:
    return [inst.tree for inst in build_dataset("tiny")] + list(ZOO.values())


def _same(a, b) -> bool:
    return np.array_equal(a.start, b.start) and np.array_equal(a.proc, b.proc)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MemoryCapError as exc:
        return exc


def test_zoo_reaches_both_peak_kernels():
    regimes = {use_level_sweeps(t.height(), t.n) for t in ZOO.values() if t.n > 1}
    assert regimes == {True, False}


def test_zoo_reaches_the_descending_tie_recompute():
    # at least one zoo tree has subtree peaks that differ from the
    # ascending-tie peaks, so the descending tie rule is pinned below
    assert any(
        not np.array_equal(PreparedTree(t).subtree_postorder()[0], postorder_peaks(t))
        for t in ZOO.values()
    )


@pytest.mark.parametrize("name", sorted(ZOO))
def test_subtree_postorder_is_every_subtree_traversal(name):
    """One whole-tree pass reproduces every subtree copy's optimal
    postorder: its peak (fact a) and its order as a slice (fact b)."""
    tree = ZOO[name]
    prepared = PreparedTree(tree)
    sub_peaks = prepared.subtree_postorder()[0]
    for r in range(tree.n):
        sub, nodes = tree.subtree(r)
        ref = optimal_postorder(sub)
        assert sub_peaks[r] == ref.peak_memory
        assert np.array_equal(prepared.subtree_order(r), nodes[ref.order])


def test_integral_peaks_are_tie_independent():
    """With integral weights every prefix sum is exact, so the
    ascending-tie peaks already equal every subtree's peak."""
    for name in ("pebble-0", "smallint-0", "unit-star"):
        tree = ZOO[name]
        peaks = postorder_peaks(tree)
        for r in range(tree.n):
            assert peaks[r] == optimal_postorder(tree.subtree(r)[0]).peak_memory


def test_float_tie_needs_the_descending_rule():
    # leaves tie on M - f = 0; ascending order sums 0.1 + 0.2 + 0.3,
    # the subtree copy (reversed labels) sums 0.3 + 0.2 + 0.1
    tree = TaskTree.from_parents([-1, 0, 0, 0], w=1.0, f=[0.0, 0.1, 0.2, 0.3])
    whole = postorder_peaks(tree)[0]
    copy = optimal_postorder(tree.subtree(0)[0]).peak_memory
    assert whole != copy
    assert PreparedTree(tree).subtree_postorder()[0][0] == copy
    for p in (1, 2):
        assert _same(par_subtrees(tree, p), golden.par_subtrees(tree, p))


def test_subtree_work_matches_loop(trees):
    for tree in trees:
        work = tree.subtree_work()
        assert np.array_equal(work, golden.subtree_work(tree))
        work[tree.root] += 1.0  # a writable copy; the cache is untouched
        assert np.array_equal(tree.subtree_work(), golden.subtree_work(tree))


def test_split_matches_golden(trees):
    for tree in trees:
        for p in PROCS:
            assert split_subtrees(tree, p) == golden.split_subtrees(tree, p)


def test_family_bit_identical(trees):
    """Three algorithms x p (x cap factor) on one shared PreparedTree
    per tree, against the golden per-call code."""
    for tree in trees:
        prepared = PreparedTree(tree)
        mseq = optimal_postorder(tree).peak_memory
        for p in PROCS:
            assert _same(par_subtrees(prepared, p), golden.par_subtrees(tree, p))
            assert _same(par_subtrees_optim(prepared, p), golden.par_subtrees_optim(tree, p))
            for factor in CAP_FACTORS:
                cap = factor * mseq
                got = _outcome(par_subtrees_memory_aware, prepared, p, cap)
                ref = _outcome(golden.par_subtrees_memory_aware, tree, p, cap)
                if isinstance(ref, MemoryCapError):
                    assert isinstance(got, MemoryCapError) and str(got) == str(ref)
                else:
                    assert _same(got, ref)


def test_bare_tree_and_registry_match_golden():
    for name in ("float-ties-0", "pebble-1", "deep-caterpillar"):
        tree = ZOO[name]
        for p in (2, 8):
            assert _same(par_subtrees(tree, p), golden.par_subtrees(tree, p))
            assert _same(
                registry.run("ParSubtreesOptim", tree, p), golden.par_subtrees_optim(tree, p)
            )
            cap = 1.5 * optimal_postorder(tree).peak_memory
            assert _same(
                registry.run("MemoryAwareSubtrees", tree, p, cap_factor=1.5),
                golden.par_subtrees_memory_aware(tree, p, cap),
            )


def test_custom_order_and_explicit_split_match_golden():
    """A non-default ``sequential_order`` (subtree copies) and an
    explicit ``split=`` go through the same packer as the default."""

    def liu(t):
        return liu_optimal_traversal(t).order

    for name in ("float-0", "smallint-1", "deep-chain"):
        tree = ZOO[name]
        prepared = PreparedTree(tree)
        for p in (2, 3):
            split = golden.split_subtrees(tree, p)
            for new, old in (
                (par_subtrees, golden.par_subtrees),
                (par_subtrees_optim, golden.par_subtrees_optim),
            ):
                assert _same(new(prepared, p, liu), old(tree, p, liu))
                assert _same(new(prepared, p, split=split), old(tree, p, split=split))
            cap = 2.0 * optimal_postorder(tree).peak_memory
            assert _same(
                par_subtrees_memory_aware(prepared, p, cap, liu),
                golden.par_subtrees_memory_aware(tree, p, cap, liu),
            )


def test_predictor_matches_golden():
    for tree in ZOO.values():
        roots = list(golden.split_subtrees(tree, 8).frontier_roots)
        for q in range(1, len(roots) + 1):
            assert predicted_parallel_memory(tree, roots, q) == (
                golden.predicted_parallel_memory(tree, roots, q)
            )


def test_p_sweep_splits_once_per_p_and_copies_no_subtree(monkeypatch):
    """One PreparedTree, the three algorithms x p in {2,4,8,16,32}:
    five splittings in all and not a single subtree copy."""
    calls = {"split": 0, "subtree": 0}

    def counting_split(tree, p):
        calls["split"] += 1
        return split_subtrees(tree, p)

    original_subtree = TaskTree.subtree

    def counting_subtree(self, i):
        calls["subtree"] += 1
        return original_subtree(self, i)

    # every module that binds the name (repro.parallel rebinds its own
    # `split_subtrees` attribute to the function, hence import_module)
    for name in ("split_subtrees", "par_subtrees", "memory_aware_subtrees"):
        monkeypatch.setattr(import_module(f"repro.parallel.{name}"), "split_subtrees", counting_split)
    monkeypatch.setattr(TaskTree, "subtree", counting_subtree)
    prepared = PreparedTree(build_dataset("tiny")[0].tree)
    for p in (2, 4, 8, 16, 32):
        for name in ("ParSubtrees", "ParSubtreesOptim", "MemoryAwareSubtrees"):
            registry.run(name, prepared, p)
    assert calls == {"split": 5, "subtree": 0}


def test_cold_caches_shared_across_threads():
    """Threads racing on one cold PreparedTree (as the service's LRU
    shares it) all get the golden schedules: every cache is a pure
    function of the tree, so whichever racer's value wins is equal."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    tree = ZOO["float-ties-1"]
    cap = 2.0 * optimal_postorder(tree).peak_memory
    golden_fns = {
        "ParSubtrees": golden.par_subtrees,
        "ParSubtreesOptim": golden.par_subtrees_optim,
        "MemoryAwareSubtrees": lambda t, p: golden.par_subtrees_memory_aware(t, p, cap),
    }
    jobs = [(name, p) for name in golden_fns for p in (2, 3, 8)]
    ref = {(name, p): golden_fns[name](tree, p) for name, p in jobs}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            prepared = PreparedTree(tree)
            with ThreadPoolExecutor(max_workers=6) as ex:
                results = list(ex.map(lambda job: registry.run(job[0], prepared, job[1]), jobs * 3))
            for job, got in zip(jobs * 3, results):
                assert _same(got, ref[job]), job
    finally:
        sys.setswitchinterval(interval)
