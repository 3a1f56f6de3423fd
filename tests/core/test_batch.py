"""Megabatch sweeps: one kernel call per scenario grid, bit-identical.

The batched entry point (:func:`repro.core.engine.sweep_batch`) stacks
an (algorithm x p x cap) grid into one kernel call, thread-parallel in
the C backend. Its acceptance contract extends the backend golden
tests: per-scenario results must be **byte-identical** to the
unbatched path for every registered heuristic x backend x memory mode,
independent of the thread count -- including error outcomes (an
infeasible cap raises the same message at the same slice position) and
the per-*scenario* integral-weight exactness fallback.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import registry
from repro.core.engine import (
    THREADS_ENV_VAR,
    MemoryCapError,
    SchedulerEngine,
    default_threads,
    sweep_batch,
)
from repro.core.prepared import PreparedTree, stack_unique
from repro.core.tree import TaskTree
from repro.workloads.synthetic import random_weighted_tree

from tests.conftest import task_trees
from tests.core.test_backends import (
    COMPILED,
    assert_same_schedule,
    needs_c,
    tree_spread,
)

#: the megabatch matrix: reference loop + both C kernel builds (OpenMP
#: and serial; see conftest)
BATCH_BACKENDS = ["python"] + COMPILED

#: algorithms with a registered sweep spec (every engine-backed one)
BATCHABLE = [a.name for a in registry.algorithms("parallel") if a.sweep_spec]


def grid(prepared: PreparedTree) -> tuple[list, list]:
    """The full test grid over one tree: every batchable heuristic at
    several p, the memory-capped modes at loose and tight caps."""
    specs, labels = [], []
    for name in BATCHABLE:
        algo = registry.get(name)
        if "cap_factor" in algo.params:
            for cap_factor in (1.25, 2.0):
                for mode in ("strict", "opportunistic"):
                    for p in (2, 4):
                        kw = {"cap_factor": cap_factor, "mode": mode}
                        specs.append(algo.batch_spec(prepared, p, **kw))
                        labels.append((name, p, kw))
        else:
            for p in (1, 2, 4, 8):
                specs.append(algo.batch_spec(prepared, p))
                labels.append((name, p, {}))
    return specs, labels


def reference_outcomes(prepared: PreparedTree, labels: list) -> list:
    """Unbatched reference outcome per grid cell (schedule or error)."""
    out = []
    for name, p, kw in labels:
        try:
            out.append(registry.run(name, prepared, p, backend="python", **kw))
        except MemoryCapError as exc:
            out.append(exc)
    return out


def assert_outcomes_match(run, refs, labels) -> None:
    for outcome, ref, label in zip(run.outcomes, refs, labels):
        if isinstance(ref, Exception):
            assert type(outcome) is type(ref), label
            assert str(outcome) == str(ref), label
        else:
            assert_same_schedule(outcome, ref)


# ----------------------------------------------------------------------
# the bit-identity matrix: heuristic x backend x memory mode
# ----------------------------------------------------------------------
class TestBitIdentityMatrix:
    @pytest.mark.parametrize("backend", BATCH_BACKENDS, indirect=True)
    @pytest.mark.parametrize("tree_index", range(8))
    def test_batched_equals_unbatched(self, backend, tree_index):
        prepared = PreparedTree(tree_spread()[tree_index])
        specs, labels = grid(prepared)
        refs = reference_outcomes(prepared, labels)
        run = sweep_batch(prepared, specs, backend=backend, threads=2)
        assert run.backend == backend
        assert_outcomes_match(run, refs, labels)

    @needs_c
    def test_engines_expose_full_sweep_state(self):
        """Batch engines carry the same sweep/state as unbatched runs
        (activation order, memory trace, final clock), not just the
        schedule arrays."""
        prepared = PreparedTree(tree_spread()[4])
        specs, _ = grid(prepared)
        run = sweep_batch(prepared, specs, backend="c", threads=2)
        for engine, spec, outcome in zip(run.engines, specs, run.outcomes):
            if isinstance(outcome, Exception):
                continue
            assert engine.backend_used == "c"
            ref = SchedulerEngine(
                prepared,
                spec.p,
                spec.rank,
                cap=spec.cap,
                order=spec.order,
                mode=spec.mode,
                backend="python",
            )
            ref.run()
            for fld in ("start", "end", "proc", "activation", "mem_trace"):
                np.testing.assert_array_equal(
                    getattr(engine.sweep, fld), getattr(ref.sweep, fld)
                )
            assert engine.sweep.now == ref.sweep.now
            assert engine.sweep.mem == ref.sweep.mem

    @needs_c
    def test_threads_do_not_change_results(self):
        prepared = PreparedTree(tree_spread()[2])
        specs, labels = grid(prepared)
        baseline = sweep_batch(prepared, specs, backend="c", threads=1)
        base_bytes = _outcome_bytes(baseline)
        for threads in (2, 8):
            run = sweep_batch(prepared, specs, backend="c", threads=threads)
            assert _outcome_bytes(run) == base_bytes  # any thread count

    @needs_c
    def test_schedules_raises_the_stored_error(self):
        tree = tree_spread()[4]
        prepared = PreparedTree(tree)
        algo = registry.get("MemoryBounded")
        specs = [
            algo.batch_spec(prepared, 2),
            algo.batch_spec(prepared, 4, cap_factor=1.0, mode="opportunistic"),
        ]
        run = sweep_batch(prepared, specs, backend="c")
        try:
            registry.run(
                "MemoryBounded", prepared, 4, cap_factor=1.0, mode="opportunistic"
            )
        except MemoryCapError as exc:
            expected = str(exc)
            with pytest.raises(MemoryCapError) as err:
                run.schedules()
            assert str(err.value) == expected
        else:  # the cap happens to be feasible on this tree
            assert len(run.schedules()) == 2

    @needs_c
    @settings(max_examples=25, deadline=None)
    @given(tree=task_trees(max_nodes=40, max_w=2, max_f=1), p=st.integers(1, 5))
    def test_property_tie_heavy_grids(self, tree, p):
        """Hypothesis sweep over tie-heavy trees (max_w=2 forces heavy
        duplicate priority keys): the whole grid stays bit-identical."""
        prepared = PreparedTree(tree)
        specs, labels = grid(prepared)
        refs = reference_outcomes(prepared, labels)
        run = sweep_batch(prepared, specs, backend="c", threads=3)
        assert_outcomes_match(run, refs, labels)


# ----------------------------------------------------------------------
# per-scenario exactness fallback (integral weights >= 2**53)
# ----------------------------------------------------------------------
class TestExactnessFallback:
    @needs_c
    def test_huge_integral_weights_fall_back_per_scenario(self):
        # 3 integral weights of 2**52 sum past 2**53: float64 event keys
        # can no longer represent every completion time exactly, so each
        # scenario of the batch must take the reference loop -- and stay
        # bit-identical to the unbatched path.
        tree = TaskTree.from_parents(
            [-1, 0, 0], w=float(2**52), f=1.0, sizes=0.0
        )
        prepared = PreparedTree(tree)
        assert not prepared.kernel_exact
        specs = [
            registry.get("ParDeepestFirst").batch_spec(prepared, p) for p in (1, 2, 3)
        ]
        run = sweep_batch(prepared, specs, backend="c", threads=2)
        for engine, p in zip(run.engines, (1, 2, 3)):
            assert engine.backend_used == "python"  # fell back, per scenario
        for schedule, p in zip(run.schedules(), (1, 2, 3)):
            assert_same_schedule(
                schedule, registry.run("ParDeepestFirst", prepared, p, backend="python")
            )

    def test_python_backend_batches_through_reference_loop(self):
        prepared = PreparedTree(tree_spread()[3])
        specs, _ = grid(prepared)
        run = sweep_batch(prepared, specs, backend="python")
        for engine, outcome in zip(run.engines, run.outcomes):
            if not isinstance(outcome, Exception):
                assert engine.backend_used == "python"


# ----------------------------------------------------------------------
# stacking helpers
# ----------------------------------------------------------------------
class TestStackingHelpers:
    def test_stack_unique_dedups_by_identity(self):
        a = np.arange(4, dtype=np.int64)
        b = np.arange(4, dtype=np.int64)[::-1].copy()
        stack, ids = stack_unique([a, b, a, None, b])
        assert stack.shape == (2, 4)
        assert ids.tolist() == [0, 1, 0, -1, 1]
        assert np.array_equal(stack[0], a) and np.array_equal(stack[1], b)

    def test_stack_unique_all_none_yields_dummy(self):
        stack, ids = stack_unique([None, None])
        assert stack.shape == (1, 0) and stack.dtype == np.int64
        assert ids.tolist() == [-1, -1]
        assert stack[0][:0].shape == (0,)  # the kernels' empty sigma slice

    def test_pending_scratch_slots_never_alias(self, chain5):
        prepared = PreparedTree(chain5)
        row0 = prepared.pending_scratch(0)
        row2 = prepared.pending_scratch(2)
        row0[:] = -1
        assert np.array_equal(row2, prepared.pending0)  # distinct buffers
        assert prepared.pending_scratch(2) is row2  # stable per slot
        assert np.array_equal(prepared.pending_scratch(0), prepared.pending0)

    def test_pending_scratch_rejects_negative_slot(self, chain5):
        with pytest.raises(ValueError, match="slot"):
            PreparedTree(chain5).pending_scratch(-1)


def _outcome_bytes(run) -> list:
    return [
        None if isinstance(o, Exception) else (o.start.tobytes(), o.proc.tobytes())
        for o in run.outcomes
    ]


def _forked_grid_sweep(tree_index: int) -> tuple[bool, list]:
    """Sweep one test grid in a forked pool worker; report whether the
    worker inherited the parent's OpenMP taint (top-level so the fork
    pool can pickle it)."""
    from repro.core import engine

    prepared = PreparedTree(tree_spread()[tree_index])
    specs, _ = grid(prepared)
    run = sweep_batch(prepared, specs, backend="c", threads=2)
    return engine._FORK_UNSAFE, _outcome_bytes(run)


# ----------------------------------------------------------------------
# threading knobs
# ----------------------------------------------------------------------
class TestThreads:
    @needs_c
    def test_forked_child_of_threaded_parent_batches_identically(self):
        """A worker forked after the parent ran a threaded batch must not
        re-enter OpenMP: it sweeps serially, with the same results."""
        import multiprocessing

        from repro.core import _ckernel

        prepared = PreparedTree(tree_spread()[2])
        specs, _ = grid(prepared)
        parent = _outcome_bytes(sweep_batch(prepared, specs, backend="c", threads=2))
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=1) as pool:
            tainted, child = pool.apply_async(_forked_grid_sweep, (2,)).get(timeout=120)
        assert child == parent
        assert tainted == _ckernel.openmp_enabled()

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        assert default_threads() == 3
        monkeypatch.setenv(THREADS_ENV_VAR, "0")
        assert default_threads() == 1  # clamped to at least one thread
        monkeypatch.setenv(THREADS_ENV_VAR, "not-a-number")
        assert default_threads() >= 1  # falls through to the core count
        monkeypatch.delenv(THREADS_ENV_VAR)
        assert default_threads() >= 1

    def test_batchrun_records_resolved_threads(self, star5):
        prepared = PreparedTree(star5)
        spec = registry.get("ParInnerFirst").batch_spec(prepared, 2)
        run = sweep_batch(prepared, [spec], threads=5)
        assert run.threads == 5
        assert len(run.schedules()) == 1


# ----------------------------------------------------------------------
# registry integration
# ----------------------------------------------------------------------
class TestRegistrySpecs:
    def test_every_engine_algorithm_has_a_spec(self):
        for name in ("ParInnerFirst", "ParDeepestFirst", "ParInnerFirst/naiveO",
                     "ParDeepestFirst/hops", "MemoryBounded"):
            assert registry.get(name).sweep_spec is not None

    def test_non_engine_algorithms_have_none(self):
        for name in ("ParSubtrees", "ParSubtreesOptim", "MemoryAwareSubtrees",
                     "optimal_postorder"):
            algo = registry.get(name)
            assert algo.sweep_spec is None
            assert algo.batch_spec(tree_spread()[1], 2) is None

    def test_batch_spec_rejects_unknown_params(self):
        prepared = PreparedTree(tree_spread()[1])
        with pytest.raises(TypeError, match="unknown"):
            registry.get("MemoryBounded").batch_spec(prepared, 2, bogus=1)

    def test_batch_spec_strips_backend(self):
        prepared = PreparedTree(tree_spread()[1])
        spec = registry.get("ParInnerFirst").batch_spec(prepared, 2, backend="python")
        assert spec.p == 2 and spec.cap is None

    def test_specs_share_prepared_rank_arrays(self):
        """Scenario stacking dedups by identity, so specs built off one
        prepared tree must reuse the cached rank/order objects."""
        prepared = PreparedTree(tree_spread()[2])
        algo = registry.get("MemoryBounded")
        s1 = algo.batch_spec(prepared, 2, cap_factor=1.5)
        s2 = algo.batch_spec(prepared, 8, cap_factor=3.0)
        assert s1.rank is s2.rank
        assert s1.order is s2.order
        p1 = registry.get("ParDeepestFirst").batch_spec(prepared, 2)
        p2 = registry.get("ParDeepestFirst").batch_spec(prepared, 16)
        assert p1.rank is p2.rank


# ----------------------------------------------------------------------
# campaign megabatch path
# ----------------------------------------------------------------------
class TestCampaignMegabatch:
    @pytest.fixture(scope="class")
    def setup(self):
        from repro.workloads.dataset import TreeInstance
        from repro.analysis.campaign import Campaign

        rng = np.random.default_rng(1305)
        instances = [
            TreeInstance(
                name=f"t{i}",
                tree=random_weighted_tree(60 + 30 * i, rng),
                matrix_name=f"t{i}",
                ordering="nd",
                amalgamation=1,
            )
            for i in range(3)
        ]
        campaign = Campaign(
            algorithms=(
                "ParInnerFirst",
                "ParDeepestFirst",
                "ParSubtrees",
                "MemoryBounded",
                "optimal_postorder",
            ),
            processor_counts=(2, 4),
            cap_factors=(1.5, 2.0),
        )
        return instances, campaign

    @staticmethod
    def per_scenario(instances, campaign):
        """The reference stream: one registry.run + simulate per scenario."""
        from repro.analysis.experiments import ScenarioRecord
        from repro.core.simulator import simulate

        records = []
        for inst in instances:
            prepared = PreparedTree(inst.tree)
            for sc in campaign.scenarios_for(inst.name):
                result = simulate(
                    registry.run(sc.algorithm, prepared, sc.p, **dict(sc.params))
                )
                records.append(
                    ScenarioRecord(
                        tree=inst.name,
                        n=prepared.n,
                        p=sc.p,
                        heuristic=sc.label,
                        makespan=result.makespan,
                        memory=result.peak_memory,
                        memory_lb=prepared.optimal().peak_memory,
                        makespan_lb=prepared.makespan_lower_bound(sc.p),
                    )
                )
        return records

    def test_megabatch_records_byte_identical(self, setup):
        from repro.analysis.campaign import run_campaign

        instances, campaign = setup
        batched = run_campaign(instances, campaign, threads=2)
        assert batched == self.per_scenario(instances, campaign)

    def test_megabatch_with_worker_pool(self, setup):
        from repro.analysis.campaign import run_campaign

        instances, campaign = setup
        serial = run_campaign(instances, campaign)
        pooled = run_campaign(instances, campaign, workers=2, threads=2)
        assert pooled == serial

    def test_megabatch_checkpoint_bytes_identical(self, setup, tmp_path):
        from repro.analysis.campaign import run_campaign
        from repro.analysis.experiments import save_records

        instances, campaign = setup
        on = str(tmp_path / "on.jsonl")
        off = str(tmp_path / "off.jsonl")
        r1 = run_campaign(instances, campaign, checkpoint=on)
        r2 = self.per_scenario(instances, campaign)
        save_records(r2, off, append=True)
        assert r1 == r2
        assert open(on, "rb").read() == open(off, "rb").read()

    def test_megabatch_resume_is_byte_identical(self, setup, tmp_path):
        from repro.analysis.campaign import run_campaign

        instances, campaign = setup
        full = str(tmp_path / "full.jsonl")
        records = run_campaign(instances, campaign, checkpoint=full)
        blob = open(full, "rb").read()
        part = str(tmp_path / "part.jsonl")
        lines = blob.splitlines()
        with open(part, "wb") as fh:
            fh.write(b"\n".join(lines[:5]) + b"\n")
        resumed = run_campaign(instances, campaign, checkpoint=part, resume=True)
        assert resumed == records
        assert open(part, "rb").read() == blob


# ----------------------------------------------------------------------
# C build cache keyed by flags + source (satellite: stale-cache hazard)
# ----------------------------------------------------------------------
class TestCompileCacheKeys:
    def test_cache_key_covers_flags(self):
        from repro.core import _ckernel

        serial = _ckernel._cache_key(["-O3", "-shared", "-fPIC"])
        openmp = _ckernel._cache_key(["-O3", "-shared", "-fPIC", "-fopenmp"])
        assert serial != openmp  # an OpenMP .so can never shadow a serial one
        assert serial == _ckernel._cache_key(["-O3", "-shared", "-fPIC"])

    def test_no_openmp_env_var_forces_serial_flags(self, monkeypatch):
        from repro.core import _ckernel

        monkeypatch.delenv(_ckernel.NO_OPENMP_ENV_VAR, raising=False)
        flag_sets = _ckernel._build_flags()
        assert any("-fopenmp" in flags for flags in flag_sets)
        assert flag_sets[-1] == ["-O3", "-shared", "-fPIC"]  # serial fallback
        monkeypatch.setenv(_ckernel.NO_OPENMP_ENV_VAR, "1")
        assert _ckernel._build_flags() == [["-O3", "-shared", "-fPIC"]]

    @needs_c
    def test_serial_rebuild_lands_in_a_distinct_artifact(self, tmp_path, monkeypatch):
        """REPRO_NO_OPENMP in a fresh cache dir compiles a second .so
        under the serial flags' digest -- no collision, openmp off."""
        import subprocess
        import sys

        code = (
            "import os\n"
            "from repro.core import _ckernel\n"
            "assert _ckernel.available(), _ckernel.unavailable_reason()\n"
            "assert not _ckernel.openmp_enabled()\n"
            "libs = [f for f in os.listdir(_ckernel.cache_dir()) if f.endswith('.so')]\n"
            "key = _ckernel._cache_key(['-O3', '-shared', '-fPIC'])\n"
            "assert libs == [f'event_sweep_{key}.so'], libs\n"
            "print('ok')\n"
        )
        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        env = dict(os.environ)
        env["REPRO_NO_OPENMP"] = "1"
        env["REPRO_KERNEL_CACHE"] = str(tmp_path / "cache")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_build_tuple_keeps_legacy_indices(self):
        """Monkeypatching _BUILD with a (None, reason) 2-tuple -- the
        historical format used across the test suite -- must keep
        working: fn at [0], reason at [1], batch/openmp length-gated."""
        from repro.core import _ckernel

        build = _ckernel._ensure_built()
        assert build[0] is None or callable(build[0])
        assert isinstance(build[1], str)
        if build[0] is not None:
            assert len(build) == 4 and callable(build[2])
