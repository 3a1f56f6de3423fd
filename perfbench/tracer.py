"""Span tracer that times the program's layers from the outside.

Nothing under ``src/`` knows about it: :meth:`Tracer.install` replaces
the public entry points of each layer (module functions, class methods)
with timing wrappers, and :meth:`Tracer.uninstall` puts the originals
back. Spans nest through a stack, so a layer's *self* time is its
span's duration minus the part its traced children cover. Spans are
kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from importlib import import_module


def _assign(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder with entry-point patching."""

    def __init__(self) -> None:
        # one row per span: [name, start_ns, end_ns, parent index, child_ns]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager recording one span named ``name``."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- patching -------------------------------------------------------
    def wrap(self, owner, attr: str, name, on_call=None) -> None:
        """Replace ``owner.attr`` with a timed wrapper.

        ``name`` is a span name or a callable ``(args) -> name`` (used
        for per-algorithm spans). ``on_call(args, result)`` may add to
        the counters after each call.
        """
        if isinstance(owner, dict):
            original = owner[attr]
        elif isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name(args) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_call is not None:
                on_call(args, result)
            return result

        self._patches.append((owner, attr, original))
        _assign(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer entry point the benchmark reports on."""
        # import_module, not `import a.b as m`: repro.parallel rebinds
        # its `split_subtrees` attribute to the function of that name
        campaign_mod = import_module("repro.analysis.campaign")
        engine_mod = import_module("repro.core.engine")
        postorder_mod = import_module("repro.sequential.postorder")
        dataset_mod = import_module("repro.workloads.dataset")
        split_mods = [
            import_module(f"repro.parallel.{name}")
            for name in ("split_subtrees", "par_subtrees", "memory_aware_subtrees")
        ]
        from repro import registry
        from repro.analysis.store import ColumnarStore, JsonlStore, RecordStore
        from repro.core.prepared import PreparedTree
        from repro.core.tree import TaskTree

        # dataset: build_dataset's helpers, as dataset.py binds them
        for key in list(dataset_mod._ORDERINGS):
            self.wrap(dataset_mod._ORDERINGS, key, "matrices.ordering")
        self.wrap(dataset_mod, "apply_ordering", "matrices.ordering")
        self.wrap(dataset_mod, "default_collection", "matrices.collection")
        self.wrap(dataset_mod, "symbolic_cholesky", "matrices.symbolic")
        self.wrap(dataset_mod, "amalgamate", "matrices.amalgamate")

        # prepared + sequential
        self.wrap(PreparedTree, "__init__", "prepared.init")
        self.wrap(PreparedTree, "optimal", "prepared.optimal")
        self.wrap(postorder_mod, "optimal_postorder", "sequential.optimal_postorder")
        self.wrap(TaskTree, "subtree", "tree.subtree")

        # registry + parallel: Algorithm.run is only reached by the
        # algorithms without a megabatch spec (the subtree family)
        self.wrap(registry.Algorithm, "run", lambda a: f"parallel.{a[0].name}")
        self.wrap(registry.Algorithm, "batch_spec", "registry.batch_spec")
        for mod in split_mods:
            self.wrap(mod, "split_subtrees", "parallel.split_subtrees")

        # engine + simulator
        def count_sweep(args, result):
            prepared, scenarios = args[0], args[1]
            self.counters["engine.sweep_scenarios"] += len(scenarios)
            self.counters["engine.sweep_node_events"] += 2 * prepared.n * len(scenarios)

        self.wrap(engine_mod, "sweep_batch", "engine.sweep_batch", count_sweep)
        self.wrap(campaign_mod, "simulate", "simulator.simulate")

        # store: methods defined on each class (subclasses do not chain)
        for cls in (RecordStore, JsonlStore, ColumnarStore):
            for method in ("append", "finalize"):
                if method in cls.__dict__:
                    self.wrap(cls, method, f"store.{method}")

    def uninstall(self) -> None:
        """Restore every patched entry point (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            _assign(owner, attr, original)

    # -- reporting ------------------------------------------------------
    def rows(self) -> dict[str, dict]:
        """Per span name: count, total and self seconds, p50/p99 (s)."""
        acc: dict[str, dict] = {}
        for name, t0, t1, _parent, child in self.spans:
            row = acc.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "durs": []})
            dur = t1 - t0
            row["count"] += 1
            row["total_s"] += dur / 1e9
            row["self_s"] += (dur - child) / 1e9
            row["durs"].append(dur / 1e9)
        for row in acc.values():
            durs = sorted(row.pop("durs"))
            row["p50_s"] = durs[(len(durs) - 1) // 2]
            row["p99_s"] = durs[min(len(durs) - 1, int(0.99 * len(durs)))]
        return acc

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (name, start, end, parent)."""
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, child) in enumerate(self.spans):
                row = {"id": i, "name": name, "start_ns": t0, "end_ns": t1,
                       "parent": parent, "self_ns": t1 - t0 - child}
                fh.write(json.dumps(row) + "\n")
