"""The benchmark's own tests, on smoke-sized workloads.

Run from the root of the repo (not collected by the tier-1 suite)::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run as bench  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

_RUNS: dict = {}


def smoke(workload: str, trace: int) -> tuple[list[str], dict]:
    """Output lines and result object of one smoke run (cached)."""
    key = (workload, trace)
    if key not in _RUNS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "2", "--trace", str(trace), "--size", "smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        _RUNS[key] = (lines, json.loads(lines[-1]))
    return _RUNS[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_named_metric_prints_with_its_unit(workload, trace):
    lines, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [s["name"] for s in specs]
    table = "\n".join(lines[:-1])
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
        assert f"{spec['name']} " in table and f" {spec['unit']}" in table
    if not trace:
        for spec in specs:
            assert result["metrics"][spec["name"]]["value"] > 0, spec["name"]
        assert "job_latency_tail_s is p" in table
    assert "error_rate 0.000000" in table


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_records_equal_untraced(workload):
    lines, result = smoke(workload, 1)
    assert any(line.strip().startswith("trace-check: traced records == untraced") for line in lines)
    assert result["metrics"]["trace.coverage_frac"]["value"] >= 0.9


def _stream(tmp_path) -> bytes:
    from repro.analysis.campaign import Campaign, run_campaign
    from repro.workloads.dataset import build_dataset

    path = str(tmp_path / "records.jsonl")
    run_campaign(build_dataset("tiny")[:2], Campaign(("ParSubtrees", "ParDeepestFirst"), (2, 4)),
                 checkpoint=path)
    with open(path, "rb") as fh:
        return fh.read()


def _alter(data: bytes) -> bytes:
    lines = data.splitlines(keepends=True)
    row = json.loads(lines[3])
    row["makespan"] += 1.0
    lines[3] = (json.dumps(row) + "\n").encode()
    return b"".join(lines)


def test_altered_record_trips_the_pinned_gate(tmp_path):
    import hashlib

    data = _stream(tmp_path)
    count = data.count(b"\n")
    pinned = {"records": count, "sha256": hashlib.sha256(data).hexdigest()}
    assert bench.Gate(pinned).check(data, count) == 0
    assert bench.Gate(pinned).check(_alter(data), count) > 0


def test_altered_record_trips_the_first_run_reference(tmp_path):
    data = _stream(tmp_path)
    count = data.count(b"\n")
    gate = bench.Gate(None)
    assert gate.check(data, count) == 0
    assert gate.check(data, count) == 0
    assert gate.check(_alter(data), count) == 1
    assert gate.check(data[: data.rfind(b"\n", 0, -1) + 1], count) == 1  # a record lost


def test_altered_record_counts_in_the_error_rate(tmp_path):
    data = _stream(tmp_path)
    count = data.count(b"\n")
    rounds = []
    for k, payload in enumerate((data, _alter(data))):
        path = tmp_path / f"round{k}.jsonl"
        path.write_bytes(payload)
        rounds.append({"stream": str(path), "expected": count, "failed_records": 0})
    assert bench.judge("list-grid", rounds, bench.Gate(None)) == (2 * count, 1)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 41)]
    value, pct, n = bench.tail(values)
    assert (value, pct, n) == (30.0, 75.0, 40)
    assert sum(v > value for v in values) == 10
    assert bench.tail([1.0, 2.0, 3.0]) == (2.0, 50.0, 3)  # too few: the median
    assert bench.tail(values[:20]) == (10.5, 50.0, 20)


def _sampled(durations: list[float]):
    """A HostSpeed that probed at 0, 1, 2, ... taking 0.1 s each time."""
    import hostspeed

    host = hostspeed.HostSpeed("python")
    host.starts = [float(k) for k in range(len(durations))]
    host.durations = list(durations)
    host.costs = [0.1] * len(durations)
    return host


def test_hostspeed_takes_probes_out_and_scales_by_the_nearest_ones():
    ref = _sampled([]).ref_s
    steady = _sampled([ref] * 6)
    assert steady.normalize(0.0, 5.0) == pytest.approx(5.0 - 5 * 0.1)
    assert steady.probe_time(0.0, 5.0) == pytest.approx(5 * 0.1)
    # twice as slow from t = 3 on: the stretch near those probes counts half
    host = _sampled([ref] * 3 + [2 * ref] * 3)
    assert host.normalize(3.6, 5.0) == pytest.approx((5.0 - 3.6 - 0.1) / 2)
    assert host.normalize(0.5, 1.5) == pytest.approx(1.0 - 0.1)
    # consecutive intervals add up to the whole
    cuts = [0.0, 0.3, 1.45, 2.5, 2.55, 4.2, 5.0]
    parts = sum(host.normalize(a, b) for a, b in zip(cuts, cuts[1:]))
    assert parts == pytest.approx(host.normalize(0.0, 5.0))
