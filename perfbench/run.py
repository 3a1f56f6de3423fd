#!/usr/bin/env python3
"""The repo benchmark: paper campaign, engine grid and service jobs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-campaign --seed 2013 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all              # every workload, one table each

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` prints the per-layer metrics from one traced round next
to one untraced round, plus the tracing overhead. Every round runs in a
fresh interpreter (``round.py``). The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See perfbench/README.md for the workloads, metrics and layer mapping.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("paper-campaign", "list-grid", "serve-jobs")
DEFAULT_SEED = 2013
SETUP_SAMPLES = 3
BUDGET_S = 170.0  # every run ends well inside the 180 s limit
SETUP_LAYERS = ("dataset.", "matrices.")
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it


class BenchError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# statistics and the correctness gate
# ----------------------------------------------------------------------
def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest percentile with at
    least ``TAIL_BEYOND`` samples above it, never below the median: with
    fewer than ``2 * TAIL_BEYOND`` samples there is no tail to report
    and the median stands in."""
    xs = sorted(values)
    n = len(xs)
    k = n - TAIL_BEYOND
    if 2 * k <= n:
        return statistics.median(xs), 50.0, n
    return xs[k - 1], 100.0 * k / n, n


def mismatches(lines: list[bytes], reference: list[bytes]) -> int:
    """Records of ``lines`` that differ from ``reference`` (missing or
    extra records count too)."""
    return sum(a != b for a, b in zip(lines, reference)) + abs(len(lines) - len(reference))


class Gate:
    """Checks record streams against the pinned digest of the default
    seed, or else against the first stream seen in this run."""

    def __init__(self, pinned: dict | None) -> None:
        self.pinned = pinned
        self.reference: list[bytes] | None = None
        self.digests: list[str] = []

    def check(self, data: bytes, expected: int) -> int:
        """Mismatched records in one stream of ``expected`` records."""
        lines = data.splitlines(keepends=True)
        self.digests.append(hashlib.sha256(data).hexdigest())
        bad = abs(len(lines) - expected)
        if self.reference is not None:
            return max(bad, mismatches(lines, self.reference))
        self.reference = lines
        if self.pinned is not None and (
            self.digests[-1] != self.pinned["sha256"] or len(lines) != self.pinned["records"]
        ):
            return max(len(lines), expected, 1)
        return bad


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------
def bench_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("REPRO_FAULT_PLAN", "REPRO_SERVE_LOG")}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_KERNEL_CACHE"] = os.path.join(WORK, "kernel")
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # build() byte-compiles once for every round
    return env


def run_child(cmd: list[str], env: dict, deadline: float) -> str:
    """Run ``cmd`` in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(cmd[1:3])}") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} exited {proc.returncode}:\n{err[-4000:]}")
    return out


def build(env: dict, deadline: float) -> None:
    """Byte-compile the package and compile the C kernel into the
    benchmark's cache, so no timed round pays for either."""
    os.makedirs(env["TMPDIR"], exist_ok=True)
    run_child([sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src"), HERE], env, deadline)
    run_child(
        [sys.executable, "-c", "from repro.core.engine import probe_backend; probe_backend()"],
        env, deadline,
    )


class Runner:
    def __init__(self, args, env: dict, rundir: str, deadline: float) -> None:
        self.args, self.env, self.rundir, self.deadline = args, env, rundir, deadline
        self.count = 0

    def round(self, workload: str, mode: str, trace: int = 0) -> dict:
        self.count += 1
        workdir = os.path.join(self.rundir, f"{workload}-{self.count}")
        out = workdir + ".json"
        cmd = [
            sys.executable, os.path.join(HERE, "round.py"),
            "--workload", workload, "--seed", str(self.args.seed), "--size", self.args.size,
            "--mode", mode, "--trace", str(trace), "--seconds", str(self.args.seconds),
            "--hostspeed", str(int(not self.args.trace and workload != "serve-jobs")),
            "--workdir", workdir, "--out", out,
        ]
        run_child(cmd, self.env, self.deadline)
        with open(out) as fh:
            res = json.load(fh)
        res["workdir"] = workdir
        return res


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def measure_rounds(runner: Runner, workload: str) -> tuple[list[dict], list[float]]:
    """Measured rounds (enough to cover ``--seconds``) and setup samples."""
    seconds = runner.args.seconds
    if workload == "serve-jobs":
        measured = [runner.round(workload, "measure")]
    else:
        # whole rounds only: start one more while it should end in time
        measured, spent = [], 0.0
        while not measured or spent + measured[-1]["wall_s"] <= seconds:
            measured.append(runner.round(workload, "measure"))
            spent += measured[-1]["wall_s"]
    samples = [r["setup_s"] for r in measured]
    extra = [runner.round(workload, "setup") for _ in range(SETUP_SAMPLES - len(samples))]
    samples += [r["setup_s"] for r in extra]
    if workload == "serve-jobs":
        measured = extra + measured  # their warm-up jobs are gated too
    return measured, samples


def judge(workload: str, rounds: list[dict], gate: Gate) -> tuple[int, int]:
    """``(attempted, failed)`` over every stream and job of the rounds."""
    attempted = failed = 0
    for r in rounds:
        with open(r["stream"], "rb") as fh:
            data = fh.read()
        bad = gate.check(data, r["expected"])
        if workload == "serve-jobs":
            attempted += 1
            failed += bool(bad) or not r["warmup_ok"]
            for job in r.get("jobs", []):
                attempted += 1
                failed += (not job["ok"]) or job.get("mismatch", True) or job.get("failed_scenarios", 0) > 0
        else:
            attempted += r["expected"]
            failed += max(bad, r["failed_records"])
    return attempted, failed


def end_to_end(workload: str, measured: list[dict], samples: list[float]) -> tuple[dict, str]:
    """The end-to-end metrics, and a note on the latency tail. Every
    campaign round runs the same jobs in the same order, so a job's
    latency is its median over the rounds; the percentiles are taken
    over jobs, and the tail is the same percentile however many rounds
    fit the run."""
    m = {"setup_s": statistics.median(samples)}
    if workload == "serve-jobs":
        r = measured[-1]
        done = [j for j in r["jobs"] if j["ok"]]
        lat = [j["latency_s"] for j in done]
        m["jobs_per_s"] = len(done) / r["busy_s"]
        m["scenarios_per_s"] = r["section_scenarios"] / r["busy_s"]
        m["peak_rss_mb"] = r["rss_mb"]
        unit = "job (submit -> records fetched)"
    else:
        lat = [statistics.median(job) for job in zip(*(r["job_latencies_s"] for r in measured))]
        m["jobs_per_s"] = statistics.median(len(r["job_latencies_s"]) / r["run_s"] for r in measured)
        m["scenarios_per_s"] = statistics.median(r["records"] / r["run_s"] for r in measured)
        m["peak_rss_mb"] = statistics.median(r["rss_mb"] for r in measured)
        unit = (f"job = one tree's slice of the grid, timed to its checkpoint append, median over "
                f"{len(measured)} rounds; times in reference seconds (hostspeed.py)")
    if not lat:
        raise BenchError(f"{workload}: no job completed")
    m["job_latency_p50_s"] = statistics.median(lat)
    value, pct, n = tail(lat)
    m["job_latency_tail_s"] = value
    return m, f"job_latency_tail_s is p{pct:.1f} of {n} samples; {unit}"


def per_layer(workload: str, traced: dict, untraced: dict) -> tuple[dict, list[str]]:
    """The per-layer metrics of one traced round, and a printable table."""
    layers = traced["layers"]
    rows, counters = layers["rows"], layers["counters"]
    m: dict = {}
    for name, row in rows.items():
        m[f"{name}_s"] = row["self_s"]
        m[f"{name}_calls"] = row["count"]
    m["engine.sweep_scenarios"] = counters.get("engine.sweep_scenarios", 0)
    sweep_s = rows.get("engine.sweep_batch", {}).get("total_s", 0.0)
    m["engine.sweep_node_events_per_s"] = (
        counters.get("engine.sweep_node_events", 0) / sweep_s if sweep_s else 0.0
    )
    campaign = rows.get("campaign", {"total_s": 0.0, "self_s": 0.0})
    m["campaign.self_s"] = campaign["self_s"]
    m["trace.coverage_frac"] = 1 - campaign["self_s"] / campaign["total_s"] if campaign["total_s"] else 0.0
    per_scn = untraced["section_s"] / max(1, untraced["section_scenarios"])
    m["trace.overhead_s"] = traced["section_s"] - per_scn * traced["section_scenarios"]
    if "store_bytes" in traced:
        m["store.bytes"] = traced["store_bytes"]
    lines = [
        f"{'layer':<34s} {'count':>7s} {'self_s':>9s} {'share':>6s} {'total_s':>9s} {'p50_ms':>9s} {'p99_ms':>9s}"
    ]
    setup_s = rows.get("dataset.build", {}).get("total_s", 0.0)
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        # set-up layers as a share of the input build, the rest of the campaign
        base = setup_s if name.startswith(SETUP_LAYERS) else campaign["total_s"]
        share = row["self_s"] / base if base else 0.0
        lines.append(
            f"{name:<34s} {row['count']:>7d} {row['self_s']:>9.3f} {share:>6.1%} "
            f"{row['total_s']:>9.3f} {1e3 * row['p50_s']:>9.3f} {1e3 * row['p99_s']:>9.3f}"
        )
    lines.append(
        f"layers other than campaign.self cover {m['trace.coverage_frac']:.1%} of the traced "
        f"campaign wall-clock ({campaign['total_s']:.3f} s); tracing overhead "
        f"{m['trace.overhead_s']:+.3f} s (traced {traced['section_s']:.3f} s vs untraced "
        f"{untraced['section_s']:.3f} s, scaled to the same scenario count)"
    )
    if workload == "serve-jobs":
        done = [j for j in traced["jobs"] if j["ok"]]
        parts = ("submit", "queue_wait", "run", "poll_slack", "fetch")
        for part in parts:
            m[f"service.{part}_ms"] = 1e3 * statistics.mean(j[f"{part}_s"] for j in done)
        m["service.latency_mean_ms"] = 1e3 * statistics.mean(j["latency_s"] for j in done)
        m["service.fetch_bytes"] = statistics.mean(j["fetch_bytes"] for j in done)
        m["service.polls_per_job"] = statistics.mean(j["polls"] for j in done)
        m["service.http_errors"] = sum(j["http_errors"] for j in traced["jobs"])
        m.update(layers["extra"])
        total = sum(m[f"service.{p}_ms"] for p in parts)
        lines.append(
            "job latency parts (mean ms over %d jobs): " % len(done)
            + " + ".join(f"{p} {m[f'service.{p}_ms']:.2f}" for p in parts)
            + f" = {total:.2f} vs measured latency {m['service.latency_mean_ms']:.2f}"
        )
        for key in sorted(layers["extra"]):
            lines.append(f"{key:<48s} {layers['extra'][key]:.4f}")
    return m, lines


def run_workload(runner: Runner, workload: str, trace: int, expected: dict, bench: dict) -> dict:
    args = runner.args
    pinned = expected.get(workload) if args.seed == DEFAULT_SEED and args.size == "full" else None
    gate = Gate(pinned)
    notes: list[str] = []
    if trace:
        if workload == "serve-jobs":
            # one round: the closed loop, then the in-process reference
            # check of its jobs untraced and traced
            traced = runner.round(workload, "measure", trace=1)
            rounds = [traced]
            untraced = {**traced, "section_s": traced["untraced_section_s"]}
            digests = traced["reference_digests"]
        else:
            untraced = runner.round(workload, "measure")
            traced = runner.round(workload, "measure", trace=1)
            rounds = [untraced, traced]
            digests = None
        attempted, failed = judge(workload, rounds, gate)
        digests = digests or gate.digests
        same = len(set(digests)) == 1
        notes.append(
            f"trace-check: traced records {'==' if same else '!='} untraced records "
            f"(sha256 {digests[-1][:16]} vs {digests[0][:16]})"
        )
        failed += 0 if same else 1
        values, table = per_layer(workload, traced, untraced)
        notes += table
        spans = os.path.join(WORK, f"spans-{workload}-seed{args.seed}.jsonl")
        shutil.copyfile(os.path.join(traced["workdir"], "spans.jsonl"), spans)
        notes.append(f"spans written to {os.path.relpath(spans, ROOT)}")
        specs = bench["per_layer"]
        env = traced["env"]
    else:
        rounds, samples = measure_rounds(runner, workload)
        attempted, failed = judge(workload, rounds, gate)
        measured = [r for r in rounds if "rss_mb" in r]
        values, note = end_to_end(workload, measured, samples)
        notes.append(note)
        walls = [r.get("wall_s", r.get("busy_s")) for r in measured]
        notes.append("measured rounds (s): " + ", ".join(f"{w:.2f}" for w in walls)
                     + "; setup samples (s): " + ", ".join(f"{x:.2f}" for x in samples))
        if workload != "serve-jobs":
            notes.append(
                "wall-clock, probes included: rounds (s) "
                + ", ".join(f"{r['wall_s']:.2f} ({r['probe_s']:.2f} probing)" for r in measured)
                + "; scenarios_per_s %.4f" % statistics.median(r["records"] / r["wall_s"] for r in measured)
            )
        specs = bench["end_to_end"]
        env = rounds[-1]["env"]
    what = "warm-up job record stream" if workload == "serve-jobs" else "record stream"
    notes.append(f"{what} sha256 {gate.digests[0]} ({'pinned' if pinned else 'first round is the reference'})")
    notes.append(f"error_rate {failed / attempted:.6f} ({failed} failed or mismatched of {attempted} attempted)")
    metrics = {s["name"]: {"value": values.get(s["name"], 0.0), "unit": s["unit"]} for s in specs}
    return {"workload": workload, "env": env, "notes": notes, "correct": failed == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def report(res: dict) -> None:
    print(f"== {res['workload']}")
    print("env: " + json.dumps(res["env"], sort_keys=True))
    for name, m in res["metrics"].items():
        print(f"  {name:<48s} {m['value']:>16.6f} {m['unit']}")
    for line in res["notes"]:
        print("  " + line)
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro package under {os.path.join(ROOT, 'src')}: run from a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])

    deadline = time.monotonic() + (BUDGET_S if args.workload != "all" else 3 * BUDGET_S)
    env = bench_env()
    os.makedirs(WORK, exist_ok=True)
    rundir = os.path.join(WORK, f"run-{os.getpid()}")
    try:
        build(env, deadline)
        runner = Runner(args, env, rundir, deadline)
        results = [
            run_workload(runner, w, args.trace, expected, bench)
            for w in (WORKLOADS if args.workload == "all" else (args.workload,))
        ]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for res in results:
        report(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
