"""One round of a workload, run by ``run.py`` in a fresh interpreter.

A round sets the workload up (timed from interpreter start, so imports,
input building and loading the C kernel all count) and, in ``measure``
mode, runs it once. With ``--trace 1`` the layers' entry points are
wrapped by :class:`tracer.Tracer` for the whole round. With
``--hostspeed 1`` a campaign round reports its times in reference
seconds, corrected for the host's speed (``hostspeed.py``). The round writes
one JSON object to ``--out``; correctness is judged by ``run.py``.

    PYTHONPATH=src python3 perfbench/round.py --workload list-grid \\
        --seed 2013 --mode measure --out /path/result.json --workdir /path/dir
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def vm_hwm_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found")


def tree_bytes(path: str) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def env_stamp(seed: int, hostspeed: str) -> dict:
    """What a number depends on beyond the code: machine, versions, backend."""
    import numpy

    from repro.core.engine import default_threads, probe_backend

    chosen, skipped = probe_backend()
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": chosen,
        "backend_skipped": [list(s) for s in skipped],
        "default_threads": default_threads(),
        "numba": importlib.util.find_spec("numba") is not None,
        "pyarrow": importlib.util.find_spec("pyarrow") is not None,
        "seed": seed,
        "hostspeed": hostspeed,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def layer_report(tracer: Tracer) -> dict:
    return {"rows": tracer.rows(), "counters": dict(tracer.counters)}


def campaign_round(args, tracer: Tracer | None) -> dict:
    from repro.analysis.campaign import run_campaign
    from repro.analysis.experiments import FailedRecord
    from repro.analysis.store import pack_store
    from repro.core.engine import probe_backend
    from workloads import STORES, campaign_inputs

    def span(name: str):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    host = None
    if args.hostspeed:  # times in reference seconds; plain seconds without
        from hostspeed import HostSpeed
        from workloads import PROBE

        host = HostSpeed(PROBE[args.workload]).start()
    clock = host.normalize if host else (lambda a, b: b - a)
    if tracer:
        tracer.install()
    with span("dataset.build"):
        instances, campaign, backend = campaign_inputs(args.workload, args.seed, args.size)
    probe_backend()  # loads (never compiles: run.py built it) the C kernel
    end = time.perf_counter()
    out: dict = {"setup_s": clock(T0, end)}
    if args.mode == "setup":
        if host:
            host.stop()
        return out

    path = os.path.join(args.workdir, "records" + (".jsonl" if backend == "jsonl" else ""))
    store = STORES[backend](path)
    t = time.perf_counter()
    with span("campaign"):
        records = run_campaign(instances, campaign, store=store)
    end = time.perf_counter()
    wall = end - t
    if host:
        host.stop()
    if tracer:
        tracer.uninstall()
    out["rss_mb"] = vm_hwm_mb()
    out["store_bytes"] = tree_bytes(path)
    stream = path
    if backend != "jsonl":
        stream = path + ".jsonl"
        pack_store(path, stream)
    stamps = [t] + store.stamps
    out.update(
        wall_s=wall,
        run_s=clock(t, end),
        records=len(records),
        expected=sum(len(campaign.scenarios_for(inst.name)) for inst in instances),
        failed_records=sum(isinstance(r, FailedRecord) for r in records),
        stream=stream,
        job_latencies_s=[clock(a, b) for a, b in zip(stamps, stamps[1:])],
        probe_s=host.probe_time(t, end) if host else 0.0,
        section_s=wall,
        section_scenarios=len(records),
    )
    if tracer:
        out["layers"] = layer_report(tracer)
    return out


def reference_stream(spec: dict, path: str, span=contextlib.nullcontext) -> bytes:
    """The job's records from an in-process, unsupervised campaign."""
    from repro.analysis.campaign import run_campaign
    from repro.service import payload

    canon = payload.canonical_spec(spec)
    instances, campaign = payload.to_instances(canon), payload.to_campaign(canon)
    with span("campaign"):
        run_campaign(instances, campaign, checkpoint=path)
    with open(path, "rb") as fh:
        data = fh.read()
    os.unlink(path)
    return data


def supervisor_probe(spec: dict) -> dict:
    """Per-scenario dispatch cost: one job's tasks through run_supervised,
    under the server's scheduling policy (this is the round's last step)."""
    from repro.analysis.supervisor import run_supervised
    from repro.service import payload
    from serve import batch_policy

    batch_policy()

    canon = payload.canonical_spec(spec)
    instances = payload.to_instances(canon)
    campaign = payload.to_campaign(canon)
    tasks = [(gi, sc) for gi, inst in enumerate(instances) for sc in campaign.scenarios_for(inst.name)]
    report = run_supervised(instances, tasks, emit=lambda gi, rec: None)
    busy = sum(a.seconds for s in report.scenarios for a in s.attempts)
    return {
        "supervisor.dispatch_overhead_ms_per_scenario": 1e3 * (report.elapsed - busy) / len(tasks),
        "supervisor.worker_busy_frac": busy / (report.elapsed * max(1, report.workers)),
        "supervisor.retries": sum(len(s.attempts) - 1 for s in report.scenarios),
        "supervisor.respawns": report.respawns,
        "supervisor.probes": report.probes,
    }


def journal_costs(specs: list[dict], root: str) -> dict:
    """Time the per-job spec canonicalisation and journal writes the
    server performs, on the same specs, in this process."""
    from repro.service import payload
    from repro.service.jobs import JobStore

    store = JobStore(root)
    canon_ms, create_ms, transition_ms = [], [], []
    for spec in specs:
        t = time.perf_counter()
        payload.canonical_spec(spec)
        canon_ms.append(1e3 * (time.perf_counter() - t))
        t = time.perf_counter()
        job, _ = store.create(spec)
        create_ms.append(1e3 * (time.perf_counter() - t))
        for state in ("running", "done"):
            t = time.perf_counter()
            store.transition(job.id, state)
            transition_ms.append(1e3 * (time.perf_counter() - t))
    return {
        "payload.canonical_ms": statistics.mean(canon_ms),
        "jobs.create_ms": statistics.mean(create_ms),
        "jobs.transition_ms": statistics.mean(transition_ms),
    }


def serve_round(args, tracer: Tracer | None) -> dict:
    from repro.service.client import ServiceClient
    from serve import MAX_JOBS_PER_S, Server, closed_loop, run_job
    from workloads import scenarios_per_job, serve_jobs

    specs = serve_jobs(args.seed, args.size, 1 + int(MAX_JOBS_PER_S * (args.seconds + 2)))
    server = Server(os.path.join(args.workdir, "service"), dict(os.environ))
    try:
        warm = run_job(ServiceClient(server.url), specs[0])
        out: dict = {"setup_s": time.perf_counter() - T0}
        if args.mode == "measure":
            jobs, start = closed_loop(server.url, specs, args.seconds)
            out["rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()
    stream = os.path.join(args.workdir, "warmup.jsonl")
    with open(stream, "wb") as fh:
        fh.write(warm.get("body", b""))
    out.update(stream=stream, warmup_ok=warm["ok"], expected=scenarios_per_job())
    if args.mode == "setup":
        return out

    # correctness, outside timing: each fetched stream against an
    # in-process campaign of the same spec; with tracing, the check runs
    # untraced and then traced, which gives the tracing overhead. The
    # warm-up job goes first, so neither pass pays first-use costs.
    ref_path = os.path.join(args.workdir, "reference.jsonl")
    out["warmup_ok"] = warm["ok"] and reference_stream(specs[0], ref_path) == warm["body"]
    done = [j for j in jobs if j["ok"]]
    passes = [None, tracer] if tracer else [None]
    sections, digests = [], []
    for pass_tracer in passes:
        if pass_tracer:
            pass_tracer.install()
        digest = hashlib.sha256()
        t = time.perf_counter()
        for job in done:
            ref = reference_stream(
                specs[job["k"]], ref_path, pass_tracer.span if pass_tracer else contextlib.nullcontext
            )
            job["mismatch"] = job.get("mismatch", False) or ref != job["body"]
            digest.update(ref)
        sections.append(time.perf_counter() - t)
        digests.append(digest.hexdigest())
        if pass_tracer:
            pass_tracer.uninstall()

    last = max((j["end"] for j in done), default=start)
    out.update(
        jobs=[{k: v for k, v in j.items() if k != "body"} for j in jobs],
        busy_s=last - start,
        untraced_section_s=sections[0],
        section_s=sections[-1],
        section_scenarios=scenarios_per_job() * len(done),
        reference_digests=digests,
    )
    if tracer:
        out["layers"] = layer_report(tracer)
        out["layers"]["extra"] = journal_costs(
            [specs[j["k"]] for j in done], os.path.join(args.workdir, "journal")
        )
        out["layers"]["extra"].update(supervisor_probe(specs[0]))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--hostspeed", type=int, choices=(0, 1), default=0,
                    help="1: report campaign times in reference seconds (see hostspeed.py)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    tracer = Tracer() if args.trace else None
    run = serve_round if args.workload == "serve-jobs" else campaign_round
    out = run(args, tracer)
    if args.mode == "measure":
        from workloads import PROBE

        out["env"] = env_stamp(args.seed, PROBE[args.workload] if args.hostspeed else "off")
    if tracer:
        tracer.dump(os.path.join(args.workdir, "spans.jsonl"))
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
