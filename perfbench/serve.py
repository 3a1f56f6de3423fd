"""The serve-jobs workload: a real ``repro serve`` subprocess and two
closed-loop clients that each submit a job, poll its status every
20 ms, and fetch its records before submitting the next one.

Timestamps of the client (``time.time``) and of the server's job
journal (``created``, ``updated``, ``elapsed``) share the host clock,
which splits each job's latency into submit, queue wait, run, poll
slack and fetch. Poll slack is what remains of the wait for the job
after its queue wait and run: the done-transition write plus the time
until the next poll sees it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

from repro.service.client import ServiceClient, ServiceError

POLL_S = 0.02
CLIENTS = 2
JOB_TIMEOUT_S = 60.0
#: job specs made per second of loop; a job is at least three requests
#: and 24 scenarios, so two clients stay well below this
MAX_JOBS_PER_S = 50


def batch_policy() -> None:
    """Run the server (its threads and forked workers inherit this) under
    ``SCHED_BATCH``, where a wakeup never preempts the running thread.

    Under the default policy a supervised job takes ~25 or ~50 ms per
    scenario depending on how the kernel happens to place the service's
    executor, queue-feeder and worker on the cores at start-up: when a
    woken feeder and worker preempt the executor the moment it releases
    the GIL, the worker's reply is in before the supervisor's poll looks
    and its 50 ms sleep is skipped. Without wakeup preemption the poll
    never races the worker, on every run.
    """
    os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))


class Server:
    """``python -m repro.cli serve ROOT --port 0`` as a subprocess."""

    def __init__(self, root: str, env: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", root, "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
            preexec_fn=batch_policy,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("repro serve exited before announcing its address")
        self.url = json.loads(line)["serving"]

    def pids(self) -> list[int]:
        """The server and every process it forked (its pool workers)."""
        out = [self.proc.pid]
        task_dir = f"/proc/{self.proc.pid}/task"
        try:
            tids = os.listdir(task_dir)
        except OSError:
            return out
        for tid in tids:
            try:
                with open(f"{task_dir}/{tid}/children") as fh:
                    out.extend(int(p) for p in fh.read().split())
            except OSError:
                continue
        return out

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server and its workers."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM (the service drains and closes its pool), then wait
        for the server and for every worker it had forked."""
        workers = self.pids()[1:]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        deadline = time.monotonic() + 30
        for pid in workers:
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                time.sleep(0.05)
            if os.path.exists(f"/proc/{pid}"):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass


def run_job(client: ServiceClient, spec: dict) -> dict:
    """Submit, poll, fetch one job; returns its timings and outcome."""
    out: dict = {"polls": 0, "http_errors": 0, "ok": False}
    wall0, t0 = time.time(), time.perf_counter()
    try:
        jid = client.submit(spec)["id"]
        t1 = time.perf_counter()
        while True:
            st = client.status(jid)
            out["polls"] += 1
            if st["state"] in ("done", "failed", "cancelled"):
                break
            if time.perf_counter() - t0 > JOB_TIMEOUT_S:
                out["error"] = "timeout"
                return out
            time.sleep(POLL_S)
        t2 = time.perf_counter()
        body = client.fetch_records(jid)
        t3 = time.perf_counter()
    except (ServiceError, OSError) as exc:
        out["http_errors"] += 1
        out["error"] = f"{type(exc).__name__}: {exc}"
        return out
    run = float(st.get("elapsed", 0.0))
    # seconds after t0 at which the server began running the job
    run_start = st["updated"] - run - wall0
    queue_wait = max(0.0, run_start - (t1 - t0))
    out.update(
        id=jid,
        state=st["state"],
        failed_scenarios=int(st.get("failed_scenarios", 0)),
        records=int(st.get("records", 0)),
        body=body,
        end=t3,
        latency_s=t3 - t0,
        submit_s=t1 - t0,
        queue_wait_s=queue_wait,
        run_s=run,
        poll_slack_s=(t2 - t1) - queue_wait - run,
        fetch_s=t3 - t2,
        fetch_bytes=len(body),
        ok=st["state"] == "done",
    )
    return out


def closed_loop(url: str, specs: list[dict], seconds: float) -> tuple[list[dict], float]:
    """Run ``CLIENTS`` closed-loop clients for ``seconds`` over
    ``specs[1:]`` (spec 0 is the warm-up job).

    A client starts a new job only before the deadline, and always
    finishes the one in flight. Returns the per-job results (spec index
    in ``"k"``) and the loop's start time.
    """
    lock = threading.Lock()
    queue = iter(range(1, len(specs)))
    results: list[dict] = []
    errors: list[Exception] = []
    start = time.perf_counter()
    deadline = start + seconds

    def client() -> None:
        c = ServiceClient(url, timeout=JOB_TIMEOUT_S)
        try:
            while time.perf_counter() < deadline:
                with lock:
                    k = next(queue, None)
                if k is None:
                    raise RuntimeError("ran out of distinct job specs before the deadline")
                res = run_job(c, specs[k])
                res["k"] = k
                with lock:
                    results.append(res)
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=seconds + 2 * JOB_TIMEOUT_S)
    if errors:
        raise errors[0]
    if any(t.is_alive() for t in threads):
        raise RuntimeError("a client did not finish its last job")
    results.sort(key=lambda r: r["k"])
    return results, start
