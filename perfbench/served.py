"""A ``repro-sim serve`` subprocess and the closed-loop client that
drives it.

Each served round starts its own server over its own store, so no
round inherits a job table, a journal or a pool from an earlier one.
"""

from __future__ import annotations

import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional

import benchlib
import layertrace

#: Counters scraped from ``/v1/metrics`` after every served round.
SERVER_COUNTERS = ("cache_hits_total", "cache_misses_total",
                   "scheduler_retries_total",
                   "service_async_connections_total",
                   "service_jobs_completed_total", "sim_runs_total")
JOB_TIMEOUT_S = 60.0


def parse_prometheus(text: str) -> Dict[str, float]:
    """Sample values summed over label sets, by metric name."""
    values: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, _, value = line.rpartition(" ")
        name = name_part.split("{", 1)[0]
        values[name] = values.get(name, 0.0) + float(value)
    return values


class Server:
    """One ``repro-sim serve`` process over ``store``."""

    def __init__(self, root: Path, store: Path, env: Dict[str, str]) -> None:
        self.root = root
        self.store = store
        self.env = env
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""

    def start(self) -> float:
        """Launch and wait for ``/healthz``; returns the set-up seconds."""
        start = time.perf_counter()
        with open(self.root / "server.log", "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--host", "127.0.0.1", "--port", "0", "--workers", "2",
                 "--cache-dir", str(self.store)],
                cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                stderr=log, text=True)
        banner = self.proc.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
        if match is None:
            raise benchlib.BenchError(
                f"server did not start: {banner!r}")
        self.url = f"http://127.0.0.1:{match.group(1)}"
        deadline = time.monotonic() + 60.0
        while True:
            try:
                with urllib.request.urlopen(self.url + "/healthz",
                                            timeout=5.0) as response:
                    if response.status == 200:
                        break
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise benchlib.BenchError("server never answered /healthz")
            time.sleep(0.002)
        return time.perf_counter() - start

    def counters(self) -> Dict[str, float]:
        from repro.service.client import ServiceClient

        scraped = parse_prometheus(ServiceClient(self.url).metrics_text())
        return {name: scraped.get(name, 0.0) for name in SERVER_COUNTERS}

    def jobs_held(self) -> int:
        from repro.service.client import ServiceClient

        return sum(1 for _ in ServiceClient(self.url).iter_jobs())

    def rss_mb(self) -> float:
        return benchlib.vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """Interrupt the server and reap it (killing it after 20 s)."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.communicate(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()


def _traced_job(rec: layertrace.Recorder, client: Any,
                op: Dict[str, Any]) -> Dict[str, Any]:
    """``ServiceClient.compare`` as its four route calls, one span each."""
    params = {"a": op["a"], "b": op["b"], "seeds": op["seeds"]}
    with rec.span("service.job"):
        with rec.span("service.http.submit"):
            job_id = client.submit("compare", params)["job"]["id"]
        with rec.span("service.http.events"):
            for event in client.watch_job(job_id, timeout=JOB_TIMEOUT_S):
                if event.get("state") == "failed":
                    raise benchlib.BenchError(
                        f"job failed: {event.get('error')}")
        with rec.span("service.http.job"):
            snapshot = client.job(job_id)
        with rec.span("service.http.result"):
            payload = client.result(job_id)
    return {"cells": payload["metrics_a"] + payload["metrics_b"],
            "queue_wait_ms": (snapshot["started_ts"]
                              - snapshot["created_ts"]) * 1000.0,
            "run_ms": (snapshot["finished_ts"]
                       - snapshot["started_ts"]) * 1000.0}


def closed_loop(url: str, ops: List[Dict[str, Any]],
                traced: bool) -> Dict[str, Any]:
    """Run ``ops`` from one client that submits its next job only after
    the previous result arrived."""
    from repro.service.client import ServiceClient

    client = ServiceClient(url, timeout=JOB_TIMEOUT_S)
    rec = layertrace.Recorder()
    outcomes: List[Dict[str, Any]] = []
    window_start = time.perf_counter()
    calib: List[float] = []
    for i, op in enumerate(ops):
        calib.append(benchlib.calib_ms())
        start = time.perf_counter()
        try:
            if traced:
                rec.op = i
                outcome = _traced_job(rec, client, op)
            else:
                result = client.compare(op["a"], op["b"], seeds=op["seeds"],
                                        timeout=JOB_TIMEOUT_S)
                outcome = {"cells": benchlib.result_cells(op, result)}
        except Exception as exc:  # HTTP error, 429, timeout, failure
            outcome = {"cells": None,
                       "error": f"{type(exc).__name__}: {exc}"}
        outcome["latency_ms"] = (time.perf_counter() - start) * 1000.0
        outcomes.append(outcome)
    window_s = time.perf_counter() - window_start
    calib.append(benchlib.calib_ms())
    return {"outcomes": outcomes, "calib_ms": calib, "window_s": window_s,
            "spans": [rec.spans]}


def timed_healthz(rec: layertrace.Recorder, url: str) -> None:
    from repro.service.client import ServiceClient

    with rec.span("service.http.healthz"):
        ServiceClient(url).health()
