"""One round of an in-process workload, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py SPEC.json`` (started by ``run.py``).
The process imports ``repro``, prints ``READY`` (the end of set-up),
runs the round's operations through the ``repro.api`` facade (or, in a
traced round, through the same layer calls one span each), then checks
the results against the spec's reference cells outside the timed
window and writes everything to the spec's ``result_path``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import nullcontext


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import repro.api  # noqa: F401  (set-up: the import a user pays)

    import benchlib
    import layertrace

    print("READY", flush=True)

    ops = spec["ops"]
    traced = spec["traced"]
    cache_dir = spec["cache_dir"]
    rec = layertrace.Recorder()
    latencies, calib, cells, errors = [], [], [], {}
    with layertrace.program_tracing() if traced else nullcontext():
        window_start = time.perf_counter()
        for i, op in enumerate(ops):
            calib.append(benchlib.calib_ms())
            start = time.perf_counter()
            try:
                if traced:
                    rec.op = i
                    got = layertrace.traced_facade_op(
                        rec, op, cache_dir,
                        whole=spec["whole_fetch_odd"] and i % 2 == 1)
                else:
                    got = benchlib.result_cells(
                        op, benchlib.run_facade(op, cache_dir))
            except Exception as exc:  # counted as a failed operation
                errors[i] = f"{type(exc).__name__}: {exc}"
                got = None
            latencies.append((time.perf_counter() - start) * 1000.0)
            cells.append(got)
        window_s = time.perf_counter() - window_start
        calib.append(benchlib.calib_ms())
    rss_mb = benchlib.vm_hwm_mb(os.getpid())

    from repro.obs import REGISTRY

    snapshot = REGISTRY.snapshot()
    counters = {name: snapshot.get(name, 0.0) for name in
                ("cache_hits_total", "cache_misses_total", "sim_runs_total")}

    failed = set(errors)
    with open(spec["reference_path"], encoding="utf-8") as fh:
        reference = json.load(fh)
    for i, want in reference.items():
        got = cells[int(i)]
        if got is not None and not benchlib.same_cells(got, want):
            failed.add(int(i))
            errors[int(i)] = "KPI mismatch"

    result = {
        "latencies_ms": latencies,
        "calib_ms": calib,
        "ok": [i not in failed for i in range(len(ops))],
        "window_s": window_s,
        "rss_mb": rss_mb,
        "counters": counters,
        "errors": {str(i): e for i, e in sorted(errors.items())[:5]},
        "spans": rec.spans if traced else [],
    }
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
