"""The repository's benchmark: cold and warm runs, in-process and served.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``cold-inproc``, ``warm-inproc`` and ``served-warm``;
``perfbench/README.md`` says why each exists.  A run
generates its operation list from ``--seed``, then repeats it over
several rounds.  Every round starts from the same state: fresh
processes and a store copied from a snapshot (or empty).  Results are
checked outside the timed windows.  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import benchlib
import layertrace
import served


@dataclass(frozen=True)
class Workload:
    served: bool
    warm: bool
    #: Sets the operations per round, ``seconds * ops_per_s / rounds``
    #: (at least 21), so the count follows ``--seconds`` and never a
    #: measurement.
    ops_per_s: float
    #: Identical repeats of the operation list, each from fresh state.
    rounds: int


WORKLOADS = {
    "cold-inproc": Workload(served=False, warm=False, ops_per_s=12.0,
                            rounds=3),
    "warm-inproc": Workload(served=False, warm=True, ops_per_s=100.0,
                            rounds=6),
    "served-warm": Workload(served=True, warm=True, ops_per_s=60.0,
                            rounds=6),
}

END_TO_END = (("setup_s", "s"), ("cells_per_s", "1/s"), ("op_ms_p50", "ms"),
              ("op_ms_tail", "ms"), ("rss_peak_mb", "MiB"))
PER_LAYER_MS = (
    "api.self_ms", "registry.resolve_ms", "service.specs.build_plan_ms",
    "store.open_ms", "store.fingerprint_ms", "store.fetch_hit_ms",
    "store.index_lookup_ms", "store.blob_load_ms", "store.blob_put_ms",
    "store.index_record_ms", "sim.setup_ms", "sim.run_ms",
    "sim.batch_cell_ms", "sim.extract_ms",
    *(f"sim.phase.{p}_self_ms" for p in layertrace.SIM_PHASES),
    *(f"service.http.{r}_ms"
      for r in ("healthz", "submit", "events", "job", "result")),
    "service.scheduler.queue_wait_ms", "service.scheduler.run_ms",
    "service.workers.overhead_ms", "host.ref_loop_ms",
)
PER_LAYER = (
    *((name, "ms") for name in PER_LAYER_MS),
    ("store.journal_lines_start", "count"),
    ("store.journal_lines_end", "count"),
    ("store.hit_ratio", "ratio"),
    ("service.connections_per_op", "count"),
    ("service.jobs_held_end", "count"),
    *((f"counter.{name}", "count") for name in served.SERVER_COUNTERS),
    ("trace.overhead_pct", "%"),
)
#: Cold operations re-checked per run against the scalar engine.
SCALAR_SAMPLE = 3
RUN_BUDGET_S = 170.0


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-mismatch", action="store_true",
                        help=argparse.SUPPRESS)  # for selftest.py
    return parser.parse_args()


# -- preparation --------------------------------------------------------------

def build_snapshot(store: Path) -> Dict[str, Dict[str, float]]:
    """Fill ``store`` with every warm cell; return ``{"name|seed": KPIs}``."""
    import repro.api as api

    seeds = list(range(benchlib.WARM_SEEDS))
    result = api.compare(*benchlib.WARM_PAIR, seeds=seeds, cache=True,
                         cache_dir=str(store))
    expected = {}
    for name, metrics in zip(benchlib.WARM_PAIR,
                             (result.metrics_a, result.metrics_b)):
        for seed, cell in zip(seeds, metrics):
            expected[f"{name}|{seed}"] = cell
    return expected


def snapshot_matches_fixture(expected: Dict[str, Dict[str, float]]) -> bool:
    with benchlib.FIXTURE.open(encoding="utf-8") as fh:
        pinned = json.load(fh)
    return all(benchlib.canonical(expected[f"{name}|3"])
               == benchlib.canonical(pinned[name])
               for name in benchlib.WARM_PAIR)


# -- rounds -------------------------------------------------------------------

def inproc_round(round_dir: Path, env: Dict[str, str], spec: Dict[str, Any],
                 reference: Dict[int, list], deadline: float
                 ) -> Dict[str, Any]:
    spec_path = round_dir / "spec.json"
    spec["result_path"] = str(round_dir / "result.json")
    spec["reference_path"] = str(round_dir / "reference.json")
    Path(spec["reference_path"]).write_text(json.dumps(reference),
                                            encoding="utf-8")
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    before = benchlib.host_factor()
    with open(round_dir / "worker.log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(benchlib.BENCH_DIR / "worker.py"),
             str(spec_path)],
            cwd=round_dir, env=env, stdout=subprocess.PIPE, stderr=log,
            text=True)
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            factor = (before + benchlib.host_factor()) / 2.0
            proc.communicate(timeout=max(5.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise benchlib.BenchError("worker timed out")
    if ready.strip() != "READY" or proc.returncode != 0:
        log_tail = (round_dir / "worker.log").read_text(errors="replace")
        raise benchlib.BenchError(f"worker failed:\n{log_tail[-2000:]}")
    out = json.loads((round_dir / "result.json").read_text(encoding="utf-8"))
    out["setup_s"] = benchlib.scaled(setup_s, factor)
    out["norm_ms"] = benchlib.normalized(out["latencies_ms"],
                                         out["calib_ms"])
    out["spans"] = [out["spans"]] if out["spans"] else []
    return out


def served_round(round_dir: Path, store: Path, env: Dict[str, str],
                 ops: List[Dict[str, Any]], traced: bool,
                 reference: Dict[int, list], snapshot: Path
                 ) -> Dict[str, Any]:
    server = served.Server(round_dir, store, env)
    rec = layertrace.Recorder()
    try:
        before = benchlib.host_factor()
        setup_s = server.start()
        setup_s = benchlib.scaled(
            setup_s, (before + benchlib.host_factor()) / 2.0)
        if traced:
            served.timed_healthz(rec, server.url)
        before = server.counters()
        loop = served.closed_loop(server.url, ops, traced)
        after = server.counters()
        jobs_held = server.jobs_held()
        rss_mb = server.rss_mb()
    finally:
        server.stop()
    outcomes = loop["outcomes"]
    ok = []
    errors = {}
    for i, outcome in enumerate(outcomes):
        good = (outcome["cells"] is not None
                and benchlib.same_cells(outcome["cells"], reference[i]))
        if not good:
            errors[str(i)] = outcome.get("error", "KPI mismatch")
        ok.append(good)
    delta = {name: after[name] - before[name] for name in after}
    requested = sum(benchlib.op_cells(op) for op in ops)
    counters_ok = (delta["cache_hits_total"] + delta["cache_misses_total"]
                   == requested and delta["scheduler_retries_total"] == 0)
    spans = loop["spans"]
    overhead = []
    if traced:
        mirror_ms = mirror_round(rec, round_dir, ops, snapshot)
        overhead = [outcomes[i]["run_ms"] - ms for i, ms in mirror_ms.items()
                    if "run_ms" in outcomes[i]]
        spans = spans + [rec.spans]
    return {
        "setup_s": setup_s,
        "latencies_ms": [o["latency_ms"] for o in outcomes],
        "calib_ms": loop["calib_ms"],
        "norm_ms": benchlib.normalized(
            [o["latency_ms"] for o in outcomes], loop["calib_ms"]),
        "ok": ok,
        "errors": errors,
        "window_s": loop["window_s"],
        "rss_mb": rss_mb,
        # the end scrape's own connection is counted before it answers
        "connections": delta["service_async_connections_total"] - 1,
        "counters": delta,
        "counters_ok": counters_ok,
        "jobs_held": jobs_held,
        "queue_wait_ms": [o["queue_wait_ms"] for o in outcomes
                          if "queue_wait_ms" in o],
        "run_ms": [o["run_ms"] for o in outcomes if "run_ms" in o],
        "overhead_ms": overhead,
        "spans": spans,
    }


def mirror_round(rec: layertrace.Recorder, round_dir: Path,
                 ops: List[Dict[str, Any]], snapshot: Path
                 ) -> Dict[int, float]:
    """After a traced served round: time, from this process, the plan
    building and store work the server did for the same operations, on
    a mirror of its starting store.  Returns the store time per op."""
    from repro.service.specs import build_plan
    from repro.store.runcache import RunCache

    for i, op in enumerate(ops):
        rec.op = i
        params = {"a": op["a"], "b": op["b"], "seeds": op["seeds"]}
        with rec.span("service.specs.build_plan"):
            build_plan("compare", params)
    mirror = round_dir / "mirror"
    shutil.copytree(snapshot, mirror)
    rec.op = None
    with rec.span("store.open"):
        cache = RunCache(str(mirror))
    store_ms = {}
    for i, op in enumerate(ops):
        rec.op = i
        scenarios = layertrace.resolve_op(rec, op)
        start = time.perf_counter()
        layertrace.traced_fetch(rec, cache, scenarios, whole=i % 2 == 1)
        store_ms[i] = (time.perf_counter() - start) * 1000.0
    return store_ms


# -- aggregation --------------------------------------------------------------

def end_to_end(rounds: List[Dict[str, Any]]) -> Dict[str, Any]:
    """End-to-end figures of identical rounds.

    Times are scaled to the usual host speed (``benchlib.normalized``).
    Every round runs the same operations from the same state, so an
    operation's latency is its best over the rounds, and throughput is
    the operations' cells over the sum of those best latencies: a burst
    of host contention during one repeat does not move them.  Set-up
    and memory are medians over rounds.
    """
    best: List[float] = []
    cells = 0
    for i in range(len(rounds[0]["ok"])):
        runs = [r["norm_ms"][i] for r in rounds if r["ok"][i]]
        if runs:
            best.append(min(runs))
            cells += rounds[0]["cells"][i]
    out = {
        "setup_s": benchlib.median([r["setup_s"] for r in rounds]),
        "cells_per_s": cells / (sum(best) / 1000.0) if best else 0.0,
        "op_ms_p50": benchlib.quantile(best, 0.5) if best else 0.0,
        "rss_peak_mb": benchlib.median([r["rss_mb"] for r in rounds]),
    }
    tail = benchlib.tail(best)
    if tail is not None:
        out["op_ms_tail"] = tail[0]
        out["_tail_note"] = f"p{tail[1]:.1f} of n={tail[2]}"
    return out


def per_layer(untraced: List[Dict[str, Any]], traced: List[Dict[str, Any]],
              host_ms: List[float]) -> Dict[str, float]:
    out = layertrace.layer_metrics(layertrace.layer_totals(
        [spans for r in traced for spans in r["spans"]]))
    mean = benchlib.mean
    out["service.scheduler.queue_wait_ms"] = mean(
        [ms for r in traced for ms in r.get("queue_wait_ms", [])])
    out["service.scheduler.run_ms"] = mean(
        [ms for r in traced for ms in r.get("run_ms", [])])
    out["service.workers.overhead_ms"] = mean(
        [ms for r in traced for ms in r.get("overhead_ms", [])])
    out["host.ref_loop_ms"] = mean(host_ms)
    rounds = untraced + traced
    out["store.journal_lines_start"] = mean([r["journal"][0] for r in rounds])
    out["store.journal_lines_end"] = mean([r["journal"][1] for r in rounds])
    counters = {name: mean([r["counters"].get(name, 0.0) for r in untraced])
                for name in served.SERVER_COUNTERS}
    for name, value in counters.items():
        out[f"counter.{name}"] = value
    looked_up = counters["cache_hits_total"] + counters["cache_misses_total"]
    out["store.hit_ratio"] = (counters["cache_hits_total"] / looked_up
                              if looked_up else 0.0)
    out["service.connections_per_op"] = mean(
        [r.get("connections", 0) / len(r["ok"]) for r in untraced])
    out["service.jobs_held_end"] = mean(
        [r.get("jobs_held", 0) for r in untraced])
    plain = end_to_end(untraced)["cells_per_s"]
    with_spans = end_to_end(traced)["cells_per_s"]
    out["trace.overhead_pct"] = ((plain / with_spans - 1.0) * 100.0
                                 if with_spans else 0.0)
    return out


def round_line(r: Dict[str, Any]) -> str:
    one = end_to_end([r])
    host = benchlib.median(r["calib_ms"]) / benchlib.CALIB_NOMINAL_MS
    return (("traced " if r["traced"] else "") +
            f"setup {one['setup_s']:.3f} s  {one['cells_per_s']:.2f} cells/s"
            f"  p50 {one['op_ms_p50']:.3f} ms  window {r['window_s']:.2f} s"
            f"  host x{host:.2f}")


def write_trace(workload: str, seed: int,
                rounds: List[Dict[str, Any]]) -> Path:
    """Every benchmark span of the traced rounds, one JSON line each."""
    out_dir = benchlib.ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for number, r in enumerate(rounds):
            for thread, spans in enumerate(r["spans"]):
                base = spans[0]["start"] if spans else 0.0
                for s in spans:
                    fh.write(json.dumps({
                        "round": number, "thread": thread, "id": s["id"],
                        "parent": s["parent"], "op": s["op"],
                        "name": s["name"],
                        "start_ms": (s["start"] - base) * 1000.0,
                        "end_ms": (s["end"] - base) * 1000.0,
                        "program_self_ms": {
                            k: v * 1000.0 for k, v in
                            s["attrs"].get("program", {}).items()},
                    }) + "\n")
    return path


# -- entry point --------------------------------------------------------------

def run(args: argparse.Namespace, tmp_root: Path) -> Dict[str, Any]:
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S
    env = benchlib.child_env(tmp_root)
    host_ms = [benchlib.ref_loop_ms()]
    attempted, failed, notes = 1, 0, []
    bad = benchlib.fixture_mismatches(planted=args.plant_mismatch)
    if bad:
        failed += 1
        notes.append(f"seed-3 KPIs differ from the fixture: {bad}")

    per_round = max(benchlib.MIN_TAIL_SAMPLES,
                    round(args.seconds * workload.ops_per_s
                          / workload.rounds))
    ops = benchlib.make_ops(args.workload, args.seed, per_round)
    snapshot: Optional[Path] = None
    reference: Dict[int, list] = {}
    if workload.warm:
        snapshot = tmp_root / "snapshot"
        expected = build_snapshot(snapshot)
        attempted += 1
        if not snapshot_matches_fixture(expected):
            failed += 1
            notes.append("snapshot seed-3 cells differ from the fixture")
        for i, op in enumerate(ops):
            reference[i] = [expected[f"{name}|{seed}"]
                            for name in (op["a"], op["b"])
                            for seed in op["seeds"]]
    else:
        for i in benchlib.sample_ops(len(ops), args.seed, SCALAR_SAMPLE):
            reference[i] = benchlib.scalar_cells(
                layertrace.resolve_op(layertrace.Recorder(), ops[i]))
    if args.plant_mismatch:
        reference[0] = benchlib.plant(reference[0])

    rounds = []
    for number in range(workload.rounds):
        traced = bool(args.trace) and number % 2 == 1
        round_dir = tmp_root / f"round-{number}"
        store = round_dir / "store"
        round_dir.mkdir()
        if snapshot is not None:
            shutil.copytree(snapshot, store)
        else:
            store.mkdir()
        lines_start = benchlib.journal_lines(store)
        if workload.served:
            result = served_round(round_dir, store, env, ops, traced,
                                  reference, snapshot)
            attempted += 1
            if not result["counters_ok"]:
                failed += 1
                notes.append(f"round {number}: server counters "
                             f"{result['counters']} do not add up")
        else:
            result = inproc_round(round_dir, env, {
                "ops": ops, "traced": traced, "cache_dir": str(store),
                "whole_fetch_odd": workload.warm,
            }, reference, deadline)
        result["journal"] = (lines_start, benchlib.journal_lines(store))
        result["cells"] = [benchlib.op_cells(op) for op in ops]
        result["traced"] = traced
        left = benchlib.survivors(f"{round_dir}/")
        attempted += 1 + len(ops)
        failed += result["ok"].count(False)
        if left:
            failed += 1
            notes.append(f"round {number}: processes {left} survived")
        for i, error in list(result["errors"].items())[:3]:
            notes.append(f"round {number} op {i}: {error}")
        rounds.append(result)
        shutil.rmtree(round_dir, ignore_errors=True)
    host_ms.append(benchlib.ref_loop_ms())

    untraced = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    report: Dict[str, Any] = {"attempted": attempted, "failed": failed,
                              "notes": notes, "host_ms": host_ms,
                              "ops_per_round": per_round,
                              "rounds": len(rounds),
                              "round_lines": [round_line(r) for r in rounds]}
    if args.trace:
        report["metrics"] = per_layer(untraced, traced_rounds, host_ms)
        report["units"] = dict(PER_LAYER)
        report["trace_path"] = write_trace(args.workload, args.seed,
                                           traced_rounds)
    else:
        report["metrics"] = end_to_end(untraced)
        report["units"] = dict(END_TO_END)
    return report


def main() -> int:
    args = parse_args()
    reason = benchlib.check_source_tree()
    if reason is not None:
        print(f"perfbench: cannot run: {reason}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != benchlib.HASH_SEED:
        # Reference KPIs are computed here; they must come from the same
        # hash seed as the workers' and the server's.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=benchlib.HASH_SEED))
    # A terminated run still stops its server and workers on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Started in the background, a run inherits an ignored SIGINT, and so
    # would every server; installing a handler gives them the default back.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.path.insert(0, str(benchlib.SRC))
    benchlib.TMP_PARENT.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                     dir=benchlib.TMP_PARENT))
    try:
        report = run(args, tmp_root)
    except benchlib.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        # Normally empty: every round already stopped what it started.
        benchlib.survivors(f"{tmp_root}/", grace_s=5.0)
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            benchlib.TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still holds its root here

    metrics = report["metrics"]
    print(f"workload {args.workload}  seed {args.seed}  rounds "
          f"{report['rounds']} x {report['ops_per_round']} ops  host loop "
          + " / ".join(f"{ms:.1f}" for ms in report["host_ms"]) + " ms")
    for note in report["notes"]:
        print(f"  ! {note}")
    for number, line in enumerate(report["round_lines"]):
        print(f"  round {number}: {line}")
    if "trace_path" in report:
        print(f"  spans written to {report['trace_path']}")
    result_metrics = {}
    for name, unit in report["units"].items():
        if name not in metrics:
            print(f"  {name:<40} (no percentile has ten samples beyond it)")
            continue
        extra = (f"  [{metrics['_tail_note']}]"
                 if name == "op_ms_tail" else "")
        print(f"  {name:<40} {metrics[name]:>14.4f} {unit}{extra}")
        result_metrics[name] = {"value": metrics[name], "unit": unit}
    correct = report["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
