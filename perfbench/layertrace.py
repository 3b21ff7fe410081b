"""Benchmark-side spans around the public calls of each layer.

The traced run performs an operation as the sequence of layer calls the
facade (or the HTTP route) makes, each wrapped in a span recorded here:
name, start, end, parent and operation id, kept in memory and written
out when the run ends.  Nothing is added inside the program.  Where a
call enters the simulator, the program's own ``sim.*`` spans from
:mod:`repro.obs` are folded in beneath the benchmark span.

A layer's self time is its span's duration minus the part of that
interval its benchmark child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

#: Program span names whose self time is reported per computed cell.
SIM_PHASES = ("setup", "run", "finalize", "plenary", "plenary.exchange",
              "plenary.observe", "plenary.survey", "plenary.metrics",
              "inter_event", "trajectory", "batch")


class Recorder:
    """In-memory span list; one per traced round."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        record = {"id": len(self.spans), "name": name, "op": self.op,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None,
                  "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def fold_program_spans(self, record: Dict[str, Any]) -> None:
        """Attach the program spans finished so far to ``record``."""
        from repro.obs import TRACER

        phases = record["attrs"].setdefault("program", {})
        for root in TRACER.roots():
            for node, _ in root.walk():
                if not node.name.startswith("sim."):
                    continue
                covered = sum(c.duration_s or 0.0 for c in node.children)
                own = (node.duration_s or 0.0) - covered
                phases[node.name] = phases.get(node.name, 0.0) + own
        TRACER.reset()


@contextmanager
def program_tracing() -> Iterator[None]:
    """Switch the program's tracer on for a traced round."""
    from repro.obs import TRACER

    TRACER.reset()
    TRACER.enabled = True
    try:
        yield
    finally:
        TRACER.enabled = False
        TRACER.reset()


def _families(pending: List[int], scenarios: list) -> List[List[int]]:
    """Group cells the way the facade does before choosing an engine."""
    try:
        from repro.simulation.batch import scenario_family
    except ImportError:  # single-engine program: every cell runs scalar
        return [[i] for i in pending]
    groups: Dict[str, List[int]] = {}
    for i in pending:
        groups.setdefault(scenario_family(scenarios[i]), []).append(i)
    return list(groups.values())


def _compute(rec: Recorder, scenarios: list,
             pending: List[int]) -> Dict[int, Any]:
    """Histories of the pending cells: batch engine for families of two
    or more builtin lanes, scalar engine otherwise."""
    from repro.simulation.runner import LongitudinalRunner

    histories: Dict[int, Any] = {}
    if len(pending) < 2:
        groups = [[i] for i in pending]
    else:
        groups = _families(pending, scenarios)
    for group in groups:
        lanes = [scenarios[i] for i in group]
        if len(group) > 1 and not lanes[0].uses_plugin_modifiers():
            from repro.simulation.batch import BatchRunner

            with rec.span("sim.batch", lanes=len(group)) as record:
                out = BatchRunner(lanes).run()
                rec.fold_program_spans(record)
            histories.update(zip(group, out))
            continue
        for i in group:
            with rec.span("sim.setup") as record:
                runner = LongitudinalRunner(scenarios[i])
                rec.fold_program_spans(record)
            with rec.span("sim.run") as record:
                histories[i] = runner.run()
                rec.fold_program_spans(record)
    return histories


def fetch_cells(rec: Recorder, cache: Any,
                scenarios: list) -> List[Dict[str, float]]:
    """``RunCache.fetch_metrics`` performed as its store, simulation and
    index calls, one span each."""
    from repro.simulation.experiment import extract_metrics
    from repro.store.fingerprint import scenario_fingerprint, scenario_summary

    with rec.span("store.fingerprint"):
        fps = [scenario_fingerprint(s) for s in scenarios]
    cells: List[Optional[Dict[str, float]]] = [None] * len(scenarios)
    hits, missing = [], []
    for i, (scenario, fp) in enumerate(zip(scenarios, fps)):
        with rec.span("store.index_lookup"):
            blob = cache.index.lookup(fp, scenario.seed)
        payload = None
        if blob is not None:
            with rec.span("store.blob_load"):
                payload, _ = cache.blobs.load(blob)
        if payload is None:
            missing.append(i)
        else:
            cells[i] = payload
            hits.append((fp, scenario.seed))
    if hits:
        with rec.span("store.index_record"):
            cache.index.record_hits(hits)
    if missing:
        histories = _compute(rec, scenarios, missing)
        for i in missing:
            with rec.span("sim.extract"):
                computed = extract_metrics(histories[i])
            with rec.span("store.blob_put"):
                blob = cache.blobs.put(computed)
            with rec.span("store.index_record"):
                cache.index.record_store(fps[i], scenarios[i].seed, blob,
                                         scenario_summary(scenarios[i]))
            with rec.span("store.blob_load"):
                cells[i] = cache.blobs.get(blob, computed)
    return cells  # type: ignore[return-value]


def resolve_op(rec: Recorder, op: Dict[str, Any]) -> list:
    """The operation's seeded scenarios, resolved through the registry."""
    from repro.service.specs import resolve_scenario, sweep_plan

    if op["kind"] == "compare":
        with rec.span("registry.resolve"):
            a = resolve_scenario(op["a"])
        with rec.span("registry.resolve"):
            b = resolve_scenario(op["b"])
        return ([a.with_seed(s) for s in op["seeds"]]
                + [b.with_seed(s) for s in op["seeds"]])
    with rec.span("registry.resolve"):
        values, factory, _ = sweep_plan(op["parameter"], op["values"])
    return [factory(v, s) for v in values for s in op["seeds"]]


def traced_fetch(rec: Recorder, cache: Any, scenarios: list,
                 whole: bool) -> List[Dict[str, float]]:
    """Resolve cells on an open cache: with ``whole``, as one
    ``RunCache.fetch_metrics`` call; otherwise call by call."""
    if not whole:
        with rec.span("store.fetch"):
            return fetch_cells(rec, cache, scenarios)
    from repro.obs import TRACER

    with rec.span("store.fetch_hit"):
        cells = cache.fetch_metrics(scenarios)
    TRACER.reset()  # the program's store spans are not folded
    return cells


def traced_facade_op(rec: Recorder, op: Dict[str, Any], cache_dir: str,
                     whole: bool = False) -> List[Dict[str, float]]:
    """``repro.api.compare``/``sweep`` with ``cache=True``, call by call."""
    from repro.store.runcache import RunCache

    with rec.span("api.op"):
        scenarios = resolve_op(rec, op)
        with rec.span("store.open"):
            cache = RunCache(cache_dir)
        return traced_fetch(rec, cache, scenarios, whole)


# -- aggregation --------------------------------------------------------------

def self_times(spans: List[Dict[str, Any]]) -> List[float]:
    """Self time (s) of each span: duration minus its children's."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_totals(span_lists: List[List[Dict[str, Any]]]) -> Dict[str, Any]:
    """Per span name: call count and summed self time in ms; plus the
    program's per-phase self time and the lanes the batch engine ran.
    Each list is one recorder's spans (parents index into it)."""
    totals: Dict[str, Any] = {"count": defaultdict(int),
                              "ms": defaultdict(float),
                              "phases": defaultdict(float), "batch_lanes": 0}
    for spans in span_lists:
        for s, own in zip(spans, self_times(spans)):
            totals["count"][s["name"]] += 1
            totals["ms"][s["name"]] += own * 1000.0
            for name, secs in s["attrs"].get("program", {}).items():
                totals["phases"][name] += secs * 1000.0
            if s["name"] == "sim.batch":
                totals["batch_lanes"] += s["attrs"]["lanes"]
    return totals


def layer_metrics(totals: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics that come from spans (ms).

    Simulation numbers are per computed cell; store journal work is per
    operation whose store calls were timed; everything else per call.
    """
    scalar_cells = totals["count"].get("sim.run", 0)
    cells = scalar_cells + totals["batch_lanes"]
    fetches = totals["count"].get("store.fetch", 0)
    store_ops = fetches + totals["count"].get("store.fetch_hit", 0)

    def per(name: str, n: Optional[int] = None) -> float:
        """Summed self time of ``name`` over ``n`` (default: calls)."""
        if n is None:
            n = totals["count"].get(name, 0)
        return totals["ms"].get(name, 0.0) / n if n else 0.0

    out = {
        "api.self_ms": per("api.op"),
        "registry.resolve_ms": per("registry.resolve"),
        "service.specs.build_plan_ms": per("service.specs.build_plan"),
        "store.open_ms": per("store.open", store_ops),
        "store.fingerprint_ms": per("store.fingerprint"),
        "store.fetch_hit_ms": per("store.fetch_hit"),
        "store.index_lookup_ms": per("store.index_lookup"),
        "store.blob_load_ms": per("store.blob_load"),
        "store.blob_put_ms": per("store.blob_put"),
        "store.index_record_ms": per("store.index_record", fetches),
        "sim.setup_ms": per("sim.setup"),
        "sim.run_ms": per("sim.run"),
        "sim.batch_cell_ms": per("sim.batch", totals["batch_lanes"]),
        "sim.extract_ms": per("sim.extract"),
    }
    for route in ("healthz", "submit", "events", "job", "result"):
        out[f"service.http.{route}_ms"] = per(f"service.http.{route}")
    for phase in SIM_PHASES:
        phase_ms = totals["phases"].get(f"sim.{phase}", 0.0)
        out[f"sim.phase.{phase}_self_ms"] = phase_ms / cells if cells else 0.0
    return out
