"""Shared helpers for the benchmark: paths, inputs, checks and statistics.

Nothing here imports ``repro`` at module level: the orchestrator must be
able to report a missing source tree, and worker processes time their
own ``import repro`` as part of set-up.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "data" / "pre_pr_kpis_seed3.json"
#: Every temporary root lives here, inside the checkout.
TMP_PARENT = ROOT / ".perfbench-tmp"
#: Hash seed of every process of a run, the orchestrator included.  Some
#: KPIs differ in the last bit between hash seeds (see README), so the
#: processes whose results are compared must share one.
HASH_SEED = "0"

#: The builtin timelines pinned by the seed-3 KPI fixture.
FIXTURE_TIMELINES = ("hackathon", "hackathon-everywhere", "interleaved",
                     "traditional", "virtual")
#: Seeds held by the warm snapshot, for the ``WARM_PAIR`` scenarios.
WARM_SEEDS = 10
WARM_PAIR = ("hackathon", "traditional")
WARM_SUBSET = 5

# Cold operations repeat a cycle of nine: two builtin pairs over two
# seeds (four cells each, batch engine under backend="auto") and seven
# plugin operations over one seed (two cells each, scalar engine).  Six
# of the plugin operations are the two plugin compares, which cost about
# the same; one is a `remote-share` sweep, which costs more.  The two
# compares are two thirds of the list, so the median operation sits well
# inside their cluster of latencies rather than on the edge between two
# clusters, where a few noisy latencies would decide which cluster it
# reads.
_VIRTUAL = {"kind": "compare", "a": "virtual-constrained",
            "b": "hybrid-balanced"}
_ADVERSARIAL = {"kind": "compare", "a": "free-riders",
                "b": "knowledge-withholding"}
COLD_CYCLE = (
    ({"kind": "compare", "a": "hackathon", "b": "traditional"}, 2),
    (_VIRTUAL, 1), (_ADVERSARIAL, 1), (_VIRTUAL, 1),
    ({"kind": "compare", "a": "interleaved", "b": "traditional"}, 2),
    (_ADVERSARIAL, 1), (_VIRTUAL, 1), (_ADVERSARIAL, 1),
    ({"kind": "sweep", "parameter": "remote-share", "values": [0.25, 0.75]},
     1),
)


class BenchError(RuntimeError):
    """The benchmark could not drive the program."""


# -- environment ------------------------------------------------------------

def check_source_tree() -> Optional[str]:
    """Why the program cannot be benchmarked here, or None."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no repro package under {SRC}"
    if not FIXTURE.is_file():
        return f"missing KPI fixture {FIXTURE}"
    return None


def child_env(tmp_root: Path) -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    Plugins come only from the bundled package, temporary files stay in
    the run's root, and a fixed hash seed gives every fresh process the
    same dict and set layouts.
    """
    env = dict(os.environ)
    env.pop("REPRO_PLUGINS", None)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp_root)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONUNBUFFERED"] = "1"
    return env


# -- host and process probes --------------------------------------------------

def ref_loop_ms() -> float:
    """Wall time of a fixed pure-Python loop; attributes host speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
    elapsed = time.perf_counter() - start
    if acc < 0:  # never true; keeps the loop's result live
        raise AssertionError
    return elapsed * 1000.0


#: The calibration loop: ``CALIB_ITERATIONS`` turns of the reference
#: loop take ``CALIB_NOMINAL_MS`` when the reference host (2-core Xeon,
#: KVM) runs at its usual speed.
CALIB_ITERATIONS = 30_000
CALIB_NOMINAL_MS = 2.0
#: When the host slows, `repro` slows more than the calibration loop:
#: about as the loop's slowdown to this power (see README).
CALIB_EXPONENT = 1.5


def calib_ms() -> float:
    """Wall time of the short calibration loop, in ms."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIB_ITERATIONS):
        acc = (acc * 31 + i) % 1_000_003
    elapsed = time.perf_counter() - start
    if acc < 0:  # never true; keeps the loop's result live
        raise AssertionError
    return elapsed * 1000.0


def host_factor(samples: int = 5) -> float:
    """How much slower than usual the host runs right now (1.0 = usual)."""
    return median([calib_ms() for _ in range(samples)]) / CALIB_NOMINAL_MS


def scaled(ms: float, factor: float) -> float:
    """``ms`` measured while the calibration loop ran ``factor`` times
    slower than usual, as it would read at the usual speed."""
    return ms / factor ** CALIB_EXPONENT


def normalized(latencies_ms: Sequence[float],
               calib: Sequence[float]) -> List[float]:
    """Latencies scaled to the usual host speed.

    ``calib[i]`` and ``calib[i + 1]`` were measured just before and just
    after operation ``i``; their mean is the host's speed during it.  The
    host's speed changes from one second to the next and differs between
    its two cores, so the samples that bracket an operation track it
    better than any wider window.
    """
    return [scaled(ms, (before + after) / (2.0 * CALIB_NOMINAL_MS))
            for ms, before, after in zip(latencies_ms, calib, calib[1:])]


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def pids_with(token: str) -> List[int]:
    """Live processes (other than this one) whose command line holds
    ``token``; every process a round starts names its root there."""
    found = []
    me = os.getpid()
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == me:
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read().decode("utf-8", "replace")
        except OSError:
            continue
        if token in cmdline:
            found.append(int(entry))
    return found


def survivors(token: str, grace_s: float = 10.0) -> List[int]:
    """Pids still holding ``token`` after up to ``grace_s`` of waiting;
    they are killed before this returns."""
    deadline = time.monotonic() + grace_s
    while True:
        pids = pids_with(token)
        if not pids or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while pids_with(token) and time.monotonic() < deadline + 5.0:
        time.sleep(0.05)
    return pids


def journal_lines(store: Path) -> int:
    path = store / "index.jsonl"
    if not path.exists():
        return 0
    with path.open("rb") as fh:
        return sum(1 for _ in fh)


# -- inputs -------------------------------------------------------------------

def make_ops(workload: str, seed: int, count: int) -> List[Dict[str, Any]]:
    """The operation list of one run; the same seed gives the same list.

    Cold workloads draw disjoint simulation seeds from a seeded base, so
    no cell repeats; warm workloads draw 5-seed subsets of the snapshot.
    """
    rng = random.Random(f"{workload}:{seed}")
    ops: List[Dict[str, Any]] = []
    if workload in ("warm-inproc", "served-warm"):
        for _ in range(count):
            a, b = WARM_PAIR if rng.random() < 0.5 else WARM_PAIR[::-1]
            seeds = sorted(rng.sample(range(WARM_SEEDS), WARM_SUBSET))
            ops.append({"kind": "compare", "a": a, "b": b, "seeds": seeds})
        return ops
    base = 10_000 + rng.randrange(1_000_000) * 100
    if workload != "cold-inproc":
        raise ValueError(f"unknown workload {workload!r}")
    for i in range(count):
        template, n_seeds = COLD_CYCLE[i % len(COLD_CYCLE)]
        seeds = [base + 2 * i, base + 2 * i + 1]
        ops.append(dict(template, seeds=seeds[:n_seeds]))
    return ops


def op_cells(op: Dict[str, Any]) -> int:
    if op["kind"] == "compare":
        return 2 * len(op["seeds"])
    return len(op["values"]) * len(op["seeds"])


def result_cells(op: Dict[str, Any], result: Any) -> List[Dict[str, float]]:
    """Flatten a ComparisonResult or SweepResult into per-cell KPIs."""
    if op["kind"] == "compare":
        return list(result.metrics_a) + list(result.metrics_b)
    return [m for point in result.points for m in point.metrics]


def run_facade(op: Dict[str, Any], cache_dir: str) -> Any:
    """One operation through the public facade, memoized in ``cache_dir``."""
    import repro.api as api

    if op["kind"] == "compare":
        return api.compare(op["a"], op["b"], seeds=op["seeds"], cache=True,
                           cache_dir=cache_dir)
    return api.sweep(op["parameter"], op["values"], seeds=op["seeds"],
                     cache=True, cache_dir=cache_dir)


def scalar_cells(scenarios: Sequence[Any]) -> List[Dict[str, float]]:
    """KPIs from the scalar engine, one fresh runner per cell."""
    from repro.simulation.experiment import extract_metrics
    from repro.simulation.runner import LongitudinalRunner

    return [extract_metrics(LongitudinalRunner(s).run()) for s in scenarios]


# -- correctness --------------------------------------------------------------

def canonical(cell: Dict[str, float]) -> str:
    """Byte form of a KPI dict; equal strings mean bit-equal floats."""
    return json.dumps(cell, sort_keys=True)


def same_cells(got: Sequence[Dict[str, float]],
               want: Sequence[Dict[str, float]]) -> bool:
    return (len(got) == len(want)
            and all(canonical(g) == canonical(w) for g, w in zip(got, want)))


def plant(cells: List[Dict[str, float]]) -> List[Dict[str, float]]:
    """Copy of ``cells`` with one KPI nudged: the self-test's mismatch."""
    first = dict(cells[0])
    key = sorted(first)[0]
    first[key] = first[key] + 1.0
    return [first] + list(cells[1:])


def fixture_mismatches(planted: bool = False) -> List[str]:
    """Timelines whose seed-3 scalar KPIs differ from the pinned fixture."""
    from repro.service.specs import resolve_scenario
    from repro.simulation.scenario import hackathon_everywhere_timeline

    with FIXTURE.open(encoding="utf-8") as fh:
        pinned = json.load(fh)
    # The fixture pins the stress timeline at four bimonthly hackathons,
    # not the catalog's default of twelve monthly ones.
    scenarios = [hackathon_everywhere_timeline(seed=3, interval_months=2.0,
                                               count=4)
                 if n == "hackathon-everywhere"
                 else resolve_scenario(n).with_seed(3)
                 for n in FIXTURE_TIMELINES]
    got = scalar_cells(scenarios)
    want = [pinned[n] for n in FIXTURE_TIMELINES]
    if planted:
        want = plant(want)
    return [name for name, g, w in zip(FIXTURE_TIMELINES, got, want)
            if canonical(g) != canonical(w)]


def sample_ops(count: int, seed: int, k: int) -> List[int]:
    """Indices of the operations re-checked on the scalar engine;
    operation 0 is always among them so a planted mismatch is seen."""
    rng = random.Random(f"sample:{seed}")
    return [0] + sorted(rng.sample(range(1, count), k - 1))


# -- statistics ---------------------------------------------------------------

#: Fewest samples for which a percentile at or above the median still
#: has ten samples beyond it.
MIN_TAIL_SAMPLES = 21


def quantile(samples: Sequence[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    A weighted mean of every order statistic, the weights concentrated
    around rank ``p * (n + 1)``.  On a few dozen latencies it moves far
    less between samples than the one or two order statistics a plain
    percentile takes.
    """
    from scipy.stats import beta

    ordered = sorted(samples)
    n = len(ordered)
    edges = beta.cdf([i / n for i in range(n + 1)],
                     p * (n + 1), (1.0 - p) * (n + 1))
    return float(sum((hi - lo) * x
                     for lo, hi, x in zip(edges, edges[1:], ordered)))


def tail(samples: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """``(value, percentile, n)``: the highest percentile with at least
    ten samples beyond it, or None when no percentile at or above the
    median has that many."""
    n = len(samples)
    if n < MIN_TAIL_SAMPLES:
        return None
    p = (n - 10) / n
    return quantile(samples, p), 100.0 * p, n


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0
