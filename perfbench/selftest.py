"""Quick self-test of the benchmark.

Usage (from the root of a checkout): ``python3 perfbench/selftest.py``

1. Runs every workload briefly with ``--trace 0`` and ``--trace 1`` and
   checks that each metric ``BENCHMARK.json`` lists prints by name with
   its unit, and that the run is correct.
2. Plants a KPI mismatch and checks that it is counted as a failure.
3. Copies only ``BENCHMARK.json`` and the benchmark's files into an
   empty directory and checks that the benchmark refuses to run there.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple

import benchlib

SPEC = json.loads((benchlib.ROOT / "BENCHMARK.json").read_text())


def bench(args: List[str], cwd: Path = benchlib.ROOT
          ) -> Tuple[int, Optional[dict]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result


def check(ok: bool, what: str, problems: List[str]) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        problems.append(what)


def main() -> int:
    problems: List[str] = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, listed in (("0", SPEC["end_to_end"]),
                              ("1", SPEC["per_layer"])):
            code, result = bench(["--workload", workload, "--seed", "7",
                                     "--seconds", "1", "--trace", trace])
            label = f"{workload} --trace {trace}"
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] > 0,
                  f"{label}: correct, nothing failed", problems)
            metrics = result["metrics"] if result else {}
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in metrics.items()}
            check(got == want, f"{label}: every metric with its unit",
                  problems)

    code, result = bench(["--workload", "warm-inproc", "--seed", "7",
                             "--seconds", "1", "--trace", "0",
                             "--plant-mismatch"])
    check(code == 1 and result is not None and not result["correct"]
          and result["failed"] >= 2,
          "planted mismatch counted as failures (fixture and operation)",
          problems)

    benchlib.TMP_PARENT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=benchlib.TMP_PARENT))
    try:
        shutil.copy(benchlib.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(benchlib.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result = bench(["--workload", "cold-inproc", "--seed", "7",
                                 "--seconds", "1", "--trace", "0"], cwd=bare)
        check(code != 0 and result is None,
              "refuses to run without the program", problems)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            benchlib.TMP_PARENT.rmdir()
        except OSError:
            pass

    print("selftest: " + ("passed" if not problems
                          else f"{len(problems)} check(s) failed"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
