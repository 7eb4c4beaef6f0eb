"""Self-test of the benchmark: every workload at the tiny size, in about a minute.

For each workload it runs seed 1 traced twice and seed 2 untraced, each for
a fixed number of operations, and checks that

- the two seed-1 runs give identical counts, accuracy and artifact digests;
- the seed-2 run also completes;
- every run is correct and names exactly the metrics (and units) that
  BENCHMARK.json declares for its mode.

    python3 bench/selftest.py

Exits 1 and names the failed check on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# operations per run: enough queries to mix cells, one build or training
OPS = {"query-short-mixed": 3, "query-long-clean": 3, "index-build": 1, "train": 1}


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace", str(trace), "--ops", str(OPS[workload]), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL {workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL {what}")
    print(f"ok   {what}")


def declared(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {0: declared(spec, "end_to_end"), 1: declared(spec, "per_layer")}
    t0 = time.perf_counter()
    for wl in (w["name"] for w in spec["workloads"]):
        first = run(wl, 1, 1)
        again = run(wl, 1, 1)
        other = run(wl, 2, 0)
        for (report, result), label in ((first, "seed 1"), (again, "seed 1 again"), (other, "seed 2")):
            check(result["correct"], f"{wl} {label}: correct")
            units = {m: v["unit"] for m, v in result["metrics"].items()}
            check(units == modes[report["trace"]], f"{wl} {label}: names every declared metric with its unit")
        same = lambda key: first[0][key] == again[0][key]  # noqa: E731
        check(same("accuracy"), f"{wl}: same seed, same accuracy")
        check(
            first[0]["accounting"]["counts_total"] == again[0]["accounting"]["counts_total"],
            f"{wl}: same seed, same counts",
        )
        check(same("artifacts"), f"{wl}: same seed, byte-identical artifacts")
        check(first[0]["signature_mismatches"] == 0, f"{wl}: tracing leaves results unchanged")
    print(f"self-test passed in {time.perf_counter() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
