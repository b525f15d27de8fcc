"""Fast self-check of the benchmark (about a minute).

Runs every workload on tiny inputs and asserts that

* every metric named in ``BENCHMARK.json`` is printed with its unit
  (``--trace 0``: the end-to-end metrics, ``--trace 1``: the per-layer ones);
* the tiny run's outputs pass their checks and the layer the workload
  exists for shows up in its trace;
* the output checks fire: with one reference verdict flipped
  (``--plant-wrong``) the run reports ``correct: false`` and a failed
  operation.

Usage: ``python3 perfbench/selfcheck.py`` from the root of a checkout.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: workload -> a per-layer call count its tiny traced run must make nonzero.
LAYER_PROBES = {
    "gap_analysis": "core.primary.calls",
    "suite_cold": "runner.shard.calls",
    "service_warm": "service.request.calls",
}


def _run(workload, *flags):
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "1", "--tiny", *flags]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=300, check=False)
    if completed.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited {completed.returncode}:\n"
                             f"{completed.stderr[-3000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _assert_metrics(result, declared, label):
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    want = {entry["name"]: entry["unit"] for entry in declared}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        raise AssertionError(f"{label}: missing {missing}, extra {extra}, wrong unit {wrong}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is not a number")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload, probe in LAYER_PROBES.items():
        plain = _run(workload, "--trace", "0")
        _assert_metrics(plain, spec["end_to_end"], f"{workload} --trace 0")
        if not (plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1):
            raise AssertionError(f"{workload}: tiny run failed its checks: {plain}")

        traced = _run(workload, "--trace", "1")
        _assert_metrics(traced, spec["per_layer"], f"{workload} --trace 1")
        if traced["metrics"][probe]["value"] <= 0:
            raise AssertionError(f"{workload}: traced run recorded no {probe}")

        planted = _run(workload, "--trace", "0", "--plant-wrong")
        if planted["correct"] or planted["failed"] < 1:
            raise AssertionError(f"{workload}: planted wrong verdict went unnoticed: {planted}")
        print(f"ok  {workload}: metrics and units, layer trace, planted verdict caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
