"""specmatcher benchmark: Algorithm-1 gap analysis, cold suite, warm service.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload gap_analysis --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``gap_analysis``  Algorithm 1 (``repro.core.analyze_problem``), one child
                  process per operation under a memory cap and time limit.
``suite_cold``    ``repro.runner.run_suite`` on an empty cache directory.
``service_warm``  ``specmatcher serve`` driven by ``ServiceClient`` threads.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` additionally runs
a traced pass and prints the per-layer metrics instead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> value and unit, as listed in ``BENCHMARK.json``).

``--tiny`` runs a workload on tiny inputs and ``--plant-wrong`` corrupts one
reference verdict; ``perfbench/selfcheck.py`` uses both.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = {
    "gap_analysis": "gap",
    "suite_cold": "suite",
    "service_warm": "service",
}


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (self-check)")
    parser.add_argument(
        "--plant-wrong", action="store_true", help="corrupt one reference verdict (self-check)"
    )
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only do the workload's set-up, then print the clock reading",
    )
    return parser


def _metrics(values, declared):
    out = {}
    for entry in declared:
        name = entry["name"]
        if name not in values:
            raise KeyError(f"workload produced no value for metric {name!r}")
        out[name] = {"value": float(values[name]), "unit": entry["unit"]}
    return out


def main(argv=None):
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no specmatcher sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    workload = importlib.import_module(WORKLOADS[args.workload])

    if args.setup_probe:
        from common import clock

        workload.setup(args.seed)
        print(repr(clock()))
        return 0

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    args.work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        outcome = workload.run(args)
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)

    if args.trace:
        metrics = _metrics(outcome.per_layer, spec["per_layer"])
    else:
        metrics = _metrics(outcome.end_to_end(), spec["end_to_end"])
    print(
        f"# {args.workload} seed={args.seed}: attempted={outcome.attempted} "
        f"failed={outcome.failed} reasons={outcome.reasons} "
        f"latency samples={len(outcome.latencies)}"
    )
    for note in outcome.notes:
        print(f"#   {note}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
