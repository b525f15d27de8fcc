"""Helpers shared by the workloads: paths, child processes, resource readings."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_DIR = BENCH_DIR / "expected"
RUN_PY = BENCH_DIR / "run.py"

#: Options of the Table-1 benchmarks (``BENCH_OPTIONS`` in
#: ``benchmarks/conftest.py``), fixed here so the workload does not move if
#: that harness is retuned.
BENCH_OPTIONS = dict(
    max_witnesses=2,
    unfold_depth=5,
    max_closure_checks=6,
    max_reported_gaps=2,
)

clock = time.perf_counter

#: The CPUs this benchmark may use, read before any pinning.
CPUS = sorted(os.sched_getaffinity(0))


def child_env():
    """Environment for child processes: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    paths = [str(SRC), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def pin(pid, slot):
    """Pin process ``pid`` (0 = this one) to CPU number ``slot`` of :data:`CPUS`.

    Two busy processes on a two-CPU machine each keep one CPU instead of
    migrating; with one CPU this does nothing.
    """
    if len(CPUS) > 1:
        os.sched_setaffinity(pid, {CPUS[slot % len(CPUS)]})


def load_expected(name):
    with open(EXPECTED_DIR / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values, fraction):
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def setup_probe_seconds(workload, seed, count):
    """Median set-up time of ``count`` fresh processes doing the workload's set-up.

    Each probe is ``run.py --setup-probe``: interpreter start, imports and
    the workload's design builds / job expansion.  It prints the
    ``perf_counter`` reading at the end of set-up; the time counted runs from
    just before the spawn to that reading.
    """
    samples = []
    for _ in range(count):
        start = clock()
        completed = subprocess.run(
            [sys.executable, str(RUN_PY), "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            env=child_env(), capture_output=True, text=True, timeout=120, check=False,
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"set-up probe failed ({completed.returncode}): {completed.stderr[-2000:]}"
            )
        ready = float(completed.stdout.strip().splitlines()[-1])
        samples.append(ready - start)
    return median(samples)


def proc_cpu_seconds(pid):
    """User+system CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid):
    """High-water RSS of a live process (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    #: ``False`` when any produced output disagreed with its reference.
    correct: bool = True
    #: Failure reason -> count (oom, timeout, mismatch, http_<status>, ...).
    reasons: dict = field(default_factory=dict)
    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    latencies: list = field(default_factory=list)
    #: End-to-end values a workload computes itself (replacing the defaults).
    overrides: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def fail(self, reason, detail=""):
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        if reason in ("mismatch", "disagree", "unverified"):
            self.correct = False
        if detail and len(self.notes) < 20:
            self.notes.append(f"{reason}: {detail}")

    def end_to_end(self):
        ok = self.attempted - self.failed
        values = {
            "setup_s": self.setup_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "peak_rss_mb": self.peak_rss_mb,
            "success_share": ok / self.attempted if self.attempted else 0.0,
            "ops_per_s": ok / self.wall_s if self.wall_s > 0 else 0.0,
            "req_p50_ms": 1000.0 * percentile(self.latencies, 0.50),
            "req_p99_ms": 1000.0 * percentile(self.latencies, 0.99),
        }
        values.update(self.overrides)
        return values
