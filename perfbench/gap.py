"""Workload ``gap_analysis``: Algorithm 1 with the explicit engine.

Two operations, each a full ``analyze_problem`` run in a fresh child process
under a 2 GiB address-space cap and a time limit:

* ``quickstart`` -- the README quickstart ``specmatcher analyze mal_fig4``
  (default ``CoverageOptions``);
* ``paper_example`` -- Table 1 row 4 at the Table-1 benchmark options.

The two children run side by side, each pinned to its own CPU (two
workers, the machine's core count), so one run costs the slower operation,
not the sum.  Peak RSS and CPU are
read per child from outside with ``wait4``; a child that ends in
``MemoryError`` or is stopped at the time limit is counted as a failed
operation and the run goes on.

Run as a script, this file is the child: ``gap.py --op NAME --out DIR``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading

from common import BENCH_OPTIONS, Outcome, child_env, clock, load_expected, pin, setup_probe_seconds

ADDRESS_SPACE_CAP = 2 << 30
OP_TIME_LIMIT_S = 90.0
#: Seconds a child gets to write its result after SIGTERM before SIGKILL.
KILL_GRACE_S = 10.0
SETUP_PROBES = 5

#: op name -> (design, options name); options "default" = CoverageOptions().
OPS = {
    "quickstart": ("mal_fig4", "default"),
    "paper_example": ("paper_example", "bench"),
}
#: The self-check's tiny operation: a covered design, no gap search.
TINY_OPS = {"covered_fig2": ("mal_fig2", "default")}


def setup(seed):
    """The workload's set-up: imports and the design builds."""
    from repro.core import CoverageOptions, analyze_problem  # noqa: F401 - the child's imports
    from repro.designs import get_design
    from repro.ltl.printer import to_str  # noqa: F401

    return {name: get_design(design).builder() for name, (design, _opts) in OPS.items()}


# -- parent side ---------------------------------------------------------------


def _run_pass(ops, trace, tmp):
    """Run every op in its own child concurrently; returns per-op records."""
    children = {}
    for slot, name in enumerate(ops):
        out = os.path.join(tmp, f"{name}-{'traced' if trace else 'plain'}")
        os.makedirs(out)
        command = [sys.executable, os.path.abspath(__file__), "--op", name, "--out", out]
        if trace:
            command.append("--trace")
        started = clock()
        process = subprocess.Popen(command, env=child_env(), stdin=subprocess.DEVNULL)
        pin(process.pid, slot)
        children[process.pid] = {"name": name, "out": out, "process": process,
                                 "spawned": started}

    def stop(pid, sig):
        try:
            os.kill(pid, sig)
        except ProcessLookupError:
            pass

    timers = []
    for pid in children:
        for delay, sig in ((OP_TIME_LIMIT_S, signal.SIGTERM),
                           (OP_TIME_LIMIT_S + KILL_GRACE_S, signal.SIGKILL)):
            timer = threading.Timer(delay, stop, (pid, sig))
            timer.daemon = True
            timer.start()
            timers.append(timer)
    pending = set(children)
    try:
        while pending:
            pid, status, usage = os.wait4(-1, 0)
            if pid not in pending:
                continue
            pending.discard(pid)
            record = children[pid]
            record["exited"] = clock()
            record["process"].returncode = os.waitstatus_to_exitcode(status)
            record["cpu"] = usage.ru_utime + usage.ru_stime
            record["rss_mb"] = usage.ru_maxrss / 1024.0
    finally:
        for timer in timers:
            timer.cancel()
        for pid in pending:  # only left when the wait loop itself failed
            stop(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    records = []
    for record in children.values():
        record.update(_read(record["out"]))
        records.append(record)
    return records


def _read(out):
    data = {}
    for part in ("ready", "result", "spans"):
        path = os.path.join(out, f"{part}.json")
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                data[part] = json.load(handle)
    return data


def _check(record, expected, outcome):
    name = record["name"]
    result = record.get("result")
    if result is None:
        reason = "timeout" if record["process"].returncode == -signal.SIGKILL else "crash"
        outcome.fail(reason, f"{name}: child exited {record['process'].returncode}")
        return
    if result["status"] != "ok":
        outcome.fail(result["status"], f"{name}: {result.get('detail', '')}")
        return
    design = OPS.get(name, TINY_OPS.get(name))[0]
    want = expected[design]
    for analysis in result["analyses"]:
        if analysis["covered"] != want["covered"]:
            outcome.fail("mismatch", f"{name}: covered={analysis['covered']}")
            return
        if not analysis["covered"]:
            if sorted(analysis["gaps"]) != sorted(want["gaps"]):
                outcome.fail("mismatch", f"{name}: gaps {analysis['gaps']}")
                return
            if not analysis["verified"]:
                outcome.fail("unverified", f"{name}: gap closure not verified")
                return


def _measure(records, expected, outcome):
    """Fold one pass's child records into ``outcome``; returns the pass wall."""
    starts, ends = [], []
    for record in records:
        outcome.attempted += 1
        ready = record.get("ready")
        start = ready["t"] if ready else record["spawned"]
        starts.append(start)
        ends.append(record["exited"])
        outcome.latencies.append(record["exited"] - start)
        outcome.cpu_s += record["cpu"] - (ready["cpu"] if ready else 0.0)
        outcome.peak_rss_mb = max(outcome.peak_rss_mb, record["rss_mb"])
        _check(record, expected, outcome)
    return max(ends) - min(starts)


def run(args):
    import tracing

    expected = load_expected("gaps.json")
    if args.plant_wrong:
        expected["mal_fig2"]["covered"] = not expected["mal_fig2"]["covered"]
    ops = list(TINY_OPS if args.tiny else OPS)
    if args.seed % 2:
        ops.reverse()
    outcome = Outcome()
    outcome.setup_s = setup_probe_seconds("gap_analysis", args.seed, 1 if args.tiny else SETUP_PROBES)
    with tempfile.TemporaryDirectory(prefix="gap-", dir=args.work_dir) as tmp:
        records = _run_pass(ops, False, tmp)
        outcome.wall_s = _measure(records, expected, outcome)
        if args.trace:
            traced = _run_pass(ops, True, tmp)
            traced_outcome = Outcome()
            traced_wall = _measure(traced, expected, traced_outcome)
            outcome.notes.append(f"traced wall {traced_wall:.2f} s, untraced {outcome.wall_s:.2f} s")
            processes = []
            for record in traced:
                spans = record.get("spans", {}).get("spans", [])
                ready = record.get("ready")
                start = ready["t"] if ready else record["spawned"]
                end = record.get("result", {}).get("t_end", record["exited"])
                processes.append((spans, start, end))
            outcome.per_layer = tracing.fold(
                processes, wall=traced_wall, untraced_wall=outcome.wall_s
            )
    return outcome


# -- child side ----------------------------------------------------------------


class _TimeLimit(Exception):
    pass


def _on_term(signum, frame):
    raise _TimeLimit()


def _child(op, out, trace):
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    signal.signal(signal.SIGTERM, _on_term)
    from repro.core import CoverageOptions, analyze_problem
    from repro.designs import get_design
    from repro.ltl.printer import to_str

    import tracing

    if trace:
        tracing.install()
    design, options_name = {**OPS, **TINY_OPS}[op]
    options = CoverageOptions(**BENCH_OPTIONS) if options_name == "bench" else CoverageOptions()
    problem = get_design(design).builder()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    _write(out, "ready", {"t": clock(), "cpu": usage.ru_utime + usage.ru_stime})
    result = {"status": "ok"}
    try:
        report = analyze_problem(problem, options)
        result["analyses"] = [
            {
                "covered": analysis.covered,
                "gaps": [to_str(formula) for formula in analysis.gap_formulas],
                "verified": analysis.gap_verified,
            }
            for analysis in report.analyses
        ]
    except MemoryError:
        result = {"status": "oom", "detail": f"MemoryError under a {ADDRESS_SPACE_CAP >> 20} MiB cap"}
    except _TimeLimit:
        result = {"status": "timeout", "detail": f"exceeded {OP_TIME_LIMIT_S:.0f} s"}
    except Exception as exc:  # noqa: BLE001 - reported as a failed operation
        result = {"status": "error", "detail": f"{type(exc).__name__}: {exc}"}
    result["t_end"] = clock()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if trace:
        tracing.dump(os.path.join(out, "spans.json"), tracing.RECORDER.spans)
    _write(out, "result", result)


def _write(out, name, payload):
    path = os.path.join(out, f"{name}.json")
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(path + ".tmp", path)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="one gap_analysis operation (child process)")
    parser.add_argument("--op", required=True, choices=sorted({**OPS, **TINY_OPS}))
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    options = parser.parse_args()
    _child(options.op, options.out, options.trace)
