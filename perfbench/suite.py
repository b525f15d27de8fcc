"""Workload ``suite_cold``: the sharded coverage suite on an empty cache.

``run_suite`` with two pool workers and a fresh cache directory, so every
cache lookup misses and is followed by a write.  The shards are the catalog
plus 8 random designs generated from the seed:

* the explicit and bmc engines on every design: primary and signal shards
  of the catalog, primary shards of the random designs (their ~100 tiny
  signal shards moved the median shard latency by 2x between seeds);
* the symbolic engine on ``mal_fig2``, ``mal_fig4`` and ``paper_example``.
  ``amba_ahb``/``mal_table1`` are left out of it only because it takes
  minutes per design there.  The random designs are left out of it because
  its cost on them swings with the generator seed (6-28 s of shard time
  over seeds 11-15), which would spread ``wall_s`` across seeds by ~25%.

Catalog verdicts are checked against ``expected/verdicts.json``; every
shard key decided by more than one complete engine must get one verdict.
"""

from __future__ import annotations

import resource
import tempfile

from common import Outcome, clock, load_expected, setup_probe_seconds

WORKERS = 2
RANDOM_DESIGNS = 8
SYMBOLIC_DESIGNS = ["mal_fig2", "mal_fig4", "paper_example"]
SHARD_TIMEOUT_S = 60.0
#: The self-check's design (its explicit/bmc/symbolic shards take seconds).
TINY_DESIGN = "mal_fig4"
SETUP_PROBES = 5


def setup(seed, tiny=False):
    """The workload's set-up: imports, design builds and job expansion."""
    from repro.runner import expand_jobs

    if tiny:
        return [
            job
            for engine in ("explicit", "bmc")
            for job in expand_jobs([TINY_DESIGN], engine=engine)
        ] + expand_jobs([TINY_DESIGN], engine="symbolic", include_signals=False)
    jobs = []
    for engine in ("explicit", "bmc"):
        jobs += expand_jobs(None, engine=engine)
        jobs += expand_jobs(
            [], engine=engine, include_signals=False,
            random_count=RANDOM_DESIGNS, random_seed=seed,
        )
    jobs += expand_jobs(SYMBOLIC_DESIGNS, engine="symbolic")
    return jobs


def _usage():
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (self_usage.ru_utime + self_usage.ru_stime
           + children.ru_utime + children.ru_stime)
    return cpu, max(self_usage.ru_maxrss, children.ru_maxrss) / 1024.0


def _timed_pass(jobs, work_dir):
    from repro.runner import run_suite

    cache_dir = tempfile.mkdtemp(prefix="suite-cache-", dir=work_dir)
    cpu_before, _ = _usage()
    start = clock()
    result = run_suite(
        jobs, workers=WORKERS, cache_dir=cache_dir, shard_timeout=SHARD_TIMEOUT_S
    )
    end = clock()
    cpu_after, peak = _usage()
    return result, start, end, cpu_after - cpu_before, peak


def _check(result, expected, outcome):
    complete = {}
    for shard in result.shards:
        outcome.attempted += 1
        outcome.latencies.append(shard.elapsed_seconds)
        job = shard.job
        if not shard.ok:
            outcome.fail(shard.status, f"{job.engine} {job.job_id}: {shard.detail}")
            continue
        if not shard.complete:
            continue
        if job.random_spec is None:
            want = expected.get(job.job_id)
            if want is None or shard.verdict != want:
                outcome.fail("mismatch", f"{job.engine} {job.job_id}: {shard.verdict} != {want}")
                continue
        complete.setdefault(job.job_id, []).append(shard)
    for job_id, shards in complete.items():
        pivot = shards[0].verdict
        for shard in shards[1:]:
            if shard.verdict != pivot:
                outcome.fail(
                    "disagree",
                    f"{job_id}: {shards[0].job.engine}={pivot} {shard.job.engine}={shard.verdict}",
                )


def _spans_by_worker(result):
    """Per worker: its shards' spans concatenated (parent indices offset)."""
    workers = {}
    for shard in result.shards:
        spans = getattr(shard, "perfbench_spans", [])
        merged = workers.setdefault(shard.perfbench_pid, [])
        offset = len(merged)
        for name, start, end, parent, op, attrs in spans:
            merged.append([name, start, end, parent + offset if parent >= 0 else -1, op, attrs])
    return list(workers.values())


def run(args):
    import tracing

    expected = load_expected("verdicts.json")["verdicts"]
    if args.plant_wrong:
        key = f"{TINY_DESIGN}/primary/0"
        expected[key] = not expected[key]
    outcome = Outcome()
    outcome.setup_s = setup_probe_seconds("suite_cold", args.seed, 1 if args.tiny else SETUP_PROBES)
    jobs = setup(args.seed, args.tiny)
    result, start, end, cpu, peak = _timed_pass(jobs, args.work_dir)
    outcome.wall_s = end - start
    outcome.cpu_s = cpu
    outcome.peak_rss_mb = peak
    _check(result, expected, outcome)
    outcome.notes.append(f"{len(result.shards)} shards, cache hit ratio {result.cache_hit_ratio:.3f}")
    if args.trace:
        tracing.install()
        tracing.install_shard_shipping()
        traced, start, end, _cpu, _peak = _timed_pass(jobs, args.work_dir)
        processes = [(spans, start, end) for spans in _spans_by_worker(traced)]
        outcome.notes.append(f"traced wall {end - start:.2f} s, untraced {outcome.wall_s:.2f} s")
        outcome.per_layer = tracing.fold(
            processes, wall=end - start, untraced_wall=outcome.wall_s, workers=WORKERS
        )
    return outcome
