"""Workload ``service_warm``: a warm ``specmatcher serve`` daemon under load.

Set-up boots a fresh daemon with its own cache directory (three boots, the
median counts) and prefills its cache with one sequential pass over the
request mix.
The timed phase is a closed loop from two client threads (one connection
each at a time, the machine's core count) against a daemon with one worker
slot: they send the mix in a seeded shuffled order until ``--seconds`` have
passed and at least 1000 requests have completed.  The daemon and the load
generator are pinned to one CPU each.

Throughput on a shared machine drifts by up to ~20% for stretches of ~10 s,
so ``ops_per_s`` is the median over 2-second windows of the timed phase and
``req_p50_ms``/``req_p99_ms`` are medians over 5-second windows (each window
holds >1000 requests, so its p99 has >10 samples beyond it).  The mix is ``check`` on every (catalog design, conjunct)
with the explicit engine plus ``analyze mal_fig2``; every answer is checked
against ``expected/verdicts.json``.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import tempfile
import threading

from common import (
    BENCH_DIR,
    Outcome,
    child_env,
    clock,
    load_expected,
    median,
    percentile,
    pin,
    proc_cpu_seconds,
    proc_peak_rss_mb,
)

CLIENT_THREADS = 2
#: Jobs hold the interpreter lock, so two executing at once only interleave
#: on one core; with one slot the second request waits for it (measured as
#: ``service.slot_wait``) instead of trading the lock every few ms, which
#: made throughput and p99 swing by 15-40% between runs.
DAEMON_WORKERS = 1
MIN_REQUESTS = 1000
#: Daemons booted per session (the median boot counts); the last one is
#: prefilled and measured.
BOOTS = 3
REQUEST_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
THROUGHPUT_WINDOW_S = 2.0
LATENCY_WINDOW_S = 5.0


def mix(expected, tiny=False):
    """The request mix: ``(kind, body)`` pairs."""
    requests = []
    for key in sorted(expected):
        design, kind, target = key.split("/")
        if kind != "primary" or (tiny and design != "mal_fig2"):
            continue
        requests.append(("check", {"design": design, "index": int(target), "engine": "explicit"}))
    requests.append(("analyze", {"design": "mal_fig2", "engine": "explicit"}))
    return requests


class Daemon:
    """One ``specmatcher serve`` child process on an ephemeral port."""

    def __init__(self, work_dir, trace):
        self.dir = tempfile.mkdtemp(prefix="service-", dir=work_dir)
        self.spans_path = os.path.join(self.dir, "spans.json")
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--quota-rate", "0",
            "--workers", str(DAEMON_WORKERS),
            "--cache-dir", os.path.join(self.dir, "cache"),
        ]
        env = child_env()
        if trace:
            command += ["--preload", str(BENCH_DIR / "preload.py")]
            env["PERFBENCH_SPANS_OUT"] = self.spans_path
        self.log = open(os.path.join(self.dir, "stderr.log"), "w", encoding="utf-8")
        start = clock()
        self.process = subprocess.Popen(
            command, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=self.log, text=True,
        )
        pin(self.process.pid, 0)
        line = self.process.stdout.readline()
        self.boot_s = clock() - start
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self):
        """SIGTERM (graceful drain), then SIGKILL after a grace period."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


def _drive(port, requests, expected, outcome, *, until, completions=None,
           threads=CLIENT_THREADS):
    """Send ``requests`` from the client threads.

    ``until(count, elapsed)`` says when to stop taking new requests;
    ``completions`` collects ``(done, latency, ok)`` per request.
    """
    from repro.service.client import ServiceClient, ServiceError, ServiceUnavailable

    lock = threading.Lock()
    position = [0]
    start = clock()

    def worker():
        client = ServiceClient(port=port, timeout=REQUEST_TIMEOUT_S)
        while True:
            with lock:
                index = position[0]
                if not until(index, clock() - start):
                    return
                position[0] += 1
            kind, body = requests(index)
            sent = clock()
            try:
                payload = client.submit(kind, body)
                reason = _verify(kind, body, payload, expected)
            except ServiceError as exc:
                reason = f"http_{exc.status}"
            except ServiceUnavailable as exc:
                reason = f"unavailable ({exc})"
            done = clock()
            latency = done - sent
            with lock:
                outcome.attempted += 1
                outcome.latencies.append(latency)
                if completions is not None:
                    completions.append((done, latency, not reason))
                if reason:
                    outcome.fail(reason.split(" ")[0], f"{kind} {body}: {reason}")

    workers = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()


def _verify(kind, body, payload, expected):
    if kind == "check":
        want = expected[f"{body['design']}/primary/{body['index']}"]
        got = payload["verdict"]["covered"]
    else:
        want, got = expected["mal_fig2/primary/0"], payload["covered"]
    return "" if got == want else f"mismatch (covered={got}, expected {want})"


def _windows(completions, start, end, width):
    """``completions`` split into the full ``width``-second windows of [start, end]."""
    count = max(1, int((end - start) // width))
    width = min(width, end - start)
    windows = [[] for _ in range(count)]
    for completion in sorted(completions):
        index = int((completion[0] - start) // width)
        if index < count:
            windows[index].append(completion)
    return [window for window in windows if len(window) > 1]


def _windowed(completions, start, end):
    """Median per-window throughput and latency percentiles."""
    rates = []
    for window in _windows(completions, start, end, THROUGHPUT_WINDOW_S):
        # Successful completions per second between the window's first and
        # last completion.
        ok = sum(1 for _done, _latency, success in window[1:] if success)
        rates.append(ok / (window[-1][0] - window[0][0]))
    latency_windows = _windows(completions, start, end, LATENCY_WINDOW_S)
    p50 = median([percentile([c[1] for c in w], 0.50) for w in latency_windows])
    p99 = median([percentile([c[1] for c in w], 0.99) for w in latency_windows])
    return {"ops_per_s": median(rates), "req_p50_ms": 1000.0 * p50, "req_p99_ms": 1000.0 * p99}


def _session(args, expected, requests, trace):
    """Boot, prefill and load one daemon; returns (outcome, timed window, spans)."""
    import json

    outcome = Outcome()
    boots = []
    daemon = None
    try:
        for boot in range(BOOTS):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(args.work_dir, trace and boot == BOOTS - 1)
            boots.append(daemon.boot_s)
        prefill = Outcome()
        prefill_start = clock()
        _drive(daemon.port, lambda i: requests[i], expected, prefill,
               until=lambda count, _elapsed: count < len(requests), threads=1)
        outcome.setup_s = median(boots) + (clock() - prefill_start)
        if prefill.failed:
            outcome.notes.append(f"prefill failures: {prefill.reasons}")

        rng = random.Random(args.seed)
        order = []

        def shuffled(index):
            while index >= len(order):
                block = list(requests)
                rng.shuffle(block)
                order.extend(block)
            return order[index]

        seconds = 1.0 if args.tiny else args.seconds
        minimum = 20 if args.tiny else MIN_REQUESTS
        completions = []
        cpu_before = proc_cpu_seconds(daemon.process.pid)
        start = clock()
        _drive(daemon.port, shuffled, expected, outcome,
               until=lambda count, elapsed: count < minimum or elapsed < seconds,
               completions=completions)
        end = clock()
        outcome.overrides = _windowed(completions, start, end)
        outcome.wall_s = end - start
        outcome.cpu_s = proc_cpu_seconds(daemon.process.pid) - cpu_before
        outcome.peak_rss_mb = proc_peak_rss_mb(daemon.process.pid)
    finally:
        if daemon is not None:
            daemon.stop()
    spans = []
    if trace:
        with open(daemon.spans_path, "r", encoding="utf-8") as handle:
            spans = json.load(handle)["spans"]
    return outcome, (start, end), spans


def run(args):
    import tracing

    pin(0, 1)
    expected = load_expected("verdicts.json")["verdicts"]
    requests = mix(expected, args.tiny)
    if args.plant_wrong:
        expected["mal_fig2/primary/0"] = not expected["mal_fig2/primary/0"]
    outcome, _window, _spans = _session(args, expected, requests, False)
    if args.trace:
        traced, (start, end), spans = _session(args, expected, requests, True)
        # Runs send as many requests as fit their time, so compare per request.
        per_request_untraced = outcome.wall_s / outcome.attempted
        outcome.per_layer = tracing.fold(
            [(spans, start, end)],
            wall=traced.wall_s,
            untraced_wall=per_request_untraced * traced.attempted,
        )
    return outcome
