"""In-memory span recording around the program's public layer functions.

The benchmark measures the program from outside: nothing inside ``repro`` is
edited.  Tracing works by replacing a public function with a timing wrapper
at every place it is bound -- the defining module *and* every already-loaded
``repro`` module that copied it with ``from x import y``.  Methods are
wrapped on their class.

A span is a list ``[name, start, end, parent, op, attrs]``: ``start``/``end``
are ``time.perf_counter()`` readings (CLOCK_MONOTONIC on Linux, so stamps
from different processes compare), ``parent`` the index of the enclosing
span in the same thread (``-1`` for a top-level span) and ``op`` the
operation id shared by every span of one operation.  Spans stay in memory
and are written out once, when the traced process ends its work.

:func:`fold` turns spans into the per-layer metrics named in
``BENCHMARK.json`` (self time = span duration minus its child spans).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import sys
import threading
import time

_clock = time.perf_counter


class Recorder:
    """Span store of one process (thread-safe append, thread-local nesting)."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._ops = itertools.count()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
            op = self.spans[parent][4]
        else:
            parent, op = -1, f"{os.getpid()}.{next(self._ops)}"
        record = [name, _clock(), None, parent, op, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return record

    def close(self, record):
        record[2] = _clock()
        self._stack().pop()

    def take(self, mark=0):
        """Remove and return the spans recorded since ``mark``.

        Parent indices are rebased so the returned list stands alone.
        """
        with self._lock:
            taken = self.spans[mark:]
            del self.spans[mark:]
        for record in taken:
            if record[3] >= 0:
                record[3] -= mark
        return taken


RECORDER = Recorder()


def _timed(name, fn, attrs=None):
    """``fn`` wrapped in a span; ``attrs(result)`` returns size attributes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = RECORDER.open(name)
        try:
            result = fn(*args, **kwargs)
            if attrs is not None:
                record[5] = attrs(result)
            return result
        finally:
            RECORDER.close(record)

    return wrapper


def _rebind(original, replacement):
    """Point every loaded ``repro`` module binding of ``original`` at ``replacement``."""
    count = 0
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    if not count:
        raise RuntimeError(f"no binding of {original!r} found to wrap")


def _wrap_function(module_name, attr, span_name, attrs=None):
    module = sys.modules[module_name]
    original = getattr(module, attr)
    _rebind(original, _timed(span_name, original, attrs))


def _wrap_method(cls, attr, span_name, attrs=None):
    setattr(cls, attr, _timed(span_name, cls.__dict__[attr], attrs))


def _gba_size(automaton):
    return {"states": automaton.state_count()}


def _product_size(product):
    return {"states": product.state_count(), "transitions": product.transition_count()}


def _kripke_size(kripke):
    return {"states": kripke.state_count()}


def _bdd_size(result):
    return {"bdd_peak_nodes": result.statistics.peak_nodes}


def _cache_hit(payload):
    return {"hit": payload is not None}


_INSTALLED = []


def install():
    """Wrap the public layer functions of ``repro`` (idempotent)."""
    if _INSTALLED:
        return
    import repro  # noqa: F401 - loads the package before rebinding
    import repro.bmc.engine
    import repro.core.coverage
    import repro.core.weaken
    import repro.designs.catalog
    import repro.designs.random
    import repro.engines.coverage
    import repro.engines.prop
    import repro.ltl.buchi
    import repro.ltl.sat
    import repro.ltl.tableau
    import repro.mc.modelcheck
    import repro.mc.product
    import repro.mc.symbolic
    import repro.problem.ir
    import repro.rtl.kripke
    import repro.runner.cache
    import repro.runner.suite
    import repro.sat.solver
    import repro.service.server

    # core: the steps of Algorithm 1, at their binding site in core.coverage.
    _wrap_function("repro.core.coverage", "coverage_hole", "core.tm_build")
    _wrap_function("repro.core.coverage", "primary_coverage_check", "core.primary")
    _wrap_function("repro.core.coverage", "uncovered_terms", "core.terms")
    _wrap_function("repro.core.coverage", "generate_candidates", "core.weaken")
    _wrap_function("repro.core.coverage", "select_weakest", "core.weaken")
    _wrap_method(repro.engines.coverage.CoverageEngine, "is_covered_with", "core.closure")
    # ltl
    _wrap_function("repro.ltl.sat", "implies", "ltl.implies")
    _wrap_function("repro.ltl.tableau", "ltl_to_gba", "ltl.to_gba", _gba_size)
    _wrap_method(repro.ltl.buchi.GeneralizedBuchi, "accepting_lasso", "ltl.emptiness")
    # mc / logic
    _wrap_function("repro.mc.product", "kripke_automata_product", "mc.product", _product_size)
    _wrap_function("repro.mc.symbolic", "find_run_symbolic", "mc.symbolic", _bdd_size)
    # rtl / problem
    _wrap_function("repro.rtl.kripke", "kripke_from_module", "rtl.kripke", _kripke_size)
    _wrap_function("repro.problem.ir", "compile_problem", "problem.compile")
    # engines
    _wrap_method(repro.engines.coverage.CoverageEngine, "find_run", "engines.find_run")
    for method in ("is_sat", "is_tautology", "equivalent", "model"):
        _wrap_method(repro.engines.prop.AutoBackend, method, "engines.prop")
    # bmc / sat
    _wrap_function("repro.bmc.engine", "find_run_bmc", "bmc.find_run")
    _wrap_method(repro.sat.solver.SatSolver, "solve", "sat.solve")
    # runner
    _wrap_function("repro.runner.suite", "execute_shard", "runner.shard")
    _wrap_method(repro.runner.cache.ResultCache, "get", "runner.cache.get", _cache_hit)
    _wrap_method(repro.runner.cache.ResultCache, "put", "runner.cache.put")
    # service (the handler class is the daemon's only request entry point)
    server = repro.service.server
    _wrap_method(server._Handler, "do_POST", "service.request")
    _wrap_function("repro.service.server", "validate_request", "service.validate")
    _wrap_function("repro.service.server", "execute_job", "service.execute")
    _wrap_slot_wait(server.CoverageService)
    # designs: the catalog builders (bound in the frozen entries) and the
    # random-design builder.
    catalog = repro.designs.catalog.CATALOG
    for name, entry in list(catalog.items()):
        catalog[name] = dataclasses.replace(
            entry, builder=_timed("designs.build", entry.builder)
        )
    _wrap_function("repro.designs.random", "random_problem", "designs.build")
    _INSTALLED.append(True)


def _wrap_slot_wait(service_cls):
    """Time only the acquisition of a daemon worker slot."""
    original = service_cls.worker_slot

    def worker_slot(self):
        slot = original(self)

        class _TimedSlot:
            def __enter__(self_inner):
                record = RECORDER.open("service.slot_wait")
                try:
                    slot.__enter__()
                finally:
                    RECORDER.close(record)
                return slot

            def __exit__(self_inner, *exc):
                return slot.__exit__(*exc)

        return _TimedSlot()

    service_cls.worker_slot = worker_slot


# -- shipping spans between processes -----------------------------------------


def dump(path, spans):
    """Write spans as one JSON document."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"spans": spans}, handle)


def install_shard_shipping():
    """Attach each suite shard's spans to its result (pickled back to the parent).

    Must run after :func:`install` and before the process pool forks.
    """
    import repro.runner.suite as suite

    traced = suite.execute_shard

    def execute_shard(job, timeout=None):
        mark = len(RECORDER.spans)
        result = traced(job, timeout)
        result.perfbench_spans = RECORDER.take(mark)
        result.perfbench_pid = os.getpid()
        return result

    suite.execute_shard = execute_shard


# -- folding spans into per-layer metrics --------------------------------------

#: Spans reported as per-layer ``<name>.calls`` / ``<name>.s`` metrics.
LAYER_SPANS = (
    "core.tm_build", "core.primary", "core.terms", "core.weaken",
    "ltl.implies", "ltl.to_gba", "ltl.emptiness",
    "mc.product", "mc.symbolic",
    "rtl.kripke", "problem.compile",
    "engines.find_run", "engines.prop",
    "bmc.find_run", "sat.solve",
    "runner.shard", "runner.cache.get", "runner.cache.put",
    "service.request", "service.validate", "service.execute", "service.slot_wait",
    "designs.build",
)


def _union_length(intervals):
    total, current_start, current_end = 0.0, None, None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def fold(processes, *, wall, untraced_wall, workers=1):
    """Per-layer metrics from the spans of every process doing the work.

    ``processes`` is a list of ``(spans, window_start, window_end)``; only
    spans that start inside the window (the timed phase) count.  ``wall`` and
    ``untraced_wall`` are the traced and untraced timed-phase walls.
    """
    calls, self_time = {}, {}
    gba_states = kripke_states = product_states_sum = product_transitions = 0
    product_states_max = bdd_peak = 0
    closure_checks = cache_hits = 0
    unaccounted = 0.0
    for spans, window_start, window_end in processes:
        child_time = [0.0] * len(spans)
        kept = []
        for index, (name, start, end, parent, _op, attrs) in enumerate(spans):
            if end is None:  # the process died inside this span
                end = window_end
                spans[index][2] = end
            if start < window_start or start > window_end:
                continue
            kept.append(index)
            if parent >= 0:
                child_time[parent] += end - start
        top_level = []
        for index in kept:
            name, start, end, parent, _op, attrs = spans[index]
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[index]
            if parent < 0:
                top_level.append((start, min(end, window_end)))
            attrs = attrs or {}
            if name == "ltl.to_gba":
                gba_states += attrs.get("states", 0)
            elif name == "rtl.kripke":
                kripke_states += attrs.get("states", 0)
            elif name == "mc.product":
                states = attrs.get("states", 0)
                product_states_sum += states
                product_states_max = max(product_states_max, states)
                product_transitions += attrs.get("transitions", 0)
            elif name == "mc.symbolic":
                bdd_peak = max(bdd_peak, attrs.get("bdd_peak_nodes", 0))
            elif name == "core.closure":
                closure_checks += 1
            elif name == "runner.cache.get" and attrs.get("hit"):
                cache_hits += 1
        unaccounted += (window_end - window_start) - _union_length(top_level)

    metrics = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.s"] = self_time.get(name, 0.0)
    lookups = calls.get("runner.cache.get", 0)
    busy = sum(
        end - start
        for spans, _ws, _we in processes
        for name, start, end, *_rest in spans
        if name == "runner.shard"
    )
    metrics.update(
        {
            "core.closure_checks": closure_checks,
            "ltl.gba_states.sum": gba_states,
            "mc.product_states.max": product_states_max,
            "mc.product_states.sum": product_states_sum,
            "mc.product_transitions.sum": product_transitions,
            "logic.bdd_peak_nodes.max": bdd_peak,
            "rtl.kripke_states.sum": kripke_states,
            "runner.cache.hit_ratio": cache_hits / lookups if lookups else 0.0,
            "runner.worker_busy_share": busy / (workers * wall) if wall > 0 else 0.0,
            "unaccounted.s": unaccounted,
            "trace_overhead_share": wall / untraced_wall - 1.0 if untraced_wall > 0 else 0.0,
        }
    )
    return metrics
