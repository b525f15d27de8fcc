"""The ``auto`` engine's fixed rule: its three paths, the two constants that
steer it, caching, completeness, and differential agreement with the
explicit engine."""

import pytest

from repro.core import CoverageOptions, analyze_problem
from repro.designs import build_simple_latch, design_names, get_design, random_design_entries
from repro.engines import AutoEngine, get_engine
from repro.engines import auto as auto_module
from repro.engines.auto import SHALLOW_BOUND, SMALL_AUTOMATON_STATES
from repro.logic.boolexpr import var
from repro.ltl import parse
from repro.ltl.printer import to_str
from repro.ltl.traces import evaluate
from repro.obs import Metrics, set_metrics
from repro.rtl.netlist import Module
from repro.runner.cache import ResultCache, using_result_cache


def _runs(query):
    """Run ``query()`` under a fresh metrics registry; return (result, runs)."""
    registry = Metrics()
    previous = set_metrics(registry)
    try:
        result = query()
    finally:
        set_metrics(previous)
    counters = registry.snapshot()["counters"]
    return result, {
        name: counters.get(f"engine.{name}.runs", 0) for name in ("bmc", "explicit")
    }


class TestRule:
    def test_registered_with_alias(self):
        assert isinstance(get_engine("auto"), AutoEngine)
        assert isinstance(get_engine("learned"), AutoEngine)

    def test_shallow_bmc_witness_is_returned(self):
        engine = AutoEngine()
        formulas = [parse("F c")]
        assert engine.compile(build_simple_latch(), formulas).features()[
            "automaton_states"
        ] <= SMALL_AUTOMATON_STATES
        result, runs = _runs(lambda: engine.find_run(build_simple_latch(), formulas))
        assert result.satisfiable
        assert result.winner == "bmc"
        assert result.complete is True
        assert result.bound <= SHALLOW_BOUND
        assert runs == {"bmc": 1, "explicit": 0}

    def test_bounded_bmc_falls_back_to_explicit(self):
        engine = AutoEngine()
        # c only rises after a & b, so "eventually c" with a never high has
        # no run at all: bmc stays bounded and explicit proves it.
        result, runs = _runs(
            lambda: engine.find_run(build_simple_latch(), [parse("F c"), parse("G !a")])
        )
        assert not result.satisfiable
        assert result.winner == "explicit"
        assert result.complete is True
        assert runs == {"bmc": 1, "explicit": 1}

    def test_large_automata_go_straight_to_explicit(self):
        problem = get_design("mal_fig4").builder()
        engine = AutoEngine()
        verdict, runs = _runs(lambda: engine.check_primary(problem))
        assert verdict.features["automaton_states"] > SMALL_AUTOMATON_STATES
        assert verdict.winner == "explicit"
        assert verdict.covered is False
        assert runs == {"bmc": 0, "explicit": 1}

    def test_shallow_step_never_exceeds_the_configured_bound(self):
        # The shortest "F c" witness needs bound 1; at bound 0 the shallow
        # step must come back empty and leave the query to explicit.
        result = AutoEngine(max_bound=0).find_run(build_simple_latch(), [parse("F c")])
        assert result.satisfiable
        assert result.winner == "explicit"


def _shift_chain(length):
    """``a`` shifted through ``length`` registers: the shortest run with
    ``F r<length>`` has to unroll exactly ``length`` steps."""
    module = Module(f"chain{length}")
    module.add_input("a")
    previous = "a"
    for index in range(1, length + 1):
        module.add_register(f"r{index}", var(previous), init=False)
        previous = f"r{index}"
    return module


def _reach_end(length):
    return [parse(f"F r{length}")]


class TestShallowDepth:
    @pytest.mark.parametrize("length", range(1, SHALLOW_BOUND + 3))
    def test_witness_depth_decides_the_answering_engine(self, length):
        formulas = _reach_end(length)
        engine = AutoEngine()
        assert engine.compile(_shift_chain(length), formulas).features()[
            "automaton_states"
        ] <= SMALL_AUTOMATON_STATES
        result, runs = _runs(lambda: engine.find_run(_shift_chain(length), formulas))
        assert result.satisfiable
        assert result.complete is True
        assert evaluate(formulas[0], result.witness)
        if length <= SHALLOW_BOUND:
            assert result.winner == "bmc"
            assert runs == {"bmc": 1, "explicit": 0}
        else:
            assert result.winner == "explicit"
            assert runs == {"bmc": 1, "explicit": 1}

    @pytest.mark.parametrize("max_bound", [1, 2, 3, 5, 12])
    def test_shallow_step_searches_to_the_smaller_of_bound_and_constant(self, max_bound):
        length = 3
        result = AutoEngine(max_bound=max_bound).find_run(
            _shift_chain(length), _reach_end(length)
        )
        assert result.satisfiable
        expected = "bmc" if min(max_bound, SHALLOW_BOUND) >= length else "explicit"
        assert result.winner == expected


class TestThreshold:
    @pytest.mark.parametrize("offset, tries_bmc", [(0, True), (-1, False)])
    def test_threshold_is_inclusive(self, monkeypatch, offset, tries_bmc):
        formulas = [parse("F c")]
        states = AutoEngine().compile(build_simple_latch(), formulas).features()[
            "automaton_states"
        ]
        monkeypatch.setattr(auto_module, "SMALL_AUTOMATON_STATES", states + offset)
        result, runs = _runs(lambda: AutoEngine().find_run(build_simple_latch(), formulas))
        assert result.satisfiable
        assert result.winner == ("bmc" if tries_bmc else "explicit")
        assert runs == {"bmc": int(tries_bmc), "explicit": int(not tries_bmc)}


class TestCaching:
    def test_warm_replay_is_complete_and_runs_no_engine(self):
        problem = get_design("mal_fig2").builder()
        cache = ResultCache()
        with using_result_cache(cache):
            cold, cold_runs = _runs(lambda: AutoEngine().check_primary(problem))
            warm, warm_runs = _runs(lambda: AutoEngine().check_primary(problem))
        assert sum(cold_runs.values()) >= 1
        assert warm_runs == {"bmc": 0, "explicit": 0}
        assert cache.stats.hits >= 1
        assert (warm.covered, warm.winner) == (cold.covered, cold.winner)
        assert warm.complete is True

    @pytest.mark.parametrize("other_bound, shared", [(6, True), (SHALLOW_BOUND, True), (2, False)])
    def test_cache_key_follows_the_shallow_bound(self, other_bound, shared):
        """Two auto engines answer alike exactly when their shallow steps
        search equally deep, so only then may they share cache entries."""
        formulas = _reach_end(2)
        cache = ResultCache()
        with using_result_cache(cache):
            AutoEngine(max_bound=12).find_run(_shift_chain(2), formulas)
            hits = cache.stats.hits
            AutoEngine(max_bound=other_bound).find_run(_shift_chain(2), formulas)
        assert (cache.stats.hits > hits) == shared

    def test_key_does_not_collide_with_its_members(self):
        formulas = _reach_end(2)
        cache = ResultCache()
        with using_result_cache(cache):
            get_engine("bmc", max_bound=SHALLOW_BOUND).find_run(_shift_chain(2), formulas)
            get_engine("explicit").find_run(_shift_chain(2), formulas)
            stores = cache.stats.stores
            result = AutoEngine().find_run(_shift_chain(2), formulas)
        # The member query replays, but auto still stores its own answer
        # (with its winner), never a member's bare result.
        assert cache.stats.stores == stores + 1
        assert result.winner == "bmc"


class TestAlgorithm1:
    @pytest.mark.parametrize("design", ["mal_fig2", "mal_fig4"])
    def test_gap_analysis_matches_explicit(self, design):
        def analyze(engine):
            options = CoverageOptions(
                engine=engine,
                max_witnesses=1,
                unfold_depth=3,
                max_closure_checks=2,
                max_reported_gaps=1,
                verify_closure=False,
                use_cache=False,
            )
            report = analyze_problem(get_design(design).builder(), options)
            return [
                (analysis.covered, analysis.complete, [to_str(formula) for formula in analysis.gap_formulas])
                for analysis in report.analyses
            ]

        assert analyze("auto") == analyze("explicit")


def _catalog_and_random_builders():
    """Every catalog design plus the designs ``register_random_designs(16, 11)``
    would add (built from their entries, so the global catalog is untouched)."""
    entries = [get_design(name) for name in design_names()]
    entries += random_design_entries(16, 11)
    return [pytest.param(entry.builder, id=entry.name) for entry in entries]


class TestDifferential:
    @pytest.mark.parametrize("builder", _catalog_and_random_builders())
    def test_auto_matches_explicit_and_is_complete(self, builder):
        problem = builder()
        for index, target in enumerate(problem.architectural):
            expected = get_engine("explicit").check_primary(problem, architectural=target)
            actual = AutoEngine().check_primary(problem, architectural=target)
            assert actual.covered == expected.covered, index
            assert actual.complete is True, index
