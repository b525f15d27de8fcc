"""Tests for the explicit-state model checker."""

import pytest
from oracles.emptiness import is_empty as tarjan_is_empty
from oracles.product import kripke_product

from repro.ltl import evaluate, parse
from repro.mc import ProductStatistics, check, find_run, kripke_automata_product, build_kripke
from repro.ltl.monitor import monitor_or_tableau
from repro.rtl import kripke_from_module
from repro.designs import build_cache_logic, build_simple_latch


@pytest.fixture()
def latch():
    return build_simple_latch()


class TestCheck:
    def test_latch_invariant_holds(self, latch):
        # c is high exactly when a & b held in the previous cycle.
        result = check(latch, parse("G(a & b -> X c)"))
        assert result.holds
        assert result.counterexample is None

    def test_latch_violation_found_with_counterexample(self, latch):
        result = check(latch, parse("G(!c)"))
        assert not result.holds
        assert result.counterexample is not None
        # The counterexample must really violate the property...
        assert not evaluate(parse("G(!c)"), result.counterexample)
        # ... and respect the register semantics along the way.
        trace = result.counterexample
        for cycle in range(len(trace)):
            assert trace.value("c", cycle + 1) == (trace.value("a", cycle) and trace.value("b", cycle))

    def test_check_with_assumptions(self, latch):
        # Without assumptions c can stay low forever; with a fairness
        # assumption on the inputs it must eventually rise.
        assert not check(latch, parse("F c")).holds
        assert check(latch, parse("F c"), assumptions=[parse("G(a & b)")]).holds

    def test_initial_value_property(self, latch):
        assert check(latch, parse("!c")).holds
        assert not check(latch, parse("c")).holds

    def test_statistics_populated(self, latch):
        result = check(latch, parse("G(a & b -> X c)"))
        assert result.statistics.kripke_states == 8
        assert result.statistics.product_states > 0
        assert result.elapsed_seconds >= 0


class TestFindRun:
    def test_existential_query_positive(self, latch):
        result = find_run(latch, [parse("F c"), parse("G(a -> b)")])
        assert result.satisfiable
        assert result.witness is not None
        assert evaluate(parse("F c"), result.witness)
        assert evaluate(parse("G(a -> b)"), result.witness)

    def test_existential_query_negative(self, latch):
        # c can never rise while a is globally false.
        result = find_run(latch, [parse("F c"), parse("G !a")])
        assert not result.satisfiable
        assert result.witness is None

    def test_extra_free_signals_from_properties(self, latch):
        # 'req' is not a latch signal; it becomes a free environment signal.
        result = find_run(latch, [parse("G(req -> X c)"), parse("F req")])
        assert result.satisfiable

    def test_cache_logic_no_done_without_grant(self):
        cache = build_cache_logic()
        result = find_run(cache, [parse("F d1"), parse("G !g1")])
        assert not result.satisfiable

    def test_cache_logic_wait_until_hit(self):
        cache = build_cache_logic()
        # A granted lookup that misses keeps wait high until a hit arrives.
        assert check(cache, parse("G(g1 & !hit -> X wait)")).holds
        assert check(cache, parse("G(d1 -> hit)")).holds
        assert check(cache, parse("G(d1 -> !d2 | hit)")).holds


class TestProduct:
    def test_product_respects_labels(self, latch):
        kripke = kripke_from_module(latch)
        automaton = monitor_or_tableau(parse("G(!c)"))
        statistics = ProductStatistics()
        search = kripke_automata_product(kripke, [automaton], statistics=statistics)
        # Runs staying in !c states exist (keep a or b low forever).
        assert not search.is_empty()
        assert statistics.product_states == search.state_count()
        assert statistics.product_transitions == search.transition_count()
        assert statistics.product_states <= statistics.kripke_states * automaton.state_count()
        for state in search.lasso.states():
            assert not kripke.value(state[0], "c")

    def test_product_with_contradictory_automata_is_empty(self, latch):
        kripke = kripke_from_module(latch)
        automata = [monitor_or_tableau(parse("G c")), monitor_or_tableau(parse("G !c"))]
        search = kripke_automata_product(kripke, automata)
        assert search.is_empty()

    def test_empty_search_explores_the_reachable_product(self, latch):
        kripke = kripke_from_module(latch)
        automata = [monitor_or_tableau(parse("G(a -> X !a)")), monitor_or_tableau(parse("F G a"))]
        search = kripke_automata_product(kripke, automata)
        oracle = kripke_product(kripke, automata)
        assert search.is_empty() and tarjan_is_empty(oracle)
        assert search.state_count() == oracle.state_count()
        assert search.transition_count() == oracle.transition_count()

    def test_build_kripke_passthrough(self, latch):
        kripke = kripke_from_module(latch)
        assert build_kripke(kripke) is kripke

    def test_lasso_states_map_back_to_kripke(self, latch):
        kripke = kripke_from_module(latch)
        automaton = monitor_or_tableau(parse("G(a | !a)"))
        search = kripke_automata_product(kripke, [automaton])
        for state in search.lasso.states():
            assert 0 <= state[0] < kripke.state_count()
            assert state[1] in automaton.labels
