"""Tests for the lazy automata product and the co-safety monitors."""

import pytest
from oracles import emptiness
from oracles.product import check_lasso, gba_product, labels_consistent

from repro.ltl import evaluate, is_satisfiable, lasso_to_trace, ltl_to_gba, parse
from repro.ltl.ast import atoms_of
from repro.ltl.monitor import cosafety_monitor_gba, monitor_or_tableau
from repro.ltl.sat import conjunction_search


def _agrees_with_oracle(automata):
    """The lazy product's verdict equals the oracle's; its lasso replays there."""
    search = conjunction_search(automata)
    oracle = gba_product(automata)
    assert search.is_empty() == emptiness.is_empty(oracle)
    if search.lasso is not None:
        check_lasso(oracle, search.lasso)
    return search


class TestOracleLabels:
    def test_labels_consistent(self):
        assert labels_consistent([frozenset({("a", True)}), frozenset({("b", False)})])
        assert not labels_consistent([frozenset({("a", True)}), frozenset({("a", False)})])
        assert labels_consistent([])


class TestConjunctionSearch:
    @pytest.mark.parametrize(
        "left,right,expected_sat",
        [
            ("G F p", "G F !p", True),
            ("G p", "F !p", False),
            ("p U q", "G !q", False),
            ("G(a -> X b)", "G(b -> X a)", True),
            ("F p", "G(p -> q)", True),
        ],
    )
    def test_product_language_is_intersection(self, left, right, expected_sat):
        search = _agrees_with_oracle([ltl_to_gba(parse(left)), ltl_to_gba(parse(right))])
        assert (not search.is_empty()) == expected_sat
        assert expected_sat == is_satisfiable(parse(f"({left}) & ({right})"))

    def test_empty_product_accepts_everything(self):
        search = _agrees_with_oracle([])
        assert search.lasso.loop == ((),)

    def test_single_component(self):
        automaton = ltl_to_gba(parse("G p"))
        search = _agrees_with_oracle([automaton])
        assert search.is_empty() == automaton.is_empty()

    def test_monitor_components_witness(self):
        formulas = [parse("G(a -> X b)"), parse("F a"), parse("G F !b")]
        search = _agrees_with_oracle([monitor_or_tableau(f) for f in formulas])
        assert not search.is_empty()

    def test_every_component_acceptance_is_honoured(self):
        # Both liveness obligations must be met on the loop.
        automata = [ltl_to_gba(parse("G F p")), ltl_to_gba(parse("G F q"))]
        search = _agrees_with_oracle(automata)
        assert not search.is_empty()
        loop_labels = [
            automata[0].labels[a] | automata[1].labels[b] for a, b in search.lasso.loop
        ]
        assert any(("p", True) in label for label in loop_labels)
        assert any(("q", True) in label for label in loop_labels)

    def test_explored_counts(self):
        search = conjunction_search([ltl_to_gba(parse("G p")), ltl_to_gba(parse("F !p"))])
        assert search.is_empty()
        assert search.state_count() >= 1
        assert search.transition_count() >= search.state_count() - 1


class TestCosafetyMonitor:
    def test_eventually_violation_monitor(self):
        # F(r1 & X !n1): the negation of G(r1 -> X n1).
        body = parse("r1 & X !n1")
        monitor = cosafety_monitor_gba(body)
        assert not monitor.is_empty()
        assert monitor.acceptance  # visiting the sink is required

    def test_dispatch_of_negated_invariant(self):
        automaton = monitor_or_tableau(parse("!(G(r1 -> X n1))"))
        # Must accept some word (the invariant is violable) ...
        assert not automaton.is_empty()
        # ... and the intersection with the invariant's own monitor is empty.
        invariant = monitor_or_tableau(parse("G(r1 -> X n1)"))
        assert _agrees_with_oracle([automaton, invariant]).is_empty()

    @pytest.mark.parametrize(
        "invariant",
        ["G(r1 -> X n1)", "G(a <-> X b)", "G(!(x & y))", "G(a | b -> X(!a))"],
    )
    def test_cosafety_agrees_with_tableau(self, invariant):
        negated = parse(f"!({invariant})")
        monitor = monitor_or_tableau(negated)
        tableau = ltl_to_gba(negated)
        assert monitor.is_empty() == tableau.is_empty()
        # Cross-check: a witness of the monitor violates the invariant.
        lasso = monitor.accepting_lasso()
        assert lasso is not None
        trace = lasso_to_trace(monitor, lasso, sorted(atoms_of(negated)))
        assert evaluate(negated, trace)
