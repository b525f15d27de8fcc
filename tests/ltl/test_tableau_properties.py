"""Property-based cross-validation of the automaton path against trace semantics.

For random formulas:

* if the tableau automaton is non-empty, its extracted witness word must
  satisfy the formula under direct lasso-trace semantics;
* satisfiability decided through the automaton must agree with a check of the
  negation (exactly one of ``phi``, ``!phi`` can be unsatisfiable unless both
  are satisfiable);
* the deterministic safety monitors must agree with the tableau on the
  monitorable fragment;
* the on-the-fly emptiness search must agree with the Tarjan oracle, and its
  lasso must be an accepting run of the automaton.
"""

from hypothesis import given, settings, strategies as st
from oracles.emptiness import is_empty as tarjan_is_empty

from repro.ltl import (
    Atom,
    Formula,
    Not,
    evaluate,
    is_satisfiable,
    lasso_to_trace,
    ltl_to_gba,
    parse,
    satisfying_trace,
)
from repro.ltl.ast import And, Always, Eventually, Next, Or, Until, atoms_of
from repro.ltl.monitor import is_monitorable, safety_monitor_gba
from repro.ltl.sat import conjunction_search

_NAMES = ["p", "q", "r"]


def formulas(max_leaves: int = 6) -> st.SearchStrategy[Formula]:
    atoms = st.sampled_from(_NAMES).map(Atom)

    def extend(children):
        return st.one_of(
            children.map(Not),
            children.map(Next),
            children.map(Always),
            children.map(Eventually),
            st.tuples(children, children).map(lambda pair: And(*pair)),
            st.tuples(children, children).map(lambda pair: Or(*pair)),
            st.tuples(children, children).map(lambda pair: Until(*pair)),
        )

    return st.recursive(atoms, extend, max_leaves=max_leaves)


@settings(max_examples=40, deadline=None)
@given(formulas())
def test_witness_satisfies_formula(formula):
    trace = satisfying_trace(formula)
    if trace is not None:
        assert evaluate(formula, trace)


@settings(max_examples=40, deadline=None)
@given(formulas())
def test_formula_or_negation_satisfiable(formula):
    # An LTL formula and its negation cannot both be unsatisfiable.
    assert is_satisfiable(formula) or is_satisfiable(Not(formula))


@settings(max_examples=30, deadline=None)
@given(formulas(max_leaves=4), formulas(max_leaves=4))
def test_conjunction_product_agrees_with_single_tableau(left, right):
    conjunction = And(left, right)
    single = not ltl_to_gba(conjunction).is_empty()
    product = not conjunction_search([ltl_to_gba(left), ltl_to_gba(right)]).is_empty()
    assert single == product


def _step_bodies():
    literals = st.sampled_from(
        [parse("p"), parse("!p"), parse("q"), parse("!q"), parse("X p"), parse("X !q")]
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda pair: And(*pair)),
            st.tuples(children, children).map(lambda pair: Or(*pair)),
        )

    return st.recursive(literals, extend, max_leaves=4)


@settings(max_examples=30, deadline=None)
@given(_step_bodies())
def test_monitor_agrees_with_tableau_on_invariants(body):
    formula = Always(body)
    assert is_monitorable(formula)
    monitor = safety_monitor_gba(formula)
    tableau = ltl_to_gba(formula)
    # Same language emptiness (both should be non-empty or empty together)...
    assert monitor.is_empty() == tableau.is_empty()
    # ... and the monitor accepts any word the tableau produces as a witness.
    lasso = tableau.accepting_lasso()
    if lasso is not None:
        trace = lasso_to_trace(tableau, lasso, sorted(atoms_of(formula)))
        assert evaluate(formula, trace)


@settings(max_examples=40, deadline=None)
@given(formulas())
def test_search_agrees_with_tarjan_oracle(formula):
    automaton = ltl_to_gba(formula)
    lasso = automaton.accepting_lasso()
    assert (lasso is None) == tarjan_is_empty(automaton)
    if lasso is not None:
        states = list(lasso.states()) + [lasso.loop[0]]
        assert states[0] in automaton.initial
        for source, target in zip(states, states[1:]):
            assert target in automaton.transitions[source]
        for accept_set in automaton.acceptance:
            assert accept_set & set(lasso.loop)
