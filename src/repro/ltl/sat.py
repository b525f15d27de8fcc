"""LTL satisfiability, validity, implication and equivalence.

All queries reduce to language emptiness of the tableau automaton
(:mod:`repro.ltl.tableau`).  A satisfiable query can additionally return a
witness :class:`~repro.ltl.traces.LassoTrace`, which the test-suite uses to
cross-validate the automaton construction against direct trace semantics.

These checks are the workhorses of the paper's Algorithm 1 step 2(d): the
weakening heuristics must decide whether a candidate gap property is *weaker*
than the architectural property (an implication check) and whether adding it
closes the coverage hole (a model-relative check done in :mod:`repro.core`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import span
from .ast import And, Formula, Not, atoms_of
from .buchi import AcceptingLasso, GeneralizedBuchi, LassoSearch, search_accepting_lasso
from .tableau import ltl_to_gba
from .traces import LassoTrace

__all__ = [
    "is_satisfiable",
    "conjunction_search",
    "is_valid",
    "implies",
    "equivalent",
    "satisfying_trace",
    "lasso_to_trace",
    "stronger_than",
    "strictly_stronger_than",
]


def is_satisfiable(formula: Formula) -> bool:
    """True when some infinite word satisfies the formula.

    Two layers keep the common queries of Algorithm 1 cheap:

    * the top-level boolean structure is decomposed into conjuncts (pushing
      negations through ``∨``/``→``/``¬¬``) and a purely syntactic scan spots
      complementary conjuncts — the shape produced by "is the hole weaker
      than A" style queries (``A ∧ ¬(A ∨ ...)``) — without building automata;
    * surviving conjunctions are translated compositionally (one automaton
      per conjunct, intersected by :func:`conjunction_search`), far cheaper
      than a single tableau over the whole conjunction.
    """
    from .rewrite import expanded_conjuncts, has_complementary_conjuncts

    parts = expanded_conjuncts(formula)
    if not parts:
        return True
    if has_complementary_conjuncts(parts):
        return False
    if len(parts) > 1:
        from .monitor import monitor_or_tableau

        return not conjunction_search([monitor_or_tableau(part) for part in parts]).is_empty()
    return not ltl_to_gba(parts[0]).is_empty()


def conjunction_search(automata: Sequence[GeneralizedBuchi]) -> LassoSearch:
    """Emptiness of the intersection of state-labelled GBAs, searched on the fly.

    A product state is a tuple of component states whose literal labels are
    mutually consistent; the acceptance sets of every component are kept side
    by side.  The product is handed to the shared search
    (:func:`~repro.ltl.buchi.search_accepting_lasso`) and never stored.
    """
    automata = list(automata)
    atoms: Dict[str, int] = {}
    # Per component: state -> (mask of atoms required true, ... required false).
    labels: List[Dict[int, Tuple[int, int]]] = []
    accept: List[Dict[int, int]] = []
    set_count = 0
    for automaton in automata:
        masks = {}
        for state, label in automaton.labels.items():
            need = [0, 0]
            for name, value in label:
                need[0 if value else 1] |= 1 << atoms.setdefault(name, len(atoms))
            masks[state] = (need[0], need[1])
        labels.append(masks)
        bits = dict.fromkeys(automaton.labels, 0)
        for index, accept_set in enumerate(automaton.acceptance):
            for state in accept_set:
                bits[state] = bits.get(state, 0) | (1 << (set_count + index))
        accept.append(bits)
        set_count += len(automaton.acceptance)

    def consistent(choices: List[List[int]]) -> List[Tuple[int, ...]]:
        """Label-consistent combinations of ``choices``, in ascending order."""
        partial: List[Tuple[Tuple[int, ...], int, int]] = [((), 0, 0)]
        for masks, options in zip(labels, choices):
            extended = []
            for prefix, need_true, need_false in partial:
                for state in options:
                    state_true, state_false = masks[state]
                    both_true, both_false = need_true | state_true, need_false | state_false
                    if not both_true & both_false:
                        extended.append((prefix + (state,), both_true, both_false))
            partial = extended
        return [prefix for prefix, _, _ in partial]

    def successors(state: Tuple[int, ...]) -> List[Tuple[int, ...]]:
        return consistent(
            [sorted(automaton.transitions.get(s, ())) for automaton, s in zip(automata, state)]
        )

    def acceptance(state: Tuple[int, ...]) -> int:
        mask = 0
        for bits, s in zip(accept, state):
            mask |= bits[s]
        return mask

    initial = consistent([sorted(automaton.initial) for automaton in automata])
    return search_accepting_lasso(initial, successors, acceptance, set_count)


def is_valid(formula: Formula) -> bool:
    """True when every infinite word satisfies the formula."""
    return not is_satisfiable(Not(formula))


def implies(antecedent: Formula, consequent: Formula) -> bool:
    """Semantic implication: every word satisfying ``antecedent`` satisfies ``consequent``."""
    with span("ltl_implies"):
        return not is_satisfiable(And(antecedent, Not(consequent)))


def equivalent(left: Formula, right: Formula) -> bool:
    """Semantic equivalence of two formulas."""
    return implies(left, right) and implies(right, left)


def stronger_than(left: Formula, right: Formula) -> bool:
    """Definition 2 of the paper: ``left`` is stronger than ``right`` iff left => right.

    (The paper's Definition 2 contains an obvious typo — it states both
    directions — the intended meaning, used consistently afterwards, is
    one-directional implication.)
    """
    return implies(left, right)


def strictly_stronger_than(left: Formula, right: Formula) -> bool:
    """``left`` implies ``right`` but not conversely."""
    return implies(left, right) and not implies(right, left)


def satisfying_trace(formula: Formula) -> Optional[LassoTrace]:
    """Return a lasso word satisfying the formula, or ``None`` when unsatisfiable."""
    automaton = ltl_to_gba(formula)
    lasso = automaton.accepting_lasso()
    if lasso is None:
        return None
    names = sorted(atoms_of(formula))
    return lasso_to_trace(automaton, lasso, names)


def lasso_to_trace(
    automaton: GeneralizedBuchi, lasso: AcceptingLasso, names: Tuple[str, ...] | list
) -> LassoTrace:
    """Concretise an automaton lasso into a word: unspecified atoms read false."""

    def state_to_assignment(state: int) -> Dict[str, bool]:
        assignment = {name: False for name in names}
        for name, value in automaton.labels.get(state, frozenset()):
            assignment[name] = value
        return assignment

    stem = [state_to_assignment(state) for state in lasso.stem]
    loop = [state_to_assignment(state) for state in lasso.loop]
    if not loop:
        loop = [dict.fromkeys(names, False)] if names else [{}]
    return LassoTrace(stem, loop)
