"""LTL to generalized Büchi automaton translation (GPVW tableau).

Implementation of the classic on-the-fly construction of Gerth, Peled, Vardi
and Wolper ("Simple on-the-fly automatic verification of linear temporal
logic", PSTV 1995).  The input formula is first brought to negation normal
form over the core operators ``{&, |, X, U, R}``; the output is a
state-labelled :class:`~repro.ltl.buchi.GeneralizedBuchi` whose acceptance
sets encode the fulfilment obligation of every ``U`` subformula.

The construction is exactly what the paper's SpecMatcher needs: both the
primary coverage question (Theorem 1) and the gap-closure checks reduce to
language emptiness of a property automaton in product with the concrete
modules' Kripke structure.

The expansion is implemented iteratively (explicit worklist) so that large
conjunctions — such as ``!A & R1 & ... & Rk & T_M`` for designs with dozens of
RTL properties — do not hit Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from .ast import (
    Atom,
    And,
    FalseFormula,
    Formula,
    Next,
    Not,
    Or,
    Release,
    TrueFormula,
    Until,
)
from ..obs import span
from .buchi import GeneralizedBuchi, Literal
from .rewrite import nnf, simplify

__all__ = ["ltl_to_gba", "ltl_to_gba_with_stats", "TableauStatistics"]


@dataclass
class TableauStatistics:
    """Size statistics of a tableau construction (used by ablation benches)."""

    node_count: int = 0
    transition_count: int = 0
    acceptance_sets: int = 0
    expansions: int = 0


@dataclass
class _Node:
    """A GPVW tableau node."""

    name: int
    incoming: Set[int] = field(default_factory=set)
    new: Set[Formula] = field(default_factory=set)
    old: Set[Formula] = field(default_factory=set)
    next: Set[Formula] = field(default_factory=set)

    def clone(self, name: int) -> "_Node":
        return _Node(
            name=name,
            incoming=set(self.incoming),
            new=set(self.new),
            old=set(self.old),
            next=set(self.next),
        )


_INIT = -1  # pseudo-name standing for "initial" in incoming sets


class _Builder:
    """Iterative GPVW node expansion."""

    def __init__(self) -> None:
        self.counter = 0
        self.expansions = 0
        self._keys: Dict[Formula, str] = {}

    def fresh_name(self) -> int:
        name = self.counter
        self.counter += 1
        return name

    def _key(self, formula: Formula) -> str:
        key = self._keys.get(formula)
        if key is None:
            key = str(formula)
            self._keys[formula] = key
        return key

    def _pick(self, formulas: Set[Formula]) -> Formula:
        return min(formulas, key=self._key)

    def build(self, root_formula: Formula) -> List[_Node]:
        start = _Node(name=self.fresh_name(), incoming={_INIT}, new={root_formula})
        finished: List[_Node] = []
        finished_index: Dict[Tuple[FrozenSet[Formula], FrozenSet[Formula]], _Node] = {}
        worklist: List[_Node] = [start]
        while worklist:
            node = worklist.pop()
            self.expansions += 1

            if not node.new:
                signature = (frozenset(node.old), frozenset(node.next))
                existing = finished_index.get(signature)
                if existing is not None:
                    existing.incoming |= node.incoming
                    continue
                finished.append(node)
                finished_index[signature] = node
                successor = _Node(
                    name=self.fresh_name(),
                    incoming={node.name},
                    new=set(node.next),
                )
                worklist.append(successor)
                continue

            eta = self._pick(node.new)
            node.new.discard(eta)

            if isinstance(eta, (Atom, TrueFormula, FalseFormula)) or (
                isinstance(eta, Not) and isinstance(eta.operand, Atom)
            ):
                if isinstance(eta, FalseFormula) or _negation_of(eta) in node.old:
                    continue  # contradictory node: discard
                if not isinstance(eta, TrueFormula):
                    node.old.add(eta)
                worklist.append(node)
                continue

            if isinstance(eta, And):
                node.old.add(eta)
                for part in (eta.left, eta.right):
                    if part not in node.old:
                        node.new.add(part)
                worklist.append(node)
                continue

            if isinstance(eta, Next):
                node.old.add(eta)
                node.next.add(eta.operand)
                worklist.append(node)
                continue

            if isinstance(eta, (Or, Until, Release)):
                node.old.add(eta)
                first = node.clone(self.fresh_name())
                second = node.clone(self.fresh_name())
                for part in _new1(eta):
                    if part not in first.old:
                        first.new.add(part)
                first.next |= _next1(eta)
                for part in _new2(eta):
                    if part not in second.old:
                        second.new.add(part)
                worklist.append(second)
                worklist.append(first)
                continue

            raise TypeError(f"unexpected formula in tableau: {type(eta).__name__}")
        return finished


def _negation_of(formula: Formula) -> Formula:
    if isinstance(formula, Not):
        return formula.operand
    if isinstance(formula, TrueFormula):
        return FalseFormula()
    if isinstance(formula, FalseFormula):
        return TrueFormula()
    return Not(formula)


def _new1(eta: Formula) -> Set[Formula]:
    if isinstance(eta, Until):
        return {eta.left}
    if isinstance(eta, Release):
        return {eta.right}
    return {eta.left}  # Or


def _next1(eta: Formula) -> Set[Formula]:
    if isinstance(eta, (Until, Release)):
        return {eta}
    return set()  # Or


def _new2(eta: Formula) -> Set[Formula]:
    if isinstance(eta, Until):
        return {eta.right}
    if isinstance(eta, Release):
        return {eta.left, eta.right}
    return {eta.right}  # Or


def ltl_to_gba(formula: Formula, *, pre_simplify: bool = True) -> GeneralizedBuchi:
    """Translate an LTL formula into a state-labelled generalized Büchi automaton.

    The automaton accepts exactly the infinite words (over total assignments of
    the formula's atoms) that satisfy the formula.
    """
    with span("ltl_to_gba") as sp:
        automaton, _ = ltl_to_gba_with_stats(formula, pre_simplify=pre_simplify)
        sp.set(states=automaton.state_count())
    return automaton


def ltl_to_gba_with_stats(
    formula: Formula, *, pre_simplify: bool = True
) -> Tuple[GeneralizedBuchi, TableauStatistics]:
    """As :func:`ltl_to_gba` but also return construction statistics."""
    stats = TableauStatistics()
    if pre_simplify:
        formula = simplify(formula)
    normal = nnf(formula)

    if isinstance(normal, FalseFormula):
        return GeneralizedBuchi(), stats
    if isinstance(normal, TrueFormula):
        automaton = GeneralizedBuchi()
        automaton.add_state(0, (), initial=True)
        automaton.add_transition(0, 0)
        stats.node_count = 1
        stats.transition_count = 1
        return automaton, stats

    builder = _Builder()
    nodes = builder.build(normal)
    stats.expansions = builder.expansions

    automaton = GeneralizedBuchi()
    names = {node.name for node in nodes}
    for node in nodes:
        automaton.add_state(node.name, _literal_label(node.old), initial=_INIT in node.incoming)
    for node in nodes:
        for predecessor in node.incoming:
            if predecessor == _INIT or predecessor not in names:
                continue
            automaton.add_transition(predecessor, node.name)

    # Acceptance: one set per Until subformula appearing anywhere in the tableau.
    until_subformulas: Set[Until] = set()
    for node in nodes:
        for entry in node.old | node.next:
            until_subformulas |= _untils_in(entry)
    for until in sorted(until_subformulas, key=str):
        accept_set = frozenset(
            node.name for node in nodes if until not in node.old or until.right in node.old
        )
        automaton.acceptance.append(accept_set)

    stats.node_count = automaton.state_count()
    stats.transition_count = automaton.transition_count()
    stats.acceptance_sets = len(automaton.acceptance)
    return automaton, stats


def _literal_label(old: Set[Formula]) -> FrozenSet[Literal]:
    label: Set[Literal] = set()
    for entry in old:
        if isinstance(entry, Atom):
            label.add((entry.name, True))
        elif isinstance(entry, Not) and isinstance(entry.operand, Atom):
            label.add((entry.operand.name, False))
    return frozenset(label)


def _untils_in(formula: Formula) -> Set[Until]:
    found: Set[Until] = set()
    stack = [formula]
    while stack:
        current = stack.pop()
        if isinstance(current, Until):
            found.add(current)
        stack.extend(current.children())
    return found
