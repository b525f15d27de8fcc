"""Products built in full with dict/list loops (references for the lazy ones).

* :func:`kripke_product` -- Kripke structure x property automata, the
  reference for :func:`repro.mc.product.kripke_automata_product`;
* :func:`gba_product` -- intersection of state-labelled GBAs, the reference
  for :func:`repro.ltl.sat.conjunction_search`.

Each product state is annotated with its ``(kripke_state, component
states...)`` or ``(component states...)`` tuple -- exactly the state the
on-the-fly search reports in its lassos.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.ltl.buchi import AcceptingLasso, GeneralizedBuchi, Literal
from repro.rtl.kripke import KripkeStructure

__all__ = ["labels_consistent", "kripke_product", "gba_product", "check_lasso"]


def labels_consistent(labels: Sequence[FrozenSet[Literal]]) -> bool:
    """True when no two label sets require opposite values of a signal."""
    required: Dict[str, bool] = {}
    for label in labels:
        for name, value in label:
            if required.setdefault(name, value) != value:
                return False
    return True


def _cartesian(choices: Sequence[Sequence[int]]) -> Iterable[Tuple[int, ...]]:
    if not choices:
        yield ()
        return
    head, *tail = choices
    for value in head:
        for rest in _cartesian(tail):
            yield (value,) + rest


def _explore(initial, successors, automata, offset: int) -> GeneralizedBuchi:
    """Worklist construction; ``offset`` is where component states start in a combo."""
    product = GeneralizedBuchi()
    index: Dict[Tuple[int, ...], int] = {}

    def get(combo: Tuple[int, ...]) -> int:
        if combo not in index:
            index[combo] = len(index)
            product.add_state(index[combo], annotation=combo)
        return index[combo]

    worklist: List[Tuple[int, ...]] = []
    for combo in initial:
        product.initial.add(get(combo))
        worklist.append(combo)
    seen: Set[Tuple[int, ...]] = set(worklist)
    while worklist:
        combo = worklist.pop()
        source = get(combo)
        for target in successors(combo):
            product.add_transition(source, get(target))
            if target not in seen:
                seen.add(target)
                worklist.append(target)
    for component, automaton in enumerate(automata):
        for accept_set in automaton.acceptance:
            product.acceptance.append(
                frozenset(
                    ident for combo, ident in index.items()
                    if combo[offset + component] in accept_set
                )
            )
    return product


def kripke_product(kripke: KripkeStructure, automata: Sequence[GeneralizedBuchi]) -> GeneralizedBuchi:
    """Reachable synchronous product of a Kripke structure and property automata."""
    automata = list(automata)

    def compatible(automaton: GeneralizedBuchi, candidates, valuation: Mapping[str, bool]) -> List[int]:
        return [
            state for state in sorted(candidates)
            if all(bool(valuation.get(name, False)) == value for name, value in automaton.labels[state])
        ]

    def combos(kripke_state: int, per_component) -> List[Tuple[int, ...]]:
        valuation = kripke.label(kripke_state)
        choices = [compatible(a, states, valuation) for a, states in zip(automata, per_component)]
        return [(kripke_state,) + rest for rest in _cartesian(choices)]

    initial = []
    for kripke_state in sorted(kripke.initial):
        initial.extend(combos(kripke_state, [a.initial for a in automata]))

    def successors(combo: Tuple[int, ...]) -> List[Tuple[int, ...]]:
        result = []
        for target in sorted(kripke.successors(combo[0])):
            result.extend(
                combos(target, [a.transitions.get(s, ()) for a, s in zip(automata, combo[1:])])
            )
        return result

    return _explore(initial, successors, automata, 1)


def gba_product(automata: Sequence[GeneralizedBuchi]) -> GeneralizedBuchi:
    """Reachable synchronous product of state-labelled GBAs (language intersection)."""
    automata = list(automata)

    def consistent(choices) -> List[Tuple[int, ...]]:
        return [
            combo for combo in _cartesian([sorted(states) for states in choices])
            if labels_consistent([a.labels[s] for a, s in zip(automata, combo)])
        ]

    def successors(combo: Tuple[int, ...]) -> List[Tuple[int, ...]]:
        return consistent([a.transitions.get(s, ()) for a, s in zip(automata, combo)])

    return _explore(consistent([a.initial for a in automata]), successors, automata, 0)


def check_lasso(product: GeneralizedBuchi, lasso: AcceptingLasso) -> None:
    """Assert that ``lasso`` (states as annotation tuples) is an accepting run of ``product``."""
    ident = {annotation: state for state, annotation in product.annotations.items()}
    states = [ident[combo] for combo in lasso.states()]
    loop = {ident[combo] for combo in lasso.loop}
    assert lasso.loop, lasso
    assert states[0] in product.initial, lasso
    for source, target in zip(states, states[1:] + [ident[lasso.loop[0]]]):
        assert target in product.transitions.get(source, ()), (lasso, source, target)
    for accept_set in product.acceptance:
        assert accept_set & loop, lasso
