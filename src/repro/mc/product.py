"""Product of a Kripke structure with property automata, searched on the fly.

The model-relative questions of the paper all have the shape "does the model
``M`` (the concrete modules, with every undriven signal free) have a run
satisfying the temporal formulas ``phi_1, ..., phi_n``?".  They are answered
on the synchronous product of

* the Kripke structure of the concrete modules (every signal valued in each
  state), and
* one state-labelled Büchi automaton per formula (deterministic safety
  monitors for the common ``G``-invariant shape, GPVW tableaux otherwise).

The product is never stored: :func:`kripke_automata_product` hands its
successor function to the shared emptiness search
(:func:`repro.ltl.buchi.search_accepting_lasso`), which generates product
states only as it reaches them and stops at the first accepting SCC.  A
product state is the tuple ``(kripke_state, component states...)``, so a
lasso maps back to signal waveforms through its Kripke states.

Because the Kripke state fixes the value of *every* signal, each automaton's
compatible successors are filtered against that valuation before combining,
so deterministic monitor components contribute exactly one successor and the
product does not suffer the exponential branching a conjunction tableau would.
The filter runs on integer bitmasks: successor sets and label-compatibility
sets are precomputed masks over each automaton's states, and compatibility
masks are memoised per (automaton, Kripke state).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..ltl.buchi import GeneralizedBuchi, LassoSearch, search_accepting_lasso
from ..rtl.kripke import KripkeStructure

__all__ = ["ProductStatistics", "kripke_automata_product"]


@dataclass
class ProductStatistics:
    """Size statistics of a product search (reported in benchmarks).

    ``product_states``/``product_transitions`` count what the search
    explored, not the full reachable product.
    """

    kripke_states: int = 0
    automata: int = 0
    automata_states: int = 0
    product_states: int = 0
    product_transitions: int = 0


class _ComponentBits:
    """Bitmask view of one property automaton.

    States are packed into bit positions in ascending state-id order, so
    iterating the set bits of any mask from least to most significant visits
    states in ascending order.  ``accept`` maps a state to its acceptance
    bits in the product, shifted past the sets of earlier components.
    """

    __slots__ = ("states", "succ", "initial_mask", "atom_masks", "full", "accept", "_compat")

    def __init__(self, automaton: GeneralizedBuchi, offset: int):
        self.states: List[int] = sorted(automaton.labels)
        position = {state: index for index, state in enumerate(self.states)}
        self.full = (1 << len(self.states)) - 1
        self.succ: Dict[int, int] = {}
        for state in self.states:
            mask = 0
            for target in automaton.transitions.get(state, ()):
                mask |= 1 << position[target]
            self.succ[state] = mask
        self.initial_mask = 0
        for state in automaton.initial:
            self.initial_mask |= 1 << position[state]
        # atom name -> (mask of states requiring it true, ... requiring false)
        self.atom_masks: Dict[str, List[int]] = {}
        for state, label in automaton.labels.items():
            bit = 1 << position[state]
            for name, value in label:
                pair = self.atom_masks.setdefault(name, [0, 0])
                pair[0 if value else 1] |= bit
        self.accept: Dict[int, int] = dict.fromkeys(self.states, 0)
        for index, accept_set in enumerate(automaton.acceptance):
            for state in accept_set:
                if state in self.accept:
                    self.accept[state] |= 1 << (offset + index)
        self._compat: Dict[int, int] = {}

    def compatible_mask(self, kripke_state: int, valuation: Mapping[str, bool]) -> int:
        """Mask of automaton states whose labels agree with the valuation."""
        mask = self._compat.get(kripke_state)
        if mask is None:
            mask = self.full
            for name, (need_true, need_false) in self.atom_masks.items():
                if bool(valuation.get(name, False)):
                    mask &= ~need_false
                else:
                    mask &= ~need_true
            self._compat[kripke_state] = mask
        return mask

    def bits_to_states(self, mask: int) -> List[int]:
        """Set bits of ``mask`` as state ids, ascending."""
        states = []
        while mask:
            bit = mask & -mask
            states.append(self.states[bit.bit_length() - 1])
            mask ^= bit
        return states


def kripke_automata_product(
    kripke: KripkeStructure,
    automata: Sequence[GeneralizedBuchi],
    *,
    statistics: Optional[ProductStatistics] = None,
) -> LassoSearch:
    """Search the product of a Kripke structure and property automata.

    Returns the shared search's :class:`~repro.ltl.buchi.LassoSearch`: an
    accepting lasso of ``(kripke_state, component states...)`` tuples when
    some run of the Kripke structure is jointly accepted by every automaton,
    else ``None``, plus the explored state and transition counts.
    """
    automata = list(automata)
    components: List[_ComponentBits] = []
    set_count = 0
    for automaton in automata:
        components.append(_ComponentBits(automaton, set_count))
        set_count += len(automaton.acceptance)
    kripke_successors: Dict[int, List[int]] = {}

    def combos(kripke_state: int, masks: Iterable[int]) -> List[Tuple[int, ...]]:
        """Product states over ``kripke_state`` whose components lie in ``masks``."""
        valuation = kripke.label(kripke_state)
        choices = []
        for component, mask in zip(components, masks):
            mask &= component.compatible_mask(kripke_state, valuation)
            if not mask:
                return []
            choices.append(component.bits_to_states(mask))
        return [(kripke_state,) + rest for rest in _cartesian(choices)]

    def initial() -> List[Tuple[int, ...]]:
        states: List[Tuple[int, ...]] = []
        for kripke_state in sorted(kripke.initial):
            states.extend(combos(kripke_state, [c.initial_mask for c in components]))
        return states

    def successors(state: Tuple[int, ...]) -> List[Tuple[int, ...]]:
        targets = kripke_successors.get(state[0])
        if targets is None:
            targets = kripke_successors[state[0]] = sorted(kripke.successors(state[0]))
        masks = [c.succ[s] for c, s in zip(components, state[1:])]
        result: List[Tuple[int, ...]] = []
        for target in targets:
            result.extend(combos(target, masks))
        return result

    def acceptance(state: Tuple[int, ...]) -> int:
        mask = 0
        for component, s in zip(components, state[1:]):
            mask |= component.accept[s]
        return mask

    search = search_accepting_lasso(initial(), successors, acceptance, set_count)
    if statistics is not None:
        statistics.kripke_states = kripke.state_count()
        statistics.automata = len(automata)
        statistics.automata_states = sum(a.state_count() for a in automata)
        statistics.product_states = search.states
        statistics.product_transitions = search.transitions
    return search


def _cartesian(choices: Sequence[Sequence[int]]) -> Iterable[Tuple[int, ...]]:
    if not choices:
        yield ()
        return
    head, *tail = choices
    for value in head:
        for rest in _cartesian(tail):
            yield (value,) + rest
