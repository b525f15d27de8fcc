"""Büchi automata with generalized acceptance.

The tableau construction (:mod:`repro.ltl.tableau`) produces a *state-labelled
generalized Büchi automaton* (GBA): each state carries a set of literals that
must hold of the word position read when entering the state, and acceptance is
a family of state sets each of which must be visited infinitely often.

Products are never stored.  :func:`search_accepting_lasso` explores any
implicitly given generalized Büchi graph on the fly and stops at the first
accepting SCC; the model checker (Kripke structure x property automata,
:mod:`repro.mc.product`), LTL satisfiability of conjunctions (a product of
component automata, :mod:`repro.ltl.sat`) and
:meth:`GeneralizedBuchi.accepting_lasso` all call it, so it is the single
emptiness check behind every LTL and model-checking query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable, Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Set, Tuple,
)

__all__ = [
    "Literal",
    "GeneralizedBuchi",
    "BuchiAutomaton",
    "AcceptingLasso",
    "LassoSearch",
    "search_accepting_lasso",
]

# A literal is (atom name, polarity).
Literal = Tuple[str, bool]
# Automaton states are ints; product states are tuples of component states.
State = Hashable


@dataclass(frozen=True)
class AcceptingLasso:
    """An accepting run presented as a stem and a loop of automaton states."""

    stem: Tuple[State, ...]
    loop: Tuple[State, ...]

    def states(self) -> Tuple[State, ...]:
        return self.stem + self.loop


@dataclass
class GeneralizedBuchi:
    """State-labelled generalized Büchi automaton.

    Attributes
    ----------
    labels:
        Maps each state to the set of literals that must hold of the alphabet
        letter read when the automaton *enters* the state.
    initial:
        Set of initial states.
    transitions:
        Adjacency map ``state -> successor states``.
    acceptance:
        List of acceptance sets; a run is accepting when it visits every set
        infinitely often.  An empty list means every infinite run is accepting.
    annotations:
        Optional per-state payload (used by products to remember the Kripke
        state / full signal valuation behind an automaton state).
    """

    labels: Dict[int, FrozenSet[Literal]] = field(default_factory=dict)
    initial: Set[int] = field(default_factory=set)
    transitions: Dict[int, Set[int]] = field(default_factory=dict)
    acceptance: List[FrozenSet[int]] = field(default_factory=list)
    annotations: Dict[int, object] = field(default_factory=dict)

    # -- construction helpers -------------------------------------------------
    def add_state(
        self,
        state: int,
        label: Iterable[Literal] = (),
        initial: bool = False,
        annotation: object = None,
    ) -> int:
        self.labels[state] = frozenset(label)
        self.transitions.setdefault(state, set())
        if initial:
            self.initial.add(state)
        if annotation is not None:
            self.annotations[state] = annotation
        return state

    def add_transition(self, source: int, target: int) -> None:
        self.transitions.setdefault(source, set()).add(target)
        self.transitions.setdefault(target, set())
        if source not in self.labels:
            self.labels[source] = frozenset()
        if target not in self.labels:
            self.labels[target] = frozenset()

    # -- basic queries ----------------------------------------------------------
    @property
    def states(self) -> Tuple[int, ...]:
        return tuple(self.labels.keys())

    def state_count(self) -> int:
        return len(self.labels)

    def transition_count(self) -> int:
        return sum(len(targets) for targets in self.transitions.values())

    # -- emptiness ---------------------------------------------------------------
    def is_empty(self) -> bool:
        """True when the automaton accepts no word."""
        return self.accepting_lasso() is None

    def accepting_lasso(self) -> Optional[AcceptingLasso]:
        """Return an accepting lasso, or ``None`` when the language is empty.

        Runs :func:`search_accepting_lasso` over the stored transitions.
        """
        masks: Dict[int, int] = {}
        for position, accept_set in enumerate(self.acceptance):
            for state in accept_set:
                masks[state] = masks.get(state, 0) | (1 << position)
        transitions = self.transitions
        return search_accepting_lasso(
            sorted(self.initial),
            lambda state: sorted(transitions.get(state, ())),
            lambda state: masks.get(state, 0),
            len(self.acceptance),
        ).lasso

    # -- transformations --------------------------------------------------------------
    def degeneralize(self) -> "BuchiAutomaton":
        """Counter construction turning generalized acceptance into plain Büchi.

        States of the result are ``(state, layer)`` pairs where the layer
        tracks which acceptance sets have been visited since the last time all
        of them were seen.  Layer 0 is the accepting layer.
        """
        acceptance: List[Set[int]] = [set(acc) for acc in self.acceptance]
        result = BuchiAutomaton()
        mapping: Dict[Tuple[int, int], int] = {}

        def get(state: int, layer: int) -> int:
            key = (state, layer)
            if key not in mapping:
                new_id = len(mapping)
                mapping[key] = new_id
                result.add_state(
                    new_id,
                    self.labels[state],
                    accepting=(layer == 0),
                    annotation=self.annotations.get(state),
                )
            return mapping[key]

        queue: List[Tuple[int, int]] = []
        for state in self.initial:
            layer = _next_layer(0, state, acceptance)
            ident = get(state, layer)
            result.initial.add(ident)
            queue.append((state, layer))
        visited = set(queue)
        while queue:
            state, layer = queue.pop()
            source_id = get(state, layer)
            for target in self.transitions.get(state, set()):
                target_layer = _next_layer(layer, target, acceptance)
                target_id = get(target, target_layer)
                result.add_transition(source_id, target_id)
                if (target, target_layer) not in visited:
                    visited.add((target, target_layer))
                    queue.append((target, target_layer))
        return result


def _next_layer(layer: int, state: int, acceptance: List[Set[int]]) -> int:
    """Layer update for the degeneralisation counter construction.

    Layer ``i > 0`` means "waiting to see a state of acceptance set ``i-1``";
    layer 0 is the accepting layer and restarts the scan.  Entering ``state``
    advances through every consecutive acceptance set it belongs to.
    """
    count = len(acceptance)
    if count == 0:
        return 0
    scanning = 0 if layer == 0 else layer - 1
    while scanning < count and state in acceptance[scanning]:
        scanning += 1
    if scanning >= count:
        return 0
    return scanning + 1


@dataclass
class BuchiAutomaton:
    """Plain (single acceptance set) state-labelled Büchi automaton."""

    labels: Dict[int, FrozenSet[Literal]] = field(default_factory=dict)
    initial: Set[int] = field(default_factory=set)
    transitions: Dict[int, Set[int]] = field(default_factory=dict)
    accepting: Set[int] = field(default_factory=set)
    annotations: Dict[int, object] = field(default_factory=dict)

    def add_state(
        self,
        state: int,
        label: Iterable[Literal] = (),
        initial: bool = False,
        accepting: bool = False,
        annotation: object = None,
    ) -> int:
        self.labels[state] = frozenset(label)
        self.transitions.setdefault(state, set())
        if initial:
            self.initial.add(state)
        if accepting:
            self.accepting.add(state)
        if annotation is not None:
            self.annotations[state] = annotation
        return state

    def add_transition(self, source: int, target: int) -> None:
        self.transitions.setdefault(source, set()).add(target)
        self.transitions.setdefault(target, set())

    @property
    def states(self) -> Tuple[int, ...]:
        return tuple(self.labels.keys())

    def state_count(self) -> int:
        return len(self.labels)

    def transition_count(self) -> int:
        return sum(len(targets) for targets in self.transitions.values())

    def to_generalized(self) -> GeneralizedBuchi:
        """View as a GBA with a single acceptance set."""
        gba = GeneralizedBuchi()
        for state, label in self.labels.items():
            gba.add_state(
                state,
                label,
                initial=state in self.initial,
                annotation=self.annotations.get(state),
            )
        for source, targets in self.transitions.items():
            for target in targets:
                gba.add_transition(source, target)
        gba.acceptance = [frozenset(self.accepting)]
        return gba

    def is_empty(self) -> bool:
        return self.accepting_lasso() is None

    def accepting_lasso(self) -> Optional[AcceptingLasso]:
        """Accepting lasso via the shared SCC-based engine."""
        return self.to_generalized().accepting_lasso()


# ---------------------------------------------------------------------------
# The emptiness search shared by model checking and LTL satisfiability.
# ---------------------------------------------------------------------------

_DEAD = -1


@dataclass(frozen=True)
class LassoSearch:
    """Outcome of :func:`search_accepting_lasso`: the lasso and what was explored."""

    lasso: Optional[AcceptingLasso]
    states: int
    transitions: int

    def is_empty(self) -> bool:
        return self.lasso is None

    def state_count(self) -> int:
        return self.states

    def transition_count(self) -> int:
        return self.transitions


def search_accepting_lasso(
    initial: Iterable[State],
    successors: Callable[[State], Iterable[State]],
    acceptance: Callable[[State], int],
    set_count: int,
) -> LassoSearch:
    """On-the-fly generalized Büchi emptiness (Couvreur's SCC search).

    The graph is given implicitly: ``initial`` states, a ``successors``
    function and, per state, a bitmask of the ``set_count`` acceptance sets it
    belongs to.  ``successors`` must list states in ascending order; the
    search visits the successors that cover the most acceptance sets first,
    ties kept in that order.  This order picks which lasso is returned, and
    with it which witness runs Algorithm 1 sees.

    One iterative depth-first search numbers states on first visit.  A root
    stack holds one entry per tentative SCC with the union of its states'
    acceptance masks; an edge back into a live state merges every root above
    it.  The search stops as soon as a merged SCC covers every acceptance set
    (with no sets, as soon as any cycle closes).  States are generated only
    when the search reaches them, so a non-empty language is usually decided
    after a small fraction of the reachable graph.

    The lasso is built from explored states only: a BFS stem from the initial
    states to the accepting SCC through states the search numbered, then a
    cycle inside the SCC through one state of every acceptance set.
    """
    from ..engines.cancel import check_cancelled

    initial = list(initial)
    full = (1 << set_count) - 1

    def ordered(states: Iterable[State]) -> List[Tuple[int, State]]:
        """``(mask, state)`` pairs, last to visit first: frames ``pop()`` them,
        so consumed successors are freed while the frame is still open."""
        pairs = [(acceptance(state), state) for state in states]
        pairs.reverse()
        if full:
            pairs.sort(key=lambda pair: pair[0].bit_count())
        return pairs

    number: Dict[State, int] = {}  # DFS number; _DEAD once its SCC is complete
    live: List[State] = []  # states of the tentative SCCs, in DFS order
    roots: List[List[int]] = []  # [DFS number, acceptance mask, position in live]
    stack: List[Tuple[State, List[Tuple[int, State]]]] = []
    transitions = 0

    def push(state: State, mask: int) -> None:
        number[state] = len(number)
        roots.append([number[state], mask, len(live)])
        live.append(state)
        stack.append((state, ordered(successors(state))))

    for mask, start in reversed(ordered(initial)):
        if start in number:
            continue
        push(start, mask)
        while stack:
            check_cancelled()
            state, pending = stack[-1]
            if not pending:
                stack.pop()
                root = roots[-1]
                if root[0] == number[state]:
                    roots.pop()
                    for member in live[root[2]:]:
                        number[member] = _DEAD
                    del live[root[2]:]
                continue
            transitions += 1
            mask, target = pending.pop()
            seen = number.get(target)
            if seen is None:
                push(target, mask)
            elif seen != _DEAD:
                merged = 0
                while roots[-1][0] > seen:
                    merged |= roots.pop()[1]
                roots[-1][1] |= merged
                if roots[-1][1] == full:
                    component = set(live[roots[-1][2]:])
                    lasso = _build_lasso(initial, component, number, successors, acceptance, set_count)
                    return LassoSearch(lasso, len(number), transitions)
    return LassoSearch(None, len(number), transitions)


def _build_lasso(
    initial: Iterable[State],
    component: Set[State],
    explored: Mapping[State, int],
    successors: Callable[[State], Iterable[State]],
    acceptance: Callable[[State], int],
    set_count: int,
) -> AcceptingLasso:
    edges: Dict[State, List[State]] = {}

    def step(state: State) -> List[State]:
        targets = edges.get(state)
        if targets is None:
            targets = edges[state] = [t for t in successors(state) if t in explored]
        return targets

    entry, stem = _shortest_path_to(initial, component, step)
    loop = _fair_cycle(entry, component, acceptance, set_count, step)
    return AcceptingLasso(tuple(stem), tuple(loop))


def _shortest_path_to(
    sources: Iterable[State], targets: Set[State], step: Callable[[State], List[State]]
) -> Tuple[State, List[State]]:
    """BFS shortest path from any source to any target; returns (entry, stem).

    The stem excludes the entry state itself (the entry becomes the first loop
    state), matching how :class:`AcceptingLasso` is consumed downstream.
    """
    parents: Dict[State, Optional[State]] = {}
    queue: List[State] = []
    for source in sources:
        if source not in parents:
            parents[source] = None
            queue.append(source)
    head = 0
    while head < len(queue):
        state = queue[head]
        head += 1
        if state in targets:
            path = []
            current: Optional[State] = state
            while current is not None:
                path.append(current)
                current = parents[current]
            path.reverse()
            return state, path[:-1]
        for target in step(state):
            if target not in parents:
                parents[target] = state
                queue.append(target)
    raise ValueError("target set unreachable from sources")


def _fair_cycle(
    entry: State,
    component: Set[State],
    acceptance: Callable[[State], int],
    set_count: int,
    step: Callable[[State], List[State]],
) -> List[State]:
    """Build a cycle inside ``component`` from ``entry`` hitting every acceptance set."""
    ordered = sorted(component)
    waypoints: List[State] = []
    for position in range(set_count):
        bit = 1 << position
        waypoints.append(next(state for state in ordered if acceptance(state) & bit))
    cycle: List[State] = [entry]
    current = entry
    for waypoint in waypoints:
        if waypoint == current:
            continue
        segment = _path_within(current, waypoint, component, step)
        cycle.extend(segment[1:])
        current = waypoint
    # Close the loop back to the entry state.
    if current != entry or len(cycle) == 1:
        segment = _path_within(current, entry, component, step, require_step=True)
        cycle.extend(segment[1:])
    # The final state equals the entry; drop it so the loop reads [entry ... last].
    if len(cycle) > 1 and cycle[-1] == entry:
        cycle.pop()
    return cycle


def _path_within(
    source: State,
    target: State,
    component: Set[State],
    step: Callable[[State], List[State]],
    require_step: bool = False,
) -> List[State]:
    """BFS path from source to target staying inside the SCC.

    With ``require_step`` the path must contain at least one transition even
    when ``source == target`` (used to close self-loops).
    """
    if source == target and not require_step:
        return [source]
    parents: Dict[State, Optional[State]] = {source: None}
    queue = [source]
    head = 0
    while head < len(queue):
        state = queue[head]
        head += 1
        for nxt in step(state):
            if nxt not in component:
                continue
            if nxt == target:
                path = [nxt]
                current: Optional[State] = state
                while current is not None:
                    path.append(current)
                    current = parents[current]
                path.reverse()
                return path
            if nxt not in parents:
                parents[nxt] = state
                queue.append(nxt)
    raise ValueError("no path inside the strongly connected component")
