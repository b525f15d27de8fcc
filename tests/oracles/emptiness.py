"""Tarjan-SCC emptiness check of a stored generalized Büchi automaton."""

from __future__ import annotations

from typing import Dict, List, Mapping, Set

from repro.ltl.buchi import GeneralizedBuchi

__all__ = ["tarjan_sccs", "is_empty"]


def _reachable(automaton: GeneralizedBuchi) -> Set[int]:
    seen: Set[int] = set()
    stack = list(automaton.initial)
    while stack:
        state = stack.pop()
        if state not in seen:
            seen.add(state)
            stack.extend(automaton.transitions.get(state, ()))
    return seen


def tarjan_sccs(nodes: Set[int], transitions: Mapping[int, Set[int]]) -> List[Set[int]]:
    """Iterative Tarjan strongly-connected components restricted to ``nodes``."""
    counter = 0
    index: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    result: List[Set[int]] = []

    def successors(node: int):
        return iter(sorted(t for t in transitions.get(node, ()) if t in nodes))

    for root in sorted(nodes):
        if root in index:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, successors(root))]
        while work:
            node, iterator = work[-1]
            advanced = False
            for target in iterator:
                if target not in index:
                    index[target] = lowlink[target] = counter
                    counter += 1
                    stack.append(target)
                    on_stack.add(target)
                    work.append((target, successors(target)))
                    advanced = True
                    break
                if target in on_stack:
                    lowlink[node] = min(lowlink[node], index[target])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                result.append(component)
    return result


def is_empty(automaton: GeneralizedBuchi) -> bool:
    """True when no reachable SCC with an internal edge meets every acceptance set."""
    transitions = automaton.transitions
    for component in tarjan_sccs(_reachable(automaton), transitions):
        if len(component) == 1:
            (state,) = component
            if state not in transitions.get(state, ()):
                continue
        if all(component & accept_set for accept_set in automaton.acceptance):
            return False
    return True
