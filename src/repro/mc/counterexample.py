"""Mapping product lassos back to signal-level counterexample traces."""

from __future__ import annotations

from typing import Optional

from ..ltl.buchi import AcceptingLasso
from ..ltl.traces import LassoTrace
from ..rtl.kripke import KripkeStructure
from ..rtl.simulator import SimulationTrace

__all__ = ["lasso_to_signal_trace", "trace_to_simulation"]


def lasso_to_signal_trace(lasso: AcceptingLasso, kripke: KripkeStructure) -> LassoTrace:
    """Convert an accepting lasso of the product into a signal-level lasso.

    Each product state is a ``(kripke_state, component states...)`` tuple, so
    the counterexample is simply the sequence of Kripke labels along the run.
    """
    stem = [dict(kripke.label(state[0])) for state in lasso.stem]
    loop = [dict(kripke.label(state[0])) for state in lasso.loop]
    return LassoTrace(stem, loop)


def trace_to_simulation(trace: LassoTrace, name: str, cycles: Optional[int] = None) -> SimulationTrace:
    """Unroll a lasso trace into a plain simulation trace for waveform rendering."""
    if cycles is None:
        cycles = len(trace) + len(trace.loop)
    result = SimulationTrace(name)
    for cycle in range(cycles):
        result.cycles.append(dict(trace.state_at(cycle)))
    return result
