"""The ``auto`` engine (alias ``learned``): a fixed two-step engine rule.

Algorithm 1's verdicts do not depend on which engine answers a query, so
engine choice is purely a cost question.  On the catalog and on seeded random
designs one structural feature separates the regimes: queries whose compiled
automata are small are usually refuted by a shallow bounded search long
before the explicit product is built, while large automata make every bmc
unrolling expensive.  The rule per query is therefore:

1. if the compiled problem has at most :data:`SMALL_AUTOMATON_STATES`
   automaton states, run bmc to ``min(max_bound, SHALLOW_BOUND)`` and return
   its witness when it finds one;
2. otherwise — or when the shallow search stays bounded — run explicit.

A witness is definitive and explicit is complete, so ``auto`` is complete.
"""

from __future__ import annotations

from .coverage import CoverageEngine, get_engine, register_engine
from .portfolio import PortfolioResult

__all__ = ["AutoEngine", "SMALL_AUTOMATON_STATES", "SHALLOW_BOUND"]

#: Largest total automaton size that still tries the shallow bmc step first.
SMALL_AUTOMATON_STATES = 28

#: Deepest unrolling the shallow bmc step searches.
SHALLOW_BOUND = 4


class AutoEngine(CoverageEngine):
    """Shallow bmc on small automata, explicit for everything else."""

    name = "auto"
    complete = True

    def __init__(self, **settings):
        super().__init__(**settings)
        # Long-lived members: the bmc member pools its incremental solver
        # sessions across the queries this engine answers.
        shallow = {**self.settings(), "max_bound": min(self.max_bound, SHALLOW_BOUND)}
        self._bmc = get_engine("bmc", **shallow)
        self._explicit = get_engine("explicit", **self.settings())

    def _cache_bound(self) -> int:
        # The shallow step's reach decides which witness a run reports.
        return self._bmc.max_bound

    def _find_run(self, problem):
        if problem.features()["automaton_states"] <= SMALL_AUTOMATON_STATES:
            result = self._bmc.find_run(problem)
            if result.satisfiable:
                return _decided("bmc", result)
        return _decided("explicit", self._explicit.find_run(problem))


def _decided(winner: str, result) -> PortfolioResult:
    # A witness is definitive and explicit is complete: never a bounded verdict.
    return PortfolioResult(
        satisfiable=bool(result.satisfiable),
        winner=winner,
        complete=True,
        witness=result.witness,
        bound=getattr(result, "bound", None),
        statistics=getattr(result, "statistics", None),
        elapsed_seconds=getattr(result, "elapsed_seconds", 0.0),
    )


register_engine("auto", AutoEngine)
