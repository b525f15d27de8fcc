"""Differential properties of the raw-speed kernel tier.

Three kernels each have a slow reference path; these tests pin the fast path
to it on the design catalog plus seeded random designs:

* incremental (assumption-based) BMC vs the legacy fresh-solver search,
* the on-the-fly product/emptiness search vs the oracle product + Tarjan
  (``tests/oracles/``),
* in-place BDD sifting vs the functions it is supposed to preserve.

Seeded RNGs only — every failure here is reproducible by seed.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest
from oracles.emptiness import is_empty as tarjan_is_empty
from oracles.product import check_lasso, kripke_product

from repro.bmc.engine import find_run_bmc
from repro.designs import CATALOG, random_design_entries
from repro.designs.random import RandomDesignSpec, random_problem
from repro.logic import boolexpr as bx
from repro.logic.bdd import BDDManager
from repro.ltl.traces import evaluate
from repro.mc.modelcheck import build_kripke, compile_formulas
from repro.mc.product import kripke_automata_product
from repro.sat.cnf import CNF
from repro.sat.solver import SatSolver, solve

CATALOG_CASES = ("mal_fig2", "mal_fig4", "paper_example", "telemetry_bank")
RANDOM_SPECS = [RandomDesignSpec(seed=91, index=i) for i in range(4)]


def _problems():
    for name in CATALOG_CASES:
        yield name, CATALOG[name].builder()
    for spec in RANDOM_SPECS:
        yield spec.name, random_problem(spec)


def _query_sets(problem):
    """BMC/product query formula sets of one problem: RTL + each conjunct."""
    rtl = list(problem.rtl_properties)
    yield rtl
    for target in problem.architectural:
        yield rtl + [target]


class TestIncrementalBmcEquivalence:
    """One persistent solver across bounds == fresh solver per query."""

    @pytest.mark.parametrize("name", CATALOG_CASES)
    def test_catalog_verdicts_and_witnesses(self, name):
        problem = CATALOG[name].builder()
        module = problem.composed_module()
        for formulas in _query_sets(problem):
            fast = find_run_bmc(
                module, formulas, max_bound=6, use_result_cache=False
            )
            slow = find_run_bmc(
                module, formulas, max_bound=6, use_result_cache=False,
                incremental=False,
            )
            assert fast.satisfiable == slow.satisfiable, formulas
            if fast.satisfiable:
                # Witnesses need not be equal; each must satisfy the query.
                for formula in formulas:
                    assert evaluate(formula, fast.witness), (name, formula)
                    assert evaluate(formula, slow.witness), (name, formula)

    def test_random_designs_agree(self):
        for spec in RANDOM_SPECS:
            problem = random_problem(spec)
            module = problem.composed_module()
            for formulas in _query_sets(problem):
                fast = find_run_bmc(
                    module, formulas, max_bound=5, use_result_cache=False
                )
                slow = find_run_bmc(
                    module, formulas, max_bound=5, use_result_cache=False,
                    incremental=False,
                )
                assert fast.satisfiable == slow.satisfiable, (spec.name, formulas)
                if fast.satisfiable:
                    for formula in formulas:
                        assert evaluate(formula, fast.witness), (spec.name, formula)

    def test_reuse_counters_populated(self):
        """A multi-bound incremental search must actually reuse the solver."""
        from repro.ltl.ast import F, G, Not, atom

        problem = CATALOG["telemetry_bank"].builder()
        module = problem.composed_module()
        # Unsatisfiable query: the search must sweep every loop position at
        # every bound, so both the within-bound and the across-bound reuse
        # counters have to move.
        signal = module.state_signals()[0]
        formulas = [G(atom(signal)), F(Not(atom(signal)))]
        result = find_run_bmc(
            module, formulas, max_bound=4, use_result_cache=False,
        )
        assert not result.satisfiable
        stats = result.statistics
        assert stats.bounds_incremental > 0
        assert stats.solver_reused > 0
        assert stats.clauses_reused > 0
        # The legacy path must keep all three at zero.
        legacy = find_run_bmc(
            module, formulas, max_bound=4, use_result_cache=False,
            incremental=False,
        )
        assert not legacy.satisfiable
        assert legacy.statistics.bounds_incremental == 0
        assert legacy.statistics.solver_reused == 0
        assert legacy.statistics.clauses_reused == 0

    def test_incremental_solver_matches_fresh_solves(self):
        """add_clause + solve(assumptions) == fresh solver on the same CNF."""
        rng = random.Random(1311)
        for _ in range(25):
            names = [f"v{i}" for i in range(rng.randint(4, 7))]
            cnf = CNF()
            for name in names:
                cnf.pool.variable(name)
            incremental = SatSolver(cnf)
            for round_ in range(4):
                for _ in range(rng.randint(2, 5)):
                    clause = [
                        cnf.pool.literal(rng.choice(names), rng.random() < 0.5)
                        for _ in range(rng.randint(1, 3))
                    ]
                    incremental.add_clause(*clause)
                assumptions = [
                    cnf.pool.literal(rng.choice(names), rng.random() < 0.5)
                    for _ in range(rng.randint(0, 2))
                ]
                got = incremental.solve(assumptions=assumptions)
                want = solve(cnf, assumptions)  # fresh solver, same formula
                assert got.satisfiable == want.satisfiable, (
                    cnf.clauses, assumptions, round_,
                )
                if got.satisfiable:
                    model = got.assignment
                    assert cnf.evaluate_names(model) is True, (model, round_)
                    for literal in assumptions:
                        name = cnf.pool.name_of(literal.variable)
                        assert model[name] == literal.positive, (model, literal)

    def test_verdicts_stable_across_hash_seeds(self):
        """Incremental BMC must not depend on set/dict iteration order."""
        script = (
            "import json\n"
            "from repro.bmc.engine import find_run_bmc\n"
            "from repro.designs import CATALOG\n"
            "out = {}\n"
            "for name in ('mal_fig2', 'telemetry_bank'):\n"
            "    problem = CATALOG[name].builder()\n"
            "    module = problem.composed_module()\n"
            "    formulas = list(problem.rtl_properties)\n"
            "    result = find_run_bmc(module, formulas, max_bound=4,\n"
            "                          use_result_cache=False)\n"
            "    out[name] = [result.satisfiable, result.bound, result.loop_start]\n"
            "print(json.dumps(out, sort_keys=True))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        outputs = set()
        for seed in ("0", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [src] + env.get("PYTHONPATH", "").split(os.pathsep)
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env,
            )
            outputs.add(proc.stdout.strip())
        assert len(outputs) == 1, "incremental BMC depends on PYTHONHASHSEED"


class TestOnTheFlyProductDifferential:
    """The fused product/emptiness search against the oracle product + Tarjan.

    Every query set of every catalog design and of
    ``random_design_entries(16, 11)``: the verdicts must agree, every lasso
    must be an accepting run of the oracle product, and the search never
    explores more than the reachable product (all of it when empty).
    """

    @staticmethod
    def _entries():
        yield from CATALOG.items()
        for entry in random_design_entries(16, 11):
            yield entry.name, entry

    def test_verdicts_agree_and_lassos_replay_on_the_oracle(self):
        for name, entry in self._entries():
            problem = entry.builder()
            module = problem.composed_module()
            for formulas in _query_sets(problem):
                kripke = build_kripke(module, formulas)
                automata = compile_formulas(formulas)
                search = kripke_automata_product(kripke, automata)
                oracle = kripke_product(kripke, automata)
                assert search.is_empty() == tarjan_is_empty(oracle), name
                if search.is_empty():
                    assert search.state_count() == oracle.state_count(), name
                    assert search.transition_count() == oracle.transition_count(), name
                else:
                    assert search.state_count() <= oracle.state_count(), name
                    check_lasso(oracle, search.lasso)


class TestBddSifting:
    """In-place reordering must preserve every function and canonicity."""

    NAMES = ("a", "b", "c", "d", "e", "f")

    def _random_exprs(self, rng, count):
        def rexpr(depth):
            if depth == 0 or rng.random() < 0.25:
                return bx.var(rng.choice(self.NAMES))
            roll = rng.random()
            if roll < 0.33:
                return bx.not_(rexpr(depth - 1))
            if roll < 0.66:
                return bx.and_(rexpr(depth - 1), rexpr(depth - 1))
            return bx.or_(rexpr(depth - 1), rexpr(depth - 1))

        return [rexpr(4) for _ in range(count)]

    def _assignments(self):
        import itertools

        return [
            dict(zip(self.NAMES, bits))
            for bits in itertools.product([False, True], repeat=len(self.NAMES))
        ]

    @pytest.mark.parametrize("seed", [17, 18, 19])
    def test_swaps_and_sift_preserve_functions(self, seed):
        rng = random.Random(seed)
        manager = BDDManager(self.NAMES)
        funcs = [manager.from_expr(expr) for expr in self._random_exprs(rng, 5)]
        assignments = self._assignments()
        before = [[f.evaluate(a) for a in assignments] for f in funcs]
        for _ in range(20):
            manager.swap_adjacent(rng.randrange(len(self.NAMES) - 1))
        assert before == [[f.evaluate(a) for a in assignments] for f in funcs]
        live = manager.live_node_count([f.root for f in funcs])
        manager.sift(funcs)
        assert manager.live_node_count([f.root for f in funcs]) <= live
        assert before == [[f.evaluate(a) for a in assignments] for f in funcs]

    @pytest.mark.parametrize("seed", [23, 29])
    def test_canonicity_survives_reordering(self, seed):
        """Equivalent functions built *after* a sift share one node."""
        rng = random.Random(seed)
        manager = BDDManager(self.NAMES)
        funcs = [manager.from_expr(expr) for expr in self._random_exprs(rng, 4)]
        manager.sift(funcs)
        left, right = funcs[0], funcs[1]
        conj = left & right
        de_morgan = ~(~left | ~right)
        assert conj.root == de_morgan.root
        # And the internal invariant: children always at deeper levels.
        for ident, node in enumerate(manager._nodes):
            if node is None:
                continue
            for child in (node.low, node.high):
                if child > 1:
                    assert manager._nodes[child].level > node.level

    def test_sifting_shrinks_a_known_bad_order(self):
        """The textbook case: sum of disjoint products in interleaved-hostile
        order ``a1..an b1..bn`` collapses once sifting pairs ``ai`` with
        ``bi``."""
        names = ["a1", "a2", "a3", "b1", "b2", "b3"]
        manager = BDDManager(names)
        function = manager.false()
        for i in range(1, 4):
            function = function | (
                manager.var(f"a{i}") & manager.var(f"b{i}")
            )
        before = manager.live_node_count([function.root])
        manager.sift([function])
        after = manager.live_node_count([function.root])
        assert after < before

    def test_symbolic_engine_verdicts_unchanged_by_reordering(self):
        from repro.engines import get_engine

        for name in ("mal_fig2", "telemetry_bank"):
            problem = CATALOG[name].builder()
            base = get_engine("symbolic").check_primary(problem)
            reordered = get_engine("symbolic", bdd_reorder=True).check_primary(
                problem
            )
            assert base.covered == reordered.covered, name
