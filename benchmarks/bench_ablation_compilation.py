"""Ablation: property compilation strategies (design choice called out in DESIGN.md).

The reproduction compiles 1-step invariant properties into deterministic
safety monitors and composes one automaton per property, instead of building a
single tableau for the whole conjunction.  This benchmark quantifies why: the
monolithic tableau grows exponentially with the number of properties while the
on-the-fly search of the compositional product explores only the joint states
it reaches.
"""


from repro.ltl import ltl_to_gba, parse
from repro.ltl.monitor import safety_monitor_gba
from repro.ltl.sat import conjunction_search
from repro.designs import build_mal_with_gap
from repro.mc import ProductStatistics, build_kripke, kripke_automata_product
from repro.ltl.monitor import monitor_or_tableau


PROPERTIES = [f"G(a{i} -> X b{i})" for i in range(4)]


def test_ablation_single_property_monitor_vs_tableau(benchmark):
    formula = parse("G(r1 -> X n1)")
    monitor = benchmark(lambda: safety_monitor_gba(formula))
    tableau = ltl_to_gba(formula)
    # Same order of magnitude for one property; the monitor is deterministic.
    assert monitor.state_count() <= tableau.state_count() * 2


def test_ablation_conjunction_tableau_blowup(benchmark):
    conjunction = parse(" & ".join(PROPERTIES))
    monolithic = benchmark.pedantic(lambda: ltl_to_gba(conjunction), rounds=1, iterations=1)
    compositional = conjunction_search([safety_monitor_gba(parse(text)) for text in PROPERTIES])
    # The monolithic tableau is dramatically larger than the sum of the parts.
    per_property_total = sum(
        safety_monitor_gba(parse(text)).state_count() for text in PROPERTIES
    )
    assert monolithic.state_count() > per_property_total
    assert not compositional.is_empty()
    assert compositional.state_count() < monolithic.state_count()


def test_ablation_model_relative_product_stays_small(benchmark):
    """With the Kripke structure fixing every signal, the per-property product
    stays close to the Kripke size even with many deterministic components."""
    problem = build_mal_with_gap()
    formulas = problem.all_rtl_formulas()
    module = problem.composed_module()

    def build():
        kripke = build_kripke(module, formulas)
        statistics = ProductStatistics()
        automata = [monitor_or_tableau(formula) for formula in formulas]
        kripke_automata_product(kripke, automata, statistics=statistics)
        return statistics

    statistics = benchmark.pedantic(build, rounds=1, iterations=1)
    assert statistics.product_states <= statistics.kripke_states * 8
