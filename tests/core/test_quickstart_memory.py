"""Regression: the README quickstart ``analyze mal_fig4`` under a memory cap.

Building the whole Kripke x automata product before checking emptiness ran
one gap-search query out of memory (a 306,803-state product).  The fused
on-the-fly search decides it after a few dozen states, so Algorithm 1 at
default options must now finish under a 1 GiB address-space cap with the
three expected gaps, verified -- and with the same gaps and witnesses under
any hash seed.  The run is traced: the direct child spans of ``gap_search``
must account for at least 95% of its wall time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
ADDRESS_SPACE_CAP = 1 << 30

SCRIPT = f"""
import json, resource
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE_CAP}, {ADDRESS_SPACE_CAP}))
from repro.core import CoverageOptions, analyze_problem
from repro.designs import get_design
from repro.ltl.printer import to_str
from repro.obs import add_sink
from repro.runner.cache import encode_trace

class Sink:
    def __init__(self):
        self.records = []

    def record(self, record):
        self.records.append(record)

sink = Sink()
add_sink(sink)
(analysis,) = analyze_problem(get_design("mal_fig4").builder(), CoverageOptions()).analyses
(gap,) = [r for r in sink.records if r.name == "gap_search"]
children = [r for r in sink.records if r.path == gap.path + "/" + r.name]
print(json.dumps({{
    "covered": analysis.covered,
    "verified": analysis.gap_verified,
    "gaps": sorted(to_str(formula) for formula in analysis.gap_formulas),
    "witnesses": [encode_trace(w) for w in analysis.terms.witnesses],
    "gap_wall": gap.wall_seconds,
    "children_wall": sum(r.wall_seconds for r in children),
    "children": sorted({{r.name for r in children}}),
}}, sort_keys=True))
"""


@pytest.mark.slow
def test_quickstart_fits_one_gib_with_expected_gaps_under_any_hash_seed():
    with open(os.path.join(ROOT, "perfbench", "expected", "gaps.json"), encoding="utf-8") as handle:
        expected = json.load(handle)["mal_fig4"]
    processes = []
    for seed in ("0", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        processes.append(
            subprocess.Popen(
                [sys.executable, "-c", SCRIPT],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            )
        )
    results = []
    for process in processes:
        stdout, stderr = process.communicate(timeout=600)
        assert process.returncode == 0, stderr[-2000:]
        results.append(json.loads(stdout))
    for result in results:
        assert result["covered"] is expected["covered"] is False
        assert result["gaps"] == sorted(expected["gaps"])
        assert result["verified"] is True
        assert result["witnesses"]
        assert result["children_wall"] >= 0.95 * result["gap_wall"], result["children"]
    first, second = results
    assert first["gaps"] == second["gaps"]
    assert first["witnesses"] == second["witnesses"]
