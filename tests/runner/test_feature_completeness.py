"""Feature-record completeness: every verdict, shard row and cache payload
must carry a fully-populated ``features`` dict for every engine — one entry
per key of :meth:`CompiledProblem.features`, none of them ``None``."""

import json
import os
import subprocess
import sys

import pytest

from repro.designs import get_design
from repro.engines import get_engine
from repro.engines.coverage import _query_formulas
from repro.runner import expand_jobs, run_suite, suite_to_dict
from repro.runner.cache import ResultCache, using_result_cache

_BMC_BOUND = 6
_ENGINES = ["explicit", "bmc", "symbolic", "portfolio", "auto"]


def _feature_names():
    problem = get_design("mal_fig2").builder()
    compiled = get_engine("explicit").compile(
        problem.composed_module(), _query_formulas(problem, None)
    )
    return tuple(compiled.features(bound=_BMC_BOUND))


FEATURE_NAMES = _feature_names()


def _assert_complete(features, context):
    assert features is not None, context
    assert set(features) == set(FEATURE_NAMES), (context, features)
    for name in FEATURE_NAMES:
        assert features[name] is not None, (context, name)


def test_feature_schema_covers_the_documented_keys():
    assert {"coi_size", "registers", "automaton_states", "bound"} <= set(FEATURE_NAMES)


def test_features_are_hash_seed_independent():
    """The auto engine picks its path from ``automaton_states``, so feature
    records must not depend on set/dict iteration order."""
    script = (
        "import json\n"
        "from repro.designs import get_design\n"
        "from repro.engines import get_engine\n"
        "engine = get_engine('explicit')\n"
        "print(json.dumps({name: engine.check_primary(get_design(name).builder()).features"
        " for name in ['mal_fig2', 'mal_fig4', 'paper_example', 'telemetry_bank']},"
        " sort_keys=True))\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    outputs = set()
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join([src] + env.get("PYTHONPATH", "").split(os.pathsep))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env
        )
        outputs.add(proc.stdout.strip())
    assert len(outputs) == 1, "feature records depend on PYTHONHASHSEED"
    for name, features in json.loads(outputs.pop()).items():
        _assert_complete(features, name)


@pytest.mark.parametrize("engine_name", _ENGINES)
class TestVerdictFeatures:
    def test_check_primary_features_complete(self, engine_name):
        engine = get_engine(engine_name, max_bound=_BMC_BOUND)
        verdict = engine.check_primary(get_design("mal_fig2").builder())
        _assert_complete(verdict.features, engine_name)
        assert verdict.features["bound"] == _BMC_BOUND


@pytest.mark.parametrize("engine_name", _ENGINES)
class TestCachePayloadFeatures:
    def test_stored_payloads_carry_complete_features(self, engine_name):
        """No ``bound: None`` (or any other None) may leak into stored
        feature records — complete engines key their caches without a bound
        but must still record the configured one."""
        engine = get_engine(engine_name, max_bound=_BMC_BOUND)
        cache = ResultCache()
        with using_result_cache(cache):
            engine.check_primary(get_design("mal_fig2").builder())
        payloads = [p for p in cache._memory.values() if "features" in p]
        assert payloads, "engine runs must store feature records"
        for payload in payloads:
            _assert_complete(payload["features"], engine_name)


@pytest.mark.parametrize("engine_name", _ENGINES)
class TestSuiteRowFeatures:
    def test_all_shard_rows_fully_populated(self, engine_name):
        jobs = expand_jobs(["mal_fig2"], engine=engine_name, bound=_BMC_BOUND)
        result = run_suite(jobs, workers=1, use_cache=True)
        assert result.succeeded
        report = suite_to_dict(result)
        assert report["shards"], "suite must produce shard rows"
        for row in report["shards"]:
            _assert_complete(row["features"], row["job"])
            # bound must be the configured suite bound, never a placeholder
            assert row["features"]["bound"] == _BMC_BOUND
