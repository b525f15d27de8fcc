"""Every engine flag is honoured or rejected on every CLI surface.

A recording engine is registered for the duration of each test.  For each of
``check``, ``check --json``, ``analyze``, ``table1`` and ``suite``, the
``--engine``, ``--bound``, ``--no-slice``, ``--prop-backend`` and
``--bdd-reorder`` flags must either reach the engine (constructor arguments,
plus the propositional backend active while it searches) or make the command
exit 2 without running any engine.  A flag that is accepted and then dropped
fails here.  The flags are checked together and one at a time, and the
removed scheduler surfaces (``--sched-model``, ``specmatcher sched``) must be
rejected by the argument parser.
"""

import json

import pytest

from repro.cli import main
from repro.engines import CoverageEngine, active_prop_backend, register_engine, unregister_engine
from repro.mc.modelcheck import ExistentialResult

_DEFAULTS = {"max_bound": 12, "slicing": "auto", "bdd_reorder": False, "prop_backend": "auto"}
_FLAGS = ["--bound", "7", "--no-slice", "--prop-backend", "bdd", "--bdd-reorder"]
_FLAGGED = {"max_bound": 7, "slicing": False, "bdd_reorder": True, "prop_backend": "bdd"}


class _RecordingEngine(CoverageEngine):
    """Answers every query "no run" (so Algorithm 1 stops at the primary
    check) and records the settings each instance ran with."""

    name = "recording"
    records = []

    def __init__(self, *, max_bound=12, slicing="auto", bdd_reorder=False):
        super().__init__(slicing=slicing, max_bound=max_bound)
        self.bdd_reorder = bdd_reorder

    def find_run(self, target, formulas=None, *, observe=()):
        self.records.append(
            {
                "max_bound": self.max_bound,
                "slicing": self.slicing,
                "bdd_reorder": self.bdd_reorder,
                "prop_backend": active_prop_backend().name,
            }
        )
        return super().find_run(target, formulas, observe=observe)

    def _find_run(self, problem):
        return ExistentialResult(satisfiable=False)


@pytest.fixture()
def recording():
    _RecordingEngine.records = []
    register_engine("recording", _RecordingEngine)
    try:
        yield _RecordingEngine.records
    finally:
        unregister_engine("recording")


def _surfaces(tmp_path):
    return {
        "check": ["check", "mal_fig2"],
        "check --json": ["check", "mal_fig2", "--json"],
        "analyze": ["analyze", "mal_fig2", "--no-witnesses"],
        "table1": ["table1", "--max-witnesses", "1"],
        "suite": [
            "suite", "--designs", "mal_fig2", "--no-signals", "--no-cache",
            "--jobs", "1", "--output", str(tmp_path / "suite.txt"),
        ],
    }


_SURFACES = ["check", "check --json", "analyze", "table1", "suite"]


@pytest.mark.parametrize("surface", _SURFACES)
def test_default_flags_reach_the_engine(surface, recording, tmp_path, capsys):
    argv = _surfaces(tmp_path)[surface] + ["--engine", "recording"]
    assert main(argv) == 0
    assert recording, f"{surface}: --engine did not reach the engine"
    for record in recording:
        assert record == _DEFAULTS, surface


@pytest.mark.parametrize("surface", _SURFACES)
def test_every_flag_is_honoured_or_rejected(surface, recording, tmp_path, capsys):
    argv = _surfaces(tmp_path)[surface] + ["--engine", "recording"] + _FLAGS
    code = main(argv)
    if code == 2:
        assert not recording, f"{surface}: rejected, yet the engine ran"
        return
    assert code == 0, surface
    assert recording, f"{surface}: --engine did not reach the engine"
    for record in recording:
        assert record == _FLAGGED, surface


_SINGLE_FLAGS = {
    "--bound": (["--bound", "7"], {"max_bound": 7}),
    "--no-slice": (["--no-slice"], {"slicing": False}),
    "--prop-backend": (["--prop-backend", "bdd"], {"prop_backend": "bdd"}),
    "--bdd-reorder": (["--bdd-reorder"], {"bdd_reorder": True}),
}
# The service request schema has no bdd_reorder field, so `check --json`
# sends the flag along and the validator turns it away.
_REJECTED = {("check --json", "--bdd-reorder")}


@pytest.mark.parametrize("flag", sorted(_SINGLE_FLAGS))
@pytest.mark.parametrize("surface", _SURFACES)
def test_single_flag_is_honoured_or_rejected(surface, flag, recording, tmp_path, capsys):
    """Each flag alone: a rejection of one flag must not hide whether the
    others on the same surface are honoured."""
    extra, changed = _SINGLE_FLAGS[flag]
    argv = _surfaces(tmp_path)[surface] + ["--engine", "recording"] + extra
    code = main(argv)
    if (surface, flag) in _REJECTED:
        assert code == 2, surface
        assert not recording, f"{surface}: rejected {flag}, yet the engine ran"
        return
    assert code == 0, (surface, flag)
    assert recording, f"{surface}: --engine did not reach the engine"
    for record in recording:
        assert record == {**_DEFAULTS, **changed}, (surface, flag)


@pytest.mark.parametrize("surface", ["check", "analyze", "table1", "suite", "serve"])
def test_removed_scheduler_model_flag_is_rejected(surface, recording, tmp_path, capsys):
    command = ["serve", "--port", "0"] if surface == "serve" else _surfaces(tmp_path)[surface]
    argv = command + ["--sched-model", str(tmp_path / "model.json")]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "--sched-model" in capsys.readouterr().err
    assert not recording


@pytest.mark.parametrize("action", ["train", "show", "eval"])
def test_removed_sched_subcommand_is_rejected(action, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sched", action])
    assert excinfo.value.code == 2
    assert "invalid choice: 'sched'" in capsys.readouterr().err


def test_check_json_rejects_bdd_reorder_with_a_structured_error(recording, capsys):
    code = main(["check", "mal_fig2", "--json", "--engine", "recording", "--bdd-reorder"])
    assert code == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "validation"
    assert [entry["field"] for entry in error["errors"]] == ["bdd_reorder"]
    assert not recording
