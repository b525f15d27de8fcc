"""Every options-table knob is honoured or rejected on every surface.

The options table (:mod:`repro.options`) declares, for each
:class:`CoverageOptions` field that can be set from outside, the CLI
subcommands and the service job kinds that take it.  These tests iterate over
the table, so a field added to it later is covered with no edit here:

* on the CLI surfaces ``check``, ``check --json``, ``analyze``, ``table1``
  and ``suite`` every flag, alone and all together, must reach the run or make
  the command exit 2 without running any engine.  A recording engine captures
  the settings it was built with and the propositional backend active while
  it searches; on the Algorithm-1 surfaces the options the analysis runs with
  are captured too.  Every field a surface declares must be seen by one of
  these probes;
* ``submit`` must send a body that the service validator turns into the same
  options, or that it rejects naming the field;
* the service validator must accept each field on the job kinds that declare
  it and reject it, naming it, on every other kind;
* ``JobRequest``, ``CoverageJob``, the engines and the argparse defaults start
  from the table defaults.

The removed scheduler surfaces (``--sched-model``, ``specmatcher sched``)
must be rejected by the argument parser.
"""

import dataclasses
import json

import pytest

import repro.core.coverage
import repro.service
from repro.cli import build_parser, main
from repro.engines import (
    CoverageEngine,
    active_prop_backend,
    engine_names,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.mc.modelcheck import ExistentialResult
from repro.options import OPTIONS, CoverageOptions, ValidationError, cli_options
from repro.runner import CoverageJob
from repro.service import RequestValidationError, ServiceError, validate_request
from repro.service.jobs import JobRequest
from repro.service.validation import JOB_KINDS


class _RecordingEngine(CoverageEngine):
    """Answers every query "no run" (so Algorithm 1 stops at the primary
    check) and records the settings each instance ran with."""

    name = "recording"
    records = []

    def find_run(self, target, formulas=None, *, observe=()):
        self.records.append({**self.settings(), "prop_backend": active_prop_backend().name})
        return super().find_run(target, formulas, observe=observe)

    def _find_run(self, problem):
        return ExistentialResult(satisfiable=False)


@pytest.fixture()
def probes(monkeypatch):
    """The recording engine's records and the options of every analysis."""
    _RecordingEngine.records = []
    analyses = []
    find_coverage_gap = repro.core.coverage.find_coverage_gap

    def recording_find_coverage_gap(problem, architectural, options=None):
        analyses.append(options)
        return find_coverage_gap(problem, architectural, options)

    monkeypatch.setattr(repro.core.coverage, "find_coverage_gap", recording_find_coverage_gap)
    register_engine("recording", _RecordingEngine)
    try:
        yield _RecordingEngine.records, analyses
    finally:
        unregister_engine("recording")


_TABLE = dict(OPTIONS)

#: Non-default values of the fields that take text (ints and switches are
#: derived from the table).
_TEXT_SAMPLES = {"engine": "recording", "prop_backend": "bdd"}


def _sample(name):
    """``(argv, value)`` that set the field away from its default."""
    option = _TABLE[name]
    if option.const is not None:
        return [option.flag], option.const
    if option.parse is int:
        value = getattr(CoverageOptions, name) + 1
        return [option.flag, str(value)], value
    assert name in _TEXT_SAMPLES, f"add a sample value for the new field {name!r}"
    value = _TEXT_SAMPLES[name]
    return [option.flag, value], value


def _engine_fields():
    """The fields the recording engine sees: its name, settings and backend."""
    default = CoverageOptions().engine_settings()
    seen = {"engine", "prop_backend"}
    for name in _TABLE:
        changed = dataclasses.replace(CoverageOptions(), **{name: _sample(name)[1]})
        if changed.engine_settings() != default:
            seen.add(name)
    return seen


_ENGINE_FIELDS = _engine_fields()

#: CLI surface -> (subcommand, argv).
_SURFACES = {
    "check": ("check", ["check", "mal_fig2"]),
    "check --json": ("check", ["check", "mal_fig2", "--json"]),
    "analyze": ("analyze", ["analyze", "mal_fig2", "--no-witnesses"]),
    "table1": ("table1", ["table1"]),
    "suite": (
        "suite",
        ["suite", "--designs", "mal_fig2", "--no-signals", "--no-cache", "--jobs", "1"],
    ),
}


def _surface_defaults(command):
    return {
        name: option.cli_defaults.get(command, getattr(CoverageOptions, name))
        for name, option in cli_options(command)
    }


def _check_surface(surface, names, probes, tmp_path, capsys):
    """Run ``surface`` with the flags of ``names`` set; check what arrived."""
    records, analyses = probes
    command, argv = _SURFACES[surface]
    argv = argv + ["--engine", "recording"]
    if command == "suite":
        argv += ["--output", str(tmp_path / "suite.txt")]
    changes = {"engine": "recording"}
    for name in names:
        flag_argv, changes[name] = _sample(name)
        argv += flag_argv
    code = main(argv)

    # `check --json` goes through the service, which turns away the fields
    # it does not take.
    rejected = sorted(
        _TABLE[name].wire
        for name in names
        if surface == "check --json" and "check" not in _TABLE[name].service
    )
    if rejected:
        assert code == 2, surface
        assert not records, f"{surface}: rejected, yet the engine ran"
        errors = json.loads(capsys.readouterr().err)["errors"]
        assert sorted(entry["field"] for entry in errors) == rejected
        return
    assert code == 0, surface

    expected = CoverageOptions(**{**_surface_defaults(command), **changes})
    assert records, f"{surface}: --engine did not reach the engine"
    for record in records:
        assert record == {
            **expected.engine_settings(),
            "prop_backend": expected.prop_backend or "auto",
        }, surface
    seen = set(_ENGINE_FIELDS)
    if analyses:
        for options in analyses:
            assert options == expected, surface
        seen |= set(_TABLE)
    unseen = {name for name, _ in cli_options(command)} - seen
    assert not unseen, f"{surface}: no probe sees {sorted(unseen)}"


@pytest.mark.parametrize("surface", sorted(_SURFACES))
def test_default_flags_reach_the_engine(surface, probes, tmp_path, capsys):
    _check_surface(surface, [], probes, tmp_path, capsys)


@pytest.mark.parametrize("surface", sorted(_SURFACES))
def test_every_flag_is_honoured_or_rejected(surface, probes, tmp_path, capsys):
    command = _SURFACES[surface][0]
    names = [name for name, _ in cli_options(command) if name != "engine"]
    _check_surface(surface, names, probes, tmp_path, capsys)


_SINGLE_FLAGS = [
    (surface, option.flag)
    for surface in sorted(_SURFACES)
    for _, option in sorted(cli_options(_SURFACES[surface][0]), key=lambda item: item[1].flag)
    if option.flag != "--engine"
]


@pytest.mark.parametrize("surface, flag", _SINGLE_FLAGS)
def test_single_flag_is_honoured_or_rejected(surface, flag, probes, tmp_path, capsys):
    """Each flag alone: a rejection of one flag must not hide whether the
    others on the same surface are honoured."""
    (name,) = [name for name, option in OPTIONS if option.flag == flag]
    _check_surface(surface, [name], probes, tmp_path, capsys)


def test_check_json_rejects_bdd_reorder_with_a_structured_error(probes, capsys):
    records, _ = probes
    code = main(["check", "mal_fig2", "--json", "--engine", "recording", "--bdd-reorder"])
    assert code == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "validation"
    assert [entry["field"] for entry in error["errors"]] == ["bdd_reorder"]
    assert not records


# -- submit and the service validator -------------------------------------------


class _ValidatingClient:
    """Stands in for the daemon: validates each body as the server does."""

    requests = []

    def __init__(self, host, port, client_id=None):
        pass

    def submit(self, kind, body):
        try:
            request = validate_request(kind, body)
        except RequestValidationError as exc:
            raise ServiceError(400, {"error": "validation", "errors": exc.entries()}) from None
        self.requests.append(request)
        return {"job": kind}


@pytest.fixture()
def served(probes, monkeypatch):
    _ValidatingClient.requests = []
    monkeypatch.setattr(repro.service, "ServiceClient", _ValidatingClient)
    return _ValidatingClient.requests


_SUBMIT = {
    "check": ["submit", "check", "mal_fig2", "--port", "1"],
    "analyze": ["submit", "analyze", "mal_fig2", "--port", "1"],
    "suite": ["submit", "suite", "--port", "1"],
}
_SUBMIT_FIELDS = [name for name, _ in cli_options("submit")]


def _check_submit(kind, names, served, capsys):
    argv = list(_SUBMIT[kind])
    changes = {}
    for name in names:
        flag_argv, changes[name] = _sample(name)
        argv += flag_argv
    code = main(argv)
    rejected = sorted(_TABLE[name].wire for name in names if kind not in _TABLE[name].service)
    if rejected:
        assert code == 2
        errors = json.loads(capsys.readouterr().err)["errors"]
        assert sorted(entry["field"] for entry in errors) == rejected
        assert not served
        return
    assert code == 0
    (request,) = served
    assert request.options == CoverageOptions(**changes)


@pytest.mark.parametrize("name", _SUBMIT_FIELDS)
@pytest.mark.parametrize("kind", JOB_KINDS)
def test_submit_sends_each_option_flag(kind, name, served, capsys):
    _check_submit(kind, [name], served, capsys)


@pytest.mark.parametrize("kind", JOB_KINDS)
def test_submit_sends_every_option_flag(kind, served, capsys):
    _check_submit(kind, _SUBMIT_FIELDS, served, capsys)


_MINIMAL = {"check": {"design": "mal_fig2"}, "analyze": {"design": "mal_fig2"}, "suite": {}}


@pytest.mark.parametrize("name", sorted(_TABLE))
@pytest.mark.parametrize("kind", JOB_KINDS)
def test_service_validator_follows_the_table(kind, name, probes):
    option = _TABLE[name]
    value = _sample(name)[1]
    body = {**_MINIMAL[kind], option.wire: value}
    if kind not in option.service:
        with pytest.raises(RequestValidationError) as excinfo:
            validate_request(kind, body)
        assert [entry["field"] for entry in excinfo.value.entries()] == [option.wire]
        return
    request = validate_request(kind, body)
    assert request.options == CoverageOptions(**{name: value})
    # The table's validator runs: no JSON value of the wrong shape passes.
    with pytest.raises(RequestValidationError) as excinfo:
        validate_request(kind, {**_MINIMAL[kind], option.wire: []})
    assert [entry["field"] for entry in excinfo.value.entries()] == [option.wire]


def _below_range(name):
    """The largest value under the field's default that its validator rejects."""
    option = _TABLE[name]
    for value in range(getattr(CoverageOptions, name), -2, -1):
        try:
            option.validate(value, option.wire)
        except ValidationError as exc:
            return value, exc.message
    pytest.fail(f"no rejected value below the default of {name!r}")


_RANGED = [
    (command, name)
    for command in ("analyze", "check", "submit", "suite", "table1")
    for name, option in cli_options(command)
    if option.parse is int
]


@pytest.mark.parametrize("command, name", _RANGED)
def test_cli_range_matches_the_service(command, name, served, capsys):
    """An out-of-range value exits 2 with the service's message, and no engine
    runs.  ``submit`` leaves the check to the service's structured 400."""
    option = _TABLE[name]
    value, message = _below_range(name)
    argv = {
        "analyze": ["analyze", "mal_fig2"],
        "check": ["check", "mal_fig2"],
        "submit": ["submit", "analyze", "mal_fig2", "--port", "1"],
        "suite": ["suite", "--no-cache"],
        "table1": ["table1"],
    }[command] + ["--engine", "recording", option.flag, str(value)]
    if command == "submit":
        assert main(argv) == 2
        errors = json.loads(capsys.readouterr().err)["errors"]
        assert errors == [{"field": option.wire, "message": message}]
    else:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"argument {option.flag}: {message}" in capsys.readouterr().err
    assert not _RecordingEngine.records and not served
    for kind in option.service:
        with pytest.raises(RequestValidationError) as excinfo:
            validate_request(kind, {**_MINIMAL[kind], option.wire: value})
        assert excinfo.value.entries() == [{"field": option.wire, "message": message}]


# -- defaults ---------------------------------------------------------------------


def test_every_surface_starts_from_the_table_defaults():
    assert JobRequest(kind="check").options == CoverageOptions()
    assert validate_request("suite", {}).options == CoverageOptions()
    job = CoverageJob(design="mal_fig2", kind="primary", target="0", index=0)
    assert job.options == CoverageOptions()
    for name in engine_names():
        assert get_engine(name).settings() == CoverageOptions().engine_settings(), name
    parser = build_parser()
    commands = [command_argv for command_argv in _SURFACES.values()]
    commands += [("submit", argv) for argv in _SUBMIT.values()]
    for command, argv in commands:
        args = parser.parse_args(argv)
        for name, option in cli_options(command):
            assert getattr(args, option.wire) == _surface_defaults(command)[name], (command, name)


# -- removed surfaces ---------------------------------------------------------------


@pytest.mark.parametrize("surface", ["check", "analyze", "table1", "suite", "serve"])
def test_removed_scheduler_model_flag_is_rejected(surface, probes, tmp_path, capsys):
    records, _ = probes
    command = ["serve", "--port", "0"] if surface == "serve" else _SURFACES[surface][1]
    argv = command + ["--sched-model", str(tmp_path / "model.json")]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "--sched-model" in capsys.readouterr().err
    assert not records


@pytest.mark.parametrize("action", ["train", "show", "eval"])
def test_removed_sched_subcommand_is_rejected(action, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sched", action])
    assert excinfo.value.code == 2
    assert "invalid choice: 'sched'" in capsys.readouterr().err
