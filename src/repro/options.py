"""The options table: every knob of Algorithm 1 and of its engines, declared once.

Each :class:`CoverageOptions` field carries its default; a field that can be
set from outside the library also carries an :class:`Option` in its
``metadata``: its typed validator, its wire name (the JSON request field and
argparse ``dest``), its CLI spelling and help, and the CLI subcommands and
service job kinds that take it.  The CLI flags, the service request schema,
service jobs, suite shards and engine construction are all derived from this
table, so a knob is honoured wherever it is accepted and rejected elsewhere.

The typed validators follow cdedb2's ``cdedb/validation.py``: each takes
``(value, field)`` and returns the value or raises :class:`ValidationError`
naming the field.  They are strict — JSON already tells numbers, strings and
booleans apart, so nothing is coerced; the CLI parses its text first
(``Option.parse``).  This module imports nothing from the package at load
time, so every layer can build on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Mapping, Optional, Tuple

__all__ = ["CoverageOptions", "Option", "ValidationError", "OPTIONS", "cli_options", "service_options"]


class ValidationError(ValueError):
    """One field of a request failed validation."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message

    def entry(self) -> Dict[str, str]:
        return {"field": self.field, "message": self.message}


# -- typed field validators ----------------------------------------------------


def _str(value, field: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(field, f"expected a string, got {type(value).__name__}")
    return value


def _bool(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(field, f"expected a boolean, got {type(value).__name__}")
    return value


def _int(value, field: str, *, minimum: Optional[int] = None, maximum: Optional[int] = None) -> int:
    # bool is a subclass of int; `"bound": true` must not validate.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(field, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ValidationError(field, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValidationError(field, f"must be <= {maximum}, got {value}")
    return value


def _non_negative(value, field: str) -> int:
    return _int(value, field, minimum=0)


def _positive(value, field: str) -> int:
    return _int(value, field, minimum=1)


def _engine(value, field: str) -> str:
    from .engines import engine_choices

    name = _str(value, field)
    if name not in engine_choices():
        known = ", ".join(engine_choices())
        raise ValidationError(field, f"unknown engine {name!r} (known: {known})")
    return name


def _prop_backend(value, field: str) -> str:
    from .engines import prop_backend_names

    name = _str(value, field)
    if name not in prop_backend_names():
        known = ", ".join(sorted(prop_backend_names()))
        raise ValidationError(field, f"unknown prop backend {name!r} (known: {known})")
    return name


def _slicing(value, field: str):
    if value is True or value is False or value == "auto":
        return value
    raise ValidationError(field, f"expected true, false or \"auto\", got {value!r}")


# -- the table -----------------------------------------------------------------


@dataclass(frozen=True)
class Option:
    """How one :class:`CoverageOptions` field is set from outside the library."""

    wire: str  # JSON request field and argparse dest
    flag: str
    help: str
    validate: Callable[[object, str], object]
    cli: Tuple[str, ...]  # CLI subcommands with the flag
    service: Tuple[str, ...] = ()  # service job kinds with the wire field
    parse: Callable[[str], object] = str  # CLI text -> value to validate
    const: object = None  # switch flags store this instead of taking a value
    #: Subcommands that start from another value than the field default.
    cli_defaults: Mapping[str, object] = field(default_factory=dict)


def _option(default, **spec):
    return field(default=default, metadata={"option": Option(**spec)})


#: Every subcommand that runs an engine (``submit`` forwards to the service).
_ENGINE_CLI = ("check", "analyze", "table1", "suite", "submit")
_ALL_JOBS = ("check", "analyze", "suite")


@dataclass(frozen=True)
class CoverageOptions:
    """Tunables of the gap-finding pipeline and of the engines it runs.

    ``prop_backend`` is installed for the duration of an analysis; the
    default ``None`` keeps the process-wide active backend, so a globally
    installed one is respected.  ``cache_dir`` installs a persistent
    decision-result cache (:mod:`repro.runner.cache`) for the analysis;
    ``use_cache=False`` masks every cache, including an active one, while the
    default keeps whatever cache is already active.
    """

    max_witnesses: int = _option(
        3, wire="max_witnesses", flag="--max-witnesses", validate=_non_negative, parse=int,
        help="witness runs enumerated per uncovered property",
        cli=("analyze", "table1", "submit"), service=("analyze",),
        cli_defaults={"table1": 2},  # the paper's Table 1 uses two
    )
    unfold_depth: int = _option(
        5, wire="depth", flag="--depth", validate=_positive, parse=int,
        help="bounded-prefix depth the uncovered terms are unfolded to",
        cli=("analyze", "submit"), service=("analyze",),
    )
    max_candidates: int = 48
    max_closure_checks: int = 20
    max_reported_gaps: int = 3
    verify_closure: bool = True
    engine: str = _option(
        "explicit", wire="engine", flag="--engine", validate=_engine,
        help="primary-coverage engine: explicit, bmc, symbolic, portfolio (alias race: "
        "all three concurrently, first decisive verdict wins) or auto (alias learned: "
        "shallow bmc on small automata, then explicit)",
        cli=_ENGINE_CLI, service=_ALL_JOBS,
    )
    prop_backend: Optional[str] = _option(
        None, wire="prop_backend", flag="--prop-backend", validate=_prop_backend,
        help="propositional decision backend: table, bdd, sat or auto (default: the active one)",
        cli=_ENGINE_CLI, service=_ALL_JOBS,
    )
    bmc_max_bound: int = _option(
        12, wire="bound", flag="--bound", validate=_non_negative, parse=int,
        help="unrolling bound for the bmc engine (ignored by explicit/symbolic)",
        cli=_ENGINE_CLI, service=_ALL_JOBS,
    )
    #: ``True`` always slices, ``False`` never; the default ``"auto"`` slices
    #: only when the cone of influence drops a meaningful share of the design.
    slicing: object = _option(
        "auto", wire="slicing", flag="--no-slice", validate=_slicing, const=False,
        help="disable cone-of-influence slicing (every query runs on the full module)",
        cli=_ENGINE_CLI, service=_ALL_JOBS,
    )
    cache_dir: Optional[str] = None
    use_cache: bool = True
    #: Greedy BDD sifting in the symbolic engine, triggered on node-table
    #: growth.  Off by default: the interleaved current/next order is already
    #: good for most designs.  Not a service field: requests with it fail.
    bdd_reorder: bool = _option(
        False, wire="bdd_reorder", flag="--bdd-reorder", validate=_bool, const=True,
        help="dynamic BDD variable reordering in the symbolic engine (others ignore it)",
        cli=("check", "analyze", "table1", "suite"),
    )

    def engine_settings(self) -> Dict[str, object]:
        """The keyword arguments every registered engine is built with."""
        return {"max_bound": self.bmc_max_bound, "slicing": self.slicing, "bdd_reorder": self.bdd_reorder}


#: ``(field name, Option)`` for every externally settable field, in
#: declaration order.
OPTIONS: Tuple[Tuple[str, Option], ...] = tuple(
    (f.name, f.metadata["option"]) for f in fields(CoverageOptions) if "option" in f.metadata
)


def cli_options(command: str) -> List[Tuple[str, Option]]:
    """The table entries a CLI subcommand takes as flags."""
    return [(name, option) for name, option in OPTIONS if command in option.cli]


def service_options(kind: str) -> List[Tuple[str, Option]]:
    """The table entries a service job kind takes as request fields."""
    return [(name, option) for name, option in OPTIONS if kind in option.service]
