"""Typed request validation for the coverage service.

Modeled on the validation layer of a production multi-user Python service
(cdedb2's ``cdedb/validation.py``): every field of an incoming JSON job is
checked by a small *typed validator* (``_str`` / ``_int`` / ``_float`` /
``_bool`` / ``_enum`` / ...), each failure is a :class:`ValidationError`
naming the offending field, and :func:`validate_request` collects **all**
failures of a request into one :class:`RequestValidationError` — the HTTP
layer turns that into a structured 400 body

.. code-block:: json

    {"ok": false, "error": "validation",
     "errors": [{"field": "engine", "message": "unknown engine 'warp'"},
                {"field": "bound", "message": "must be >= 0"}]}

so a client sees every problem with its request at once instead of fixing
them one round-trip at a time.  Unknown fields are rejected (a typo like
``"desing"`` must not silently fall back to a default).

The coverage-option fields of every job kind (``engine``, ``bound``,
``depth``, ...) are derived from the options table
(:class:`repro.options.CoverageOptions`) and validated there; this module adds
the job fields around them and the per-request ceilings on top.  The output
of validation is a frozen :class:`~repro.service.jobs.JobRequest` whose
``options`` is a :class:`CoverageOptions` — the execution layer never touches
raw JSON.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..options import CoverageOptions, Option, ValidationError, _bool, _int, _non_negative, _str, service_options

__all__ = [
    "ValidationError",
    "RequestValidationError",
    "validate_request",
    "JOB_KINDS",
]

#: The job kinds the service accepts (each is one ``POST /v1/<kind>``).
JOB_KINDS = ("check", "analyze", "suite")

#: Hard ceilings a single request may ask for, regardless of server
#: configuration — defense against one client monopolising the daemon.
MAX_BOUND = 64
MAX_WITNESSES = 16
MAX_DEPTH = 16
MAX_RANDOM_DESIGNS = 16
MAX_SUITE_WORKERS = 8
MAX_TIMEOUT_SECONDS = 600.0


class RequestValidationError(ValueError):
    """A request failed validation; carries every field failure."""

    def __init__(self, errors: List[ValidationError]):
        summary = "; ".join(str(error) for error in errors) or "invalid request"
        super().__init__(summary)
        self.errors = list(errors)

    def entries(self) -> List[Dict[str, str]]:
        """JSON-ready ``[{"field", "message"}, ...]`` (the 400 body)."""
        return [error.entry() for error in self.errors]

    @classmethod
    def single(cls, field: str, message: str) -> "RequestValidationError":
        """A one-failure instance (transport-level problems like a bad body)."""
        return cls([ValidationError(field, message)])


# -- typed field validators ----------------------------------------------------
#
# The strict scalar validators (``_str`` / ``_bool`` / ``_int`` / ...) live
# with the options table in :mod:`repro.options`; the ones below check the
# request fields that are not coverage options.


def _float(
    value, field: str, *, minimum: Optional[float] = None, maximum: Optional[float] = None
) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(field, f"expected a number, got {type(value).__name__}")
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        raise ValidationError(field, "must be a finite number")
    if minimum is not None and value < minimum:
        raise ValidationError(field, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValidationError(field, f"must be <= {maximum}, got {value}")
    return value


def _design(value, field: str) -> str:
    from ..designs import design_names

    name = _str(value, field)
    if name not in design_names():
        known = ", ".join(design_names())
        raise ValidationError(field, f"unknown design {name!r} (known: {known})")
    return name


def _design_list(value, field: str) -> Tuple[str, ...]:
    if not isinstance(value, list):
        raise ValidationError(field, f"expected a list of design names, got {type(value).__name__}")
    names: List[str] = []
    errors: List[ValidationError] = []
    for i, item in enumerate(value):
        try:
            names.append(_design(item, f"{field}[{i}]"))
        except ValidationError as error:
            errors.append(error)
    if errors:
        # Every bad entry is reported, not just the first.
        raise RequestValidationError(errors)
    return tuple(names)


def _timeout(value, field: str) -> float:
    return _float(value, field, minimum=0.01, maximum=MAX_TIMEOUT_SECONDS)


# -- request schemas -----------------------------------------------------------
#
# field -> (validator, required, CoverageOptions field or None).  The
# coverage-option fields of each kind come from the options table; the
# service caps a few of them further per request.

_Validator = Callable[[object, str], object]
_Schema = Dict[str, Tuple[_Validator, bool, Optional[str]]]

_CEILINGS = {"bound": MAX_BOUND, "max_witnesses": MAX_WITNESSES, "depth": MAX_DEPTH}


def _capped(option: Option) -> _Validator:
    ceiling = _CEILINGS.get(option.wire)
    if ceiling is None:
        return option.validate

    def validate(value, field: str) -> int:
        return _int(option.validate(value, field), field, maximum=ceiling)

    return validate


#: The job fields that are not coverage options (all optional but ``design``).
_JOB_FIELDS: Dict[str, Dict[str, Tuple[_Validator, bool]]] = {
    "check": {
        "design": (_design, True),
        "index": (_non_negative, False),
    },
    "analyze": {
        "design": (_design, True),
        "witnesses": (_bool, False),
    },
    "suite": {
        "designs": (_design_list, False),
        "random": (lambda v, f: _int(v, f, minimum=0, maximum=MAX_RANDOM_DESIGNS), False),
        "seed": (_int, False),
        "include_signals": (_bool, False),
        "workers": (lambda v, f: _int(v, f, minimum=1, maximum=MAX_SUITE_WORKERS), False),
        "shard_timeout": (_timeout, False),
    },
}


def _schema(kind: str) -> _Schema:
    schema: _Schema = {"timeout": (_timeout, False, None)}
    for field, (validator, required) in _JOB_FIELDS[kind].items():
        schema[field] = (validator, required, None)
    for name, option in service_options(kind):
        schema[option.wire] = (_capped(option), False, name)
    return schema


_SCHEMAS: Dict[str, _Schema] = {kind: _schema(kind) for kind in JOB_KINDS}


def validate_request(kind: str, payload: object) -> "JobRequest":
    """Validate a raw JSON job body into a frozen :class:`JobRequest`.

    Raises :class:`RequestValidationError` carrying *every* field failure:
    wrong body type, unknown fields, missing required fields and per-field
    type/range violations are all collected before raising.
    """
    from .jobs import JobRequest

    errors: List[ValidationError] = []
    if kind not in _SCHEMAS:
        known = ", ".join(JOB_KINDS)
        raise RequestValidationError(
            [ValidationError("kind", f"unknown job kind {kind!r} (known: {known})")]
        )
    if not isinstance(payload, dict):
        raise RequestValidationError(
            [ValidationError("body", f"expected a JSON object, got {type(payload).__name__}")]
        )

    schema = _SCHEMAS[kind]
    values: Dict[str, object] = {}
    settings: Dict[str, object] = {}
    for field in sorted(payload):
        if field == "kind":
            if payload[field] != kind:
                errors.append(
                    ValidationError("kind", f"body kind {payload[field]!r} does not match endpoint {kind!r}")
                )
            continue
        if field not in schema:
            errors.append(ValidationError(field, "unknown field"))
    for field, (validator, required, option) in sorted(schema.items()):
        if field in payload:
            try:
                value = validator(payload[field], field)
            except RequestValidationError as error:
                errors.extend(error.errors)
            except ValidationError as error:
                errors.append(error)
            else:
                if option is None:
                    values[field] = value
                else:
                    settings[option] = value
        elif required:
            errors.append(ValidationError(field, "required field is missing"))
    if errors:
        raise RequestValidationError(errors)
    return JobRequest(kind=kind, options=CoverageOptions(**settings), **values)
