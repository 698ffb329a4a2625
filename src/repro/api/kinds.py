"""Field kinds: how one wire value is checked, normalised and spelled.

A :class:`Kind` is the leaf of the codec (:mod:`repro.api.codec`): the
type, range and JSON form of one field, stated once and shared by every
table that has such a field.  The per-component float loop
(:func:`float_matrix`) is where most of a body's decode time goes.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.api.errors import SchemaError


def expect_keys(obj: Any, required, optional, where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    if missing := required - obj.keys():
        raise SchemaError(f"{where}: missing required key(s) {sorted(missing)}")
    if unknown := obj.keys() - required - optional:
        raise SchemaError(f"{where}: unknown key(s) {sorted(unknown)}")


def float_matrix(value: Any, shape: tuple[int | None, int], where: str) -> np.ndarray:
    """Validate a nested list of finite numbers into a float64 array."""
    if not isinstance(value, list) or any(not isinstance(row, list) for row in value):
        raise SchemaError(f"{where}: expected a list of {shape[1]}-element rows")
    rows = shape[0] if shape[0] is not None else len(value)
    if len(value) != rows:
        raise SchemaError(f"{where}: expected {rows} rows, got {len(value)}")
    for index, row in enumerate(value):
        if len(row) != shape[1]:
            raise SchemaError(f"{where}[{index}]: expected {shape[1]} components")
        for component in row:
            # An exact float (nearly every component) needs no further type test.
            if type(component) is not float and (
                isinstance(component, bool) or not isinstance(component, (int, float))
            ):
                raise SchemaError(f"{where}[{index}]: non-numeric component {component!r}")
            if not math.isfinite(component):
                raise SchemaError(f"{where}[{index}]: non-finite component {component!r}")
    return np.asarray(value, dtype=np.float64).reshape(len(value), shape[1])


def expect_rows(matrix: np.ndarray, rows: int, where: str) -> None:
    """A matrix whose row count another field fixes (one row per atom)."""
    if len(matrix) != rows:
        raise SchemaError(f"{where}: expected {rows} rows, got {len(matrix)}")


def matrix_to_json(array) -> list[list[float]]:
    # tolist() yields the Python floats float(component) would, so
    # json.dumps writes the same shortest-repr digits.
    return np.asarray(array, dtype=np.float64).tolist()


# ----------------------------------------------------------------------
# Kinds: one value's type, range and JSON form
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Kind:
    """How one field value is checked on the way in and spelled on the way out.

    ``decode(value, where)`` validates a parsed-JSON value (bytes from
    outside the process), raising :class:`SchemaError` that names
    ``where``; ``coerce`` normalises an in-process value to the
    dataclass's type; ``encode`` is its JSON form (``coerce`` unless
    given) and may return ``None`` to leave an optional key off the
    wire.  ``domain`` restates the rule as data where it can be — int
    bounds, enum values — for tests that build bodies from the tables.
    """

    decode: Callable[[Any, str], Any]
    coerce: Callable[[Any], Any] = lambda value: value
    encode: Callable[[Any], Any] | None = None
    domain: tuple = ()


NUMBERS = (int, float)


def scalar(types, phrase, accepts=None, complaint="", coerce=None, domain=()) -> Kind:
    """A JSON value of ``types`` (``true``/``false`` only where bool is asked for).

    One that ``accepts`` turns down is told ``complaint``, or ``expected
    <phrase>`` again when there is none.
    """
    complaint = complaint or f"expected {phrase}"

    def decode(value, where):
        if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
            raise SchemaError(f"{where}: expected {phrase}")
        if accepts is not None and not accepts(value):
            raise SchemaError(f"{where}: {complaint.format(value)}")
        return value if coerce is None else coerce(value)

    return Kind(decode, coerce or (lambda value: value), domain=domain)


_INT_PHRASE = {None: "an int", 0: "a non-negative int", 1: "a positive int"}


def integer(low: int | None = None, high: int | None = None) -> Kind:
    """An int in ``[low, high]``.

    With both bounds the range is spelled out (request knobs); with a
    floor alone one phrase covers type and sign (response counters).
    """
    if high is None:
        floor = None if low is None else (lambda value: value >= low)
        return scalar(int, _INT_PHRASE[low], floor, coerce=int, domain=(low, high))
    return scalar(
        int, "an int", lambda v: low <= v <= high, f"must be in [{low}, {high}]", int, (low, high)
    )


def enum(values: tuple[str, ...]) -> Kind:
    return scalar(str, f"one of {list(values)}", values.__contains__, domain=values)


STR = scalar(str, "a string")
BOOL = scalar(bool, "a boolean", coerce=bool)
NUMBER = scalar(NUMBERS, "a number", coerce=float)
FINITE = scalar(NUMBERS, "a number", math.isfinite, "non-finite value {!r}", float)
POSITIVE = scalar(
    NUMBERS, "a number", lambda v: math.isfinite(v) and v > 0, "must be positive and finite", float
)
NON_NEGATIVE = scalar(
    NUMBERS, "a number", lambda v: math.isfinite(v) and v >= 0, "must be finite and >= 0", float
)
COUNT = integer(0)
_as_matrix = lambda value: np.asarray(value, dtype=np.float64)  # noqa: E731
MATRIX = Kind(lambda v, where: float_matrix(v, (None, 3), where), _as_matrix, matrix_to_json)
CELL = Kind(lambda v, where: float_matrix(v, (3, 3), where), _as_matrix, matrix_to_json)
#: Handed through as parsed; the owning type's ``_check`` validates it.
UNCHECKED = Kind(lambda value, where: value)
