"""The one codec every wire type shares: rows, and the walker over them.

A wire type is a dataclass whose fields are declared with :func:`row` —
one line giving the attribute, its Python type, its
:class:`~repro.api.kinds.Kind` (JSON type, bounds, encoding) and how it
may be absent.  That field list *is* the type's table: :class:`Wire`
walks it to encode and decode, :func:`from_mirror` / :func:`to_mirror`
walk it for the bridges to the serving dataclasses, and nothing here
knows any particular type.
"""

from __future__ import annotations

import dataclasses
from typing import Any, ClassVar, NamedTuple

from repro.api.errors import SchemaError
from repro.api.kinds import Kind, expect_keys
from repro.wire import SCHEMA_VERSION

#: How a row may be absent.  ``OMIT``: absent and ``null`` both mean
#: ``None``, and ``None`` is left off the wire.  ``NULL``: the same on the
#: way in, but ``None`` is written as ``null`` (the key has always been
#: there).  ``DEFAULT``: absent means the dataclass default, ``null`` is
#: a fault, and the value is always written.
OMIT, NULL, DEFAULT = "omit", "null", "default"
_NULL_IS_ABSENT = (OMIT, NULL)
_VERSION_KEY = frozenset({"schema_version"})


class Many(NamedTuple):
    """A JSON list of ``low`` to ``high`` objects of one nested wire type."""

    item: type
    low: int = 0
    high: int | None = None


class Row(NamedTuple):
    """One field of one wire type: everything the codec knows about it."""

    kind: Any  #: a :class:`Kind`, a nested wire class, or :class:`Many` of one
    optional: str | None = None  #: ``None`` = required, else OMIT / NULL / DEFAULT
    key: str | None = None  #: wire key; the attribute name unless given (``summary``)
    name: str = ""  #: dataclass attribute, filled in from the field


def row(kind: Any, optional: str | None = None, key: str | None = None, **field_options):
    """Declare a dataclass field that is also a row of the type's table."""
    if optional in _NULL_IS_ABSENT:
        field_options.setdefault("default", None)
    return dataclasses.field(metadata={"row": Row(kind, optional, key)}, **field_options)


def _decode_nested(kind: Any, value: Any, where: str, version: str | None) -> Any:
    if not isinstance(kind, Many):
        return kind._decode(value, where, version)
    if not isinstance(value, list) or len(value) < kind.low:
        raise SchemaError(f"{where}: expected a {'non-empty ' if kind.low else ''}list")
    if kind.high is not None and len(value) > kind.high:
        noun = where.rpartition(".")[2]
        raise SchemaError(f"{where}: at most {kind.high} {noun} per request, got {len(value)}")
    return [
        kind.item._decode(entry, f"{where}[{index}]", version)
        for index, entry in enumerate(value)
    ]


def _encode_value(kind: Any, value: Any) -> Any:
    if isinstance(kind, Kind):
        return (kind.encode or kind.coerce)(value)
    if isinstance(kind, Many):
        return [entry.to_json_dict() for entry in value]
    return value.to_json_dict()


#: Every wire type, in definition order (tests walk this).
WIRE_TYPES: list[type] = []


class Wire:
    """Base of every wire dataclass: the generic codec over its rows.

    A subclass sets ``_where`` (the root of its error paths); top-level
    bodies also set ``_versions`` (they carry and check
    ``schema_version``), and ``_wrapper`` when their fields sit one
    level down (``frame``, ``error``).
    """

    _where: ClassVar[str]
    _versions: ClassVar[tuple[str, ...] | None] = None
    _wrapper: ClassVar[str | None] = None
    #: Rows with no field of their own (written from a property).
    _extra_rows: ClassVar[tuple[Row, ...]] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_where" in cls.__dict__:
            WIRE_TYPES.append(cls)

    @classmethod
    def rows(cls) -> tuple[Row, ...]:
        """The type's table, in wire order (built on first use: ``dataclass()``
        runs after the class body), with its required and optional key sets."""
        if "_rows" not in cls.__dict__:
            declared = [
                field.metadata["row"]._replace(name=field.name)
                for field in dataclasses.fields(cls)
                if "row" in field.metadata
            ]
            rows = cls._order((*declared, *cls._extra_rows))
            cls._rows = rows = tuple(row._replace(key=row.key or row.name) for row in rows)
            cls._keys = (
                frozenset(row.key for row in rows if row.optional is None),
                frozenset(row.key for row in rows if row.optional is not None),
            )
        return cls._rows

    @classmethod
    def _order(cls, rows: tuple[Row, ...]) -> tuple[Row, ...]:
        """Wire order of the rows; field order unless a type says otherwise."""
        return rows

    def _wire_version(self) -> str:
        return SCHEMA_VERSION

    def to_json_dict(self) -> dict:
        """The JSON-ready body, keys in table order."""
        body: dict[str, Any] = {}
        for row in self.rows():
            value = getattr(self, row.name)
            encoded = None if value is None else _encode_value(row.kind, value)
            if encoded is not None or row.optional != OMIT:
                body[row.key] = encoded
        if self._wrapper is not None:
            body = {self._wrapper: body}
        if self._versions is not None:
            body = {"schema_version": self._wire_version(), **body}
        return body

    @classmethod
    def from_json_dict(cls, obj: dict, where: str | None = None):
        """Validate a parsed-JSON body; raises :class:`SchemaError` naming the field."""
        return cls._decode(obj, where or cls._where, None)

    @classmethod
    def _decode(cls, obj: Any, where: str, version: str | None):
        rows = cls.rows()
        required, optional = cls._keys
        if cls._versions is not None:
            if cls._wrapper is None:
                expect_keys(obj, required | _VERSION_KEY, optional, where)
            else:
                expect_keys(obj, _VERSION_KEY | {cls._wrapper}, frozenset(), where)
            version = obj["schema_version"]
            if version not in cls._versions:
                known = cls._versions
                expected = known[0] if len(known) == 1 else f"one of {list(known)}"
                raise SchemaError(
                    f"{where}: unsupported schema_version {version!r} (expected {expected})"
                )
            if cls._wrapper is not None:
                obj, where = obj[cls._wrapper], f"{where}.{cls._wrapper}"
        if cls._versions is None or cls._wrapper is not None:
            expect_keys(obj, required, optional, where)
        values = {}
        try:
            for kind, optional, key, name in rows:
                raw = obj.get(key)
                # A required key is known present, so None can only be its value.
                if raw is None and (optional in _NULL_IS_ABSENT or key not in obj):
                    continue
                if isinstance(kind, Kind):
                    values[name] = kind.decode(raw, f"{where}.{key}")
                else:
                    values[name] = _decode_nested(kind, raw, f"{where}.{key}", version)
            cls._check(values, where, version)
        except OverflowError:
            # JSON allows integer literals no float can hold; float() and
            # math.isfinite() raise on them instead of answering.
            raise SchemaError(f"{where}: an integer is too large for a float") from None
        return cls(**values)

    @classmethod
    def _check(cls, values: dict, where: str, version: str | None) -> None:
        """Cross-field rules a single row cannot state; may rewrite ``values``."""


def from_mirror(cls, source):
    """Build the payload from the serving dataclass it mirrors field for field."""
    return cls(**{row.name: row.kind.coerce(getattr(source, row.name)) for row in cls.rows()})


def to_mirror(self):
    """Rebuild the in-process type clients already consume (``_mirrors``).

    Values pass through untouched: both ways of making a payload —
    decoding one and :func:`from_mirror` — have already coerced them.
    """
    return self._mirrors(**{name: getattr(self, name) for _, _, _, name in self.rows()})
