"""Exception types, and the rules for reading and writing documents, shared across the library."""

from dataclasses import asdict
from enum import Enum


class ChaidError(Exception):
    """Base error for invalid inputs or violated invariants."""


class DataError(ChaidError):
    """Malformed data file, schema, or record."""


class ModelError(ChaidError):
    """Malformed or internally inconsistent model document."""


def _number(kind: type, value: object, field: str) -> int | float:
    """A number field of a model or schema document: no text, no bool, no fraction for an int.

    Every refusal is a ``ValueError`` that names ``field``.
    """
    try:
        if not isinstance(value, (bool, str)) and kind(value) == value:
            return kind(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{field}: expected {kind.__name__}, not {value!r}")


def _text(value: object, what: str, error: type[ChaidError]) -> str:
    """A text field of a model or schema document: a string, never a number, bool or null."""
    if not isinstance(value, str):
        raise error(f"{what} must be text, not {value!r}")
    return value


def _doc(spec: object) -> dict:
    """A schema dataclass as a document: unset fields left out, enums by value, tuples as lists."""
    return asdict(spec, dict_factory=lambda kv: {k: _plain(v) for k, v in kv if v is not None})


def _plain(value: object) -> object:
    if isinstance(value, Enum):
        return value.value
    return list(value) if isinstance(value, tuple) else value
