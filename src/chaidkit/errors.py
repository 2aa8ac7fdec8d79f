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


def _texts(items: list, what: str, error: type[ChaidError]) -> tuple[str, ...]:
    """The items of a document's list of text, each refused as :func:`_text` refuses it."""
    return tuple(_text(item, what, error) for item in items)


def _list(value: object, name: str, error: type[ChaidError]) -> list:
    """A list field of a document: a string there is not a list of characters."""
    if not isinstance(value, list):
        raise error(f"{name} must be a list, not {value!r}")
    return value


def _mapping(value: object, name: str, error: type[ChaidError]) -> dict:
    """A mapping field of a document: a list of pairs there is not a mapping."""
    if not isinstance(value, dict):
        raise error(f"{name} must be a mapping, not {value!r}")
    return value


def _opened(doc: object, kind: str, tag: str, version: int, error: type[ChaidError]) -> dict:
    """A ``kind`` document's mapping, refused unless it carries format ``tag`` at ``version``."""
    if not isinstance(doc, dict):
        raise error(f"{kind} document must be a mapping")
    if doc.get("format") != tag:
        raise error(f"not a {kind} document (unrecognized format tag)")
    found = doc.get("format_version")
    if type(found) is not int or found != version:  # true and 1.0 equal 1, but are not it
        raise error(f"unsupported {kind} format version: {found!r}")
    return doc


def _doc(spec: object) -> dict:
    """A schema dataclass as a document: unset fields left out, enums by value, tuples as lists."""
    return asdict(spec, dict_factory=lambda kv: {k: _plain(v) for k, v in kv if v is not None})


def _plain(value: object) -> object:
    """A dataclass field's value as JSON data: an enum by value, a tuple, nested too, as a list."""
    if isinstance(value, Enum):
        return value.value
    return [_plain(item) for item in value] if isinstance(value, tuple) else value
