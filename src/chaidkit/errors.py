"""Exception types, and the number and text rules of documents, shared across the library."""


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
