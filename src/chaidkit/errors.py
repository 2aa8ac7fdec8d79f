"""Exception types, and the number rule of documents, shared across the library."""


class ChaidError(Exception):
    """Base error for invalid inputs or violated invariants."""


class DataError(ChaidError):
    """Malformed data file, schema, or record."""


class ModelError(ChaidError):
    """Malformed or internally inconsistent model document."""


def _number(kind: type, value: object) -> int | float:
    """A number field of a model or schema document: no text, no bool, no fraction for an int."""
    if isinstance(value, (bool, str)) or kind(value) != value:
        raise ValueError(f"expected {kind.__name__}, not {value!r}")
    return kind(value)
