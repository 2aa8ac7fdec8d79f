"""Dataset loading, schema validation, and numeric discretization.

A schema declares each column's role (target, predictor, ignored), kind
(categorical or numeric), scale, and, for numeric columns, a binning rule.
Loading turns every parsed column into category labels: numeric values are
binned into interval labels "1".."k", blank cells of a float-scale
predictor become its floating category (blank cells of other predictors
become the missing label at prediction time), and the realized bin
boundaries are kept so the exact same labeling can be replayed at
prediction time from the model document alone.

Row numbers in error messages count data rows from 1; the header row is
not counted.
"""

from __future__ import annotations

import csv
import io
import json
import math
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import count, islice
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Sequence

from .core import MISSING_LABEL, PredictorSpec
from .errors import DataError, _number, _text
from .stats import Scale

__all__ = [
    "BinningSpec",
    "ColumnSpec",
    "DatasetSchema",
    "Dataset",
    "load_schema",
    "load_dataset",
    "iter_batches",
]

SCHEMA_FORMAT = "chaidkit-schema"
SCHEMA_FORMAT_VERSION = 1

_ROLES = ("target", "predictor", "ignored")
_KINDS = ("categorical", "numeric")
_STRATEGIES = ("equal_frequency", "equal_width", "explicit_boundaries")

#: Default bin counts injected when a numeric column declares no binning.
DEFAULT_PREDICTOR_BINS = 12
DEFAULT_TARGET_BINS = 7

_MAX_REPORTED_ROWS = 5

#: Rows per dataset that :func:`iter_batches` yields.
BATCH_ROWS = 8192


@dataclass(frozen=True)
class BinningSpec:
    """How to discretize a numeric column.

    ``equal_frequency`` and ``equal_width`` need ``bin_count`` and compute
    boundaries from the training values; ``explicit_boundaries`` takes the
    cut points as given. Intervals are right-closed: value v gets label i+1
    where i counts the boundaries strictly below v, so a value equal to a
    boundary falls in the lower bin and the outer intervals are unbounded.
    An empty explicit boundary list means a single all-covering interval.
    """

    strategy: str
    bin_count: int | None = None
    boundaries: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.strategy not in _STRATEGIES:
            raise DataError(f"unknown binning strategy {self.strategy!r}")
        if self.strategy == "explicit_boundaries":
            if self.bin_count is not None:
                raise DataError("explicit boundaries take no bin count")
            if self.boundaries is None:
                raise DataError("explicit binning needs its boundaries")
            if not all(math.isfinite(b) for b in self.boundaries):
                raise DataError("binning boundaries must be finite numbers")
            for a, b in zip(self.boundaries, self.boundaries[1:]):
                if not a < b:
                    raise DataError("binning boundaries must be strictly increasing")
        else:
            if self.boundaries is not None:
                raise DataError(f"{self.strategy} computes its own boundaries")
            if self.bin_count is None or self.bin_count < 2:
                raise DataError("bin count must be at least 2")

    def to_doc(self) -> dict:
        doc: dict = {"strategy": self.strategy}
        if self.bin_count is not None:
            doc["bin_count"] = self.bin_count
        if self.boundaries is not None:
            doc["boundaries"] = list(self.boundaries)
        return doc

    @classmethod
    def from_doc(cls, doc: object) -> "BinningSpec":
        if not isinstance(doc, dict) or "strategy" not in doc:
            raise DataError("binning entry must be a mapping with a strategy")
        bin_count = doc.get("bin_count")
        boundaries = doc.get("boundaries")
        if not isinstance(boundaries, (list, type(None))):
            raise DataError(f"binning boundaries must be a list, not {boundaries!r}")
        try:
            count = None if bin_count is None else _number(int, bin_count, "bin count")
        except ValueError:
            raise DataError(f"binning bin count must be a whole number, not {bin_count!r}") from None
        try:
            cuts = None if boundaries is None else tuple(_number(float, b, "cut") for b in boundaries)
        except ValueError:
            raise DataError(f"binning boundaries must be numbers, not {boundaries!r}") from None
        strategy = _text(doc["strategy"], "binning strategy", DataError)
        return cls(strategy=strategy, bin_count=count, boundaries=cuts)


def _compute_boundaries(values: Sequence[float], spec: BinningSpec) -> tuple[float, ...]:
    """A column's realized cut points: replayed as explicit boundaries, they give the same labels.

    Equal-frequency cuts sit on observed values, and ties go to the lower
    bin, so tied values never straddle two bins. Cuts that repeat or reach
    the top value collapse, which is how a constant column gets one label.
    Equal-width otherwise keeps its grid even where interior bins are
    empty, so labels can be sparse.
    """
    if spec.strategy == "explicit_boundaries":
        assert spec.boundaries is not None
        return spec.boundaries
    if not values:
        return ()
    ordered = sorted(values)
    n = len(ordered)
    k = spec.bin_count
    assert k is not None
    if spec.strategy == "equal_frequency":
        k = min(k, n)  # from n bins up, the cuts are every distinct value below the top
    lo, top = ordered[0], ordered[-1]
    bounds: list[float] = []
    for j in range(1, k):
        if spec.strategy == "equal_frequency":
            cut = ordered[-(-j * n // k) - 1]
        else:
            cut = lo + (top - lo) * j / k
        # Cuts never decrease; on a range too narrow for the float grid they
        # repeat or reach the top, and such cuts collapse.
        if cut >= top:
            break
        if not bounds or cut > bounds[-1]:
            bounds.append(cut)
    return tuple(bounds)


def _bin_labels(boundaries: Sequence[float]) -> list[str]:
    """The interval labels, in order: item ``i`` labels a value with ``i`` boundaries below it."""
    return [str(i) for i in range(1, len(boundaries) + 2)]


@dataclass(frozen=True)
class ColumnSpec:
    """One column's declaration: role, kind, scale, and binning/category data.

    A target or predictor's unset defaults are filled in on construction:
    the free scale, the missing label as a float predictor's floating
    category, and equal-frequency binning for a numeric column.
    """

    name: str
    role: str
    kind: str
    scale: Scale | None = None
    binning: BinningSpec | None = None
    categories: tuple[str, ...] | None = None
    float_category: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise DataError("column name must be non-empty")
        if self.role not in _ROLES:
            raise DataError(f"column {self.name!r}: unknown role {self.role!r}")
        if self.kind not in _KINDS:
            raise DataError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.role == "ignored":
            return
        if self.kind == "numeric":
            if self.categories is not None:
                raise DataError(
                    f"column {self.name!r}: declared categories are only for categorical columns"
                )
        elif self.binning is not None:
            raise DataError(f"column {self.name!r}: binning is only for numeric columns")
        if self.categories is not None:
            if not self.categories:
                raise DataError(f"column {self.name!r}: declared category list is empty")
            if len(set(self.categories)) != len(self.categories):
                raise DataError(f"column {self.name!r}: duplicate declared category")
        if self.role == "target":
            if self.scale is not None:
                raise DataError("scale applies only to predictor columns")
            if self.float_category is not None:
                raise DataError("a floating category applies only to predictor columns")
        elif self.float_category is not None and self.scale is not Scale.FLOAT:
            raise DataError(
                f"column {self.name!r}: a floating category requires the float scale"
            )
        if self.kind == "numeric" and self.binning is None:
            bins = DEFAULT_TARGET_BINS if self.role == "target" else DEFAULT_PREDICTOR_BINS
            object.__setattr__(self, "binning", BinningSpec("equal_frequency", bin_count=bins))
        if self.role == "predictor":
            object.__setattr__(self, "scale", self.scale or Scale.FREE)
            if self.scale is Scale.FLOAT:
                object.__setattr__(self, "float_category", self.float_category or MISSING_LABEL)

    def to_doc(self) -> dict:
        doc: dict = {"name": self.name, "role": self.role, "kind": self.kind}
        if self.scale is not None:
            doc["scale"] = self.scale.value
        if self.binning is not None:
            doc["binning"] = self.binning.to_doc()
        if self.categories is not None:
            doc["categories"] = list(self.categories)
        if self.float_category is not None:
            doc["float_category"] = self.float_category
        return doc

    @classmethod
    def from_doc(cls, doc: object) -> "ColumnSpec":
        if not isinstance(doc, dict):
            raise DataError("column entry must be a mapping")
        for key in ("name", "role", "kind"):
            if key not in doc:
                raise DataError(f"column entry is missing {key!r}")
        name = _text(doc["name"], "column name", DataError)
        role = _text(doc["role"], f"column {name!r}: role", DataError)
        kind = _text(doc["kind"], f"column {name!r}: kind", DataError)
        scale_doc = doc.get("scale")
        if scale_doc is None:
            scale = None
        else:
            try:
                scale = Scale(scale_doc)
            except ValueError:
                raise DataError(f"column {name!r}: unknown scale {scale_doc!r}") from None
        binning_doc = doc.get("binning")
        categories_doc = doc.get("categories")
        if not isinstance(categories_doc, (list, type(None))):
            raise DataError(f"column {name!r}: categories must be a list, not {categories_doc!r}")
        float_doc = doc.get("float_category")
        return cls(
            name=name,
            role=role,
            kind=kind,
            scale=scale,
            binning=None if binning_doc is None else BinningSpec.from_doc(binning_doc),
            categories=None
            if categories_doc is None
            else tuple(_text(c, f"column {name!r}: categories", DataError) for c in categories_doc),
            float_category=None
            if float_doc is None
            else _text(float_doc, f"column {name!r}: float_category", DataError),
        )


@dataclass(frozen=True)
class DatasetSchema:
    """All column declarations plus the file delimiter."""

    columns: tuple[ColumnSpec, ...]
    delimiter: str = ","

    def __post_init__(self) -> None:
        if not self.columns:
            raise DataError("schema declares no columns")
        names = [col.name for col in self.columns]
        if len(set(names)) != len(names):
            raise DataError("duplicate column name in schema")
        targets = [col for col in self.columns if col.role == "target"]
        if len(targets) != 1:
            raise DataError("schema must declare exactly one target column")
        if len(self.delimiter) != 1:
            raise DataError("delimiter must be a single character")

    @property
    def target(self) -> ColumnSpec:
        return next(col for col in self.columns if col.role == "target")

    @property
    def predictors(self) -> tuple[ColumnSpec, ...]:
        return tuple(col for col in self.columns if col.role == "predictor")

    def to_doc(self) -> dict:
        return {
            "format": SCHEMA_FORMAT,
            "format_version": SCHEMA_FORMAT_VERSION,
            "delimiter": self.delimiter,
            "columns": [col.to_doc() for col in self.columns],
        }

    @classmethod
    def from_doc(cls, doc: object) -> "DatasetSchema":
        if not isinstance(doc, dict):
            raise DataError("schema document must be a mapping")
        if doc.get("format") != SCHEMA_FORMAT:
            raise DataError("not a schema document (unrecognized format tag)")
        if doc.get("format_version") != SCHEMA_FORMAT_VERSION:
            raise DataError(
                f"unsupported schema format version: {doc.get('format_version')!r}"
            )
        columns_doc = doc.get("columns")
        if not isinstance(columns_doc, list) or not columns_doc:
            raise DataError("schema document declares no columns")
        return cls(
            columns=tuple(ColumnSpec.from_doc(c) for c in columns_doc),
            delimiter=_text(doc.get("delimiter", ","), "schema delimiter", DataError),
        )


def load_schema(path: str | Path) -> DatasetSchema:
    """Read and validate a schema document from a JSON file."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read schema file: {exc}") from exc
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise DataError(f"schema file is not valid JSON: {exc}") from exc
    return DatasetSchema.from_doc(doc)


@dataclass(frozen=True)
class Dataset:
    """Loaded, fully categorical columns plus everything needed to rebuild them.

    ``columns`` maps each parsed column to its labels, in row order, over
    ``n_rows`` rows; :meth:`iter_records` and :attr:`records` build one
    dict per row from them on demand. ``boundaries`` maps each parsed
    numeric column to its realized bin boundaries; ``missing_counts``
    reports per-column missing cells (for a float-scale predictor these
    became its floating category). ``header`` and ``raw_rows`` are kept
    only when loading asked for them, so prediction output can echo the
    input verbatim.
    """

    schema: DatasetSchema
    columns: dict[str, list[str]]
    n_rows: int
    boundaries: dict[str, tuple[float, ...]]
    missing_counts: dict[str, int]
    header: tuple[str, ...] | None = None
    raw_rows: tuple[tuple[str, ...], ...] | None = None

    def iter_records(self) -> Iterator[dict[str, str]]:
        """One dict per row, column name to label, each built as it is reached."""
        names = tuple(self.columns)
        rows = zip(*self.columns.values()) if names else [()] * self.n_rows
        return (dict(zip(names, labels)) for labels in rows)

    @property
    def records(self) -> tuple[dict[str, str], ...]:
        """Every row's dict from :meth:`iter_records`."""
        return tuple(self.iter_records())

    @property
    def classes(self) -> tuple[str, ...]:
        """Target class universe, in declared (or boundary) order."""
        return tuple(self._labels(self.schema.target))

    def predictor_specs(self) -> tuple[PredictorSpec, ...]:
        """One PredictorSpec per predictor column, in schema order."""
        return tuple(
            PredictorSpec(col.name, col.scale, self._universe(col), col.float_category)
            for col in self.schema.predictors
        )

    @cached_property
    def _observed(self) -> dict[str, list[str]]:
        """Each parsed categorical column's distinct labels, sorted: found once."""
        return {
            name: sorted(set(labels))
            for name, labels in self.columns.items()
            if name not in self.boundaries
        }

    def _labels(self, col: ColumnSpec) -> list[str]:
        """A column's ordered labels: bins, else the declared list, else the sorted observed."""
        if col.kind == "numeric":
            bounds = self.boundaries.get(col.name, ())
            return _bin_labels(bounds)
        if col.categories is not None:
            return list(col.categories)
        return self._observed.get(col.name, [])

    def _universe(self, col: ColumnSpec) -> tuple[str, ...]:
        """A predictor's categories: its labels with the floating category moved last."""
        float_cat = col.float_category
        universe = [label for label in self._labels(col) if label != float_cat]
        if float_cat is not None:
            universe.append(float_cat)
        return tuple(universe) or (MISSING_LABEL,)

    def schema_echo(self) -> dict:
        """Schema document with realized boundaries and category universes baked in.

        Loading prediction input against this echo reproduces the training
        labeling exactly: numeric columns carry their realized boundaries
        as explicit cut points, categorical columns their full category
        order.
        """
        columns = []
        for col in self.schema.columns:
            if col.role == "ignored":
                continue
            changes: dict = {}
            if col.kind == "numeric":
                changes["binning"] = BinningSpec(
                    "explicit_boundaries", boundaries=self.boundaries.get(col.name, ())
                )
            elif col.role == "target":
                changes["categories"] = self.classes
            else:
                changes["categories"] = self._universe(col)
            columns.append(replace(col, **changes))
        return DatasetSchema(tuple(columns), self.schema.delimiter).to_doc()


@contextmanager
def _open_csv(
    source: str | Path | io.TextIOBase, delimiter: str
) -> Iterator[tuple[list[str], Iterator[list[str]]]]:
    """The stripped header of a text handle or file, and a CSV reader over its data rows."""
    if not hasattr(source, "read"):
        try:
            with open(source, newline="", encoding="utf-8-sig") as handle:
                with _open_csv(handle, delimiter) as opened:
                    yield opened
        except OSError as exc:
            raise DataError(f"cannot read data file: {exc}") from exc
        return
    reader = csv.reader(source, delimiter=delimiter)  # type: ignore[arg-type]
    # The reader is consumed inside the ``with`` block, so its faults land here.
    try:
        header = [cell.strip() for cell in next(reader, [])]
        if not any(header):
            raise DataError("empty file")
        yield header, reader
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # The decoder reads ahead in blocks, so no row can be named.
        raise DataError(f"data file is not UTF-8: {exc}") from exc


def load_dataset(
    source: str | Path | io.TextIOBase,
    schema: DatasetSchema,
    *,
    require_target: bool = True,
    keep_raw: bool = False,
) -> Dataset:
    """Load delimited text into categorical label columns under a schema.

    A float-scale predictor's missing cells become its floating category.
    With ``require_target`` (training), the target column must be present,
    missing values are only tolerated in float-scale predictors, and
    declared category lists are enforced. Without it (prediction), the
    target is not parsed and any other missing predictor cell becomes the
    missing label for routing to deal with. Numeric cells that fail to
    parse, or parse to ``nan`` or an infinity, are always an error citing
    the data row and column.
    """
    with _open_csv(source, schema.delimiter) as (header, reader):
        rows = list(map(tuple, reader))
    return _label(header, rows, schema, require_target=require_target, keep_raw=keep_raw)


def iter_batches(source: str | Path | io.TextIOBase, schema: DatasetSchema) -> Iterator[Dataset]:
    """Prediction input, read once, as datasets of up to :data:`BATCH_ROWS` rows each.

    A batch is what ``load_dataset(..., require_target=False, keep_raw=True)``
    gives for its rows, error row numbers counting from the file's first row.
    A first batch comes even from a header-only file.
    """
    with _open_csv(source, schema.delimiter) as (header, reader):
        for start in count(1, BATCH_ROWS):
            rows = list(map(tuple, islice(reader, BATCH_ROWS)))
            yield _label(header, rows, schema, require_target=False, keep_raw=True, first_row=start)
            if len(rows) < BATCH_ROWS:
                return


def _label(
    header: list[str],
    rows: list[tuple[str, ...]],
    schema: DatasetSchema,
    *,
    require_target: bool,
    keep_raw: bool,
    first_row: int = 1,
) -> Dataset:
    """:func:`load_dataset` after the reading, for data rows ``first_row`` onwards.

    Each pass over a column runs in C; a scan in row order only words a fault.
    """
    width = len(header)
    if set(map(len, rows)) - {width}:
        number, row = next((n, row) for n, row in enumerate(rows, first_row) if len(row) != width)
        raise DataError(f"row {number}: expected {width} fields, found {len(row)}")
    index: dict[str, int] = {}
    for position, name in enumerate(header):
        if name in index:
            raise DataError(f"duplicate column {name!r} in header")
        index[name] = position

    roles = ("predictor", "target") if require_target else ("predictor",)
    parsed = [col for col in schema.columns if col.role in roles]
    for col in parsed:
        if col.name not in index:
            raise DataError(f"missing required column {col.name!r}")

    columns: dict[str, list[str]] = {}
    boundaries: dict[str, tuple[float, ...]] = {}
    missing_counts: dict[str, int] = {}
    problems: list[str] = []

    for col in parsed:
        cells = list(map(str.strip, map(itemgetter(index[col.name]), rows)))
        missing = missing_counts[col.name] = cells.count("")
        if missing and not (
            col.role == "predictor" and (not require_target or col.scale is Scale.FLOAT)
        ):
            shown = _first_few([str(n) for n, cell in enumerate(cells, first_row) if cell == ""])
            problems.append(f"column {col.name!r}: missing value at row(s) {shown}")
            continue
        # A float-scale predictor's blank cells are its floating category.
        blank = col.float_category or MISSING_LABEL

        if col.kind == "numeric":
            values = _numbers(col.name, cells, first_row)
            assert col.binning is not None
            bounds = boundaries[col.name] = _compute_boundaries(values, col.binning)
            bins = map(_bin_labels(bounds).__getitem__, map(partial(bisect_left, bounds), values))
            if missing:
                columns[col.name] = [next(bins) if cell else blank for cell in cells]
            else:
                columns[col.name] = list(bins)
        else:
            declared = set(col.categories) if col.categories is not None else None
            if declared is not None and require_target:
                if col.float_category is not None:
                    # Blank cells become the floating category; it may be written too.
                    declared.add(col.float_category)
                declared.add("")
                if not declared.issuperset(cells):
                    shown = _first_few(
                        [
                            f"{cell!r} at row {n}"
                            for n, cell in enumerate(cells, first_row)
                            if cell not in declared
                        ]
                    )
                    problems.append(f"column {col.name!r}: undeclared category {shown}")
                    continue
            columns[col.name] = [cell or blank for cell in cells] if missing else cells

    if problems:
        raise DataError("; ".join(problems))

    return Dataset(
        schema=schema,
        columns=columns,
        n_rows=len(rows),
        boundaries=boundaries,
        missing_counts=missing_counts,
        header=tuple(header) if keep_raw else None,
        raw_rows=tuple(rows) if keep_raw else None,
    )


def _numbers(name: str, cells: list[str], first_row: int) -> list[float]:
    """The numbers of a column's non-blank cells; any cell that is no finite number is an error."""
    try:
        values = list(map(float, filter(None, cells)))
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    # Only to word the first bad cell, in row order.
    for number, cell in enumerate(cells, first_row):
        try:
            finite = cell == "" or math.isfinite(float(cell))
        except ValueError:
            raise DataError(
                f"row {number}: column {name!r}: cannot parse {cell!r} as a number"
            ) from None
        if not finite:
            raise DataError(f"row {number}: column {name!r}: {cell!r} is not a finite number")
    raise AssertionError("a cell failed to parse as a whole column but not alone")


def _first_few(items: Sequence[str]) -> str:
    """The first few items, comma-separated, with a count of the rest."""
    shown = ", ".join(items[:_MAX_REPORTED_ROWS])
    extra = len(items) - _MAX_REPORTED_ROWS
    return f"{shown} (+{extra} more)" if extra > 0 else shown
