"""Dataset loading, schema validation, and numeric discretization.

A schema declares each column's role (target, predictor, ignored), kind
(categorical or numeric), scale, and, for numeric columns, a binning rule.
Loading codes every parsed column's category labels: numeric values are
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
import sys
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, count, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .core import MISSING_LABEL, PredictorSpec
from .errors import DataError, _doc, _number, _text
from .stats import CodedColumns, Scale, _compact

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
        return _doc(self)

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
    """Equal-frequency or equal-width cuts; replayed as explicit cuts, they give the same labels.

    Equal-frequency cuts sit on observed values, and ties go to the lower
    bin, so tied values never straddle two bins. Cuts that repeat or reach
    the top value collapse, which is how a constant column gets one label.
    Equal-width otherwise keeps its grid even where interior bins are
    empty, so labels can be sparse.
    """
    if not values:
        return ()
    k = spec.bin_count
    assert k is not None
    if spec.strategy == "equal_frequency":
        ordered = sorted(values)
        n = len(ordered)
        k = min(k, n)  # from n bins up, the cuts are every distinct value below the top
        lo, top = ordered[0], ordered[-1]
    else:
        # Only the ends matter; a top tied only as +-0.0 compares, and cuts, alike.
        lo, top = min(values), max(values)
    bounds: list[float] = []
    for j in range(1, k):
        if spec.strategy == "equal_frequency":
            cut = ordered[-(-j * n // k) - 1]
        else:
            # Past the float range the product overflows; the weighted form cannot.
            width = (top - lo) * j
            cut = lo + width / k if math.isfinite(width) else lo / k * (k - j) + top / k * j
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
        label = self.float_category
        if self.kind == "numeric" and label and label.isascii() and label.isdigit():
            bins = self.binning.bin_count or len(self.binning.boundaries) + 1
            # Bins are labeled "1".."bins"; blank cells in a bin's label would join that bin.
            if label[0] != "0" and len(label) <= len(str(bins)) and int(label) <= bins:
                raise DataError(
                    f"column {self.name!r}: floating category {label!r} can be one of its bin labels"
                )

    def to_doc(self) -> dict:
        return _doc(self)

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
        if self.delimiter in '"\r\n':
            raise DataError(
                f"delimiter {self.delimiter!r} cannot be the quote character or a line break"
            )

    @property
    def target(self) -> ColumnSpec:
        return next(col for col in self.columns if col.role == "target")

    @property
    def predictors(self) -> tuple[ColumnSpec, ...]:
        return tuple(col for col in self.columns if col.role == "predictor")

    def to_doc(self) -> dict:
        return {"format": SCHEMA_FORMAT, "format_version": SCHEMA_FORMAT_VERSION, **_doc(self)}

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
    ``n_rows`` rows, held by a loaded dataset as :class:`CodedColumns`;
    :meth:`iter_records` and :attr:`records` build one dict per row from
    them on demand. ``boundaries`` maps each parsed numeric column to its
    realized bin boundaries; ``missing_counts`` reports per-column missing
    cells (for a float-scale predictor these became its floating
    category). ``header`` and ``raw_rows`` are kept only when loading
    asked for them, so prediction output can echo the input verbatim.
    """

    schema: DatasetSchema
    columns: Mapping[str, Sequence[str]]
    n_rows: int
    boundaries: dict[str, tuple[float, ...]]
    missing_counts: dict[str, int]
    header: tuple[str, ...] | None = None
    raw_rows: tuple[tuple[str, ...], ...] | None = None

    def iter_records(self) -> Iterator[dict[str, str]]:
        """One dict per row, column name to label, each built as it is reached."""
        names = tuple(self.columns)
        rows = zip(*self.columns.values()) if names else [()] * self.n_rows
        return map(dict, map(zip, repeat(names), rows))

    @property
    def records(self) -> tuple[dict[str, str], ...]:
        """Every row's dict from :meth:`iter_records`."""
        return tuple(self.iter_records())

    @property
    def classes(self) -> tuple[str, ...]:
        """Target class universe, in declared (or boundary) order."""
        return self._categories(self.schema.target)

    def predictor_specs(self) -> tuple[PredictorSpec, ...]:
        """One PredictorSpec per predictor column, in schema order."""
        return tuple(
            PredictorSpec(col.name, col.scale, self._categories(col), col.float_category)
            for col in self.schema.predictors
        )

    def _categories(self, col: ColumnSpec) -> tuple[str, ...]:
        """A column's ordered categories: bins, else the declared list, else the sorted observed.

        A floating category goes last. A predictor with no categories has
        the missing label; an empty target has no classes.
        """
        if col.kind == "numeric":
            labels = _bin_labels(self.boundaries.get(col.name, ()))
        else:  # a categorical column's labels by code are those its rows hold
            names = CodedColumns.of(self.columns).data.get(col.name, ((), ()))[0]
            labels = col.categories or sorted(set(names))
        floating = () if col.float_category is None else (col.float_category,)
        ordered = tuple(label for label in labels if label not in floating) + floating
        return ordered if ordered or col.role == "target" else (MISSING_LABEL,)

    def schema_echo(self) -> dict:
        """Schema document with realized boundaries and category universes baked in.

        Loading prediction input against this echo reproduces the training
        labeling exactly: numeric columns carry their realized boundaries
        as explicit cut points, categorical columns their full category
        order (a target without rows, none).
        """
        columns = []
        for col in self.schema.columns:
            if col.kind == "numeric" and col.role != "ignored":
                cuts = self.boundaries.get(col.name, ())
                binning = BinningSpec("explicit_boundaries", boundaries=cuts)
                columns.append(replace(col, binning=binning))
            elif col.role != "ignored":
                columns.append(replace(col, categories=self._categories(col) or None))
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

    The file is read in batches of :data:`BATCH_ROWS` rows, and faults are
    reported as for the whole file at once.
    """
    with _open_csv(source, schema.delimiter) as (header, reader):
        labeler = _Labeler(header, schema, require_target, keep_raw)
        for rows in _read_batches(reader):
            labeler.feed(rows)
    return labeler.finish()


def iter_batches(source: str | Path | io.TextIOBase, schema: DatasetSchema) -> Iterator[Dataset]:
    """Prediction input, read once, as datasets of up to :data:`BATCH_ROWS` rows each.

    A batch is what ``load_dataset(..., require_target=False, keep_raw=True)``
    gives for its rows, error row numbers counting from the file's first row.
    A first batch comes even from a header-only file.
    """
    with _open_csv(source, schema.delimiter) as (header, reader):
        for start, rows in zip(count(1, BATCH_ROWS), _read_batches(reader)):
            labeler = _Labeler(header, schema, False, True, first_row=start)
            labeler.feed(rows)
            yield labeler.finish()


def _read_batches(reader: Iterator[list[str]]) -> Iterator[list[tuple[str, ...]]]:
    """The data rows in batches of :data:`BATCH_ROWS`; the last is shorter, perhaps empty."""
    while True:
        rows = list(map(tuple, islice(reader, BATCH_ROWS)))
        yield rows
        if len(rows) < BATCH_ROWS:
            return


class _Labeler:
    """Data rows ``first_row`` onwards, fed in batches, labeled under a schema.

    :meth:`finish` gives the dataset of every row fed, or raises what one
    batch of them all would: a row of the wrong width, a header fault, then
    each column's faults in schema order, a cell that is no finite number
    alone and the rest joined.
    """

    def __init__(
        self, header: list[str], schema: DatasetSchema, require_target: bool, keep_raw: bool,
        first_row: int = 1,
    ) -> None:
        self.header, self.schema, self.first_row = header, schema, first_row
        self.raw: list[tuple[str, ...]] | None = [] if keep_raw else None
        self.n_rows = 0
        self.width_fault: DataError | None = None
        self.header_fault: DataError | None = None
        index: dict[str, int] = {}
        for position, name in enumerate(header):
            if name in index:
                self.header_fault = DataError(f"duplicate column {name!r} in header")
                break
            index[name] = position
        roles = ("predictor", "target") if require_target else ("predictor",)
        parsed = [col for col in schema.columns if col.role in roles]
        absent = [col.name for col in parsed if col.name not in index]
        if absent and not self.header_fault:
            self.header_fault = DataError(f"missing required column {absent[0]!r}")
        self.columns = [] if self.header_fault else [
            _Column(col, index[col.name], require_target) for col in parsed
        ]

    def feed(self, rows: list[tuple[str, ...]]) -> None:
        """The next rows: each pass over a column runs in C; a scan in row order words a fault."""
        first = self.first_row + self.n_rows
        self.n_rows += len(rows)
        if self.raw is not None:
            self.raw += rows
        width = len(self.header)
        if self.width_fault is None and set(map(len, rows)) - {width}:
            number, row = next((n, row) for n, row in enumerate(rows, first) if len(row) != width)
            self.width_fault = DataError(f"row {number}: expected {width} fields, found {len(row)}")
        if self.width_fault is None:
            for column in self.columns:
                column.feed(list(map(str.strip, map(itemgetter(column.position), rows))), first)

    def finish(self) -> Dataset:
        for fault in (self.width_fault, self.header_fault):
            if fault is not None:
                raise fault
        problems = list(filter(None, map(_Column.problem, self.columns)))
        if problems:
            raise DataError("; ".join(problems))
        boundaries: dict[str, tuple[float, ...]] = {}
        return Dataset(
            schema=self.schema,
            columns=CodedColumns({c.col.name: c.coded(boundaries) for c in self.columns}),
            n_rows=self.n_rows,
            boundaries=boundaries,
            missing_counts={column.col.name: column.missing for column in self.columns},
            header=None if self.raw is None else tuple(self.header),
            raw_rows=None if self.raw is None else tuple(self.raw),
        )


class _Column:
    """One parsed column between batches: what coding needs, and its faults so far.

    A categorical column codes each batch as it comes, through one dict. A
    numeric column keeps its numbers in an array, a blank cell as +inf,
    which no cell parses to, and is binned once every row is in.
    """

    def __init__(self, col: ColumnSpec, position: int, require_target: bool) -> None:
        self.col, self.position = col, position
        self.blank_ok = col.role == "predictor" and (not require_target or col.scale is Scale.FLOAT)
        # A float-scale predictor's blank cells are its floating category.
        self.blank = col.float_category or MISSING_LABEL
        self.missing = self.undeclared = 0
        self.blank_rows: list[str] = []  # the first few, where a blank cell is a fault
        self.undeclared_cells: list[str] = []  # the first few
        self.fault: DataError | None = None  # the first cell that is no finite number
        self.values: array | list = array("d") if col.kind == "numeric" else []  # or coded batches
        self.code, self.labels = {}, {}  # cell to code and label to code; "" codes as its label
        self.declared: set[str] | None = None
        if col.categories is not None and require_target:
            # Blank cells become the floating category; it may be written too.
            self.declared = {*col.categories, "", *filter(None, [col.float_category])}

    def feed(self, cells: list[str], first_row: int) -> None:
        missing = cells.count("")
        self.missing += missing
        if missing and not self.blank_ok:
            blank = (str(n) for n, cell in enumerate(cells, first_row) if cell == "")
            self.blank_rows += islice(blank, _MAX_REPORTED_ROWS - len(self.blank_rows))
        if self.blank_rows or self.fault:
            return  # the column fails already; only its blank count still matters
        if self.col.kind == "numeric":
            try:
                numbers = _numbers(self.col.name, cells, first_row)
            except DataError as exc:
                self.fault = exc
                return
            if missing:
                rest = iter(numbers)
                numbers = [next(rest) if cell else math.inf for cell in cells]
            self.values.fromlist(numbers)
        elif self.declared is None or self.declared.issuperset(cells):
            for cell in set(cells).difference(self.code):
                self.code[cell] = self.labels.setdefault(cell or self.blank, len(self.labels))
            self.values.append(_compact(map(self.code.__getitem__, cells), len(self.labels)))
        else:
            outside = [
                f"{cell!r} at row {n}"
                for n, cell in enumerate(cells, first_row)
                if cell not in self.declared
            ]
            self.undeclared += len(outside)
            self.undeclared_cells += outside[: _MAX_REPORTED_ROWS - len(self.undeclared_cells)]

    def problem(self) -> str | None:
        """The column's fault as text, or None; a cell that is no finite number is raised."""
        if self.blank_rows:
            shown = _first_few(self.blank_rows, self.missing)
            return f"column {self.col.name!r}: missing value at row(s) {shown}"
        if self.fault is not None:
            raise self.fault
        if self.undeclared:
            shown = _first_few(self.undeclared_cells, self.undeclared)
            return f"column {self.col.name!r}: undeclared category {shown}"
        return None

    def coded(self, boundaries: dict[str, tuple[float, ...]]) -> tuple[list[str], Sequence[int]]:
        """Labels by code and codes in row order; a numeric column's cuts go into ``boundaries``."""
        values, self.values = self.values, []
        binning = self.col.binning
        if binning is None:
            return list(self.labels), _compact(chain.from_iterable(values), len(self.labels))
        bounds = binning.boundaries
        if bounds is None:
            numbers = list(filter(math.isfinite, values)) if self.missing else values
            bounds = _compute_boundaries(numbers, binning)
        boundaries[self.col.name] = bounds
        # A last cut at the largest float puts every number below a blank cell's +inf.
        cuts = (*bounds, sys.float_info.max)
        names = _bin_labels(bounds) + [self.blank] * bool(self.missing)
        return names, _compact(map(partial(bisect_left, cuts), values), len(cuts) + 1)


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


def _first_few(items: Sequence[str], total: int) -> str:
    """The first few of ``total`` items, comma-separated, with a count of the rest."""
    shown = ", ".join(items[:_MAX_REPORTED_ROWS])
    extra = total - _MAX_REPORTED_ROWS
    return f"{shown} (+{extra} more)" if extra > 0 else shown
