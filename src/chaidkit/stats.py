"""Statistical kernels for chi-squared tree induction.

Contingency tables, the Pearson chi-squared independence statistic, the
upper-tail chi-squared probability, and the multiple-comparison multipliers
used to penalise category merging.

Everything here is a pure function of its inputs; concurrent callers need
no synchronisation.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from operator import add, itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import ChaidError

__all__ = [
    "Scale",
    "ContingencyTable",
    "ChiSquareResult",
    "CodedRecords",
    "build_contingency",
    "chi_square_log_p_value",
    "chi_square_p_value",
    "chi_square_test",
    "pearson_statistic",
    "bonferroni_multiplier",
]


class Scale(str, Enum):
    """Measurement scale of a predictor, controlling which categories may merge.

    monotonic
        Ordered categories; only adjacent ones may merge.
    free
        Nominal categories; any subset may merge.
    float
        Ordered categories plus one floating category (conventionally the
        missing-value category) that may join any group or stand alone.
    """

    MONOTONIC = "monotonic"
    FREE = "free"
    FLOAT = "float"


def _totals(
    row_labels: Sequence[object], col_labels: Sequence[str], counts: Sequence[Sequence[int]]
) -> tuple[list[int], list[int]]:
    """The row and column totals of ``counts``, refused unless it is one non-negative cell per
    row and column label, and not empty."""
    if len(counts) != len(row_labels):
        raise ChaidError("counts row dimension does not match row labels")
    for row in counts:
        if len(row) != len(col_labels):
            raise ChaidError("counts column dimension does not match column labels")
        if row and min(row) < 0:
            raise ChaidError("negative cell count")
    if not counts or not col_labels:
        raise ChaidError("empty table")
    return list(map(sum, counts)), list(map(sum, zip(*counts)))


@dataclass(frozen=True)
class ContingencyTable:
    """Joint counts of predictor categories (rows) against target classes (columns).

    Row labels are tuples of the original category names making up each
    (possibly merged) row. Construction requires every row and column to
    have a positive total, so expected counts downstream are never zero;
    use :meth:`from_counts` to build a table with empty lines dropped.
    """

    row_labels: tuple[tuple[str, ...], ...]
    col_labels: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        row_totals, col_totals = _totals(self.row_labels, self.col_labels, self.counts)
        if 0 in row_totals:
            raise ChaidError(f"all-zero row {self.row_labels[row_totals.index(0)]}")
        if 0 in col_totals:
            raise ChaidError(f"all-zero column {self.col_labels[col_totals.index(0)]!r}")

    @classmethod
    def from_counts(
        cls,
        row_labels: Sequence[tuple[str, ...] | str],
        col_labels: Sequence[str],
        counts: Sequence[Sequence[int]],
    ) -> "ContingencyTable":
        """Build a table, dropping rows and columns whose total is zero."""
        rows = [tuple(r) for r in counts]
        labels = [(lbl,) if isinstance(lbl, str) else tuple(lbl) for lbl in row_labels]
        row_totals, col_totals = _totals(labels, col_labels, rows)
        keep_rows = [i for i, total in enumerate(row_totals) if total > 0]
        keep_cols = [j for j, total in enumerate(col_totals) if total > 0]
        # A table left with no line is refused as empty by the constructor.
        return cls(
            row_labels=tuple(labels[i] for i in keep_rows),
            col_labels=tuple(col_labels[j] for j in keep_cols),
            counts=tuple(tuple(rows[i][j] for j in keep_cols) for i in keep_rows),
        )

    @property
    def n_rows(self) -> int:
        return len(self.counts)

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)

    def row_totals(self) -> list[int]:
        return [sum(row) for row in self.counts]

    def merge_rows(self, groups: Sequence[Sequence[str]]) -> "ContingencyTable":
        """Sum the rows into one row per group of original categories, in group order.

        Every category of a row must fall in the same group. Groups that
        cover no row are dropped, so this is the table a recount of the same
        records under the partition ``groups`` would give.

        Raises:
            ChaidError: ``"value outside partition"`` when a row's category is
                in no group.
        """
        labels = [tuple(group) for group in groups]
        slot = {cat: gi for gi, group in enumerate(labels) for cat in group}
        sums = [[0] * self.n_cols for _ in labels]
        for label, row in zip(self.row_labels, self.counts):
            owners = {slot.get(cat) for cat in label}
            if None in owners:
                stray = next(cat for cat in label if cat not in slot)
                raise ChaidError(f"value outside partition: {stray!r}")
            if len(owners) > 1:
                raise ChaidError(f"row {label} spans two partition groups")
            total = sums[owners.pop()]
            for j, value in enumerate(row):
                total[j] += value
        return ContingencyTable.from_counts(labels, self.col_labels, sums)


@dataclass(frozen=True)
class ChiSquareResult:
    """Outcome of a chi-squared independence test; ``log_p`` is log ``p_value``."""

    statistic: float
    degrees_of_freedom: int
    p_value: float
    log_p: float

    def __post_init__(self) -> None:
        if self.statistic < 0:
            raise ChaidError("negative chi-squared statistic")
        if self.degrees_of_freedom < 1:
            raise ChaidError("degrees of freedom must be positive")
        if not 0.0 <= self.p_value <= 1.0:
            raise ChaidError("p-value outside [0, 1]")
        if not self.log_p <= 0.0:
            raise ChaidError("log p-value above 0")


def _compact(values: Iterable[int], size: int) -> Sequence[int]:
    """``values``, each below ``size``, as ``bytes`` for a size up to 256, else ``array('I')``."""
    return bytes(values) if size <= 256 else array("I", values)


@dataclass(frozen=True)
class CodedRecords:
    """Records coded once as integers, and the rows of them at one tree node.

    ``classes`` orders the target classes. For each coded column,
    ``categories[name]`` orders its categories and ``keys[name][i]`` is
    ``category rank * len(classes) + class code`` of record ``i``, the class
    code being the index of its class in ``classes``, so
    :func:`build_contingency` counts a node's table in one pass over its
    keys, held as ``bytes`` where they fit. ``rows`` lists the indices of
    the node's records; :meth:`at` moves to another node without coding
    anything again.
    """

    classes: tuple[str, ...]
    categories: dict[str, tuple[str, ...]]
    keys: dict[str, Sequence[int]]
    rows: Sequence[int]

    @classmethod
    def encode(
        cls,
        columns: Mapping[str, tuple[Sequence[str], Sequence[int]]],
        target: str,
        universes: Mapping[str, Sequence[str] | None],
        class_order: Sequence[str] | None = None,
    ) -> "CodedRecords":
        """Code columns once, at the root node, which holds every row.

        ``columns`` maps the target and each predictor of ``universes`` to
        its labels by code and its code per row, as a loaded dataset holds
        them; ``universes`` maps a predictor to its ordered categories, or to
        ``None`` for the sorted labels its rows hold. Classes follow
        ``class_order``, or the sorted labels the target's rows hold.

        Raises:
            ChaidError: a missing column, a duplicate class in ``class_order``,
                or a row's label outside it or outside a column's given categories.
        """
        for name in (target, *universes):
            if name not in columns:
                what = "the target column" if name == target else "column"
                raise ChaidError(f"record 0 is missing {what} {name!r}")
        names, codes = columns[target]
        held = set(codes)
        if class_order is None:
            classes = tuple(sorted({names[c] for c in held}))
        else:
            classes = tuple(str(c) for c in class_order)
            if len(set(classes)) != len(classes):
                raise ChaidError("duplicate class in class order")
        code = {label: i for i, label in enumerate(classes)}
        try:
            by_code = [code[n] if c in held else 0 for c, n in enumerate(names)]
        except KeyError as exc:
            raise ChaidError(f"target class {exc.args[0]!r} not in declared class order") from None
        class_codes = _compact(map(by_code.__getitem__, codes), len(classes))
        categories: dict[str, tuple[str, ...]] = {}
        keys: dict[str, Sequence[int]] = {}
        for name, universe in universes.items():
            names, codes = columns[name]
            held = set(codes)
            cats = tuple(sorted({names[c] for c in held})) if universe is None else tuple(universe)
            categories[name] = cats
            base = {cat: rank * len(classes) for rank, cat in enumerate(cats)}
            try:
                bases = [base[n] if c in held else 0 for c, n in enumerate(names)]
            except KeyError as exc:
                fault = f"category {exc.args[0]!r} is not declared for predictor {name!r}"
                raise ChaidError(fault) from None
            size = len(cats) * len(classes)
            keys[name] = _compact(map(add, map(bases.__getitem__, codes), class_codes), size)
        return cls(classes, categories, keys, range(len(class_codes)))

    @classmethod
    def from_records(
        cls,
        records: Sequence[Mapping[str, object]],
        target: str,
        universes: Mapping[str, Sequence[str] | None],
        class_order: Sequence[str] | None = None,
    ) -> "CodedRecords":
        """Code one mapping per row, values as text; a record must hold every coded column."""
        columns = {}
        for name in (target, *universes):
            code: dict[str, int] = {}
            try:
                codes = [code.setdefault(str(rec[name]), len(code)) for rec in records]
            except KeyError:
                index = next(i for i, rec in enumerate(records) if name not in rec)
                what = "the target column" if name == target else "column"
                raise ChaidError(f"record {index} is missing {what} {name!r}") from None
            columns[name] = (list(code), codes)
        return cls.encode(columns, target, universes, class_order)

    def at(self, rows: Sequence[int]) -> "CodedRecords":
        """The same coding at the node holding records ``rows``."""
        return replace(self, rows=rows)

    def partition_rows(
        self, name: str, groups: Sequence[Sequence[str]]
    ) -> list[list[int]]:
        """The node's rows, one list per group of column ``name``'s categories.

        Raises:
            ChaidError: ``"value outside partition"``, worded as by
                :meth:`ContingencyTable.merge_rows`, when a category the node
                holds is in no group.
        """
        slot_of = {cat: gi for gi, group in enumerate(groups) for cat in group}
        # A category in no group sends its rows to one part more, refused after the loop.
        stray = len(groups)
        slot = [slot_of.get(cat, stray) for cat in self.categories[name] for _ in self.classes]
        keys = self.keys[name]
        parts: list[list[int]] = [[] for _ in range(stray + 1)]
        for i in self.rows:
            parts[slot[keys[i]]].append(i)
        if parts[stray]:
            first = min(map(keys.__getitem__, parts[stray])) // len(self.classes)
            raise ChaidError(f"value outside partition: {self.categories[name][first]!r}")
        return parts[:stray]


def build_contingency(node: CodedRecords, predictor: str) -> ContingencyTable:
    """Count a coded node's joint occurrences of a predictor's categories and target classes.

    Every category the node holds is its own row, in the coding's category
    order; :meth:`ContingencyTable.merge_rows` sums the rows per group of a
    partition. Columns follow the coding's class order. The table is built
    straight from the counted keys: those that occur name its rows and
    columns, so no empty line is made. Plain records are coded first, with
    :meth:`CodedRecords.from_records`.

    Raises:
        ChaidError: ``"empty node"`` when the node holds no records.
    """
    if not node.rows:
        raise ChaidError("empty node")
    keys, rows = node.keys[predictor], node.rows
    if rows == range(len(keys)):  # the root holds every row: no gather
        counts = Counter(keys)
    else:  # itemgetter gathers in C, but of one row it returns the key, not a tuple
        counts = Counter(itemgetter(*rows)(keys) if len(rows) > 1 else [keys[rows[0]]])
    n_classes = len(node.classes)
    ranks = sorted({key // n_classes for key in counts})
    codes = sorted({key % n_classes for key in counts})
    cats = node.categories[predictor]
    return ContingencyTable(
        tuple((cats[r],) for r in ranks),
        tuple(node.classes[c] for c in codes),
        tuple(tuple(counts[r * n_classes + c] for c in codes) for r in ranks),
    )


def chi_square_log_p_value(statistic: float, df: int) -> float:
    """Natural log of the upper-tail chi-squared probability, for integer ``df``.

    With ``x = statistic / 2`` the tail is Q(df/2, x), which for integer df
    has a closed form (Abramowitz & Stegun 26.4.4-5): start from
    Q(1, x) = e^-x for even df or Q(1/2, x) = erfc(sqrt x) for odd df, and
    step up with Q(a+1, x) = Q(a, x) + x^a e^-x / Gamma(a+1). Summed in
    log space, it stays finite however far in the tail the statistic lies.

    Raises:
        ChaidError: ``"invalid test input"`` for a negative or non-finite
            statistic, or degrees of freedom that are not a positive integer.
    """
    if not 0.0 <= statistic < math.inf or not isinstance(df, int) or df < 1:
        raise ChaidError("invalid test input")
    x = statistic / 2.0
    if x == 0.0:
        return 0.0
    # The terms t_a = x^a e^-x / Gamma(a+1) run over a = first + i, i < count.
    # As t_a / t_(a-1) = x / a, they rise while a <= x and fall after; summed
    # outward from the largest, every ratio is at most 1, so nothing overflows.
    first, count = (df % 2) / 2.0, df // 2
    peak = min(count - 1, max(0, math.floor(x - first)))
    below = 0.0
    for i in range(1, peak + 1):
        below = (1.0 + below) * (first + i) / x
    return _log_tail(x, math.log(x), first, count, peak, below, _log_erfc_sqrt(x) if first else 0.0)


def _chi_square_log_p_series(statistic: float, step: int, n: int) -> list[float]:
    """:func:`chi_square_log_p_value` at one statistic for df = step, 2 step, ..., n step.

    The tails of one df parity share their terms below the largest, so one running sum of
    those serves them all; each tail then ends as the single one does, bit for bit.
    """
    if not 0.0 <= statistic < math.inf or step < 1 or n < 1:
        raise ChaidError("invalid test input")
    x, tails = statistic / 2.0, [0.0] * n
    if x == 0.0:
        return tails
    log_x, log_erfc = math.log(x), _log_erfc_sqrt(x) if step % 2 else 0.0
    stride = 1 + step % 2  # an odd step alternates the parity of df
    for start in range(stride):
        first = (start + 1) * step % 2 / 2.0
        peak = max(0, math.floor(x - first))
        below, summed = 0.0, 1
        for m in range(start, n, stride):
            count = (m + 1) * step // 2
            top = min(count - 1, peak)
            for i in range(summed, top + 1):
                below = (1.0 + below) * (first + i) / x
            summed = max(summed, top + 1)
            tails[m] = _log_tail(x, log_x, first, count, top, below, log_erfc)
    return tails


def _log_tail(
    x: float, log_x: float, first: float, count: int, top: int, below: float, log_erfc: float
) -> float:
    """log Q(first + count, x), given ``top``, the index of the largest term, and ``below``,
    the terms before it summed over it; ``log_erfc`` is log erfc(sqrt x), read where ``first``
    is 1/2."""
    log_q = -math.inf
    if count:
        above = 0.0
        for i in range(count - 1, top, -1):
            above = (1.0 + above) * x / (first + i)
        a = first + top
        log_q = a * log_x - x - math.lgamma(a + 1.0) + math.log1p(below + above)
    if first:
        high, low = max(log_q, log_erfc), min(log_q, log_erfc)
        log_q = high + math.log1p(math.exp(low - high))
    return min(0.0, log_q)


def _log_erfc_sqrt(x: float) -> float:
    # log erfc(sqrt x). math.erfc underflows past sqrt x ~ 26.5; from 26 on, ten terms
    # of the asymptotic series e^-x / sqrt(pi x) sum_n (-1)^n (2n-1)!! / (2x)^n suffice.
    if x < 676.0:
        return math.log(math.erfc(math.sqrt(x)))
    term = total = 1.0
    for n in range(1, 10):
        term *= -(2 * n - 1) / (2.0 * x)
        total += term
    return -x - 0.5 * math.log(math.pi * x) + math.log(total)


def chi_square_p_value(statistic: float, df: int) -> float:
    """``exp`` of :func:`chi_square_log_p_value`; 0.0 once the statistic passes about 1500."""
    return math.exp(chi_square_log_p_value(statistic, df))


def pearson_statistic(counts: Sequence[Sequence[int]]) -> float:
    """Pearson's chi-squared statistic of a table given row by row.

    Each cell's expected count is row total x column total / grand total, so
    every row and column total must be positive. The cell terms are summed
    exactly rounded, so permuting rows or columns gives the same float.
    """
    col_totals = [sum(column) for column in zip(*counts)]
    grand = sum(col_totals)
    terms = []
    for row in counts:
        row_total = sum(row)
        for observed, col_total in zip(row, col_totals):
            expected = row_total * col_total / grand
            diff = observed - expected
            terms.append(diff * diff / expected)
    return math.fsum(terms)


def chi_square_test(table: ContingencyTable) -> ChiSquareResult:
    """Pearson chi-squared independence test: statistic, degrees of freedom, p-value.

    Raises:
        ChaidError: ``"degenerate table"`` if the table has fewer than two
            rows or columns.
    """
    if table.n_rows < 2 or table.n_cols < 2:
        raise ChaidError("degenerate table")
    statistic = pearson_statistic(table.counts)
    df = (table.n_rows - 1) * (table.n_cols - 1)
    log_p = chi_square_log_p_value(statistic, df)
    return ChiSquareResult(statistic, df, math.exp(log_p), log_p)


def bonferroni_multiplier(scale: Scale, c: int, r: int) -> int:
    """Number of distinct ways ``c`` categories can reduce to ``r`` groups.

    This is the multiple-comparison penalty applied to a merged split's raw
    p-value. All arithmetic is exact integer arithmetic:

    * monotonic: binomial(c-1, r-1), the contiguous cuts of an ordered row;
    * free: the Stirling number of the second kind S(c, r), evaluated as
      sum_i (-1)^i binomial(r, i) (r-i)^c / r!;
    * float: binomial(c-2, r-2) + r * binomial(c-2, r-1), the float category
      standing alone or joining one of r groups of the remaining order.

    Raises:
        ChaidError: ``"invalid merge arity"`` when r > c or r < 1, and
            ``"float scale underdetermined"`` for float with c < 2 or r < 2.
    """
    if r < 1 or r > c:
        raise ChaidError("invalid merge arity")
    if scale is Scale.MONOTONIC:
        return math.comb(c - 1, r - 1)
    if scale is Scale.FREE:
        # The alternating sum is r! * S(c, r), so the division is exact.
        total = sum((-1) ** i * math.comb(r, i) * (r - i) ** c for i in range(r))
        return total // math.factorial(r)
    if c < 2 or r < 2:
        raise ChaidError("float scale underdetermined")
    return math.comb(c - 2, r - 2) + r * math.comb(c - 2, r - 1)
