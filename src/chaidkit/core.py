"""Category merging, split selection, and stop rules.

The three-step procedure that grows each tree node: merge predictor
categories pairwise while the least-distinguishable eligible pair is not
significant, score every predictor's merged table with a chi-squared test
penalised by the matching multiple-comparison multiplier, then apply the
stop rules in a fixed order.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ChaidError
from .stats import (
    CodedRecords,
    ContingencyTable,
    Scale,
    bonferroni_multiplier,
    build_contingency,
    chi_square_log_p_series,
    chi_square_log_p_value,
    chi_square_p_value,
    chi_square_test,
    pearson_statistic,
)

__all__ = [
    "MISSING_LABEL",
    "PredictorSpec",
    "CategoryPartition",
    "SplitCandidate",
    "GrowthParams",
    "StopReason",
    "merge_categories",
    "evaluate_predictor",
    "best_split",
    "should_stop",
]

#: Category label that stands in for a missing value. Float-scale predictors
#: use it as their floating category by convention.
MISSING_LABEL = "<missing>"


@dataclass(frozen=True)
class PredictorSpec:
    """A predictor column: name, measurement scale, and ordered category universe.

    ``categories`` fixes the category order, which is meaningful for the
    monotonic and float scales (only order-adjacent categories may merge)
    and is also what makes every downstream computation independent of
    record order. ``float_category`` names the one floating category and is
    required exactly when ``scale`` is float; by convention it is the
    missing-value category.
    """

    name: str
    scale: Scale
    categories: tuple[str, ...]
    float_category: str | None = None

    def __post_init__(self) -> None:
        if not self.categories:
            raise ChaidError(f"predictor {self.name!r} has no categories")
        if len(set(self.categories)) != len(self.categories):
            raise ChaidError(f"predictor {self.name!r} has duplicate categories")
        if self.scale is Scale.FLOAT:
            if self.float_category is None:
                raise ChaidError(
                    f"float-scale predictor {self.name!r} must name its floating category"
                )
            if self.float_category not in self.categories:
                raise ChaidError(
                    f"floating category {self.float_category!r} is not a category of {self.name!r}"
                )
        elif self.float_category is not None:
            raise ChaidError(
                f"predictor {self.name!r} is not float-scaled but names a floating category"
            )


@dataclass(frozen=True)
class CategoryPartition:
    """Disjoint grouping of original categories into merged compound categories."""

    groups: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise ChaidError("partition has no groups")
        seen: set[str] = set()
        for group in self.groups:
            if not group:
                raise ChaidError("partition contains an empty group")
            for cat in group:
                if cat in seen:
                    raise ChaidError(f"category {cat!r} appears in two groups")
                seen.add(cat)

    def all_categories(self) -> frozenset[str]:
        return frozenset(c for g in self.groups for c in g)


def _adjusted_p(multiplier: int, raw_p: float, log_raw_p: float) -> float:
    """``min(1, multiplier * raw_p)``, also for a multiplier beyond the float range.

    Up to 2**53 the multiplier is an exact float, so the float product is
    the exact product rounded once. Past that the product is taken in
    rationals, or from logs where ``raw_p`` underflowed to 0.0 and could
    hide a product up to 1.
    """
    if multiplier <= 2**53:
        return min(1.0, multiplier * raw_p)
    if raw_p == 0.0:
        return math.exp(min(0.0, math.log(multiplier) + log_raw_p))
    return float(min(1, Fraction(raw_p) * multiplier))


@dataclass(frozen=True)
class SplitCandidate:
    """A scored way to split a node on one predictor.

    ``group_sizes`` holds the record count of each partition group in group
    order, so stop rules can check child sizes without re-counting.
    ``log_raw_p`` is log ``raw_p``, finite where ``raw_p`` underflows to 0.0.
    """

    predictor: PredictorSpec
    partition: CategoryPartition
    statistic: float
    df: int
    raw_p: float
    log_raw_p: float
    multiplier: int
    adjusted_p: float
    group_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.partition.groups) < 2:
            raise ChaidError("split candidate must have at least two groups")
        if len(self.group_sizes) != len(self.partition.groups):
            raise ChaidError("group sizes do not match partition groups")
        if self.multiplier < 1:
            raise ChaidError("multiplier must be at least 1")
        if abs(self.adjusted_p - _adjusted_p(self.multiplier, self.raw_p, self.log_raw_p)) > 1e-12:
            raise ChaidError("adjusted p-value is not min(1, multiplier * raw_p)")


@dataclass(frozen=True)
class GrowthParams:
    """Tuning knobs for tree growth. Defaults are deliberately conservative."""

    alpha_merge: float = 0.05
    alpha_split: float = 0.05
    max_depth: int = 3
    min_parent_size: int = 10
    min_child_size: int = 5

    def __post_init__(self) -> None:
        for name in ("alpha_merge", "alpha_split"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ChaidError(f"{name} must lie strictly between 0 and 1")
        if self.max_depth < 1:
            raise ChaidError("max_depth must be at least 1")
        if self.min_child_size < 1:
            raise ChaidError("min_child_size must be at least 1")
        if self.min_parent_size < 2 * self.min_child_size:
            raise ChaidError("min_parent_size must be at least twice min_child_size")


class StopReason(str, Enum):
    """Why a node became terminal; values follow the rule precedence order."""

    NO_SIGNIFICANT_PREDICTOR = "no_significant_predictor"
    MAX_DEPTH = "max_depth"
    MIN_PARENT = "min_parent"
    WOULD_CREATE_SMALL_CHILD = "would_create_small_child"


def _pair_p_value(row_a: Sequence[int], row_b: Sequence[int], alpha_merge: float) -> float:
    """p-value of the 2 x J test between two merged-category count rows.

    Columns empty across both rows are dropped; with fewer than two left, the
    rows show no difference, p = 1.0. X² is summed in one pass from the terms
    :func:`pearson_statistic` would form. Where Chernoff's tail bound
    (x/k)^(k/2) e^((k-x)/2), for x = X² > k = df, puts p at or below ``alpha_merge``,
    the pair cannot merge, and 0.0 stands in for its p-value.
    """
    total_a, total_b = sum(row_a), sum(row_b)
    if not total_a or not total_b:
        return 1.0
    grand = total_a + total_b
    terms = []
    for a, b in zip(row_a, row_b):
        if a or b:
            expected = total_a * (a + b) / grand
            diff = a - expected
            terms.append(diff * diff / expected)
            expected = total_b * (a + b) / grand
            diff = b - expected
            terms.append(diff * diff / expected)
    k = len(terms) // 2 - 1
    if not k:
        return 1.0
    x = math.fsum(terms)
    if x > k and k * math.log(x / k) + k - x < 2.0 * (math.log(alpha_merge) - 1e-9):
        return 0.0
    return chi_square_p_value(x, k)


def _node_scale(table: ContingencyTable, predictor: PredictorSpec) -> Scale:
    """The predictor's scale for the multiplier at a node counted as ``table``.

    A float-scale predictor whose floating category never occurred at the
    node sees a purely ordered predictor, so its multiplier is the
    monotonic one. Merging needs no demotion: a floating category with no
    row has no group to pair with, so the float and monotonic rules merge
    alike.
    """
    if predictor.scale is Scale.FLOAT and (predictor.float_category,) not in table.row_labels:
        return Scale.MONOTONIC
    return predictor.scale


def merge_categories(
    table: ContingencyTable,
    predictor: PredictorSpec,
    alpha_merge: float,
) -> CategoryPartition:
    """Merge a predictor's observed categories until every eligible pair differs.

    ``table`` is the node's per-category table, one original category per
    row, as :func:`build_contingency` returns it; its rows are taken in the
    order of ``predictor.categories``.

    Starting from singleton groups, repeatedly test each eligible pair of
    groups on its two-row sub-table and merge the pair with the largest
    p-value while that p-value exceeds ``alpha_merge``. Merging never goes
    below two groups. Eligibility depends on the scale: adjacent groups in
    category order for monotonic, any pair for free, and for float every
    adjacent non-floating pair plus the floating category with any group.

    Adjacency is taken over the categories observed at the node, so the
    returned groups are contiguous runs of the observed order. Ties on the
    largest p-value break toward the earliest pair in group order. A pair's
    p-value is computed once and kept until one of its two groups merges; a
    pair that provably cannot merge keeps a stand-in at or below ``alpha_merge``.
    """
    rank = {cat: i for i, cat in enumerate(predictor.categories)}
    for label in table.row_labels:
        if len(label) != 1:
            raise ChaidError(f"row {label!r} is not a single category of {predictor.name!r}")
        if label[0] not in rank:
            raise ChaidError(
                f"category {label[0]!r} is not declared for predictor {predictor.name!r}"
            )
    rows = sorted(zip(table.row_labels, table.counts), key=lambda row: rank[row[0][0]])
    observed = [cat for (cat,), _ in rows]
    free, floating = predictor.scale is Scale.FREE, predictor.float_category

    # A group is keyed by its first index into ``observed``; group b always
    # folds into group a < b, so keys keep group order. It carries its
    # members, its count row over the target classes, and the span of its
    # ranks among the non-floating categories, absent for the floating
    # category alone, which may pair with any group.
    members = {i: [i] for i in range(len(observed))}
    counts = {i: list(row) for i, (_, row) in enumerate(rows)}
    ranked = (i for i, cat in enumerate(observed) if cat != floating)
    spans = {i: (r, r) for r, i in enumerate(ranked)}
    # ``p`` holds the p-value of every pair of groups that may merge now.
    p: dict[tuple[int, int], float] = {}

    def test(pairs: Iterable[tuple[int, int]]) -> None:
        for a, b in pairs:
            s, t = spans.get(a), spans.get(b)
            if free or not s or not t or s[1] + 1 == t[0] or t[1] + 1 == s[0]:
                p[a, b] = _pair_p_value(counts[a], counts[b], alpha_merge)

    if len(members) > 2:
        test((a, b) for a in members for b in members if a < b)
    while p:
        best = max(p.values())
        if best <= alpha_merge:
            break
        a, b = min(pair for pair, value in p.items() if value == best)
        members[a] += members.pop(b)
        counts[a] = [x + y for x, y in zip(counts[a], counts.pop(b))]
        s, t = spans.get(a), spans.pop(b, None)
        spans[a] = (min(s[0], t[0]), max(s[1], t[1])) if s and t else s or t
        p = {pair: value for pair, value in p.items() if a not in pair and b not in pair}
        if len(members) > 2:
            test((min(a, c), max(a, c)) for c in members if c != a)
    return CategoryPartition(tuple(tuple(observed[m] for m in sorted(g)) for g in members.values()))


def evaluate_predictor(
    node: CodedRecords, predictor: PredictorSpec, alpha_merge: float
) -> SplitCandidate | None:
    """Score one predictor at a node: count, merge, test, and penalise.

    Counts the node's per-category table once, runs
    :func:`merge_categories` on it, tests the table with its rows summed
    per merged group, and multiplies the raw p-value by the number of ways
    ``c`` observed categories could have been reduced to ``r`` groups
    (capped at 1). Returns ``None``, before any merging, when no split is
    possible: a single observed category or a single observed target
    class. From two categories up, merging stops at two groups or more.
    """
    table = build_contingency(node, predictor.name)
    if table.n_rows < 2 or table.n_cols < 2:
        return None
    return _score(table, predictor, alpha_merge)


def _score(table: ContingencyTable, predictor: PredictorSpec, alpha_merge: float) -> SplitCandidate:
    """Merge, test and penalise a counted table of two rows and two columns or more."""
    partition = merge_categories(table, predictor, alpha_merge)
    merged = table.merge_rows(partition.groups)
    result = chi_square_test(merged)
    scale = _node_scale(table, predictor)
    multiplier = bonferroni_multiplier(scale, table.n_rows, len(partition.groups))
    return SplitCandidate(
        predictor=predictor,
        partition=partition,
        statistic=result.statistic,
        df=result.degrees_of_freedom,
        raw_p=result.p_value,
        log_raw_p=result.log_p,
        multiplier=multiplier,
        adjusted_p=_adjusted_p(multiplier, result.p_value, result.log_p),
        group_sizes=tuple(merged.row_totals()),
    )


@functools.cache
def _log_multipliers(scale: Scale, c: int) -> tuple[float, ...]:
    """log ``bonferroni_multiplier(scale, c, r)`` for r = 2..c, at index r - 2.

    The free scale's S(c, r) come from one exact row carried from S(1, 1) by
    S(n, k) = k S(n-1, k) + S(n-1, k-1), not from an alternating sum per r.
    """
    if scale is not Scale.FREE:
        return tuple(math.log(bonferroni_multiplier(scale, c, r)) for r in range(2, c + 1))
    row = [1]
    for n in range(2, c + 1):
        row = [k * s + t for k, s, t in zip(range(1, n + 1), row + [0], [0] + row)]
    return tuple(map(math.log, row[1:]))


def _statistic_caps(table: ContingencyTable, statistic: float) -> list[float]:
    """Caps on the Pearson statistic of ``table``'s rows merged into r = 2, ..., J - 1 groups.

    ``statistic`` is the table's X². The cap at r is ``N (λ_1 + ... + λ_(r-1))``
    plus 1e-9 X² for rounding, or X² where less, the λ being the eigenvalues of
    ``SᵀS``, largest first, for the residuals ``S_ij = (n_ij - E_ij) / sqrt(R_i C_j)``.
    A merge maps ``S`` to ``AS``, ``A`` having r orthonormal rows, one along
    ``sqrt(R)``, and ``Sᵀ sqrt(R) = 0``: by Ky Fan's maximum principle, ``N ‖AS‖²``
    is at most that sum (Greenacre 1984, ch. 7), which is X² from r = J on.
    ``S`` is formed first, so rounding scales with it; cyclic Jacobi rotations find the λ.
    """
    cols = [sum(column) for column in zip(*table.counts)]
    n = sum(cols)
    u = [math.sqrt(c / n) for c in cols]
    residuals = []
    for row, total in zip(table.counts, table.row_totals()):
        # S's rows are orthogonal to u: reflect u onto the first axis and drop that axis.
        s = [(x - total * c / n) / math.sqrt(total * c) for x, c in zip(row, cols)]
        residuals.append([x - s[0] * y / (1.0 + u[0]) for x, y in zip(s[1:], u[1:])])
    columns = list(zip(*residuals))
    a = [[sum(map(operator.mul, x, y)) for y in columns] for x in columns]
    pairs = list(itertools.combinations(range(len(a)), 2))
    while sum(a[p][q] ** 2 for p, q in pairs) > 1e-26 * sum(a[j][j] for j in range(len(a))) ** 2:
        for p, q in pairs:
            if a[p][q]:
                theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
                tan = math.copysign(1.0 / (abs(theta) + math.hypot(theta, 1.0)), theta)
                cos, sin = 1.0 / math.hypot(tan, 1.0), tan / math.hypot(tan, 1.0)
                for line in a:
                    line[p], line[q] = cos * line[p] - sin * line[q], sin * line[p] + cos * line[q]
                row_p, row_q = a[p], a[q]
                a[p] = [cos * x - sin * y for x, y in zip(row_p, row_q)]
                a[q] = [sin * x + cos * y for x, y in zip(row_p, row_q)]
    sums = itertools.accumulate(sorted((a[j][j] for j in range(len(a))), reverse=True)[:-1])
    return [min(statistic, n * total + 1e-9 * statistic) for total in sums]


def _log_p_bounds(
    table: ContingencyTable, predictor: PredictorSpec, statistics: float | Iterable[float]
) -> list[float]:
    """The least log adjusted p-values of merging ``table``'s rows into r = 2, 3, ... groups.

    ``statistics`` bounds Pearson's statistic at each r, in turn, or is one float for all r,
    whose tails come from one series. The table's X² bounds it at every r: merging never
    raises it, (a+b)^2/(r_a+r_b) <= a^2/r_a + b^2/r_b by Cauchy-Schwarz, nor changes the
    columns, and the tail rises with df.
    """
    step, n = table.n_cols - 1, table.n_rows - 1
    if isinstance(statistics, float):
        tails = chi_square_log_p_series(statistics, step, n)
    else:
        tails = map(chi_square_log_p_value, statistics, range(step, n * step + 1, step))
    multipliers = _log_multipliers(_node_scale(table, predictor), table.n_rows)
    return list(map(operator.add, multipliers, tails))


def _count_tables(node: CodedRecords, names: Iterable[str]) -> dict[str, ContingencyTable]:
    """The node's table of each predictor named in ``names``, counted from its rows."""
    return {name: build_contingency(node, name) for name in names}


def _subtract(whole: ContingencyTable, parts: Iterable[ContingencyTable]) -> ContingencyTable:
    """``whole`` less its ``parts``, cell by cell, dropping the lines left empty.

    A part's labels are among ``whole``'s, as a child's are among its parent's.
    """
    row_of = {label: i for i, label in enumerate(whole.row_labels)}
    col_of = {label: j for j, label in enumerate(whole.col_labels)}
    grid = [list(row) for row in whole.counts]
    for part in parts:
        cols = [col_of[label] for label in part.col_labels]
        for label, counts in zip(part.row_labels, part.counts):
            line = grid[row_of[label]]
            for j, count in zip(cols, counts):
                line[j] -= count
    return ContingencyTable.from_counts(whole.row_labels, whole.col_labels, grid)


def _child_tables(
    tables: Mapping[str, ContingencyTable], children: Sequence[CodedRecords]
) -> list[dict[str, ContingencyTable]]:
    """Each child's tables by predictor name, given its parent's ``tables``.

    Every child but the largest, the first on a tie, is counted from its
    rows. The largest child's tables are its parent's less its siblings'
    (histogram subtraction; Ke et al. 2017, "LightGBM", *NeurIPS*): counts
    are integers, so they are the tables a count would give.
    """
    sizes = [len(child.rows) for child in children]
    largest = sizes.index(max(sizes))
    counted = [_count_tables(child, tables) for i, child in enumerate(children) if i != largest]
    derived = {name: _subtract(table, [c[name] for c in counted]) for name, table in tables.items()}
    return counted[:largest] + [derived] + counted[largest:]


def best_split(
    node: CodedRecords,
    predictors: Sequence[PredictorSpec],
    params: GrowthParams,
    tables: Mapping[str, ContingencyTable] | None = None,
) -> SplitCandidate | None:
    """Pick the predictor whose merged split has the smallest adjusted p-value.

    Returns ``None`` unless the winner's adjusted p-value is at most
    ``params.alpha_split``. Candidates rank by log adjusted p-value,
    ``min(0, log multiplier + log raw p)``, which stays finite where linear
    p-values underflow; ties break by log raw p-value, then by position in
    ``predictors``.

    The search is a branch and bound over predictors. Each is counted and
    bounded by :func:`_log_p_bounds` at its X², then taken in increasing
    order of ``(bound, position)`` until a bound lies above the cut: log
    ``alpha_split``, or the best key so far where lower. The order is sorted,
    so no later predictor can win either. One is merged unless its bounds at
    :func:`_statistic_caps` lie above the cut too. So each predictor is
    scored, or pruned by ``alpha_split``, the incumbent or the cap.

    ``tables`` maps each predictor's name to its table at ``node`` where the
    caller has it already; by default each is counted here.
    """
    bounded = []
    for position, predictor in enumerate(predictors):
        table = tables[predictor.name] if tables else build_contingency(node, predictor.name)
        if table.n_rows >= 2 and table.n_cols >= 2:
            x2 = pearson_statistic(table.counts)
            bounds = _log_p_bounds(table, predictor, x2)
            # At r = c the multiplier is 1, so the bound is at most 0, as the key it bounds is.
            bounded.append((min(bounds), position, table, predictor, x2, bounds))
    best, rank = None, None
    cut = math.log(params.alpha_split)
    for bound, position, table, predictor, x2, bounds in sorted(bounded, key=lambda b: b[:2]):
        if bound > cut + 1e-9:  # the bound's rounding margin
            break
        # Only r < J caps below X², and only with 3 rows: the bounds from r = J on stand.
        if table.n_rows > 2 and min(bounds[table.n_cols - 2 :], default=math.inf) > cut + 1e-9:
            if min(_log_p_bounds(table, predictor, _statistic_caps(table, x2))) > cut + 1e-9:
                continue
        candidate = _score(table, predictor, params.alpha_merge)
        log_p = min(0.0, math.log(candidate.multiplier) + candidate.log_raw_p)
        key = (log_p, candidate.log_raw_p, position)
        if rank is None or key < rank:
            best, rank, cut = candidate, key, min(cut, key[0])
    if best is None or best.adjusted_p > params.alpha_split:
        return None
    return best


def should_stop(
    node_depth: int,
    node_size: int,
    candidate: SplitCandidate | None,
    params: GrowthParams,
) -> StopReason | None:
    """Apply the stop rules in precedence order; return the first that fires.

    Order: no candidate; depth at the limit; node below the minimum parent
    size; a candidate child below the minimum child size. ``None`` means
    growth continues.
    """
    if candidate is None:
        return StopReason.NO_SIGNIFICANT_PREDICTOR
    if node_depth >= params.max_depth:
        return StopReason.MAX_DEPTH
    if node_size < params.min_parent_size:
        return StopReason.MIN_PARENT
    if any(size < params.min_child_size for size in candidate.group_sizes):
        return StopReason.WOULD_CREATE_SMALL_CHILD
    return None
