"""Category merging, split selection, and stop rules.

The three-step procedure that grows each tree node: merge predictor
categories pairwise while the least-distinguishable eligible pair is not
significant, score every predictor's merged table with a chi-squared test
penalised by the matching multiple-comparison multiplier, then apply the
stop rules in a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Mapping, Sequence

from .errors import ChaidError
from .stats import (
    CodedRecords,
    ContingencyTable,
    Scale,
    bonferroni_multiplier,
    build_contingency,
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
        expected = min(1.0, self.multiplier * self.raw_p)
        if abs(self.adjusted_p - expected) > 1e-12:
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


def _eligible_pairs(
    groups: Sequence[Sequence[int]], scale: Scale, ord_index: Mapping[int, int]
) -> list[tuple[int, int]]:
    """Index pairs ``(i, j)``, ``i < j``, of the groups that may merge under ``scale``.

    Groups hold indices into the observed-category order; ``ord_index``
    ranks the non-floating ones, so adjacency is taken over that order.
    """
    n = len(groups)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if scale is Scale.FREE:
        return pairs
    spans: list[tuple[int, int] | None] = []
    for group in groups:
        ranks = [ord_index[m] for m in group if m in ord_index]
        spans.append((min(ranks), max(ranks)) if ranks else None)

    def adjacent(a: tuple[int, int] | None, b: tuple[int, int] | None) -> bool:
        # A group that is just the floating category may pair with anything.
        return a is None or b is None or a[1] + 1 == b[0] or b[1] + 1 == a[0]

    return [(i, j) for i, j in pairs if adjacent(spans[i], spans[j])]


def _pair_p_value(row_a: Sequence[int], row_b: Sequence[int]) -> float:
    """p-value of the 2 x J test between two merged-category count rows.

    Columns empty across both rows are dropped first. A sub-table with
    fewer than two populated columns carries no evidence that the rows
    differ, so it reports p = 1.0, the most mergeable value.
    """
    obs_a = []
    obs_b = []
    for a, b in zip(row_a, row_b):
        if a + b > 0:
            obs_a.append(a)
            obs_b.append(b)
    if len(obs_a) < 2 or not any(obs_a) or not any(obs_b):
        return 1.0
    return chi_square_p_value(pearson_statistic((obs_a, obs_b)), len(obs_a) - 1)


def _node_scale(predictor: PredictorSpec, observed: Collection[str]) -> Scale:
    """The predictor's scale at a node with categories ``observed``.

    A float-scale predictor whose floating category never occurred at the
    node sees a purely ordered predictor, so it is treated as monotonic by
    both the merge loop and the multiplier.
    """
    if predictor.scale is Scale.FLOAT and predictor.float_category not in observed:
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
    p-value is computed once and kept until one of its two groups merges.
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
    scale = _node_scale(predictor, observed)
    float_index = observed.index(predictor.float_category) if scale is Scale.FLOAT else None

    # Dense order index over non-floating categories, for adjacency.
    ordered = [i for i in range(len(observed)) if i != float_index]
    ord_index = {i: position for position, i in enumerate(ordered)}
    # Each group is a list of indices into ``observed``, with its count row
    # over the target classes alongside, so pair tests need two additions.
    # Group j always folds into group i < j, so groups stay ordered by their
    # first category, and a group's first category names it in ``p_cache``.
    groups = [[i] for i in range(len(observed))]
    counts = [list(row) for _, row in rows]
    p_cache: dict[tuple[int, int], float] = {}
    while len(groups) > 2:
        best: tuple[int, int] | None = None
        best_p = -1.0
        for i, j in _eligible_pairs(groups, scale, ord_index):
            key = (groups[i][0], groups[j][0])
            p = p_cache.get(key)
            if p is None:
                p = p_cache[key] = _pair_p_value(counts[i], counts[j])
            if p > best_p:
                best, best_p = (i, j), p
        if best is None or best_p <= alpha_merge:
            break
        i, j = best
        merged = {groups[i][0], groups[j][0]}
        p_cache = {k: v for k, v in p_cache.items() if merged.isdisjoint(k)}
        groups[i] += groups.pop(j)
        counts[i] = [a + b for a, b in zip(counts[i], counts.pop(j))]
    return CategoryPartition(tuple(tuple(observed[m] for m in sorted(g)) for g in groups))


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
    scale = _node_scale(predictor, partition.all_categories())
    multiplier = bonferroni_multiplier(scale, table.n_rows, len(partition.groups))
    return SplitCandidate(
        predictor=predictor,
        partition=partition,
        statistic=result.statistic,
        df=result.degrees_of_freedom,
        raw_p=result.p_value,
        log_raw_p=result.log_p,
        multiplier=multiplier,
        adjusted_p=min(1.0, multiplier * result.p_value),
        group_sizes=tuple(merged.row_totals()),
    )


def _log_p_bound(table: ContingencyTable, predictor: PredictorSpec) -> float:
    """The least log adjusted p-value any merge of ``table``'s rows can score.

    Merging rows never raises Pearson's statistic, (a+b)^2/(r_a+r_b) <= a^2/r_a + b^2/r_b
    by Cauchy-Schwarz, nor changes the columns, and the tail rises with df.
    """
    statistic = pearson_statistic(table.counts)
    scale = _node_scale(predictor, [cat for (cat,) in table.row_labels])
    c, extra = table.n_rows, table.n_cols - 1
    # At r = c the multiplier is 1, so the bound is at most 0, as the key it bounds is.
    return min(
        math.log(bonferroni_multiplier(scale, c, r))
        + chi_square_log_p_value(statistic, (r - 1) * extra)
        for r in range(2, c + 1)
    )


def best_split(
    node: CodedRecords, predictors: Sequence[PredictorSpec], params: GrowthParams
) -> SplitCandidate | None:
    """Pick the predictor whose merged split has the smallest adjusted p-value.

    Returns ``None`` unless the winner's adjusted p-value is at most
    ``params.alpha_split``. Candidates rank by log adjusted p-value,
    ``min(0, log multiplier + log raw p)``, which stays finite where linear
    p-values underflow; ties break by log raw p-value, then by position in
    ``predictors``, since ``min`` keeps the first of equal keys.

    A predictor whose :func:`_log_p_bound` clears log ``alpha_split`` is never
    merged: had it won, the winner in its place fails the check too.
    """
    threshold = math.log(params.alpha_split) + 1e-9  # the bound's rounding margin
    candidates = []
    for predictor in predictors:
        table = build_contingency(node, predictor.name)
        if table.n_rows < 2 or table.n_cols < 2 or _log_p_bound(table, predictor) > threshold:
            continue
        candidates.append(_score(table, predictor, params.alpha_merge))
    best = min(
        candidates,
        key=lambda c: (min(0.0, math.log(c.multiplier) + c.log_raw_p), c.log_raw_p),
        default=None,
    )
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
