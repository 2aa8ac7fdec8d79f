"""Shared fixtures: oracles, record builders, and reference trees."""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import Counter, deque
from functools import partial
from operator import itemgetter
from typing import Mapping, Sequence

from scipy.integrate import quad

from chaidkit import (
    ChaidError,
    CodedRecords,
    ContingencyTable,
    GrowthParams,
    PredictorSpec,
    Scale,
    Tree,
    chi_square_test,
)
from chaidkit.core import MISSING_LABEL, CategoryPartition, StopReason, best_split, should_stop
from chaidkit.errors import DataError
from chaidkit.ingest import Dataset, _bin_labels, _compute_boundaries, _numbers, _open_csv
from chaidkit.model import NodeSplit, TreeNode

#: Largest original-category count the enumeration oracle will accept.
ORACLE_MAX_CATEGORIES = 10


def chi2_upper_tail_by_integration(statistic: float, df: int) -> float:
    """Upper-tail chi-squared probability by adaptive numerical integration.

    Deliberately shares nothing with the library's closed-form log-space
    implementation: the density is written out from its definition and
    integrated with scipy's adaptive quadrature.
    """
    if statistic <= 0.0:
        return 1.0
    half = df / 2.0
    log_norm = half * math.log(2.0) + math.lgamma(half)

    def density(x: float) -> float:
        return math.exp((half - 1.0) * math.log(x) - x / 2.0 - log_norm)

    upper, _ = quad(density, statistic, math.inf, epsabs=1e-12, epsrel=1e-12, limit=400)
    return upper


def partition_count_oracle(scale: Scale, c: int, r: int) -> int:
    """Count the same partitions as :func:`bonferroni_multiplier` by explicit enumeration.

    Every counted structure is actually generated, so this is a slow,
    independent cross-check usable up to ``c = ORACLE_MAX_CATEGORIES``.

    Raises:
        ChaidError: ``"oracle bound exceeded"`` above the enumeration bound;
            argument errors mirror :func:`bonferroni_multiplier`.
    """
    if r < 1 or r > c:
        raise ChaidError("invalid merge arity")
    if c > ORACLE_MAX_CATEGORIES:
        raise ChaidError("oracle bound exceeded")
    if scale is Scale.MONOTONIC:
        return sum(1 for _ in _compositions(c, r))
    if scale is Scale.FREE:
        return sum(1 for _ in _set_partitions(c, r))
    if c < 2 or r < 2:
        raise ChaidError("float scale underdetermined")
    return sum(1 for _ in _float_partitions(c, r))


def _compositions(total: int, parts: int):
    """Yield run lengths cutting an ordered row of ``total`` items into ``parts`` runs."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(1, total - parts + 2):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _set_partitions(n: int, blocks: int):
    """Yield partitions of items 0..n-1 into exactly ``blocks`` non-empty blocks."""

    def extend(item: int, partial: list[list[int]]):
        if item == n:
            if len(partial) == blocks:
                yield [tuple(b) for b in partial]
            return
        still_needed = blocks - len(partial)
        for block in partial:
            if n - item - 1 >= still_needed:
                block.append(item)
                yield from extend(item + 1, partial)
                block.pop()
        if len(partial) < blocks:
            partial.append([item])
            yield from extend(item + 1, partial)
            partial.pop()

    yield from extend(0, [])


def _float_partitions(c: int, r: int):
    """Yield float-scale partitions: c-1 ordered items in runs, one floating item.

    The floating item either stands alone beside r-1 runs or is attached to
    one of r runs.
    """
    for runs in _compositions(c - 1, r - 1):
        yield (runs, None)
    for runs in _compositions(c - 1, r):
        for attach_to in range(r):
            yield (runs, attach_to)


def whole_file_load_dataset(source, schema, *, require_target=True, keep_raw=False) -> Dataset:
    """``load_dataset`` as it was before it read in batches: every row, then one labeling pass.

    A test-local copy of the whole-file loader, kept as the reference for
    the streamed one: the same labels, cuts, counts and fault text.
    """
    with _open_csv(source, schema.delimiter) as (header, rows):
        rows = list(map(tuple, rows))
    width = len(header)
    if set(map(len, rows)) - {width}:
        number, row = next((n, row) for n, row in enumerate(rows, 1) if len(row) != width)
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

    def first_few(items):
        shown = ", ".join(items[:5])
        return f"{shown} (+{len(items) - 5} more)" if len(items) > 5 else shown

    columns, boundaries, missing_counts, problems = {}, {}, {}, []
    for col in parsed:
        cells = list(map(str.strip, map(itemgetter(index[col.name]), rows)))
        missing = missing_counts[col.name] = cells.count("")
        if missing and not (
            col.role == "predictor" and (not require_target or col.scale is Scale.FLOAT)
        ):
            shown = first_few([str(n) for n, cell in enumerate(cells, 1) if cell == ""])
            problems.append(f"column {col.name!r}: missing value at row(s) {shown}")
            continue
        blank = col.float_category or MISSING_LABEL
        if col.kind == "numeric":
            values = _numbers(col.name, cells, 1)
            bounds = col.binning.boundaries
            if col.binning.strategy != "explicit_boundaries":
                bounds = _compute_boundaries(values, col.binning)
            boundaries[col.name] = bounds
            bins = map(_bin_labels(bounds).__getitem__, map(partial(bisect_left, bounds), values))
            columns[col.name] = [next(bins) if cell else blank for cell in cells]
            continue
        declared = set(col.categories) if col.categories is not None else None
        if declared is not None and require_target:
            declared |= {"", *filter(None, [col.float_category])}
            outside = [
                f"{cell!r} at row {n}" for n, cell in enumerate(cells, 1) if cell not in declared
            ]
            if outside:
                problems.append(f"column {col.name!r}: undeclared category {first_few(outside)}")
                continue
        columns[col.name] = [cell or blank for cell in cells]
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


def merge_by_recomputing(
    table: ContingencyTable, predictor: PredictorSpec, alpha_merge: float
) -> tuple[tuple[tuple[str, ...], ...], set[tuple[tuple[str, ...], tuple[str, ...]]]]:
    """The merge loop with no p-value cache: every eligible pair is retested each round.

    Returns the groups, and the distinct pairs of groups tested over all
    rounds, each group as its categories in the order they joined it.

    Same rules as :func:`merge_categories`: merge the eligible pair with the
    largest p-value while it exceeds ``alpha_merge`` and more than two
    groups remain, the earliest pair winning ties; group j folds into group
    i < j. Eligibility is restated from its definition: any two groups on
    the free scale, otherwise two groups whose non-floating categories
    together form one run of the observed order. A float predictor whose
    floating category is not observed is monotonic. Each pair is tested with
    :func:`chi_square_test` on its two-row table, empty columns dropped; a
    table left with fewer than two columns is no evidence, p = 1.0.
    """
    order = {cat: i for i, cat in enumerate(predictor.categories)}
    rows = sorted(zip(table.row_labels, table.counts), key=lambda row: order[row[0][0]])
    observed = [cat for (cat,), _ in rows]
    floating = predictor.float_category if predictor.float_category in observed else None
    rank = {cat: i for i, cat in enumerate(c for c in observed if c != floating)}

    def pair_p_value(a: list[int], b: list[int]) -> float:
        pair = ContingencyTable.from_counts(["a", "b"], [str(j) for j in range(len(a))], [a, b])
        if pair.n_rows < 2 or pair.n_cols < 2:
            return 1.0
        return chi_square_test(pair).p_value

    def eligible(a: list[str], b: list[str]) -> bool:
        if predictor.scale is Scale.FREE:
            return True
        ranks = sorted(rank[c] for c in a + b if c != floating)
        return ranks[-1] - ranks[0] == len(ranks) - 1

    groups = [[cat] for cat in observed]
    counts = [list(row) for _, row in rows]
    tested = set()
    while len(groups) > 2:
        n = len(groups)
        pairs = [
            (i, j) for i in range(n) for j in range(i + 1, n) if eligible(groups[i], groups[j])
        ]
        tested.update((tuple(groups[i]), tuple(groups[j])) for i, j in pairs)
        p_values = [pair_p_value(counts[i], counts[j]) for i, j in pairs]
        best = max(range(len(pairs)), key=p_values.__getitem__)
        if p_values[best] <= alpha_merge:
            break
        i, j = pairs[best]
        groups[i] += groups.pop(j)
        counts[i] = [a + b for a, b in zip(counts[i], counts.pop(j))]
    return tuple(tuple(sorted(group, key=order.__getitem__)) for group in groups), tested


def grow_counting_every_node(
    records: Sequence[Mapping[str, object]],
    predictors: Sequence[PredictorSpec],
    target: str,
    params: GrowthParams = GrowthParams(),
) -> Tree:
    """``grow_tree`` with every searched node's tables counted from its rows.

    The node loop as it was before a split derived its largest child's
    tables: ``best_split`` is given the node alone and counts each
    predictor's table itself. The input is taken to be valid.
    """
    universes = {spec.name: spec.categories for spec in predictors}
    root = CodedRecords.from_records(records, target, universes)
    nodes: list[TreeNode] = []
    next_id = 1
    queue: deque[tuple[int, int, int | None, Sequence[int]]] = deque([(0, 0, None, root.rows)])
    while queue:
        node_id, depth, parent, rows = queue.popleft()
        node = root.at(rows)
        counts = Counter(str(records[i][target]) for i in rows)
        class_counts = {cls: counts[cls] for cls in root.classes if counts[cls]}
        candidate = best_split(node, predictors, params) if len(class_counts) > 1 else None
        reason = should_stop(depth, len(rows), candidate, params)
        split = None
        child_ids: tuple[int, ...] = ()
        if reason is None:
            split = NodeSplit(predictor=candidate.predictor.name, partition=candidate.partition)
            groups = split.partition.groups
            child_ids = tuple(range(next_id, next_id + len(groups)))
            next_id += len(groups)
            parts = node.partition_rows(split.predictor, groups)
            for child_id, child_rows in zip(child_ids, parts):
                queue.append((child_id, depth + 1, node_id, child_rows))
        nodes.append(
            TreeNode(
                id=node_id,
                depth=depth,
                parent=parent,
                split=split,
                children=child_ids,
                class_counts=class_counts,
                stop_reason=reason,
            )
        )
    return Tree(
        target=target,
        classes=root.classes,
        nodes=tuple(nodes),
        growth_params=params,
        predictors=tuple(predictors),
        schema=None,
    )


def coded(
    records: Sequence[Mapping[str, object]],
    *predictors: str,
    target: str = "y",
    class_order: Sequence[str] | None = None,
) -> CodedRecords:
    """The root node of ``records``, each predictor coded over its sorted observed values."""
    return CodedRecords.from_records(records, target, dict.fromkeys(predictors), class_order)


def records_from_counts(
    counts: Mapping[tuple[str, str], int],
    predictor: str = "x",
    target: str = "y",
) -> list[dict[str, str]]:
    """Expand (category, class) -> n into that many records, in a fixed order."""
    records = []
    for (cat, cls), n in sorted(counts.items()):
        records.extend({predictor: cat, target: cls} for _ in range(n))
    return records


def multi_records_from_counts(
    counts: Mapping[tuple, int],
    predictors: Sequence[str],
    target: str = "y",
) -> list[dict[str, str]]:
    """Expand (cat_1, ..., cat_k, class) -> n into records over several predictors."""
    records = []
    for key, n in sorted(counts.items()):
        *cats, cls = key
        assert len(cats) == len(predictors)
        rec = dict(zip(predictors, cats))
        rec[target] = cls
        records.extend(dict(rec) for _ in range(n))
    return records


# ---------------------------------------------------------------------------
# Reference tree: the shoe-sales example, 11 nodes, 7 terminals, depth 3.
#
# Terminal numbering (as the sales write-up counts its terminals) maps to
# node ids like so:
TERMINAL_NODE_IDS = {1: 6, 2: 9, 3: 10, 4: 3, 5: 8, 6: 7, 7: 4}

TIPE_CATEGORIES = (
    "High Heels",
    "Other",
    "Office Footwear",
    "Sneakers",
    "Boot",
    "Sandals & Flip Flop",
    "Flat Shoes",
    "Wedges",
    "Stilettos",
    "Vintage",
    "Painted Shoes",
    "Baby Shoe",
)

# Interval boundaries for the raw columns. These are fixture data chosen to
# make the worked example land in the right intervals; nothing in the source
# material fixes them, so they are illustrative, not normative.
HARGA_BOUNDARIES = (
    75000.0, 90000.0, 105000.0, 120000.0, 135000.0, 150000.0, 175000.0,
    200000.0, 250000.0, 300000.0, 400000.0, 500000.0, 750000.0,
)
DILIHAT_BOUNDARIES = tuple(float(v) for v in range(100, 1200, 100))
TERJUAL_BOUNDARIES = (149.0, 359.0, 716.0)


def sales_fixture_schema() -> dict:
    return {
        "format": "chaidkit-schema",
        "format_version": 1,
        "delimiter": ",",
        "columns": [
            {
                "name": "harga",
                "role": "predictor",
                "kind": "numeric",
                "scale": "free",
                "binning": {
                    "strategy": "explicit_boundaries",
                    "boundaries": list(HARGA_BOUNDARIES),
                },
            },
            {
                "name": "dilihat",
                "role": "predictor",
                "kind": "numeric",
                "scale": "free",
                "binning": {
                    "strategy": "explicit_boundaries",
                    "boundaries": list(DILIHAT_BOUNDARIES),
                },
            },
            {
                "name": "tipe",
                "role": "predictor",
                "kind": "categorical",
                "scale": "free",
                "categories": list(TIPE_CATEGORIES),
            },
            {
                "name": "terjual",
                "role": "target",
                "kind": "numeric",
                "binning": {
                    "strategy": "explicit_boundaries",
                    "boundaries": list(TERJUAL_BOUNDARIES),
                },
            },
        ],
    }


def sales_fixture_tree() -> Tree:
    """Hand-built reference tree for the shoe-sales example.

    Splits on dilihat at the root, then harga, then tipe; class counts are
    constructed so the famous leaf (node 9) predicts 98.2 / 1.3 / 0.3 / 0.2
    percent. Node ids are breadth-first.
    """
    harga_all = tuple(str(i) for i in range(1, 15))
    dilihat_groups = (("1", "9", "10", "12"), ("2",), ("3",), ("4", "5", "6", "7", "8"))
    tipe_hot = ("High Heels", "Other", "Office Footwear", "Sneakers")
    tipe_rest = tuple(c for c in TIPE_CATEGORIES if c not in tipe_hot)

    def node(
        node_id: int,
        depth: int,
        parent: int | None,
        counts: dict[str, int],
        split: NodeSplit | None = None,
        children: tuple[int, ...] = (),
        reason: StopReason | None = None,
    ) -> TreeNode:
        return TreeNode(
            id=node_id,
            depth=depth,
            parent=parent,
            split=split,
            children=children,
            class_counts=counts,
            stop_reason=reason,
        )

    nsp = StopReason.NO_SIGNIFICANT_PREDICTOR
    nodes = (
        node(
            0, 0, None,
            {"1": 4012, "2": 828, "3": 334, "4": 126},
            split=NodeSplit("dilihat", CategoryPartition(dilihat_groups)),
            children=(1, 2, 3, 4),
        ),
        node(
            1, 1, 0,
            {"1": 2682, "2": 113, "3": 34, "4": 21},
            split=NodeSplit("harga", CategoryPartition((("1",), harga_all[1:]))),
            children=(5, 6),
        ),
        node(
            2, 1, 0,
            {"1": 760, "2": 175, "3": 50, "4": 15},
            split=NodeSplit("harga", CategoryPartition((("1",), harga_all[1:9]))),
            children=(7, 8),
        ),
        node(3, 1, 0, {"1": 150, "2": 230, "3": 90, "4": 30}, reason=nsp),
        node(4, 1, 0, {"1": 420, "2": 310, "3": 160, "4": 60}, reason=nsp),
        node(
            5, 2, 1,
            {"1": 1282, "2": 53, "3": 9, "4": 6},
            split=NodeSplit("tipe", CategoryPartition((tipe_hot, tipe_rest))),
            children=(9, 10),
        ),
        node(6, 2, 1, {"1": 1400, "2": 60, "3": 25, "4": 15}, reason=nsp),
        node(7, 2, 2, {"1": 240, "2": 45, "3": 10, "4": 5}, reason=nsp),
        node(8, 2, 2, {"1": 520, "2": 130, "3": 40, "4": 10}, reason=nsp),
        node(9, 3, 5, {"1": 982, "2": 13, "3": 3, "4": 2}, reason=StopReason.MAX_DEPTH),
        node(10, 3, 5, {"1": 300, "2": 40, "3": 6, "4": 4}, reason=StopReason.MAX_DEPTH),
    )
    predictors = (
        PredictorSpec("harga", Scale.FREE, harga_all),
        PredictorSpec("dilihat", Scale.FREE, tuple(str(i) for i in range(1, 13))),
        PredictorSpec("tipe", Scale.FREE, TIPE_CATEGORIES),
    )
    return Tree(
        target="terjual",
        classes=("1", "2", "3", "4"),
        nodes=nodes,
        growth_params=GrowthParams(),
        predictors=predictors,
        schema=sales_fixture_schema(),
    )


# ---------------------------------------------------------------------------
# Random valid trees, for round-trip and sanity properties.

def random_tree(rng: random.Random) -> Tree:
    """Generate a structurally valid random tree."""
    n_classes = rng.randint(2, 4)
    classes = tuple(f"c{i}" for i in range(n_classes))
    n_predictors = rng.randint(1, 3)
    predictors = []
    for p in range(n_predictors):
        n_cats = rng.randint(2, 6)
        cats = tuple(f"p{p}v{i}" for i in range(n_cats))
        scale = rng.choice([Scale.MONOTONIC, Scale.FREE, Scale.FLOAT])
        float_cat = cats[-1] if scale is Scale.FLOAT else None
        predictors.append(PredictorSpec(f"p{p}", scale, cats, float_cat))
    predictors = tuple(predictors)

    nodes: list[dict] = []

    def leaf_counts() -> dict[str, int]:
        counts = {cls: rng.randint(0, 40) for cls in classes}
        if not any(counts.values()):
            counts[rng.choice(classes)] = rng.randint(1, 40)
        return {cls: n for cls, n in counts.items() if n}

    def build(depth: int, parent: int | None) -> int:
        node_id = len(nodes)
        entry = {
            "id": node_id,
            "depth": depth,
            "parent": parent,
            "split": None,
            "children": (),
            "class_counts": {},
            "stop_reason": None,
        }
        nodes.append(entry)
        can_split = depth < 3 and rng.random() < 0.6
        if not can_split:
            entry["class_counts"] = leaf_counts()
            entry["stop_reason"] = rng.choice(list(StopReason))
            return node_id
        spec = predictors[rng.randrange(len(predictors))]
        cats = list(spec.categories)
        rng.shuffle(cats)
        n_groups = rng.randint(2, len(cats)) if len(cats) > 2 else 2
        groups: list[list[str]] = [[] for _ in range(n_groups)]
        for i, cat in enumerate(cats):
            groups[i % n_groups].append(cat)
        partition = CategoryPartition(tuple(tuple(sorted(g)) for g in groups))
        child_ids = tuple(build(depth + 1, node_id) for _ in partition.groups)
        total: dict[str, int] = {}
        for child_id in child_ids:
            for cls, count in nodes[child_id]["class_counts"].items():
                total[cls] = total.get(cls, 0) + count
        entry["split"] = NodeSplit(spec.name, partition)
        entry["children"] = child_ids
        entry["class_counts"] = total
        return node_id

    build(0, None)
    # Depth-first construction hands out ids in preorder, which satisfies the
    # dense-id requirement just as well as breadth-first numbering.
    tree_nodes = tuple(
        TreeNode(
            id=e["id"],
            depth=e["depth"],
            parent=e["parent"],
            split=e["split"],
            children=e["children"],
            class_counts=e["class_counts"],
            stop_reason=e["stop_reason"],
        )
        for e in nodes
    )
    schema = rng.choice([None, {"note": "free-form echo", "n": rng.randint(0, 9)}])
    return Tree(
        target="y",
        classes=classes,
        nodes=tree_nodes,
        growth_params=GrowthParams(
            alpha_merge=rng.choice([0.01, 0.05, 0.1]),
            alpha_split=rng.choice([0.01, 0.05, 0.1]),
            max_depth=rng.randint(3, 6),
            min_parent_size=rng.choice([10, 20]),
            min_child_size=rng.choice([1, 5]),
        ),
        predictors=predictors,
        schema=schema,
    )
