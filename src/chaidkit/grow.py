"""Breadth-first tree growth.

The node loop runs over records coded once at the root: find the best
split, apply the stop rules, and either close the node or fan its rows
out to one child per category group. ``grow_tree`` codes in-memory
records; ``train_tree`` maps a loaded dataset's codes to category ranks,
carrying the dataset's schema echo into the model so predictions can be
made from the model file alone.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping, Sequence

from .core import GrowthParams, PredictorSpec, best_split, should_stop
from .core import _child_tables, _count_tables
from .errors import ChaidError
from .ingest import Dataset
from .model import NodeSplit, Tree, TreeNode
from .stats import CodedRecords

__all__ = ["grow_tree", "train_tree"]


def grow_tree(
    records: Sequence[Mapping[str, object]],
    predictors: Sequence[PredictorSpec],
    target: str,
    params: GrowthParams = GrowthParams(),
    *,
    class_order: Sequence[str] | None = None,
) -> Tree:
    """Grow a tree over categorical records, breadth first.

    Node ids are assigned in breadth-first creation order, with children
    ordered like their category groups, so identical inputs always produce
    the identical tree. ``class_order`` fixes the emitted class order and
    defaults to the sorted observed classes. The records are coded once,
    at the root, each column through one dict of its labels; every node is
    then a list of row indices into them.
    """
    universes = _check(len(records), predictors, target)
    root = CodedRecords.from_records(records, target, universes, class_order)
    return _grow(root, predictors, target, params, schema=None)


def _check(n_rows: int, predictors: Sequence[PredictorSpec], target: str) -> dict:
    """The one check of training input, made before coding; gives each predictor's categories."""
    if not n_rows:
        raise ChaidError("empty dataset")
    if not predictors:
        raise ChaidError("no predictors declared")
    names = [spec.name for spec in predictors]
    if len(set(names)) != len(names):
        raise ChaidError("duplicate predictor name")
    if target in names:
        raise ChaidError(f"target {target!r} is also declared as a predictor")
    return {spec.name: spec.categories for spec in predictors}


def _grow(
    root: CodedRecords,
    predictors: Sequence[PredictorSpec],
    target: str,
    params: GrowthParams,
    schema: dict | None,
) -> Tree:
    """The node loop over the coded root's row indices."""
    names = [spec.name for spec in predictors]
    nodes: list[TreeNode] = []
    next_id = 1
    # A queued node carries its tables by predictor name: the root's counted here,
    # a child's made at its parent's split. Any of them sums to the node's class counts.
    queue: deque[tuple[int, int, int | None, CodedRecords, dict]] = deque()
    queue.append((0, 0, None, root, _count_tables(root, names)))
    while queue:
        node_id, depth, parent, node, tables = queue.popleft()
        table = tables[names[0]]
        class_counts = dict(zip(table.col_labels, map(sum, zip(*table.counts))))
        # At a one-class node every table has one column, so no predictor is searched.
        candidate = best_split(node, predictors, params, tables)
        reason = should_stop(depth, len(node.rows), candidate, params)
        split = None
        child_ids: tuple[int, ...] = ()
        if reason is None:
            assert candidate is not None
            split = NodeSplit(predictor=candidate.predictor.name, partition=candidate.partition)
            groups = split.partition.groups
            child_ids = tuple(range(next_id, next_id + len(groups)))
            next_id += len(groups)
            children = [node.at(rows) for rows in node.partition_rows(split.predictor, groups)]
            for child_id, child, child_tables in zip(
                child_ids, children, _child_tables(tables, children)
            ):
                queue.append((child_id, depth + 1, node_id, child, child_tables))
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
        schema=schema,
    )


def train_tree(dataset: Dataset, params: GrowthParams = GrowthParams()) -> Tree:
    """Grow a tree from a loaded dataset, embedding its schema echo."""
    predictors, target = dataset.predictor_specs(), dataset.schema.target.name
    classes, schema = dataset.classes, dataset.schema_echo()
    universes = _check(dataset.n_rows, predictors, target)
    root = CodedRecords.encode(dataset.columns, target, universes, classes)
    del dataset  # growth holds the coded root alone
    return _grow(root, predictors, target, params, schema)
