"""Breadth-first tree growth.

The node loop runs over records coded once at the root: find the best
split, apply the stop rules, and either close the node or fan its rows
out to one child per category group. ``grow_tree`` codes in-memory
records; ``train_tree`` codes a loaded dataset's label columns, carrying
the dataset's schema echo into the model so predictions can be made from
the model file alone.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping, Sequence

from .core import GrowthParams, PredictorSpec, best_split, should_stop
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
    defaults to the sorted observed classes. The records are turned into
    label columns and coded once, at the root; every node is then a list
    of row indices into them.
    """
    if not records:
        raise ChaidError("empty dataset")
    if not predictors:
        raise ChaidError("no predictors declared")
    names = [spec.name for spec in predictors]
    if len(set(names)) != len(names):
        raise ChaidError("duplicate predictor name")
    if target in names:
        raise ChaidError(f"target {target!r} is also declared as a predictor")

    universes = {spec.name: spec.categories for spec in predictors}
    root = CodedRecords.from_records(records, target, universes, class_order)
    return _grow(root, predictors, target, params, schema=None)


def _grow(
    root: CodedRecords,
    predictors: Sequence[PredictorSpec],
    target: str,
    params: GrowthParams,
    schema: dict | None,
) -> Tree:
    """The node loop over a coded root; every node is a list of row indices."""
    nodes: list[TreeNode] = []
    next_id = 1
    queue: deque[tuple[int, int, int | None, Sequence[int]]] = deque()
    queue.append((0, 0, None, root.rows))
    while queue:
        node_id, depth, parent, rows = queue.popleft()
        node = root.at(rows)
        class_counts = node.class_counts()
        candidate = best_split(node, predictors, params)
        reason = should_stop(depth, len(rows), candidate, params)
        split = None
        child_ids: tuple[int, ...] = ()
        if reason is None:
            assert candidate is not None
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
        schema=schema,
    )


def train_tree(dataset: Dataset, params: GrowthParams = GrowthParams()) -> Tree:
    """Grow a tree from a loaded dataset, embedding its schema echo."""
    if not dataset.n_rows:
        raise ChaidError("empty dataset")
    predictors = dataset.predictor_specs()
    if not predictors:
        raise ChaidError("schema declares no predictors")
    target = dataset.schema.target.name
    if target not in dataset.columns:
        raise ChaidError(f"record 0 is missing the target column {target!r}")
    universes = {spec.name: spec.categories for spec in predictors}
    root = CodedRecords.encode(dataset.columns, target, universes, dataset.classes)
    return _grow(root, predictors, target, params, dataset.schema_echo())
