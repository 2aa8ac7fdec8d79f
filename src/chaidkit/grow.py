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
    schema: dict | None = None,
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
    return _grow(root, predictors, target, params, schema)


def _grow(
    root: CodedRecords,
    predictors: Sequence[PredictorSpec],
    target: str,
    params: GrowthParams,
    schema: dict | None,
) -> Tree:
    """The node loop over a coded root; every node is a list of row indices."""
    classes = root.classes

    nodes: list[TreeNode] = []
    next_id = 1
    queue: deque[tuple[int, int, int | None, Sequence[int]]] = deque()
    queue.append((0, 0, None, root.rows))
    while queue:
        node_id, depth, parent, rows = queue.popleft()
        node = root.at(rows)
        class_counts = node.class_counts()
        candidate = best_split(node, predictors, params)
        reason = should_stop(depth, len(rows), len(class_counts), candidate, params)
        if reason is not None:
            nodes.append(
                TreeNode(
                    id=node_id,
                    depth=depth,
                    parent=parent,
                    split=None,
                    children=(),
                    class_counts=class_counts,
                    stop_reason=reason,
                )
            )
            continue
        assert candidate is not None
        groups = candidate.partition.groups
        pred_name = candidate.predictor.name
        child_ids = tuple(range(next_id, next_id + len(groups)))
        next_id += len(groups)
        for child_id, child_rows in zip(child_ids, node.partition_rows(pred_name, groups)):
            queue.append((child_id, depth + 1, node_id, child_rows))
        nodes.append(
            TreeNode(
                id=node_id,
                depth=depth,
                parent=parent,
                split=NodeSplit(predictor=pred_name, partition=candidate.partition),
                children=child_ids,
                class_counts=class_counts,
                stop_reason=None,
            )
        )

    return Tree(
        target=target,
        classes=classes,
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
    target = dataset.target_name
    if target not in dataset.columns:
        raise ChaidError(f"record 0 is missing the target column {target!r}")
    universes = {spec.name: spec.categories for spec in predictors}
    root = CodedRecords.encode(dataset.columns, target, universes, dataset.classes)
    return _grow(root, predictors, target, params, dataset.schema_echo())
