"""Immutable tree model: routing, prediction, serialization, DOT export.

A :class:`Tree` is a flat list of nodes indexed by id, checked for
structural consistency on construction and again when loaded from a model
document. Routing walks from the root, following the child whose category
group contains the record's value for the split predictor; terminal nodes
turn their training class counts into a probability distribution.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .core import (
    MISSING_LABEL,
    CategoryPartition,
    GrowthParams,
    PredictorSpec,
    StopReason,
)
from .errors import ChaidError, ModelError, _number, _text
from .stats import Scale

__all__ = [
    "NodeSplit",
    "TreeNode",
    "ClassDistribution",
    "Tree",
    "load_model",
    "save_model",
]

MODEL_FORMAT = "chaidkit-model"
MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class NodeSplit:
    """How an internal node partitions records: one child per category group."""

    predictor: str
    partition: CategoryPartition


@dataclass(frozen=True)
class TreeNode:
    """One node of a grown tree.

    A node is terminal exactly when it has no children, which is exactly
    when it has no split and carries a stop reason.
    """

    id: int
    depth: int
    parent: int | None
    split: NodeSplit | None
    children: tuple[int, ...]
    class_counts: dict[str, int]
    stop_reason: StopReason | None

    @property
    def is_terminal(self) -> bool:
        return not self.children

    @property
    def size(self) -> int:
        return sum(self.class_counts.values())


@dataclass(frozen=True)
class ClassDistribution:
    """Predicted class probabilities at a terminal node.

    Each probability is the leaf's class count divided by its support, and
    the probabilities therefore sum to one.
    """

    probabilities: dict[str, float]
    support: int

    def __post_init__(self) -> None:
        if self.support < 1:
            raise ModelError("distribution support must be positive")
        values = self.probabilities.values()
        # NaN fails every comparison, so it fails here too.
        if not (all(0.0 <= p <= 1.0 for p in values) and abs(sum(values) - 1.0) <= 1e-9):
            raise ModelError("class probabilities must lie in [0, 1] and sum to 1")

    def modal_class(self) -> str:
        """Most probable class; ties break toward the earliest declared class."""
        # ``max`` keeps the first of equal keys, and the mapping is in class order.
        return max(self.probabilities, key=self.probabilities.__getitem__)


@dataclass(frozen=True)
class Tree:
    """A complete, validated classification tree.

    ``classes`` fixes the emission order of every distribution. ``schema``
    is an opaque echo of the dataset schema the tree was trained with
    (including realized binning boundaries) so a model document alone
    suffices to prepare prediction inputs; it is carried, not interpreted,
    by this module.
    """

    target: str
    classes: tuple[str, ...]
    nodes: tuple[TreeNode, ...]
    growth_params: GrowthParams = field(default_factory=GrowthParams)
    predictors: tuple[PredictorSpec, ...] = ()
    schema: dict | None = None

    def __post_init__(self) -> None:
        _validate_tree(self)

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    @property
    def depth(self) -> int:
        return max(node.depth for node in self.nodes)

    def terminal_nodes(self) -> tuple[TreeNode, ...]:
        return tuple(node for node in self.nodes if node.is_terminal)

    def node(self, node_id: int) -> TreeNode:
        if not 0 <= node_id < len(self.nodes):
            raise ModelError(f"no node with id {node_id}")
        return self.nodes[node_id]

    # -- routing and prediction -------------------------------------------

    def route(
        self, record: Mapping[str, object], *, warn: Callable[[str], None] | None = None
    ) -> int:
        """Walk the record from the root to a terminal node and return its id.

        A value missing from the record, or never grouped at the split
        (a category unseen in training, or seen only under other nodes),
        follows the child with the most training records (ties to the
        smaller node id), and the detour is reported through ``warn``; a
        ``warn`` that raises stops routing there. The missing label and a
        float predictor's floating category, which blank cells become, are
        reported as missing values.
        """
        steps = self._steps
        node_id = 0
        while (step := steps[node_id]) is not None:
            predictor, child_of = step
            value = record.get(predictor)
            if type(value) is not str and value is not None:
                value = str(value)
            child_id = child_of.get(value)
            if child_id is None:
                child_id, cause = self._detour(self.nodes[node_id], value)
                if warn is not None:
                    warn(f"{cause}; following the largest child (node {child_id})")
            node_id = child_id
        return node_id

    @cached_property
    def _steps(self) -> list[tuple[str, dict[str, int]] | None]:
        """Per node id: None at a leaf, else its split predictor and each grouped category's child."""
        steps = []
        for node in self.nodes:
            split = node.split
            if split is None:
                steps.append(None)
            else:
                edges = zip(split.partition.groups, node.children)
                steps.append((split.predictor, {c: child for g, child in edges for c in g}))
        return steps

    def _detour(self, node: TreeNode, value: str | None) -> tuple[int, str]:
        """The child a value ungrouped at ``node`` follows, and why (see :meth:`route`)."""
        assert node.split is not None
        predictor = node.split.predictor
        floating = (spec.float_category for spec in self.predictors if spec.name == predictor)
        if value in {None, MISSING_LABEL, *floating}:
            cause = f"missing value for predictor {predictor!r}"
        else:
            cause = (
                f"category {value!r} of predictor {predictor!r} "
                f"was not seen in training at node {node.id}"
            )
        return max(node.children, key=lambda c: self.nodes[c].size), cause

    def distribution(self, node_id: int) -> ClassDistribution:
        """Class distribution of a node: counts over support, in class order."""
        node = self.node(node_id)
        support = node.size
        probabilities = {
            cls: node.class_counts.get(cls, 0) / support for cls in self.classes
        }
        return ClassDistribution(probabilities=probabilities, support=support)

    # -- serialization ----------------------------------------------------

    def to_document(self) -> dict:
        """Plain-data model document; see ``from_document`` for the inverse."""
        return {
            "format": MODEL_FORMAT,
            "format_version": MODEL_FORMAT_VERSION,
            "target": self.target,
            "classes": list(self.classes),
            "growth_params": asdict(self.growth_params),
            "predictors": [
                {**asdict(spec), "scale": spec.scale.value, "categories": list(spec.categories)}
                for spec in self.predictors
            ],
            "schema": self.schema,
            "nodes": [
                {
                    **asdict(node),
                    "children": list(node.children),
                    "split": None
                    if node.split is None
                    else {
                        "predictor": node.split.predictor,
                        "groups": [list(g) for g in node.split.partition.groups],
                    },
                    "stop_reason": None if node.stop_reason is None else node.stop_reason.value,
                }
                for node in self.nodes
            ],
        }

    def document_bytes(self) -> bytes:
        """Byte-stable serialization: sorted keys, two-space indent, newline end."""
        text = json.dumps(self.to_document(), sort_keys=True, indent=2)
        return (text + "\n").encode("utf-8")

    @classmethod
    def from_document(cls, document: object) -> "Tree":
        """Rebuild a tree from a model document, re-checking every invariant."""
        if not isinstance(document, dict):
            raise ModelError("model document must be a mapping")
        if document.get("format") != MODEL_FORMAT:
            raise ModelError("not a model document (unrecognized format tag)")
        if document.get("format_version") != MODEL_FORMAT_VERSION:
            raise ModelError(
                f"unsupported model format version: {document.get('format_version')!r}"
            )
        try:
            at, growth = "growth_params", _key(document, "growth_params")
            # Each field takes the type of its default: float alphas, int sizes.
            params = GrowthParams(
                **{
                    f.name: _number(type(f.default), _key(growth, f.name, at), f"{at}.{f.name}")
                    for f in fields(GrowthParams)
                }
            )
            predictors = tuple(
                PredictorSpec(
                    name=_text(_key(p, "name", f"predictors[{i}]"), "predictor name", ModelError),
                    scale=Scale(_key(p, "scale", f"predictors[{i}]")),
                    categories=tuple(
                        _text(c, "predictor categories", ModelError)
                        for c in _list(_key(p, "categories", f"predictors[{i}]"), "categories")
                    ),
                    float_category=None
                    if p.get("float_category") is None
                    else _text(p["float_category"], "predictor float_category", ModelError),
                )
                for i, p in enumerate(_key(document, "predictors"))
            )
            nodes = tuple(_node_from_doc(i, doc) for i, doc in enumerate(_key(document, "nodes")))
            schema = document.get("schema")
            tree = cls(
                target=_text(_key(document, "target"), "target", ModelError),
                classes=tuple(
                    _text(c, "classes", ModelError)
                    for c in _list(_key(document, "classes"), "classes")
                ),
                nodes=nodes,
                growth_params=params,
                predictors=predictors,
                schema=schema if schema is None else dict(schema),
            )
        except ModelError:
            raise
        except (ChaidError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelError(f"malformed model document: {exc}") from exc
        return tree

    @classmethod
    def from_bytes(cls, data: bytes) -> "Tree":
        try:
            document = json.loads(data.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ModelError(f"model document is not valid JSON: {exc}") from exc
        return cls.from_document(document)

    # -- graph export -----------------------------------------------------

    def to_dot(self) -> str:
        """Graphviz digraph text: one node per tree node, one edge per child.

        Internal nodes are labeled with their split predictor, terminals
        with their distribution; edges carry the child's category group.
        Ordering follows node ids, so output is deterministic.
        """
        lines = [
            "digraph tree {",
            "  rankdir=TB;",
            '  node [shape=box, fontname="Helvetica"];',
        ]
        for node in self.nodes:
            if node.split is not None:
                parts = [_dot_escape(node.split.predictor), f"n={node.size}"]
            else:
                dist = self.distribution(node.id)
                parts = [f"n={node.size}"] + [
                    f"{_dot_escape(cls)}: {dist.probabilities[cls]:.3f}"
                    for cls in self.classes
                ]
            label = "\\n".join(parts)
            lines.append(f'  n{node.id} [label="{label}"];')
        for node in self.nodes:
            if node.split is None:
                continue
            for group, child_id in zip(node.split.partition.groups, node.children):
                label = _dot_escape(", ".join(group))
                lines.append(f'  n{node.id} -> n{child_id} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _list(value: object, name: str) -> list:
    """A list field of a model document: a string there is not a list of characters."""
    if not isinstance(value, list):
        raise ModelError(f"{name} must be a list, not {value!r}")
    return value


def _key(doc: Mapping, key: str, at: str = "") -> object:
    """The required ``key`` of the model document mapping at path ``at``; missing, it is named."""
    try:
        return doc[key]
    except KeyError:
        raise ValueError(f"{at}: missing {key!r}" if at else f"missing {key!r}") from None


def _node_from_doc(index: int, doc: object) -> TreeNode:
    """The node at position ``index`` of a model document's node list."""
    if not isinstance(doc, dict):
        raise ModelError("node entry must be a mapping")
    at = f"nodes[{index}]"
    split_doc = doc.get("split")
    split = None
    if split_doc is not None:
        groups = _key(split_doc, "groups", f"{at}.split")
        if not isinstance(groups, list) or not all(isinstance(g, list) for g in groups):
            raise ModelError(f"split groups must be a list of lists, not {groups!r}")
        predictor = _key(split_doc, "predictor", f"{at}.split")
        split = NodeSplit(
            predictor=_text(predictor, "split predictor", ModelError),
            partition=CategoryPartition(
                tuple(tuple(_text(c, "split groups", ModelError) for c in g) for g in groups)
            ),
        )
    class_counts = _key(doc, "class_counts", at)
    if not isinstance(class_counts, dict):
        raise ModelError(f"class_counts must be a mapping, not {class_counts!r}")
    reason_doc = doc.get("stop_reason")
    try:
        reason = None if reason_doc is None else StopReason(reason_doc)
    except ValueError as exc:
        raise ModelError(f"unknown stop reason {reason_doc!r}") from exc
    return TreeNode(
        id=_number(int, _key(doc, "id", at), f"{at}.id"),
        depth=_number(int, _key(doc, "depth", at), f"{at}.depth"),
        parent=None if doc.get("parent") is None else _number(int, doc["parent"], f"{at}.parent"),
        split=split,
        children=tuple(
            _number(int, c, f"{at}.children")
            for c in _list(_key(doc, "children", at), "children")
        ),
        class_counts={
            str(k): _number(int, v, f"{at}.class_counts") for k, v in class_counts.items()
        },
        stop_reason=reason,
    )


def _validate_tree(tree: Tree) -> None:
    if not tree.nodes:
        raise ModelError("model has no nodes")
    if not tree.classes:
        raise ModelError("model declares no target classes")
    if len(set(tree.classes)) != len(tree.classes):
        raise ModelError("duplicate target class in model")
    n = len(tree.nodes)
    for index, node in enumerate(tree.nodes):
        if node.id != index:
            raise ModelError(f"node ids must be dense and ordered; found {node.id} at position {index}")
        for cls, count in node.class_counts.items():
            if cls not in tree.classes:
                raise ModelError(f"node {node.id} counts undeclared class {cls!r}")
            if count < 0:
                raise ModelError(f"node {node.id} has a negative class count")
        if node.size < 1:
            raise ModelError(f"node {node.id} holds no records")

    root = tree.nodes[0]
    if root.parent is not None:
        raise ModelError("node 0 must be the root (no parent)")
    if root.depth != 0:
        raise ModelError("root depth must be 0")
    for node in tree.nodes[1:]:
        if node.parent is None:
            raise ModelError(f"multiple roots: node {node.id} has no parent")
        if not 0 <= node.parent < n:
            raise ModelError(f"node {node.id} references a missing parent {node.parent}")
        parent = tree.nodes[node.parent]
        if node.id not in parent.children:
            raise ModelError(
                f"node {node.id} is absent from the children of its parent {parent.id}"
            )
        if node.depth != parent.depth + 1:
            raise ModelError(f"node {node.id} has inconsistent depth")

    predictor_names = {spec.name for spec in tree.predictors}
    for node in tree.nodes:
        terminal = not node.children
        if terminal != (node.split is None):
            raise ModelError(f"node {node.id} mixes terminal and split markers")
        if terminal != (node.stop_reason is not None):
            raise ModelError(
                f"node {node.id} must carry a stop reason exactly when terminal"
            )
        if terminal:
            continue
        split = node.split
        assert split is not None
        if len(split.partition.groups) != len(node.children):
            raise ModelError(
                f"node {node.id} has {len(node.children)} children for "
                f"{len(split.partition.groups)} category groups"
            )
        if len(set(node.children)) != len(node.children):
            raise ModelError(f"node {node.id} lists a child twice")
        if predictor_names and split.predictor not in predictor_names:
            raise ModelError(
                f"node {node.id} splits on undeclared predictor {split.predictor!r}"
            )
        summed: dict[str, int] = {}
        for child_id in node.children:
            if not 0 <= child_id < n:
                raise ModelError(f"node {node.id} references a missing child {child_id}")
            child = tree.nodes[child_id]
            if child.parent != node.id:
                raise ModelError(
                    f"node {child_id} does not acknowledge {node.id} as its parent"
                )
            for cls, count in child.class_counts.items():
                summed[cls] = summed.get(cls, 0) + count
        own = {cls: cnt for cls, cnt in node.class_counts.items() if cnt}
        summed = {cls: cnt for cls, cnt in summed.items() if cnt}
        if own != summed:
            raise ModelError(
                f"node {node.id} class counts do not equal the sum of its children's"
            )


def load_model(path: str | Path) -> Tree:
    """Read and validate a model document from a file."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ModelError(f"cannot read model file: {exc}") from exc
    return Tree.from_bytes(data)


def save_model(tree: Tree, path: str | Path) -> None:
    """Write the byte-stable model document to a file."""
    Path(path).write_bytes(tree.document_bytes())
