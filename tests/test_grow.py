"""Tree growth: structure, determinism, and per-split re-derivation."""

from __future__ import annotations

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaidkit import (
    ChaidError,
    GrowthParams,
    PredictorSpec,
    Scale,
    build_contingency,
    chi_square_test,
    grow_tree,
    load_dataset,
    train_tree,
)
from chaidkit.core import StopReason
from chaidkit.ingest import ColumnSpec, DatasetSchema
from conftest import coded, partition_count_oracle


def _random_records(rng, n_rows, n_predictors, n_cats, n_classes):
    predictors = []
    for j in range(n_predictors):
        cats = tuple(f"p{j}c{i}" for i in range(n_cats))
        predictors.append(PredictorSpec(f"x{j}", Scale.FREE, cats, None))
    classes = [f"cls{i}" for i in range(n_classes)]
    records = []
    for _ in range(n_rows):
        record = {"y": rng.choice(classes)}
        for pred in predictors:
            record[pred.name] = rng.choice(pred.categories)
        # Leak some signal through the first predictor so trees get depth.
        if rng.random() < 0.6:
            record["y"] = classes[predictors[0].categories.index(record["x0"]) % n_classes]
        records.append(record)
    return records, predictors


@st.composite
def growth_inputs(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    n_rows = draw(st.integers(30, 160))
    n_predictors = draw(st.integers(1, 3))
    n_cats = draw(st.integers(2, 4))
    n_classes = draw(st.integers(2, 3))
    records, predictors = _random_records(rng, n_rows, n_predictors, n_cats, n_classes)
    return records, predictors


class TestGrowProperties:
    @given(growth_inputs())
    @settings(max_examples=40, deadline=None)
    def test_structure_invariants(self, inputs):
        records, predictors = inputs
        params = GrowthParams()
        tree = grow_tree(records, predictors, "y", params)
        root = tree.nodes[0]
        assert root.size == len(records)
        for node in tree.nodes:
            assert node.depth <= params.max_depth
            if node.is_terminal:
                assert node.stop_reason is not None
                continue
            # Internal node: every child is non-empty and meets the minimum,
            # the parent met the parent minimum, and counts are conserved.
            assert node.size >= params.min_parent_size
            child_total = 0
            for child_id in node.children:
                child = tree.nodes[child_id]
                assert child.size >= params.min_child_size
                child_total += child.size
            assert child_total == node.size

    @given(growth_inputs())
    @settings(max_examples=25, deadline=None)
    def test_each_split_re_derives(self, inputs):
        records, predictors = inputs
        params = GrowthParams()
        tree = grow_tree(records, predictors, "y", params)
        # Walk the split chain by hand to rebuild per-node membership.
        members = {node.id: [] for node in tree.nodes}
        for record in records:
            node = tree.nodes[0]
            while True:
                members[node.id].append(record)
                if node.is_terminal:
                    break
                value = record[node.split.predictor]
                for slot, group in enumerate(node.split.partition.groups):
                    if value in group:
                        node = tree.nodes[node.children[slot]]
                        break
        spec_by_name = {p.name: p for p in predictors}
        for node in tree.nodes:
            if node.is_terminal:
                continue
            subset = members[node.id]
            spec = spec_by_name[node.split.predictor]
            table = build_contingency(
                coded(subset, spec.name, class_order=tree.classes), spec.name
            ).merge_rows(node.split.partition.groups)
            result = chi_square_test(table)
            observed = {r[spec.name] for r in subset}
            scale = spec.scale
            if scale is Scale.FLOAT and spec.float_category not in observed:
                scale = Scale.MONOTONIC
            multiplier = partition_count_oracle(
                scale, len(observed), len(node.split.partition.groups)
            )
            adjusted = min(1.0, multiplier * result.p_value)
            assert adjusted <= params.alpha_split + 1e-12

    @given(growth_inputs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_row_order_independence(self, inputs, shuffle_seed):
        records, predictors = inputs
        tree_a = grow_tree(records, predictors, "y", GrowthParams())
        shuffled = list(records)
        random.Random(shuffle_seed).shuffle(shuffled)
        tree_b = grow_tree(shuffled, predictors, "y", GrowthParams())
        assert tree_a.document_bytes() == tree_b.document_bytes()

    @given(growth_inputs())
    @settings(max_examples=20, deadline=None)
    def test_class_relabel_isomorphism(self, inputs):
        records, predictors = inputs
        classes = sorted({r["y"] for r in records})
        mapping = {c: f"Z{i}" for i, c in enumerate(classes)}
        relabeled = [{**r, "y": mapping[r["y"]]} for r in records]
        tree_a = grow_tree(records, predictors, "y", GrowthParams())
        tree_b = grow_tree(relabeled, predictors, "y", GrowthParams())
        assert len(tree_a.nodes) == len(tree_b.nodes)
        for node_a, node_b in zip(tree_a.nodes, tree_b.nodes):
            assert node_a.children == node_b.children
            assert node_a.stop_reason == node_b.stop_reason
            assert {mapping[k]: v for k, v in node_a.class_counts.items()} == (
                node_b.class_counts
            )
            if node_a.split is not None:
                assert node_a.split.partition == node_b.split.partition


class TestGrowValidation:
    def test_empty_records(self):
        pred = PredictorSpec("x", Scale.FREE, ("a", "b"), None)
        with pytest.raises(ChaidError, match="empty dataset"):
            grow_tree([], [pred], "y", GrowthParams())

    def test_duplicate_predictor_names(self):
        pred = PredictorSpec("x", Scale.FREE, ("a", "b"), None)
        with pytest.raises(ChaidError, match="duplicate predictor"):
            grow_tree([{"x": "a", "y": "u"}], [pred, pred], "y", GrowthParams())

    def test_target_among_predictors(self):
        pred = PredictorSpec("y", Scale.FREE, ("u", "v"), None)
        with pytest.raises(ChaidError, match="target"):
            grow_tree([{"y": "u"}], [pred], "y", GrowthParams())

    def test_declarations_are_checked_before_the_records_are_coded(self):
        # Each record holds a value its predictor does not declare, which coding refuses.
        target_too = PredictorSpec("y", Scale.FREE, ("u",), None)
        with pytest.raises(ChaidError, match="target 'y' is also declared as a predictor"):
            grow_tree([{"y": "w"}], [target_too], "y")
        x = PredictorSpec("x", Scale.FREE, ("a",), None)
        with pytest.raises(ChaidError, match="duplicate predictor name"):
            grow_tree([{"x": "b", "y": "u"}], [x, x], "y")

    def test_check_order(self):
        y = PredictorSpec("y", Scale.FREE, ("u",), None)
        with pytest.raises(ChaidError, match="empty dataset"):
            grow_tree([], [], "y")
        # The record lacks the target, which coding refuses.
        with pytest.raises(ChaidError, match="no predictors declared"):
            grow_tree([{"x": "a"}], [], "y")
        with pytest.raises(ChaidError, match="duplicate predictor name"):
            grow_tree([{"x": "a"}], [y, y], "y")

    def test_missing_target_column(self):
        pred = PredictorSpec("x", Scale.FREE, ("a", "b"), None)
        with pytest.raises(ChaidError, match="missing the target column"):
            grow_tree([{"x": "a"}], [pred], "y", GrowthParams())

    def test_dataset_loaded_without_its_target(self):
        schema = DatasetSchema(
            (ColumnSpec("x", "predictor", "categorical"), ColumnSpec("y", "target", "categorical"))
        )
        dataset = load_dataset(io.StringIO("x\na\nb\n"), schema, require_target=False)
        with pytest.raises(ChaidError, match="record 0 is missing the target column 'y'"):
            train_tree(dataset)

    def test_undeclared_class_rejected(self):
        pred = PredictorSpec("x", Scale.FREE, ("a", "b"), None)
        records = [{"x": "a", "y": "u"}, {"x": "b", "y": "w"}]
        with pytest.raises(ChaidError, match="not in declared class order"):
            grow_tree(records, [pred], "y", GrowthParams(), class_order=["u", "v"])

    def test_duplicate_class_in_class_order_rejected(self):
        pred = PredictorSpec("x", Scale.FREE, ("a", "b"), None)
        records = [{"x": "a", "y": "u"}, {"x": "b", "y": "u"}]
        with pytest.raises(ChaidError, match="duplicate class in class order"):
            grow_tree(records, [pred], "y", GrowthParams(), class_order=["u", "u"])

    def test_undeclared_category_rejected(self):
        pred = PredictorSpec("x", Scale.FREE, ("a", "b"), None)
        records = [{"x": "a", "y": "u"}, {"x": "c", "y": "v"}]
        with pytest.raises(ChaidError, match="category 'c' is not declared for predictor 'x'"):
            grow_tree(records, [pred], "y", GrowthParams())

    def test_tiny_dataset_is_single_node(self):
        pred = PredictorSpec("x", Scale.FREE, ("a", "b"), None)
        records = [
            {"x": "a", "y": "u"},
            {"x": "a", "y": "v"},
            {"x": "b", "y": "u"},
        ]
        tree = grow_tree(records, [pred], "y", GrowthParams())
        assert len(tree.nodes) == 1
        assert tree.nodes[0].stop_reason is StopReason.NO_SIGNIFICANT_PREDICTOR
