"""Tree growth: structure, determinism, and per-split re-derivation."""

from __future__ import annotations

import io
import random
from array import array
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chaidkit.core
import chaidkit.grow
from chaidkit import (
    ChaidError,
    CodedRecords,
    GrowthParams,
    PredictorSpec,
    Scale,
    build_contingency,
    chi_square_test,
    grow_tree,
    load_dataset,
    train_tree,
)
from chaidkit.core import MISSING_LABEL, StopReason
from chaidkit.ingest import BinningSpec, ColumnSpec, DatasetSchema
from conftest import coded, grow_counting_every_node, partition_count_oracle


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


@st.composite
def subtraction_inputs(draw):
    """Records whose splits often tie, leave a child one class, or empty a line of it.

    ``x0`` has two to four categories of ``m`` rows each, or of ``m`` and
    up to ``m`` more, so children of single categories often tie in size.
    Each category holds its own subset of the classes, so a child can hold
    one class, or lose a class its parent holds. ``x1`` is float, with
    ``<missing>`` only in rows of one ``x0`` category, so it is absent from
    other children; ``x2`` is noise on any scale. Growth options are loose
    enough for trees of several levels.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    classes = [f"k{i}" for i in range(draw(st.integers(2, 3)))]
    x0_cats = tuple(f"a{i}" for i in range(draw(st.integers(2, 4))))
    m = draw(st.integers(3, 20))
    uneven = draw(st.booleans())
    x2_scale = draw(st.sampled_from(list(Scale)))
    predictors = [
        PredictorSpec("x0", draw(st.sampled_from([Scale.FREE, Scale.MONOTONIC])), x0_cats),
        PredictorSpec("x1", Scale.FLOAT, ("lo", "mid", "hi", MISSING_LABEL), MISSING_LABEL),
        PredictorSpec(
            "x2", x2_scale, ("q0", "q1", "q2", "q3"), "q3" if x2_scale is Scale.FLOAT else None
        ),
    ]
    holder = rng.choice(x0_cats)
    records = []
    for cat in x0_cats:
        held = rng.sample(classes, rng.randint(1, len(classes)))
        for _ in range(m + (rng.randint(0, m) if uneven else 0)):
            y = rng.choice(held)
            lean = classes.index(y) if rng.random() < 0.6 else rng.randrange(3)
            missing = cat == holder and rng.random() < 0.5
            x1 = MISSING_LABEL if missing else ("lo", "mid", "hi")[lean]
            x2 = rng.choice(("q0", "q1", "q2", "q3"))
            records.append({"x0": cat, "x1": x1, "x2": x2, "y": y})
    rng.shuffle(records)
    min_child = draw(st.integers(1, 4))
    params = GrowthParams(
        alpha_merge=draw(st.sampled_from([0.05, 0.3])),
        alpha_split=draw(st.sampled_from([0.05, 0.5])),
        max_depth=draw(st.integers(1, 4)),
        min_parent_size=2 * min_child + draw(st.integers(0, 6)),
        min_child_size=min_child,
    )
    return records, predictors, params


def _tied_inputs():
    """Two pure ``x0`` categories of ten rows each: the root splits into two tied children."""
    predictors = [
        PredictorSpec("x0", Scale.FREE, ("a0", "a1")),
        PredictorSpec("x1", Scale.FLOAT, ("lo", "hi", MISSING_LABEL), MISSING_LABEL),
    ]
    records = [
        {"x0": f"a{i % 2}", "x1": ("lo", "hi", MISSING_LABEL)[i % 3], "y": f"k{i % 2}"}
        for i in range(20)
    ]
    return records, predictors, GrowthParams()


def _one_class_inputs():
    """Rows of one class: the root's tables have one column, so it cannot split."""
    records, predictors, params = _tied_inputs()
    return [{**record, "y": "k0"} for record in records], predictors, params


def _counted(node, name):
    """``build_contingency`` of a coded node, over a fresh list of its rows."""
    return build_contingency(node.at(list(node.rows)), name)


class TestSubtraction:
    @given(subtraction_inputs())
    @example(_tied_inputs())
    @example(_one_class_inputs())
    @settings(max_examples=80, deadline=None)
    def test_growth_equals_counting_every_node(self, inputs):
        records, predictors, params = inputs
        derive = chaidkit.grow._child_tables

        def recounted(tables, children):
            made = derive(tables, children)
            assert len(made) == len(children)
            for child, child_tables in zip(children, made):
                assert set(child_tables) == {spec.name for spec in predictors}
                for name, table in child_tables.items():
                    assert table == _counted(child, name)
            return made

        with mock.patch.object(chaidkit.grow, "_child_tables", recounted):
            tree = grow_tree(records, predictors, "y", params)
        expected = grow_counting_every_node(records, predictors, "y", params)
        assert tree.document_bytes() == expected.document_bytes()

    @given(subtraction_inputs(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_the_first_largest_child_is_derived_and_the_rest_counted(self, inputs, data):
        records, predictors, _ = inputs
        names = [spec.name for spec in predictors]
        root = CodedRecords.from_records(records, "y", {p.name: p.categories for p in predictors})
        name = data.draw(st.sampled_from(names))
        held = [cat for cat in root.categories[name] if any(r[name] == cat for r in records)]
        order = data.draw(st.permutations(held))
        cuts = sorted(data.draw(st.sets(st.integers(1, len(held) - 1))) if len(held) > 1 else [])
        groups = [order[i:j] for i, j in zip([0, *cuts], [*cuts, len(held)])]
        children = [root.at(rows) for rows in root.partition_rows(name, groups)]
        parent = {n: build_contingency(root, n) for n in names}
        counted = []

        def count(node, predictor):
            counted.append(node)
            return build_contingency(node, predictor)

        with mock.patch.object(chaidkit.core, "build_contingency", count):
            made = chaidkit.core._child_tables(parent, children)
        sizes = [len(child.rows) for child in children]
        first_largest = children[sizes.index(max(sizes))]
        assert len(counted) == len(names) * (len(children) - 1)
        assert all(node is not first_largest for node in counted)
        assert len(made) == len(children)
        for child, child_tables in zip(children, made):
            assert child_tables == {n: _counted(child, n) for n in names}


@st.composite
def coding_inputs(draw):
    """A schema and CSV text that load for training; a wide column may pass 256 categories.

    Predictors are numeric or categorical on any scale, with declared or
    observed categories; only a float-scale predictor has blank cells, and
    a categorical one may also write its floating category. The target is
    numeric or categorical.
    """
    wide = draw(st.integers(0, 3)) == 0
    n_rows = draw(st.integers(257, 300) if wide else st.integers(1, 30))
    columns, pools = [], {}
    for j in range(draw(st.integers(1, 3)) + 1):
        role = "target" if j == 0 else "predictor"
        scale = None if role == "target" else draw(st.sampled_from(list(Scale)))
        floating = draw(st.sampled_from([None, "z"])) if scale is Scale.FLOAT else None
        if draw(st.booleans()):
            bins = draw(st.sampled_from([2, 4, 300] if wide else [2, 4]))
            strategy = draw(st.sampled_from(["equal_frequency", "equal_width", "explicit"]))
            binning = (
                BinningSpec("explicit_boundaries", boundaries=(0.0, 2.0))
                if strategy == "explicit"
                else BinningSpec(strategy, bin_count=bins)
            )
            column = ColumnSpec(f"n{j}", role, "numeric", scale, binning, None, floating)
            pool = [str(i) for i in range(n_rows)] if wide else ["0", "1", "2.5", "-3", "7"]
        else:
            declared = draw(st.sampled_from([None, ("a", "b"), ("b", "a", "c")]))
            column = ColumnSpec(f"c{j}", role, "categorical", scale, None, declared, floating)
            pool = list(declared or ([f"w{i}" for i in range(n_rows)] if wide else "abcd"))
        columns.append(column)
        blanks = ["", column.float_category] if column.kind == "categorical" else [""]
        pools[column.name] = pool + blanks * (scale is Scale.FLOAT)
    schema = DatasetSchema(tuple(draw(st.permutations(columns))))
    names = [col.name for col in schema.columns]
    rows = [
        [draw(st.sampled_from(pools[name])) for name in names] for _ in range(n_rows)
    ]
    return schema, ",".join(names) + "\n" + "".join(",".join(row) + "\n" for row in rows)


class TestCodingEntryPoints:
    """Training codes the loader's codes as ``CodedRecords.encode`` codes the label columns."""

    @settings(max_examples=150, deadline=None)
    @given(coding_inputs())
    def test_the_loaders_codes_give_the_label_columns_coding(self, inputs):
        schema, text = inputs
        dataset = load_dataset(io.StringIO(text), schema)
        with mock.patch.object(chaidkit.grow, "_grow", lambda root, *rest: root):
            root = train_tree(dataset)
        target = schema.target.name
        labels = dict(dataset.columns)  # each column's labels, rebuilt from its codes
        universes = {spec.name: spec.categories for spec in dataset.predictor_specs()}
        coded = CodedRecords.encode(labels, target, universes, class_order=dataset.classes)
        assert root.classes == coded.classes == dataset.classes
        assert root.categories == coded.categories == universes
        assert root.rows == coded.rows == range(dataset.n_rows)
        n_classes = len(root.classes)
        for name, keys in root.keys.items():
            cats = root.categories[name]
            expected = [
                cats.index(v) * n_classes + root.classes.index(c)
                for v, c in zip(labels[name], labels[target])
            ]
            assert list(keys) == list(coded.keys[name]) == expected
            assert isinstance(keys, bytes if len(cats) * n_classes <= 256 else array)


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
