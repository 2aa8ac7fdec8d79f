"""Tree model: routing, distributions, serialization, and DOT export."""

from __future__ import annotations

import json
import random

import pytest

from chaidkit import GrowthParams, ModelError, Tree, load_model, save_model
from chaidkit.core import CategoryPartition, StopReason
from chaidkit.model import ClassDistribution, NodeSplit, TreeNode
from conftest import TERMINAL_NODE_IDS, random_tree, sales_fixture_tree


def single_node_tree():
    node = TreeNode(
        id=0, depth=0, parent=None, split=None, children=(),
        class_counts={"u": 7, "v": 3},
        stop_reason=StopReason.NO_SIGNIFICANT_PREDICTOR,
    )
    return Tree(target="y", classes=("u", "v"), nodes=(node,))


def small_tree(categories=("a", "b")):
    """Root split on x into two singleton-category leaves."""
    root = TreeNode(
        id=0, depth=0, parent=None,
        split=NodeSplit("x", CategoryPartition(((categories[0],), (categories[1],)))),
        children=(1, 2), class_counts={"u": 12, "v": 8}, stop_reason=None,
    )
    left = TreeNode(
        id=1, depth=1, parent=0, split=None, children=(),
        class_counts={"u": 11, "v": 1}, stop_reason=StopReason.MAX_DEPTH,
    )
    right = TreeNode(
        id=2, depth=1, parent=0, split=None, children=(),
        class_counts={"u": 1, "v": 7}, stop_reason=StopReason.MAX_DEPTH,
    )
    return Tree(target="y", classes=("u", "v"), nodes=(root, left, right))


class TestRouting:
    # One record per terminal of the sales fixture; routing only consults
    # the predictors actually split along the path.
    TERMINAL_ROUTES = {
        1: {"dilihat": "1", "harga": "7"},
        2: {"dilihat": "1", "harga": "1", "tipe": "Sneakers"},
        3: {"dilihat": "9", "harga": "1", "tipe": "Boot"},
        4: {"dilihat": "3"},
        5: {"dilihat": "2", "harga": "5"},
        6: {"dilihat": "2", "harga": "1"},
        7: {"dilihat": "6"},
    }

    def test_each_terminal_is_reachable(self):
        tree = sales_fixture_tree()
        for terminal, record in self.TERMINAL_ROUTES.items():
            assert tree.route(record) == TERMINAL_NODE_IDS[terminal]

    def test_group_membership_not_just_first_category(self):
        tree = sales_fixture_tree()
        # Every price band from 2 through 14 lands in the same child.
        for band in range(2, 15):
            assert tree.route({"dilihat": "12", "harga": str(band)}) == 6
        for tipe in ("High Heels", "Other", "Office Footwear", "Sneakers"):
            assert tree.route({"dilihat": "10", "harga": "1", "tipe": tipe}) == 9
        for tipe in ("Wedges", "Stilettos", "Baby Shoe"):
            assert tree.route({"dilihat": "9", "harga": "1", "tipe": tipe}) == 10

    def test_single_node_tree_routes_everything_to_root(self):
        tree = single_node_tree()
        assert tree.route({}) == 0
        assert tree.route({"x": "whatever"}) == 0

    def test_missing_value_follows_largest_child(self):
        tree = sales_fixture_tree()
        warnings = []
        # dilihat absent: largest child of the root is node 1 (n=2850);
        # harga absent there too: node 6 (n=1500) beats node 5 (n=1350).
        leaf = tree.route({}, warn=warnings.append)
        assert leaf == 6
        assert len(warnings) == 2
        assert "missing value for predictor 'dilihat'" in warnings[0]
        assert "largest child (node 1)" in warnings[0]
        assert "missing value for predictor 'harga'" in warnings[1]

    def test_novel_category_follows_largest_child(self):
        tree = sales_fixture_tree()
        warnings = []
        # Price band 12 was never observed under dilihat group {2}, so the
        # second hop detours to node 8 (n=700 versus node 7's 300).
        leaf = tree.route({"dilihat": "2", "harga": "12"}, warn=warnings.append)
        assert leaf == 8
        assert len(warnings) == 1
        assert "'12'" in warnings[0]
        assert "was not seen in training" in warnings[0]

    def test_raising_warn_stops_routing(self):
        tree = sales_fixture_tree()

        def refuse(note):
            raise LookupError(note)

        with pytest.raises(LookupError, match="'12' of predictor 'harga' was not seen"):
            tree.route({"dilihat": "2", "harga": "12"}, warn=refuse)
        with pytest.raises(LookupError, match="missing value for predictor 'dilihat'"):
            tree.route({}, warn=refuse)
        # A record that needs no detour never calls it.
        assert tree.route({"dilihat": "12", "harga": "5"}, warn=refuse) == 6

    def test_largest_child_tie_breaks_to_smaller_id(self):
        tree = small_tree()
        # Make the two children equal in size.
        balanced = Tree.from_document(json.loads(tree.document_bytes()))
        doc = balanced.to_document()
        doc["nodes"][1]["class_counts"] = {"u": 8, "v": 2}
        doc["nodes"][2]["class_counts"] = {"u": 4, "v": 6}
        doc["nodes"][0]["class_counts"] = {"u": 12, "v": 8}
        tied = Tree.from_document(doc)
        assert tied.nodes[1].size == tied.nodes[2].size
        assert tied.route({"x": "zzz"}) == 1


class TestDistributions:
    def test_fixture_leaf_probabilities(self):
        tree = sales_fixture_tree()
        dist = tree.distribution(9)
        assert dist.support == 1000
        assert dist.probabilities == {"1": 0.982, "2": 0.013, "3": 0.003, "4": 0.002}
        assert dist.modal_class() == "1"

    def test_all_nodes_sum_to_one(self):
        tree = sales_fixture_tree()
        for node in tree.nodes:
            dist = tree.distribution(node.id)
            assert abs(sum(dist.probabilities.values()) - 1.0) <= 1e-9
            assert dist.support == node.size
            assert set(dist.probabilities) == set(tree.classes)

    def test_pure_leaf(self):
        tree = single_node_tree()
        doc = tree.to_document()
        doc["nodes"][0]["class_counts"] = {"u": 10}
        pure = Tree.from_document(doc)
        dist = pure.distribution(0)
        assert dist.probabilities == {"u": 1.0, "v": 0.0}
        assert dist.modal_class() == "u"

    def test_modal_tie_prefers_earlier_class(self):
        dist = ClassDistribution(probabilities={"u": 0.5, "v": 0.5}, support=10)
        assert dist.modal_class() == "u"

    def test_bad_distribution_rejected(self):
        with pytest.raises(ModelError, match="sum to 1"):
            ClassDistribution(probabilities={"u": 0.6, "v": 0.3}, support=10)
        with pytest.raises(ModelError, match="support"):
            ClassDistribution(probabilities={"u": 1.0}, support=0)

    @pytest.mark.parametrize(
        "probabilities",
        [
            {"u": float("nan"), "v": 0.5},
            {"u": 1.5, "v": -0.5},
            {"u": float("inf"), "v": float("-inf")},
            {"u": float("nan")},
        ],
        ids=["nan", "outside-unit-interval", "infinite", "nan-alone"],
    )
    def test_probability_outside_the_unit_interval_rejected(self, probabilities):
        with pytest.raises(ModelError, match=r"in \[0, 1\]"):
            ClassDistribution(probabilities=probabilities, support=10)

    def test_node_lookup_bounds(self):
        tree = single_node_tree()
        with pytest.raises(ModelError, match="no node with id 99"):
            tree.distribution(99)


class TestSerialization:
    def test_round_trip_is_identity(self):
        tree = sales_fixture_tree()
        again = Tree.from_bytes(tree.document_bytes())
        assert again == tree
        assert again.document_bytes() == tree.document_bytes()

    def test_document_bytes_are_stable(self):
        tree = sales_fixture_tree()
        data = tree.document_bytes()
        assert data == tree.document_bytes()
        assert data.endswith(b"}\n")
        document = json.loads(data)
        assert document["format"] == "chaidkit-model"
        assert document["format_version"] == 1
        # Keys are emitted sorted at every level.
        assert list(document) == sorted(document)

    def test_many_random_trees_round_trip(self):
        rng = random.Random(404)
        for _ in range(40):
            tree = random_tree(rng)
            again = Tree.from_bytes(tree.document_bytes())
            assert again == tree
            assert again.document_bytes() == tree.document_bytes()

    def test_save_and_load(self, tmp_path):
        tree = sales_fixture_tree()
        path = tmp_path / "model.json"
        save_model(tree, path)
        assert load_model(path) == tree

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ModelError, match="cannot read model file"):
            load_model(tmp_path / "nope.json")

    def test_not_json(self):
        with pytest.raises(ModelError, match="not valid JSON"):
            Tree.from_bytes(b"{nope")

    def test_not_a_mapping(self):
        with pytest.raises(ModelError, match="must be a mapping"):
            Tree.from_document([1, 2, 3])


def _corrupt(mutate):
    doc = sales_fixture_tree().to_document()
    mutate(doc)
    return doc


class TestDocumentValidation:
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(format="other"), "unrecognized format tag"),
            (lambda d: d.update(format_version=2), "unsupported model format version"),
            (lambda d: d["nodes"][1].update(parent=99), "missing parent"),
            (
                lambda d: d["nodes"][0]["class_counts"].update({"1": 9999}),
                "do not equal the sum",
            ),
            (
                lambda d: d["nodes"][3].update(split=dict(d["nodes"][0]["split"])),
                "mixes terminal and split markers",
            ),
            (lambda d: d["nodes"][3].update(stop_reason="bored"), "unknown stop reason"),
            (lambda d: d["nodes"][3].update(stop_reason="pure_node"), "unknown stop reason"),
            (
                lambda d: d["nodes"][3]["class_counts"].update({"1": -5}),
                "negative class count",
            ),
            (
                lambda d: d["nodes"][3]["class_counts"].update({"9": 5}),
                "counts undeclared class",
            ),
            (lambda d: d["nodes"][3].update(class_counts={}), "holds no records"),
            (lambda d: d["nodes"][5].update(depth=3), "inconsistent depth"),
            (lambda d: d["nodes"][1].update(parent=None), "multiple roots"),
            (lambda d: d["nodes"][1].update(id=7), "dense and ordered"),
            (lambda d: d["nodes"][0].update(parent=1), "node 0 must be the root"),
            (lambda d: d["nodes"][0].update(children=[1, 2, 3, 7]), "absent from the children"),
            (lambda d: d.update(classes=["1", "1", "2"]), "duplicate target class"),
            (lambda d: d.update(nodes=[]), "no nodes"),
            (
                lambda d: d["growth_params"].update(max_depth=float("inf")),
                "malformed model document",
            ),
            (lambda d: d["nodes"][1].update(depth=float("inf")), "malformed model document"),
            (lambda d: d["nodes"].append(7), "node entry must be a mapping"),
            (lambda d: d.update(classes=[]), "declares no target classes"),
            (lambda d: d["nodes"][0].update(depth=1), "root depth must be 0"),
            (
                lambda d: d["nodes"][0].update(stop_reason="max_depth"),
                "stop reason exactly when terminal",
            ),
            (
                lambda d: d["nodes"][0]["split"].update(predictor="nope"),
                "splits on undeclared predictor 'nope'",
            ),
            # Faults the core types refuse come out as model errors too.
            (
                lambda d: d["nodes"][1]["split"]["groups"][1].append("1"),
                "malformed model document: category '1' appears in two groups",
            ),
            (
                lambda d: d["nodes"][1]["split"]["groups"][0].clear(),
                "malformed model document: partition contains an empty group",
            ),
            (
                lambda d: d["growth_params"].update(alpha_merge=2.0),
                "malformed model document: alpha_merge must lie strictly between 0 and 1",
            ),
            (
                lambda d: d["predictors"][0].update(categories=[]),
                "malformed model document: predictor 'harga' has no categories",
            ),
            (
                lambda d: d["predictors"][0].update(float_category="1"),
                "malformed model document: predictor 'harga' is not float-scaled",
            ),
            # Number fields refuse bools, text and (for integers) fractions instead of
            # converting them.
            (lambda d: d["nodes"][0].update(id=0.5), r"expected int, not 0\.5"),
            (lambda d: d["nodes"][1].update(id=True), "expected int, not True"),
            (lambda d: d["nodes"][1].update(depth=1.5), r"expected int, not 1\.5"),
            (lambda d: d["nodes"][1].update(depth=True), "expected int, not True"),
            (lambda d: d["nodes"][1].update(parent=0.5), r"expected int, not 0\.5"),
            (lambda d: d["nodes"][1].update(parent=False), "expected int, not False"),
            (lambda d: d["nodes"][0].update(children=[1, 2, 3, 4.5]), r"expected int, not 4\.5"),
            (lambda d: d["nodes"][0].update(children=[True, 2, 3, 4]), "expected int, not True"),
            (
                lambda d: d["nodes"][3]["class_counts"].update({"1": 150.5}),
                r"expected int, not 150\.5",
            ),
            (
                lambda d: d["nodes"][9]["class_counts"].update({"4": True}),
                "expected int, not True",
            ),
            (lambda d: d["growth_params"].update(max_depth=True), "expected int, not True"),
            (lambda d: d["growth_params"].update(max_depth=2.7), r"expected int, not 2\.7"),
            (
                lambda d: d["growth_params"].update(min_parent_size=10.5),
                r"expected int, not 10\.5",
            ),
            (
                lambda d: d["growth_params"].update(min_child_size=5.5),
                r"expected int, not 5\.5",
            ),
            (lambda d: d["nodes"][1].update(id="1"), "expected int, not '1'"),
            (
                lambda d: d["growth_params"].update(alpha_merge="0.05"),
                r"expected float, not '0\.05'",
            ),
        ],
    )
    def test_corrupted_documents_are_rejected(self, mutate, message):
        with pytest.raises(ModelError, match=message):
            Tree.from_document(_corrupt(mutate))

    def test_duplicate_child_rejected(self):
        doc = sales_fixture_tree().to_document()
        # Keep every node acknowledged and the group count aligned so the
        # duplicate itself is what trips validation.
        doc["nodes"][0]["children"] = [1, 2, 3, 4, 4]
        doc["nodes"][0]["split"]["groups"].append(["99"])
        with pytest.raises(ModelError, match="lists a child twice"):
            Tree.from_document(doc)

    def test_group_child_count_mismatch(self):
        doc = sales_fixture_tree().to_document()
        doc["nodes"][0]["split"]["groups"].append(["99"])
        with pytest.raises(ModelError, match="category groups"):
            Tree.from_document(doc)


class TestDotExport:
    @staticmethod
    def counts(dot):
        nodes = sum(1 for line in dot.splitlines() if " [label=" in line and "->" not in line)
        edges = sum(1 for line in dot.splitlines() if "->" in line)
        return nodes, edges

    def test_shape(self):
        dot = sales_fixture_tree().to_dot()
        assert dot.startswith("digraph tree {\n")
        assert dot.endswith("}\n")
        assert "rankdir=TB;" in dot
        assert "shape=box" in dot
        assert self.counts(dot) == (11, 10)

    def test_single_node(self):
        assert self.counts(single_node_tree().to_dot()) == (1, 0)

    def test_small_tree(self):
        assert self.counts(small_tree().to_dot()) == (3, 2)

    def test_edge_labels_carry_groups(self):
        dot = sales_fixture_tree().to_dot()
        assert 'n0 -> n1 [label="1, 9, 10, 12"];' in dot

    def test_deterministic(self):
        tree = sales_fixture_tree()
        assert tree.to_dot() == tree.to_dot()

    def test_labels_are_escaped(self):
        tree = small_tree(categories=('say "hi"', "b"))
        dot = tree.to_dot()
        assert '\\"hi\\"' in dot
        # The quoted label stays a single DOT string.
        for line in dot.splitlines():
            if "say" in line:
                assert line.count('[label="') == 1
