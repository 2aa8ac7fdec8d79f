"""End-to-end command behavior through main(argv)."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaidkit import Scale, Tree, load_model, save_model
from chaidkit import ingest
from chaidkit.cli import main
from chaidkit.core import CategoryPartition, StopReason
from chaidkit.grow import train_tree
from chaidkit.ingest import MISSING_LABEL, BinningSpec, ColumnSpec, DatasetSchema, load_dataset
from chaidkit.model import NodeSplit, TreeNode
from conftest import sales_fixture_tree

SHIPPED_DATA = Path(__file__).resolve().parent.parent / "data"
#: sha256 of the model `chaidkit train` writes for the shipped data with
#: default parameters. Any change to it is a change in trained models.
SHIPPED_MODEL_SHA256 = "2e9f6fb6a7491d233328dde268546b4101885c3f2ce38103463efda4e1508d4d"


def write_schema(path, *columns, delimiter=","):
    schema = DatasetSchema(columns=tuple(columns), delimiter=delimiter)
    path.write_text(json.dumps(schema.to_doc(), indent=2), encoding="utf-8")
    return path


def cat(name, role="predictor", **kw):
    return ColumnSpec(name=name, role=role, kind="categorical", **kw)


@pytest.fixture
def perfect(tmp_path):
    """x fully determines y, 20 records per category."""
    schema = write_schema(tmp_path / "schema.json", cat("x"), cat("y", role="target"))
    data = tmp_path / "train.csv"
    rows = ["a,u", "b,v"] * 20
    data.write_text("x,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return schema, data


def train(tmp_path, schema, data, *extra):
    model = tmp_path / "model.json"
    rc = main(
        ["train", "--data", str(data), "--schema", str(schema), "--model", str(model)]
        + list(extra)
    )
    return rc, model


@pytest.fixture
def numeric(tmp_path):
    """A numeric x that splits y at 10, and a schema that bins it in two."""
    schema = write_schema(
        tmp_path / "schema.json",
        ColumnSpec(
            name="x", role="predictor", kind="numeric",
            binning=BinningSpec(strategy="equal_frequency", bin_count=2),
        ),
        cat("y", role="target"),
    )
    data = tmp_path / "train.csv"
    data.write_text(
        "x,y\n" + "".join(f"{v},{'u' if v <= 10 else 'v'}\n" for v in range(1, 21)),
        encoding="utf-8",
    )
    return schema, data


def schema_doc(x, y=None, **fields):
    """A schema document with the columns ``x`` and ``y``, by default a categorical target."""
    y = y or {"name": "y", "role": "target", "kind": "categorical"}
    return {"format": "chaidkit-schema", "format_version": 1, "columns": [x, y], **fields}


def binned(**binning):
    return {"name": "x", "role": "predictor", "kind": "numeric", "binning": binning}


def categorical(name="x", role="predictor", **fields):
    return {"name": name, "role": role, "kind": "categorical", **fields}


#: Growth flags loose enough that small random datasets grow trees with depth.
LENIENT = "--alpha-merge 0.3 --alpha-split 0.5 --max-depth 4 --min-parent 4 --min-child 2".split()


class TestTrain:
    def test_perfect_predictor_report(self, tmp_path, perfect, capsys):
        schema, data = perfect
        rc, model = train(tmp_path, schema, data)
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "nodes: 3, terminal: 2, depth: 1"
        assert out[1] == "split variables: x"
        assert out[2] == "leaf 1: n=20 u:1 v:0"
        assert out[3] == "leaf 2: n=20 u:0 v:1"
        assert model.exists()

    def test_pure_noise_is_a_stump(self, tmp_path, capsys):
        schema = write_schema(tmp_path / "schema.json", cat("x"), cat("y", role="target"))
        data = tmp_path / "train.csv"
        rows = ["a,u", "a,v", "b,u", "b,v"] * 10
        data.write_text("x,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
        rc, _ = train(tmp_path, schema, data)
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "nodes: 1, terminal: 1, depth: 0"
        assert out[1] == "split variables: (none)"
        assert out[2] == "leaf 0: n=40 u:0.5 v:0.5"

    def test_model_files_are_byte_identical_across_runs(self, tmp_path, perfect):
        schema, data = perfect
        for run in ("run1", "run2"):
            (tmp_path / run).mkdir()
        _, first = train(tmp_path / "run1", schema, data)
        _, second = train(tmp_path / "run2", schema, data)
        assert first.read_bytes() == second.read_bytes()

    def test_growth_flags_are_applied(self, tmp_path, perfect, capsys):
        schema, data = perfect
        rc, model = train(
            tmp_path, schema, data, "--min-parent", "50", "--min-child", "25"
        )
        assert rc == 0
        # 40 records sit below the raised parent minimum, so nothing splits.
        assert capsys.readouterr().out.splitlines()[0] == "nodes: 1, terminal: 1, depth: 0"
        tree = load_model(model)
        assert tree.growth_params.min_child_size == 25

    def test_invalid_growth_params(self, tmp_path, perfect, capsys):
        schema, data = perfect
        rc, _ = train(tmp_path, schema, data, "--alpha-merge", "1.5")
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ")

    def test_verbose_reports_params(self, tmp_path, perfect, capsys):
        schema, data = perfect
        rc, _ = train(tmp_path, schema, data, "--verbose")
        assert rc == 0
        assert "params: alpha_merge=0.05" in capsys.readouterr().err

    def test_verbose_reports_missing_values(self, tmp_path, capsys):
        schema = write_schema(
            tmp_path / "schema.json", cat("x", scale=Scale.FLOAT), cat("y", role="target")
        )
        data = tmp_path / "train.csv"
        data.write_text("x,y\n" + "a,u\n,v\nb,v\n,u\n" * 5, encoding="utf-8")
        rc, _ = train(tmp_path, schema, data, "--verbose")
        assert rc == 0
        assert "missing values in 'x': 10" in capsys.readouterr().err.splitlines()

    def test_bad_data_is_one_error_line(self, tmp_path, perfect, capsys):
        schema, _ = perfect
        data = tmp_path / "bad.csv"
        data.write_text("x,z\na,1\n", encoding="utf-8")
        rc, _ = train(tmp_path, schema, data)
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: missing required column 'y'"]

    @pytest.mark.parametrize(
        "doc, message",
        [
            pytest.param(
                schema_doc(binned(strategy="equal_width", bin_count="many")),
                "binning bin count must be a whole number, not 'many'",
                id="bin_count_not_a_number",
            ),
            pytest.param(
                schema_doc(categorical(categories=7)),
                "column 'x': categories must be a list, not 7",
                id="categories_not_a_list",
            ),
            # Number fields follow the rule of model documents.
            pytest.param(
                schema_doc(binned(strategy="equal_width", bin_count=3.5)),
                "binning bin count must be a whole number, not 3.5",
                id="fractional_bin_count",
            ),
            pytest.param(
                schema_doc(binned(strategy="equal_width", bin_count="3")),
                "binning bin count must be a whole number, not '3'",
                id="text_bin_count",
            ),
            pytest.param(
                schema_doc(binned(strategy="explicit_boundaries", boundaries=[False, "1e1"])),
                "binning boundaries must be numbers, not [False, '1e1']",
                id="bool_and_text_boundaries",
            ),
            pytest.param(
                schema_doc(binned(strategy="explicit_boundaries", boundaries="1,2")),
                "binning boundaries must be a list, not '1,2'",
                id="boundaries_not_a_list",
            ),
            # Text fields follow one rule too: a number, bool or null is not text.
            pytest.param(
                schema_doc(categorical(), categorical(5, "target")),
                "column name must be text, not 5",
                id="number_name",
            ),
            pytest.param(
                schema_doc(categorical(role=1)),
                "column 'x': role must be text, not 1",
                id="number_role",
            ),
            pytest.param(
                schema_doc({"name": "x", "role": "predictor", "kind": None}),
                "column 'x': kind must be text, not None",
                id="null_kind",
            ),
            pytest.param(
                schema_doc(categorical(categories=["1", True, "2"])),
                "column 'x': categories must be text, not True",
                id="bool_category",
            ),
            pytest.param(
                schema_doc(categorical(scale="float", categories=["a"], float_category=0)),
                "column 'x': float_category must be text, not 0",
                id="number_float_category",
            ),
            pytest.param(
                schema_doc(binned(strategy=3, bin_count=2)),
                "binning strategy must be text, not 3",
                id="number_strategy",
            ),
            pytest.param(
                schema_doc(categorical(), delimiter=44),
                "schema delimiter must be text, not 44",
                id="number_delimiter",
            ),
            pytest.param(
                schema_doc(categorical(name="")), "column name must be non-empty", id="empty_name"
            ),
            pytest.param(
                schema_doc({**binned(strategy="equal_width", bin_count=2), "categories": ["1"]}),
                "column 'x': declared categories are only for categorical columns",
                id="numeric_with_categories",
            ),
            pytest.param(
                schema_doc(categorical(categories=[])),
                "column 'x': declared category list is empty",
                id="empty_categories",
            ),
            pytest.param(
                schema_doc(categorical(), categorical("y", "target", float_category="?")),
                "a floating category applies only to predictor columns",
                id="target_float_category",
            ),
            pytest.param(
                schema_doc(categorical(float_category="?")),
                "column 'x': a floating category requires the float scale",
                id="float_category_without_float_scale",
            ),
            pytest.param([], "schema document must be a mapping", id="not_a_mapping"),
            pytest.param(
                schema_doc(categorical(), format_version=2),
                "unsupported schema format version: 2",
                id="format_version",
            ),
        ],
    )
    def test_malformed_schema_field_is_one_error_line(
        self, tmp_path, numeric, capsys, doc, message
    ):
        _, data = numeric
        schema = tmp_path / "bad_schema.json"
        schema.write_text(json.dumps(doc), encoding="utf-8")
        rc, _ = train(tmp_path, schema, data)
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_shipped_data_model_bytes_are_pinned(self, tmp_path, capsys):
        rc, model = train(
            tmp_path, SHIPPED_DATA / "schema.json", SHIPPED_DATA / "listings.csv"
        )
        assert rc == 0
        capsys.readouterr()
        assert hashlib.sha256(model.read_bytes()).hexdigest() == SHIPPED_MODEL_SHA256


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["train", "predict"])
def test_non_finite_number_is_one_error_line(tmp_path, numeric, capsys, command, cell):
    schema, good = numeric
    bad = tmp_path / "bad.csv"
    bad.write_text(f"x,y\n1,u\n{cell},v\n", encoding="utf-8")
    if command == "train":
        rc, _ = train(tmp_path, schema, bad)
    else:
        rc, model = train(tmp_path, schema, good)
        assert rc == 0
        capsys.readouterr()
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(model), "--data", str(bad), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: row 2: column 'x': '{cell}' is not a finite number"]


@pytest.mark.parametrize(
    "body, message",
    [
        (b"a,u\n\xe9,v\n", "error: data file is not UTF-8: 'utf-8' codec can't decode byte 0xe9"),
        (b"a,u\n" + b"b" * 131073 + b",v\n", "error: line 3: field larger than field limit"),
    ],
    ids=["latin1_byte", "oversized_field"],
)
@pytest.mark.parametrize("command", ["train", "predict"])
def test_unreadable_data_is_one_error_line(tmp_path, perfect, capsys, command, body, message):
    schema, good = perfect
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"x,y\n" + body)
    if command == "train":
        rc, _ = train(tmp_path, schema, bad)
    else:
        rc, model = train(tmp_path, schema, good)
        assert rc == 0
        capsys.readouterr()
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(model), "--data", str(bad), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(message)


@pytest.mark.parametrize(
    "text", [b'{"format": "\xe9"}', b"[" * 100000 + b"]" * 100000], ids=["latin1_byte", "nested"]
)
def test_unreadable_schema_is_one_error_line(tmp_path, perfect, capsys, text):
    _, data = perfect
    schema = tmp_path / "bad_schema.json"
    schema.write_bytes(text)
    rc, _ = train(tmp_path, schema, data)
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: schema file is not valid JSON: ")


def setup_model(tmp_path, perfect):
    schema, data = perfect
    _, model = train(tmp_path, schema, data)
    return model, data


class TestPredict:
    def test_predict_training_data(self, tmp_path, perfect, capsys):
        model, data = setup_model(tmp_path, perfect)
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(model), "--data", str(data), "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,y,leaf_id,predicted_class,p_u,p_v"
        assert len(lines) == 41
        tree = load_model(model)
        for line in lines[1:]:
            x, y, leaf, predicted, p_u, p_v = line.split(",")
            assert int(leaf) == tree.route({"x": x})
            assert predicted == y
            assert float(p_u) + float(p_v) == 1.0

    def test_empty_input_gives_header_only(self, tmp_path, perfect):
        model, _ = setup_model(tmp_path, perfect)
        empty = tmp_path / "empty.csv"
        empty.write_text("x\n", encoding="utf-8")
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(model), "--data", str(empty), "--out", str(out)])
        assert rc == 0
        assert out.read_text(encoding="utf-8") == "x,leaf_id,predicted_class,p_u,p_v\n"

    def test_unseen_category_warns_and_routes(self, tmp_path, perfect, capsys):
        model, _ = setup_model(tmp_path, perfect)
        data = tmp_path / "novel.csv"
        data.write_text("x\nc\n", encoding="utf-8")
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(model), "--data", str(data), "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("warning: row 1: ")
        assert "'c'" in err[0] and "not seen in training" in err[0]
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2

    def test_a_category_seen_only_under_other_nodes_names_the_node(self, tmp_path, capsys):
        # x2 splits the root; under x2=p (node 1) x1 splits {a} from {b}, and
        # x1=c, a training category of x1, only ever came with x2=q.
        rows = [f"{'ab'[i % 2]},p,{'uv'[i % 2]}" for i in range(200)]
        rows += [f"{'abc'[i % 3]},q,w" for i in range(230)]
        data = tmp_path / "train.csv"
        data.write_text("x1,x2,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
        schema = write_schema(
            tmp_path / "schema.json", cat("x1"), cat("x2"), cat("y", role="target")
        )
        rc, model = train(tmp_path, schema, data)
        assert rc == 0
        assert "c" in load_model(model).predictors[0].categories
        novel = tmp_path / "novel.csv"
        novel.write_text("x1,x2\nc,p\n", encoding="utf-8")
        capsys.readouterr()
        argv = ["predict", "--model", str(model), "--data", str(novel), "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert capsys.readouterr().err == (
            "warning: row 1: category 'c' of predictor 'x1' was not seen in training at node 1; "
            "following the largest child (node 3)\n"
        )

    def test_warnings_keep_row_order_and_root_to_leaf_order(self, tmp_path, capsys):
        # x splits the root into node 1 (x=a, 40 rows, then split on z) and
        # node 2 (x=b, 30 rows, then split on w); node 1 is the larger child.
        rows = [f"a,{'pq'[i % 2]},{'rs'[i // 2 % 2]},{'uv'[i % 2]}" for i in range(40)]
        rows += [f"b,{'pq'[i // 2 % 2]},{'rs'[i % 2]},{'mn'[i % 2]}" for i in range(30)]
        data = tmp_path / "train.csv"
        data.write_text("x,z,w,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
        schema = write_schema(
            tmp_path / "schema.json", cat("x"), cat("z"), cat("w"), cat("y", role="target")
        )
        rc, model = train(tmp_path, schema, data)
        assert rc == 0
        # Row 1 detours under node 1, row 3 under node 2, and row 2 twice, at
        # the root and then under node 1; the second of its detours sorts
        # first as text, so only root-to-leaf order puts it second.
        novel = tmp_path / "novel.csv"
        novel.write_text("x,z,w\na,,r\nt,c,r\nb,p,\na,p,r\n", encoding="utf-8")
        out = tmp_path / "pred.csv"
        capsys.readouterr()
        rc = main(["predict", "--model", str(model), "--data", str(novel), "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == (
            "warning: row 1: missing value for predictor 'z'; "
            "following the largest child (node 3)\n"
            "warning: row 2: category 't' of predictor 'x' was not seen in training at node 0; "
            "following the largest child (node 1)\n"
            "warning: row 2: category 'c' of predictor 'z' was not seen in training at node 1; "
            "following the largest child (node 3)\n"
            "warning: row 3: missing value for predictor 'w'; "
            "following the largest child (node 5)\n"
        )
        assert [line.split(",")[3] for line in out.read_text().splitlines()[1:]] == [
            "3", "3", "5", "3"
        ]

    def test_a_tree_without_splits_predicts_every_row(self, tmp_path):
        schema = write_schema(tmp_path / "schema.json", cat("x"), cat("y", role="target"))
        data = tmp_path / "train.csv"
        data.write_text("x,y\n" + "a,u\nb,v\n" * 2, encoding="utf-8")
        rc, model = train(tmp_path, schema, data)
        assert rc == 0 and len(load_model(model).nodes) == 1
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--data", str(data), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[1:] == [
            "a,u,0,u,0.5,0.5", "b,v,0,u,0.5,0.5"
        ] * 2

    def test_corrupt_model_is_one_error_line(self, tmp_path, perfect, capsys):
        _, data = setup_model(tmp_path, perfect)
        broken = tmp_path / "broken.json"
        broken.write_text("{nope", encoding="utf-8")
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(broken), "--data", str(data), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: model document is not valid JSON")

    def test_model_without_schema_is_rejected(self, tmp_path, perfect, capsys):
        _, data = setup_model(tmp_path, perfect)
        doc = sales_fixture_tree().to_document()
        doc["schema"] = None
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(bare), "--data", str(data), "--out", str(out)])
        assert rc == 1
        assert "carries no schema" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "columns,message",
        [
            ([1], "column entry must be a mapping"),
            ({"a": {}}, "schema document declares no columns"),
            (
                schema_doc(binned(strategy="explicit_boundaries", boundaries=["1.5"]))["columns"],
                "binning boundaries must be numbers, not ['1.5']",
            ),
            (
                schema_doc(categorical(categories=["a", 1]))["columns"],
                "column 'x': categories must be text, not 1",
            ),
        ],
        ids=["number", "mapping", "text_cut_point", "number_category"],
    )
    def test_malformed_schema_columns_is_one_error_line(
        self, tmp_path, perfect, capsys, columns, message
    ):
        model, data = setup_model(tmp_path, perfect)
        doc = json.loads(model.read_text(encoding="utf-8"))
        doc["schema"]["columns"] = columns
        model.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(model), "--data", str(data), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@st.composite
def predict_inputs(draw):
    """A schema, training rows that grow a tree under lenient alphas, and rows to predict.

    The prediction rows carry unseen categories and blanks in float and
    non-float predictors, with the columns in another order.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    scales = draw(st.lists(st.sampled_from(list(Scale)), min_size=1, max_size=3))
    floats = [draw(st.sampled_from([None, "f"])) if s is Scale.FLOAT else None for s in scales]
    names = [f"x{j}" for j in range(len(scales))]
    predictors = [
        cat(name, scale=scale, float_category=fc) for name, scale, fc in zip(names, scales, floats)
    ]
    cats = "abcd"[: draw(st.integers(2, 4))]
    classes = "uvw"[: draw(st.integers(2, 3))]
    training = [names + ["y"]]
    for _ in range(draw(st.integers(30, 120))):
        cells = [rng.choice(cats) for _ in names]
        # Training may leave only float-scale cells blank.
        cells = [
            "" if scale is Scale.FLOAT and rng.random() < 0.2 else cell
            for cell, scale in zip(cells, scales)
        ]
        # The class leans on the first two predictors, so trees get depth.
        signal = sum(cats.find(cell) for cell in cells[:2]) % len(classes)
        training.append(cells + [classes[signal] if rng.random() < 0.8 else rng.choice(classes)])
    header = draw(st.permutations(names))
    values = list(cats) + ["z", ""]
    rows = [[rng.choice(values) for _ in header] for _ in range(draw(st.integers(1, 60)))]
    return predictors, training, [header] + rows


def write_rows(path, rows):
    # The csv module quotes a lone blank cell, which a bare empty line would lose.
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    return path


class TestPredictMatchesRoute:
    @given(predict_inputs())
    @settings(max_examples=60, deadline=None)
    def test_each_row_gets_the_leaf_and_warnings_route_gives(self, inputs):
        predictors, training, predicting = inputs
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            schema = write_schema(work / "schema.json", *predictors, cat("y", role="target"))
            data = write_rows(work / "train.csv", training)
            novel = write_rows(work / "novel.csv", predicting)
            out, err = work / "pred.csv", io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc, model = train(work, schema, data, *LENIENT)
                assert rc == 0, err.getvalue()
                argv = ["predict", "--model", str(model), "--data", str(novel), "--out", str(out)]
                assert main(argv) == 0
            tree = load_model(model)
            predicted = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
        leaves = [int(row[len(predicting[0])]) for row in predicted[1:]]
        # The oracle: a blank cell loads as the floating category or the missing label.
        blank = {spec.name: spec.float_category or MISSING_LABEL for spec in predictors}
        expected_leaves, expected_err = [], []
        header, *rows = predicting
        for number, cells in enumerate(rows, start=1):
            record = {name: cell or blank[name] for name, cell in zip(header, cells)}
            notes: list[str] = []
            expected_leaves.append(tree.route(record, warn=notes.append))
            expected_err += [f"warning: row {number}: {note}\n" for note in notes]
        assert leaves == expected_leaves
        assert err.getvalue() == "".join(expected_err)


@st.composite
def training_inputs(draw):
    """A random schema's columns, and training rows that `train` accepts under it.

    Numeric predictors bin by equal frequency or equal width; categorical
    predictors are free, monotonic (sometimes with a declared order) or
    float, with blank cells on the float ones. The target is categorical
    or binned numeric.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["frequency", "width", *Scale]), min_size=1, max_size=3))
    cats = "abcd"[: draw(st.integers(2, 4))]
    columns, makers = [], []
    for j, kind in enumerate(kinds):
        name = f"x{j}"
        if kind in ("frequency", "width"):
            binning = BinningSpec(strategy=f"equal_{kind}", bin_count=draw(st.integers(2, 5)))
            columns.append(ColumnSpec(name, "predictor", "numeric", Scale.MONOTONIC, binning))
            makers.append(lambda: str(rng.choice([1, 2, 2.5, 3, 7, 10, 40, -5])))
        else:
            order = draw(st.none() | st.permutations(cats)) if kind is Scale.MONOTONIC else None
            columns.append(cat(name, scale=kind, categories=order and tuple(order)))
            blanks = 0.2 if kind is Scale.FLOAT else 0.0
            makers.append(lambda blanks=blanks: "" if rng.random() < blanks else rng.choice(cats))
    numeric_target = draw(st.booleans())
    if numeric_target:
        binning = BinningSpec(strategy="equal_frequency", bin_count=draw(st.integers(2, 4)))
        columns.append(ColumnSpec("y", "target", "numeric", binning=binning))
    else:
        columns.append(cat("y", role="target"))
    rows = [[f"x{j}" for j in range(len(kinds))] + ["y"]]
    for _ in range(draw(st.integers(20, 100))):
        cells = [make() for make in makers]
        # The target leans on the first predictor's cell, so trees get splits.
        signal = len(cells[0]) + ord(cells[0][-1:] or "z")
        if rng.random() < 0.3:
            signal = rng.randrange(50)
        rows.append(cells + [str(signal % 3) if numeric_target else "uvw"[signal % 3]])
    return columns, rows


class TestTrainingProperties:
    @given(training_inputs(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_row_order_does_not_change_the_model(self, inputs, shuffler):
        columns, rows = inputs
        header, *body = rows
        shuffled = [header] + shuffler.sample(body, len(body))
        models = []
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            work = Path(tmp)
            schema = write_schema(work / "schema.json", *columns)
            for name, table in (("train.csv", rows), ("shuffled.csv", shuffled)):
                rc, model = train(work, schema, write_rows(work / name, table), *LENIENT)
                assert rc == 0
                models.append(model.read_bytes())
        assert models[0] == models[1]

    @given(training_inputs())
    @settings(max_examples=40, deadline=None)
    def test_predicting_the_training_file_routes_every_row_without_detours(self, inputs):
        columns, rows = inputs
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            schema = write_schema(work / "schema.json", *columns)
            data = write_rows(work / "train.csv", rows)
            out = work / "pred.csv"
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc, model = train(work, schema, data, *LENIENT)
                assert rc == 0, err.getvalue()
                argv = ["predict", "--model", str(model), "--data", str(data), "--out", str(out)]
                assert main(argv) == 0, err.getvalue()
            predicted = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
        assert len(predicted) == len(rows)
        assert [row[: len(rows[0])] for row in predicted[1:]] == rows[1:]
        assert "warning:" not in err.getvalue()


class TestCustomFloatCategory:
    """A float predictor whose floating category is "c" rather than the missing label."""

    ROWS = ["a,u", "b,v", "c,u", "d,v"] * 10

    def schema(self, tmp_path, categories):
        return write_schema(
            tmp_path / "schema.json",
            cat("x", scale=Scale.FLOAT, float_category="c", categories=categories),
            cat("y", role="target"),
        )

    def write(self, path, rows):
        path.write_text("x,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("categories", [None, ("a", "b", "c", "d")])
    def test_written_floating_category_is_listed_once_and_last(
        self, tmp_path, capsys, categories
    ):
        data = self.write(tmp_path / "train.csv", self.ROWS)
        rc, model = train(tmp_path, self.schema(tmp_path, categories), data)
        assert rc == 0
        assert capsys.readouterr().err == ""
        (spec,) = load_model(model).predictors
        assert spec.categories == ("a", "b", "d", "c")
        assert spec.float_category == "c"

    @pytest.mark.parametrize("categories", [None, ("a", "b", "c", "d")])
    def test_blank_cells_are_the_floating_category(self, tmp_path, capsys, categories):
        schema = self.schema(tmp_path, categories)
        written = self.write(tmp_path / "written.csv", self.ROWS)
        blank = self.write(
            tmp_path / "blank.csv", [row.replace("c,", ",") for row in self.ROWS]
        )
        rc, model = train(tmp_path, schema, written)
        assert rc == 0
        written_bytes = model.read_bytes()
        rc, model = train(tmp_path, schema, blank)
        assert rc == 0
        assert model.read_bytes() == written_bytes
        assert load_model(model).root.split is not None
        capsys.readouterr()

        rows = self.write(tmp_path / "rows.csv", ["c,u", ",u"])
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(model), "--data", str(rows), "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        c_row, blank_row = out.read_text(encoding="utf-8").splitlines()[1:]
        assert blank_row.split(",")[2:] == c_row.split(",")[2:]

    @pytest.mark.parametrize("categories", [None, ("a", "b", "c", "d")])
    def test_blank_cell_unseen_in_training_warns_as_missing(
        self, tmp_path, capsys, categories
    ):
        rows = [row for row in self.ROWS if not row.startswith("c,")]
        data = self.write(tmp_path / "train.csv", rows)
        rc, model = train(tmp_path, self.schema(tmp_path, categories), data)
        assert rc == 0
        assert load_model(model).root.split.predictor == "x"
        capsys.readouterr()
        blank = self.write(tmp_path / "blank.csv", [",u"])
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(model), "--data", str(blank), "--out", str(out)])
        assert rc == 0
        (warning,) = capsys.readouterr().err.splitlines()
        assert warning.startswith("warning: row 1: missing value for predictor 'x'; ")


class TestInspect:
    def test_fixture_structure(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        save_model(sales_fixture_tree(), model)
        rc = main(["inspect", "--model", str(model)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 11
        assert sum("terminal" in line for line in lines) == 7
        assert lines[0] == "node 0 [n=5300]; split on dilihat"
        assert any(
            line.startswith("  node 1 [n=2850] dilihat in {1, 9, 10, 12}; split on harga")
            for line in lines
        )
        # Depth shows as two-space indentation; the tree is three deep.
        assert sum(line.startswith("      node") for line in lines) == 2
        assert not any(line.startswith("        ") for line in lines)
        assert any(line.startswith("      node 9 ") for line in lines)

    def test_trained_model(self, tmp_path, perfect, capsys):
        model, _ = setup_model(tmp_path, perfect)
        capsys.readouterr()
        assert main(["inspect", "--model", str(model)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert "split on x" in lines[0]

    def test_a_deep_chain_prints_every_node(self, tmp_path, capsys):
        # Internal node 2i sits at depth i; its children are leaf 2i + 1 and
        # node 2i + 2, which is the last leaf below the deepest split.
        depth = 1500
        nodes = []
        for i in range(depth):
            nodes.append(TreeNode(
                id=2 * i, depth=i, parent=2 * i - 2 if i else None,
                split=NodeSplit("x", CategoryPartition((("a",), ("b",)))),
                children=(2 * i + 1, 2 * i + 2), class_counts={"u": depth + 1 - i},
                stop_reason=None,
            ))
            nodes.append(TreeNode(
                id=2 * i + 1, depth=i + 1, parent=2 * i, split=None, children=(),
                class_counts={"u": 1}, stop_reason=StopReason.MAX_DEPTH,
            ))
        nodes.append(TreeNode(
            id=2 * depth, depth=depth, parent=2 * depth - 2, split=None, children=(),
            class_counts={"u": 1}, stop_reason=StopReason.MAX_DEPTH,
        ))
        model = tmp_path / "model.json"
        save_model(Tree(target="y", classes=("u",), nodes=tuple(nodes)), model)
        assert main(["inspect", "--model", str(model)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 * depth + 1
        last = f"node {2 * depth} [n=1] x in {{b}}; terminal (max_depth) u:1"
        assert lines[-1] == "  " * depth + last

    def test_nested_json_is_one_error_line(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_bytes(b"[" * 100000 + b"]" * 100000)
        assert main(["inspect", "--model", str(model)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: model document is not valid JSON: ")

    @pytest.mark.parametrize(
        "field", ['"max_depth": 3', '"depth": 1'], ids=["max_depth", "node_depth"]
    )
    def test_overflowing_integer_is_one_error_line(self, tmp_path, capsys, field):
        text = sales_fixture_tree().document_bytes().decode("utf-8")
        assert field in text
        name = field.split(":")[0]
        model = tmp_path / "model.json"
        model.write_text(text.replace(field, f"{name}: 1e999", 1), encoding="utf-8")
        assert main(["inspect", "--model", str(model)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: malformed model document")

    def test_non_mapping_class_counts_is_one_error_line(self, tmp_path, capsys):
        doc = sales_fixture_tree().to_document()
        doc["nodes"][3]["class_counts"] = []
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["inspect", "--model", str(model)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: class_counts must be a mapping, not []"]

    @pytest.mark.parametrize("command", ["inspect", "predict"])
    @pytest.mark.parametrize("groups", ["ab", ["a", "b"]], ids=["string", "string_groups"])
    def test_groups_not_lists_is_one_error_line(
        self, tmp_path, perfect, capsys, command, groups
    ):
        model, data = setup_model(tmp_path, perfect)
        doc = json.loads(model.read_text(encoding="utf-8"))
        assert doc["nodes"][0]["split"]["groups"] == [["a"], ["b"]]
        doc["nodes"][0]["split"]["groups"] = groups
        model.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        argv = ["inspect", "--model", str(model)]
        if command == "predict":
            argv = ["predict", "--model", str(model), "--data", str(data),
                    "--out", str(tmp_path / "pred.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: split groups must be a list of lists")


    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("predictors", 0, "name"), 5, "predictor name must be text, not 5"),
            (("predictors", 0, "categories", 1), 1, "predictor categories must be text, not 1"),
            (
                ("predictors", 0, "float_category"),
                False,
                "predictor float_category must be text, not False",
            ),
            (("target",), None, "target must be text, not None"),
            (("classes", 0), 1.5, "classes must be text, not 1.5"),
            (("nodes", 0, "split", "predictor"), 0, "split predictor must be text, not 0"),
            (("nodes", 0, "split", "groups", 1, 0), True, "split groups must be text, not True"),
        ],
        ids=[
            "predictor_name",
            "category",
            "float_category",
            "target",
            "class",
            "split_predictor",
            "group_member",
        ],
    )
    def test_text_field_that_is_not_text_is_one_error_line(
        self, tmp_path, perfect, capsys, path, value, message
    ):
        model, _ = setup_model(tmp_path, perfect)
        doc = json.loads(model.read_text(encoding="utf-8"))
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
        model.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["inspect", "--model", str(model)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "path, field",
        [
            (("nodes", 1, "id"), "nodes[1].id"),
            (("nodes", 1, "depth"), "nodes[1].depth"),
            (("nodes", 1, "parent"), "nodes[1].parent"),
            (("nodes", 0, "children", 1), "nodes[0].children"),
            (("nodes", 2, "class_counts", "v"), "nodes[2].class_counts"),
        ]
        + [
            (("growth_params", name), f"growth_params.{name}")
            for name in ("alpha_merge", "alpha_split", "max_depth", "min_parent_size",
                         "min_child_size")
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_number_field_that_is_text_names_the_field(
        self, tmp_path, perfect, capsys, path, field
    ):
        model, _ = setup_model(tmp_path, perfect)
        doc = json.loads(model.read_text(encoding="utf-8"))
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        number = holder[path[-1]]
        holder[path[-1]] = str(number)
        model.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["inspect", "--model", str(model)]) == 1
        kind = type(number).__name__
        assert capsys.readouterr().err.splitlines() == [
            f"error: malformed model document: {field}: expected {kind}, not {str(number)!r}"
        ]

    @pytest.mark.parametrize(
        "field,text", [("children", "12"), ("classes", "uv"), ("categories", "ab")]
    )
    def test_string_for_a_list_is_one_error_line(
        self, tmp_path, perfect, capsys, field, text
    ):
        model, _ = setup_model(tmp_path, perfect)
        doc = json.loads(model.read_text(encoding="utf-8"))
        holders = {"children": doc["nodes"][0], "classes": doc, "categories": doc["predictors"][0]}
        holder = holders[field]
        # The string spells out the list it replaces, so reading it as one
        # character per item would load the same tree.
        assert "".join(map(str, holder[field])) == text
        holder[field] = text
        model.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["inspect", "--model", str(model)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {field} must be a list, not {text!r}"
        ]


class TestExportDot:
    def test_to_file_and_stdout_agree(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        tree = sales_fixture_tree()
        save_model(tree, model)
        out = tmp_path / "tree.dot"
        assert main(["export-dot", "--model", str(model), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == tree.to_dot()
        capsys.readouterr()
        assert main(["export-dot", "--model", str(model)]) == 0
        assert capsys.readouterr().out == tree.to_dot()


class TestParsing:
    def test_no_command_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_module_runner(self, tmp_path, perfect):
        model, _ = setup_model(tmp_path, perfect)
        proc = subprocess.run(
            [sys.executable, "-m", "chaidkit", "inspect", "--model", str(model)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("node 0 ")


class TestPredictInBatches:
    """``predict`` streams its input; these run it three rows to a batch."""

    #: Rows 2, 7 and 8 detour: an unseen x, a missing n, an unseen z.
    ROWS = [
        "a,p,3", "t,p,3", "b,q,15", "a,q,15", "b,p,2", "a,p,12",
        "a,p,", "b,r,4", "a,q,9", "b,p,11",
    ]

    @pytest.fixture
    def model(self, tmp_path):
        # x splits the root; n splits x=a (y follows n there) and z splits x=b.
        rows = [f"a,{'pq'[i % 2]},{i % 20 + 1},{'u' if i % 20 < 10 else 'v'}" for i in range(40)]
        rows += [f"b,{'pq'[i % 2]},{i % 20 + 1},{'mn'[i % 2]}" for i in range(30)]
        data = tmp_path / "train.csv"
        data.write_text("x,z,n,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
        numeric = ColumnSpec(
            name="n", role="predictor", kind="numeric",
            binning=BinningSpec(strategy="equal_frequency", bin_count=2),
        )
        schema = write_schema(
            tmp_path / "schema.json", cat("x"), cat("z"), numeric, cat("y", role="target")
        )
        rc, model = train(tmp_path, schema, data)
        assert rc == 0
        splits = {node.split.predictor for node in load_model(model).nodes if node.split}
        assert splits == {"x", "z", "n"}
        return model

    def predict(self, tmp_path, model, rows, capsys):
        data = tmp_path / "rows.csv"
        data.write_text("x,z,n\n" + "".join(f"{row}\n" for row in rows), encoding="utf-8")
        out = tmp_path / "pred.csv"
        out.unlink(missing_ok=True)
        capsys.readouterr()
        rc = main(["predict", "--model", str(model), "--data", str(data), "--out", str(out)])
        return rc, out, capsys.readouterr().err

    def test_batches_change_no_byte(self, tmp_path, model, capsys, monkeypatch):
        rc, out, whole_err = self.predict(tmp_path, model, self.ROWS, capsys)
        assert rc == 0
        whole = out.read_bytes()
        monkeypatch.setattr(ingest, "BATCH_ROWS", 3)
        rc, out, err = self.predict(tmp_path, model, self.ROWS, capsys)
        assert rc == 0
        assert out.read_bytes() == whole
        assert err == whole_err
        assert [line.split(":")[1] for line in err.splitlines()] == [" row 2", " row 7", " row 8"]

    @pytest.mark.parametrize("rows", [[], ROWS[:6]], ids=["header-only", "whole-batches"])
    def test_header_only_and_whole_batches(self, tmp_path, model, capsys, monkeypatch, rows):
        monkeypatch.setattr(ingest, "BATCH_ROWS", 3)
        rc, out, err = self.predict(tmp_path, model, rows, capsys)
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("x,z,n,leaf_id,predicted_class,")
        assert [line.split(",")[:3] for line in lines[1:]] == [row.split(",") for row in rows]

    @pytest.mark.parametrize(
        "cell,message",
        [
            ("a,p", "row 8: expected 3 fields, found 2"),
            ("a,p,abc", "row 8: column 'n': cannot parse 'abc' as a number"),
            ("a,p,nan", "row 8: column 'n': 'nan' is not a finite number"),
        ],
        ids=["width", "unparsable", "nan"],
    )
    def test_fault_in_the_third_batch(self, tmp_path, model, capsys, monkeypatch, cell, message):
        monkeypatch.setattr(ingest, "BATCH_ROWS", 3)
        rows = self.ROWS[:7] + [cell] + self.ROWS[8:]
        rc, out, err = self.predict(tmp_path, model, rows, capsys)
        assert rc == 1
        assert err.splitlines()[-1] == f"error: {message}"
        # The two batches before it are written, with their warnings.
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 6
        assert err.count("warning: ") == 1

    @pytest.mark.parametrize(
        "text,message",
        [
            ("x,z\n", "missing required column 'n'"),
            ("x,z\n" + "a,p\n" * 5, "missing required column 'n'"),
            ("x,z,n,x\n" + "a,p,3,a\n" * 5, "duplicate column 'x' in header"),
        ],
        ids=["missing-header-only", "missing", "duplicate"],
    )
    def test_header_fault_leaves_no_output(
        self, tmp_path, model, capsys, monkeypatch, text, message
    ):
        monkeypatch.setattr(ingest, "BATCH_ROWS", 3)
        data = tmp_path / "rows.csv"
        data.write_text(text, encoding="utf-8")
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(model), "--data", str(data), "--out", str(out)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_fault_in_the_first_batch_leaves_no_output(self, tmp_path, model, capsys, monkeypatch):
        monkeypatch.setattr(ingest, "BATCH_ROWS", 3)
        rc, out, err = self.predict(tmp_path, model, ["a,p,3", "a,p,x"] + self.ROWS, capsys)
        assert rc == 1
        assert err == "error: row 2: column 'n': cannot parse 'x' as a number\n"
        assert not out.exists()

    def test_memory_does_not_grow_with_the_input(self, tmp_path, model, capsys, monkeypatch):
        monkeypatch.setattr(ingest, "BATCH_ROWS", 100)

        def peak_bytes(n):
            # Rows without detours, and an unused column of distinct cells.
            rows = [f"{'ab'[i % 2]},{'pq'[i // 2 % 2]},{i % 20 + 1},note {i}" for i in range(n)]
            data = tmp_path / "rows.csv"
            data.write_text("x,z,n,note\n" + "".join(f"{row}\n" for row in rows), "utf-8")
            argv = ["predict", "--model", str(model), "--data", str(data)]
            tracemalloc.start()
            try:
                assert main(argv + ["--out", str(tmp_path / "pred.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(400)  # first-call allocations land here, not in either figure
        grown = peak_bytes(4_000) - peak_bytes(400)
        # Holding the whole input, as predict once did, raised this peak by
        # 840 kB for the 3,600 extra rows (230 bytes a row); streaming moves
        # it by under 20 kB. The bound is about 430 rows' worth.
        assert grown < 100_000
        assert capsys.readouterr().err == ""

    def test_output_may_not_overwrite_the_input(self, tmp_path, model, capsys):
        data = tmp_path / "rows.csv"
        data.write_text("x,z,n\n" + "".join(f"{row}\n" for row in self.ROWS), encoding="utf-8")
        before = data.read_bytes()
        rc = main(["predict", "--model", str(model), "--data", str(data), "--out", str(data)])
        assert rc == 1
        assert "--out names the --data file" in capsys.readouterr().err
        assert data.read_bytes() == before


def _fuzz_inputs():
    """A trained model document, its schema document and its training rows, built in memory."""
    schema = DatasetSchema(
        (
            cat("x"),
            cat("z", scale=Scale.FLOAT),
            ColumnSpec("n", "predictor", "numeric", binning=BinningSpec("equal_width", 3)),
            cat("y", role="target"),
        )
    )
    # x splits the root in two; z has blank cells, its floating category.
    cells = [("ab"[i % 2], "pq"[i // 2 % 2] if i % 7 else "", i % 9, "uv"[i % 2]) for i in range(60)]
    rows = "x,z,n,y\n" + "".join(",".join(map(str, row)) + "\n" for row in cells)
    tree = train_tree(load_dataset(io.StringIO(rows), schema))
    return schema.to_doc(), tree.to_document(), rows


FUZZ_SCHEMA, FUZZ_MODEL, FUZZ_ROWS = _fuzz_inputs()
#: Stands for deleting the key or item at a path instead of replacing it.
DELETE = object()


def _paths(doc, prefix=()):
    """Every key path into a JSON document, the document's own fields first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutated(doc, mutations):
    """A copy of ``doc`` with each (path, value) applied; paths an earlier change removed are skipped."""
    doc = json.loads(json.dumps(doc))
    for path, value in mutations:
        holder = doc
        try:
            for key in path[:-1]:
                holder = holder[key]
            holder[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue
        if value is DELETE:
            del holder[path[-1]]
        else:
            holder[path[-1]] = value
    return doc


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def mutations(doc):
    """One to three replacements or deletions at paths of ``doc``."""
    change = st.tuples(st.sampled_from(list(_paths(doc))), JSON_VALUES | st.just(DELETE))
    return st.lists(change, min_size=1, max_size=3)


def _run(argv):
    """``main(argv)``'s exit code and stderr lines; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue().splitlines()


def _assert_clean_exit(rc, err):
    """Exit 0, or exit 1 with exactly one ``error:`` line; any other line is a warning."""
    assert rc in (0, 1), err
    assert sum(line.startswith("error: ") for line in err) == (rc == 1), err
    assert all(line.startswith(("error: ", "warning: ")) for line in err), err


class TestDocumentFuzz:
    """Mutated model and schema documents end in exit 0 or in exactly one error line."""

    @given(mutations(FUZZ_MODEL))
    # A string spelling out the list it replaces, as in test_string_for_a_list_is_one_error_line.
    @example([(("nodes", 0, "children"), "12")])
    @example([(("classes",), "uv")])
    @example([(("predictors", 0, "categories"), "ab")])
    @settings(max_examples=150, deadline=None)
    def test_mutated_model_through_inspect_and_predict(self, changes):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            model, data = work / "model.json", work / "rows.csv"
            model.write_text(json.dumps(_mutated(FUZZ_MODEL, changes)), encoding="utf-8")
            data.write_text(FUZZ_ROWS, encoding="utf-8")
            _assert_clean_exit(*_run(["inspect", "--model", str(model)]))
            argv = ["predict", "--model", str(model), "--data", str(data)]
            _assert_clean_exit(*_run(argv + ["--out", str(work / "pred.csv")]))

    @given(mutations(FUZZ_SCHEMA))
    @settings(max_examples=150, deadline=None)
    def test_mutated_schema_through_train(self, changes):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            schema, data = work / "schema.json", work / "rows.csv"
            schema.write_text(json.dumps(_mutated(FUZZ_SCHEMA, changes)), encoding="utf-8")
            data.write_text(FUZZ_ROWS, encoding="utf-8")
            argv = ["train", "--data", str(data), "--schema", str(schema)]
            _assert_clean_exit(*_run(argv + ["--model", str(work / "model.json")]))
