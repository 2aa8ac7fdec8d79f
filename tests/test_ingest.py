"""CSV loading, schema handling, and supervised discretization."""

from __future__ import annotations

import io
import json
import math
from array import array
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaidkit import DataError, DatasetSchema, Scale, load_dataset, load_schema
from chaidkit.core import MISSING_LABEL
from chaidkit import ingest
from chaidkit.ingest import BinningSpec, ColumnSpec, iter_batches
from conftest import whole_file_load_dataset


def cat_col(name, role="predictor", **kw):
    return ColumnSpec(name=name, role=role, kind="categorical", **kw)


def num_col(name, role="predictor", bins=4, **kw):
    return ColumnSpec(
        name=name, role=role, kind="numeric",
        binning=BinningSpec(strategy="equal_frequency", bin_count=bins), **kw,
    )


def make_schema(*columns, delimiter=","):
    return DatasetSchema(columns=tuple(columns), delimiter=delimiter)


def load_text(text, schema, **kw):
    return load_dataset(io.StringIO(text), schema, **kw)


def load_bins(values, spec):
    """Bin one numeric predictor column through the loader: its labels and realized cuts."""
    schema = make_schema(
        ColumnSpec(name="x", role="predictor", kind="numeric", binning=spec),
        cat_col("y", role="target"),
    )
    text = "x\n" + "".join(f"{v!r}\n" for v in values)
    dataset = load_text(text, schema, require_target=False)
    return dataset.labels("x"), dataset.boundaries["x"]


QUARTILE_CUTS = BinningSpec(strategy="explicit_boundaries", boundaries=(25.0, 50.0, 75.0))


class TestBinning:
    def test_equal_frequency_quartiles(self):
        values = list(range(100, 0, -1))
        labels, bounds = load_bins(
            values, BinningSpec(strategy="equal_frequency", bin_count=4)
        )
        assert bounds == (25, 50, 75)
        assert Counter(labels) == {"1": 25, "2": 25, "3": 25, "4": 25}

    def test_constant_column_collapses(self):
        labels, bounds = load_bins(
            [7.0] * 10, BinningSpec(strategy="equal_frequency", bin_count=4)
        )
        assert bounds == ()
        assert labels == ["1"] * 10

    def test_equal_width_keeps_empty_bins(self):
        labels, bounds = load_bins(
            [1, 2, 3, 10], BinningSpec(strategy="equal_width", bin_count=3)
        )
        assert bounds == (4.0, 7.0)
        assert labels == ["1", "1", "1", "3"]

    def test_equal_width_past_the_float_range(self):
        # top - lo, or (top - lo) * j, overflows to inf on these ranges, and
        # the grid must not stop there.
        spec = BinningSpec(strategy="equal_width", bin_count=4)
        labels, bounds = load_bins([0.0, 1e308, 1.5e308], spec)
        assert bounds == (3.75e307, 7.5e307, 1.125e308)
        assert labels == ["1", "3", "4"]
        labels, bounds = load_bins([-1e308, 0.0, 1e308], spec)
        assert bounds == (-5e307, 0.0, 5e307)
        assert labels == ["1", "2", "4"]

    def test_ties_go_to_the_lower_bin(self):
        labels, _ = load_bins([25.0, 25.001, 50.0], QUARTILE_CUTS)
        assert labels == ["1", "2", "2"]

    def test_outer_intervals_are_unbounded(self):
        labels, _ = load_bins([-1e9, 1e9], QUARTILE_CUTS)
        assert labels == ["1", "4"]

    def test_heavy_ties_drop_duplicate_cuts(self):
        labels, bounds = load_bins(
            [1, 1, 1, 1, 2], BinningSpec(strategy="equal_frequency", bin_count=4)
        )
        assert bounds == (1,)
        assert labels == ["1", "1", "1", "1", "2"]

    def test_equal_frequency_beyond_one_bin_per_value(self):
        # The cut loop is bounded by the values, not by the requested count.
        values = [5.0, 3.0, 3.0, 9.0, 1.0, 7.0, 7.0, 2.0]
        huge = load_bins(values, BinningSpec(strategy="equal_frequency", bin_count=10**12))
        per_value = load_bins(
            values, BinningSpec(strategy="equal_frequency", bin_count=len(values))
        )
        assert huge == per_value
        assert huge[1] == (1.0, 2.0, 3.0, 5.0, 7.0)

    def test_empty_column(self):
        # A header-only file: no labels, no computed cuts, explicit cuts kept.
        assert load_bins([], BinningSpec(strategy="equal_frequency", bin_count=4)) == ([], ())
        assert load_bins([], QUARTILE_CUTS) == ([], (25.0, 50.0, 75.0))

    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=1, max_size=40,
        ),
        st.integers(2, 6),
        st.sampled_from(["equal_frequency", "equal_width"]),
    )
    # Ranges narrower than the float grid, where equal-width cuts repeat
    # and reach the top value.
    @example([1.0, 1.0000000000000002], 4, "equal_width")
    @example([0.0, 5e-324], 4, "equal_width")
    # Ranges at the ends of the float range, where top - lo overflows.
    @example([-1.7976931348623157e308, 1.7976931348623157e308], 6, "equal_width")
    @example([-1.7976931348623157e308, 0.0, 1.7976931348623157e308], 3, "equal_frequency")
    @example([0.0, 1e308, 1.5e308], 5, "equal_width")
    @settings(max_examples=120, deadline=None)
    def test_binning_properties(self, values, k, strategy):
        labels, bounds = load_bins(
            values, BinningSpec(strategy=strategy, bin_count=k)
        )
        assert all(bounds[i] < bounds[i + 1] for i in range(len(bounds) - 1))
        assert all(1 <= int(label) <= k for label in labels)
        if strategy == "equal_width":
            # The cuts stay on their grid: no gap, from the least value to the
            # greatest, is wider than a bin, up to rounding.
            lo, top = min(values), max(values)
            edges = [lo, *bounds, top]
            slack = 4 * math.ulp(max(abs(lo), abs(top)))
            assert all(b - a <= top / k - lo / k + slack for a, b in zip(edges, edges[1:]))
        # Replaying the realized boundaries as explicit cut points is a
        # different code path that must reproduce identical labels.
        replay, replay_bounds = load_bins(
            values, BinningSpec(strategy="explicit_boundaries", boundaries=bounds)
        )
        assert replay == labels
        assert replay_bounds == bounds
        # Labels respect the value order.
        pairs = sorted(zip(values, labels))
        assert [int(l) for _, l in pairs] == sorted(int(l) for _, l in pairs)

    @given(
        st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -2.5, 1e308, -1.7976931348623157e308])
            | st.floats(allow_nan=False, allow_infinity=False),
            min_size=1, max_size=30,
        ),
        st.integers(2, 7),
        st.sampled_from(["equal_frequency", "equal_width"]),
    )
    @example([-0.0, 0.0, 5.0, 5.0], 2, "equal_frequency")
    @example([-0.0, -3.0, 0.0], 3, "equal_width")
    @example([0.0, -0.0, 0.0, -0.0], 4, "equal_width")
    @example([-1.7976931348623157e308, -0.0, 0.0], 5, "equal_width")
    @settings(max_examples=200, deadline=None)
    def test_cuts_equal_those_of_the_sorting_function(self, values, k, strategy):
        def sorted_cuts(values, spec):
            """The cuts as computed when every strategy sorted the values first, a zero cut as 0.0."""
            ordered = sorted(values)
            n = len(ordered)
            k = spec.bin_count
            if spec.strategy == "equal_frequency":
                k = min(k, n)
            lo, top = ordered[0], ordered[-1]
            bounds = []
            for j in range(1, k):
                if spec.strategy == "equal_frequency":
                    cut = ordered[-(-j * n // k) - 1]
                else:
                    width = (top - lo) * j
                    cut = lo + width / k if math.isfinite(width) else lo / k * (k - j) + top / k * j
                if cut >= top:
                    break
                if not bounds or cut > bounds[-1]:
                    bounds.append(0.0 if cut == 0 else cut)
            return tuple(bounds)

        spec = BinningSpec(strategy=strategy, bin_count=k)
        # repr tells -0.0 from 0.0, so the cuts are compared as the model writes them.
        expected = repr(sorted_cuts(values, spec))
        assert repr(ingest._compute_boundaries(values, spec)) == expected
        assert repr(ingest._compute_boundaries(array("d", values), spec)) == expected
        # Sorting keeps tied -0.0 and 0.0 in row order; the cuts do not depend on it.
        assert repr(ingest._compute_boundaries(values[::-1], spec)) == expected


class TestBinningSpec:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"strategy": "quantile"}, "unknown binning strategy"),
            (
                {"strategy": "explicit_boundaries", "bin_count": 3},
                "take no bin count",
            ),
            ({"strategy": "explicit_boundaries"}, "needs its boundaries"),
            (
                {"strategy": "explicit_boundaries", "boundaries": (3.0, 2.0)},
                "strictly increasing",
            ),
            (
                {"strategy": "equal_frequency", "boundaries": (1.0,)},
                "computes its own boundaries",
            ),
            ({"strategy": "equal_width", "bin_count": 1}, "at least 2"),
            (
                {"strategy": "explicit_boundaries", "boundaries": (float("nan"),)},
                "must be finite",
            ),
            (
                {"strategy": "explicit_boundaries", "boundaries": (1.0, float("inf"))},
                "must be finite",
            ),
        ],
    )
    def test_invalid(self, kwargs, message):
        with pytest.raises(DataError, match=message):
            BinningSpec(**kwargs)

    def test_empty_explicit_boundaries_mean_one_interval(self):
        spec = BinningSpec(strategy="explicit_boundaries", boundaries=())
        labels, bounds = load_bins([3.5, -2.0], spec)
        assert labels == ["1", "1"]
        assert bounds == ()

    def test_doc_round_trip(self):
        for spec in (
            BinningSpec(strategy="equal_frequency", bin_count=5),
            BinningSpec(strategy="explicit_boundaries", boundaries=(1.5, 2.5)),
        ):
            assert BinningSpec.from_doc(spec.to_doc()) == spec

    def test_from_doc_rejects_junk(self):
        with pytest.raises(DataError):
            BinningSpec.from_doc("equal_frequency")


class TestColumnSpec:
    def test_numeric_column_gets_default_binning(self):
        pred = ColumnSpec(name="x", role="predictor", kind="numeric")
        assert pred.binning == BinningSpec(
            strategy="equal_frequency", bin_count=ingest.DEFAULT_PREDICTOR_BINS
        )
        target = ColumnSpec(name="y", role="target", kind="numeric")
        assert target.binning == BinningSpec(
            strategy="equal_frequency", bin_count=ingest.DEFAULT_TARGET_BINS
        )
        # An ignored column is never parsed, so it gets no defaults.
        assert ColumnSpec(name="z", role="ignored", kind="numeric").binning is None

    def test_binning_only_for_numeric(self):
        with pytest.raises(DataError, match="only for numeric"):
            ColumnSpec(
                name="x", role="predictor", kind="categorical",
                binning=BinningSpec(strategy="equal_frequency", bin_count=3),
            )

    def test_role_and_kind_validated(self):
        with pytest.raises(DataError, match="unknown role"):
            ColumnSpec(name="x", role="feature", kind="categorical")
        with pytest.raises(DataError, match="unknown kind"):
            ColumnSpec(name="x", role="predictor", kind="ordinal")

    def test_duplicate_declared_categories(self):
        with pytest.raises(DataError, match="duplicate declared category"):
            cat_col("x", categories=("a", "a"))

    def test_scale_restricted_to_predictors(self):
        with pytest.raises(DataError, match="only to predictor"):
            cat_col("y", role="target", scale=Scale.FREE)

    def test_defaults_are_resolved_into_the_fields(self):
        col = cat_col("x")
        assert col.scale is Scale.FREE
        assert col.float_category is None
        floaty = cat_col("x", scale=Scale.FLOAT)
        assert floaty.float_category == MISSING_LABEL
        assert cat_col("x", scale=Scale.FLOAT, float_category="c").float_category == "c"
        assert num_col("x", scale=Scale.FLOAT).float_category == MISSING_LABEL
        assert num_col("x", scale=Scale.MONOTONIC).float_category is None
        target = cat_col("y", role="target")
        assert target.scale is None and target.float_category is None
        # Resolved fields survive a schema document round trip unchanged.
        assert ColumnSpec.from_doc(floaty.to_doc()) == floaty

    def test_numeric_floating_category_cannot_be_a_bin_label(self):
        # Blank cells would join the bin of that label and make it float.
        for label in ("1", "4"):
            with pytest.raises(DataError, match=f"column 'x': floating category '{label}'"):
                num_col("x", bins=4, scale=Scale.FLOAT, float_category=label)
        with pytest.raises(DataError, match="can be one of its bin labels"):
            ColumnSpec(
                name="x", role="predictor", kind="numeric", binning=QUARTILE_CUTS,
                scale=Scale.FLOAT, float_category="4",
            )
        # No label of four bins: "0", "5", a leading zero, a non-ASCII digit.
        for label in ("0", "5", "01", "\uff11", "?"):
            col = num_col("x", bins=4, scale=Scale.FLOAT, float_category=label)
            assert col.float_category == label

    def test_from_doc_supplies_default_binning(self):
        pred = ColumnSpec.from_doc({"name": "x", "role": "predictor", "kind": "numeric"})
        assert pred.binning == BinningSpec(strategy="equal_frequency", bin_count=12)
        target = ColumnSpec.from_doc({"name": "y", "role": "target", "kind": "numeric"})
        assert target.binning == BinningSpec(strategy="equal_frequency", bin_count=7)

    def test_from_doc_errors(self):
        with pytest.raises(DataError, match="missing 'role'"):
            ColumnSpec.from_doc({"name": "x", "kind": "categorical"})
        with pytest.raises(DataError, match="unknown scale"):
            ColumnSpec.from_doc(
                {"name": "x", "role": "predictor", "kind": "categorical", "scale": "nominal"}
            )


class TestDatasetSchema:
    def test_exactly_one_target(self):
        with pytest.raises(DataError, match="exactly one target"):
            make_schema(cat_col("x"))
        with pytest.raises(DataError, match="exactly one target"):
            make_schema(
                cat_col("x"), cat_col("y", role="target"), cat_col("z", role="target")
            )

    def test_no_columns(self):
        with pytest.raises(DataError, match="schema declares no columns"):
            DatasetSchema(())

    def test_duplicate_names(self):
        with pytest.raises(DataError, match="duplicate column name"):
            make_schema(cat_col("x"), cat_col("x"), cat_col("y", role="target"))

    def test_delimiter_single_character(self):
        with pytest.raises(DataError, match="single character"):
            make_schema(cat_col("x"), cat_col("y", role="target"), delimiter=",,")

    def test_doc_round_trip(self):
        schema = make_schema(
            num_col("a"),
            cat_col("b", scale=Scale.MONOTONIC, categories=("1", "2", "3")),
            cat_col("y", role="target"),
            delimiter=";",
        )
        doc = schema.to_doc()
        assert doc == {
            "format": ingest.SCHEMA_FORMAT,
            "format_version": ingest.SCHEMA_FORMAT_VERSION,
            "delimiter": ";",
            "columns": [col.to_doc() for col in schema.columns],
        }
        assert DatasetSchema.from_doc(doc) == schema

    def test_from_doc_format_tag(self):
        with pytest.raises(DataError, match="unrecognized format tag"):
            DatasetSchema.from_doc({"format": "other", "columns": []})

    def test_load_schema_file(self, tmp_path):
        schema = make_schema(cat_col("x"), cat_col("y", role="target"))
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(schema.to_doc()))
        assert load_schema(path) == schema
        path.write_text("{broken")
        with pytest.raises(DataError, match="not valid JSON"):
            load_schema(path)
        with pytest.raises(DataError, match="cannot read schema file"):
            load_schema(tmp_path / "absent.json")


class TestLoadDataset:
    def test_small_round_trip(self):
        schema = make_schema(cat_col("x"), cat_col("y", role="target"))
        data = "x,y\na,u\nb,v\na,u\n"
        dataset = load_text(data, schema)
        assert dataset.records == (
            {"x": "a", "y": "u"},
            {"x": "b", "y": "v"},
            {"x": "a", "y": "u"},
        )
        assert dataset.classes == ("u", "v")
        assert dataset.missing_counts == {"x": 0, "y": 0}

    def test_numeric_columns_are_binned(self):
        schema = make_schema(num_col("x", bins=2), cat_col("y", role="target"))
        data = "x,y\n" + "".join(f"{v},u\n" for v in (1, 2, 3, 4))
        dataset = load_text(data, schema)
        assert dataset.boundaries["x"] == (2,)
        assert [r["x"] for r in dataset.records] == ["1", "1", "2", "2"]

    def test_missing_required_column(self):
        schema = make_schema(cat_col("x"), cat_col("y", role="target"))
        with pytest.raises(DataError, match="missing required column 'y'"):
            load_text("x,z\na,1\n", schema)

    def test_numeric_parse_error_cites_row_and_column(self):
        schema = make_schema(num_col("harga"), cat_col("y", role="target"))
        data = "harga,y\n100,u\nabc,v\n"
        with pytest.raises(
            DataError, match="row 2: column 'harga': cannot parse 'abc' as a number"
        ):
            load_text(data, schema)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("require_target", [True, False], ids=["train", "predict"])
    def test_non_finite_number_cites_row_and_column(self, cell, require_target):
        schema = make_schema(num_col("harga"), cat_col("y", role="target"))
        data = f"harga,y\n100,u\n{cell},v\n300,u\n"
        with pytest.raises(
            DataError, match=f"row 2: column 'harga': '{cell}' is not a finite number"
        ):
            load_text(data, schema, require_target=require_target)

    @pytest.mark.parametrize(
        "cells,message",
        [
            (("nan", "abc"), "'nan' is not a finite number"),
            (("abc", "nan"), "cannot parse 'abc' as a number"),
        ],
    )
    def test_first_bad_number_in_row_order_is_reported(self, cells, message):
        schema = make_schema(num_col("harga"), cat_col("y", role="target"))
        data = f"harga,y\n100,u\n,v\n{cells[0]},v\n{cells[1]},u\n"
        with pytest.raises(DataError, match=f"^row 3: column 'harga': {message}$"):
            load_text(data, schema, require_target=False)

    def test_empty_file(self):
        schema = make_schema(cat_col("x"), cat_col("y", role="target"))
        with pytest.raises(DataError, match="empty file"):
            load_text("", schema)
        with pytest.raises(DataError, match="empty file"):
            load_text("\n", schema)

    def test_header_only_file_is_zero_records(self):
        schema = make_schema(cat_col("x"), cat_col("y", role="target"))
        dataset = load_text("x,y\n", schema)
        assert dataset.records == ()

    def test_a_dataset_without_columns_still_has_a_record_per_row(self):
        # Predicting a one-leaf model without its target column parses no column.
        schema = make_schema(cat_col("x"), cat_col("y", role="target"))
        dataset = ingest.Dataset(schema, columns={}, n_rows=3, boundaries={}, missing_counts={})
        assert list(dataset.iter_records()) == [{}, {}, {}]
        assert dataset.records == ({}, {}, {})

    def test_ragged_row(self):
        schema = make_schema(cat_col("x"), cat_col("y", role="target"))
        with pytest.raises(DataError, match="row 2: expected 2 fields, found 3"):
            load_text("x,y\na,u\na,u,extra\n", schema)

    def test_duplicate_header(self):
        schema = make_schema(cat_col("x"), cat_col("y", role="target"))
        with pytest.raises(DataError, match="duplicate column 'x' in header"):
            load_text("x,x,y\na,b,u\n", schema)

    def test_missing_report_is_count_limited(self):
        schema = make_schema(cat_col("x"), cat_col("y", role="target"))
        rows = ["a," if i < 7 else "a,u" for i in range(8)]
        data = "x,y\n" + "\n".join(rows) + "\n"
        with pytest.raises(
            DataError,
            match=r"column 'y': missing value at row\(s\) 1, 2, 3, 4, 5 \(\+2 more\)",
        ):
            load_text(data, schema)

    def test_missing_predictor_rejected_for_training(self):
        schema = make_schema(cat_col("x"), cat_col("y", role="target"))
        data = "x,y\n,u\nb,v\n"
        with pytest.raises(DataError, match="column 'x': missing value"):
            load_text(data, schema)
        # The same file is fine as prediction input.
        dataset = load_text(data, schema, require_target=False)
        assert dataset.records[0]["x"] == MISSING_LABEL
        assert "y" not in dataset.records[0]

    def test_float_scale_predictor_tolerates_missing(self):
        schema = make_schema(
            cat_col("x", scale=Scale.FLOAT), cat_col("y", role="target")
        )
        data = "x,y\na,u\n,v\nb,u\n"
        dataset = load_text(data, schema)
        assert [r["x"] for r in dataset.records] == ["a", MISSING_LABEL, "b"]
        assert dataset.missing_counts["x"] == 1

    def test_declared_categories_enforced_for_training(self):
        schema = make_schema(
            cat_col("x", categories=("a", "b")), cat_col("y", role="target")
        )
        data = "x,y\na,u\nc,v\n"
        with pytest.raises(
            DataError, match="column 'x': undeclared category 'c' at row 2"
        ):
            load_text(data, schema)
        dataset = load_text(data, schema, require_target=False)
        assert dataset.records[1]["x"] == "c"

    def test_written_floating_category_need_not_be_declared(self):
        schema = make_schema(
            cat_col("x", scale=Scale.FLOAT, float_category="c", categories=("a", "b")),
            cat_col("y", role="target"),
        )
        written = load_text("x,y\na,u\nc,v\nb,u\n", schema)
        blank = load_text("x,y\na,u\n,v\nb,u\n", schema)
        assert written.records == blank.records
        assert [r["x"] for r in written.records] == ["a", "c", "b"]
        assert written.predictor_specs() == blank.predictor_specs()

    def test_problems_are_aggregated(self):
        schema = make_schema(
            cat_col("x", categories=("a",)), cat_col("y", role="target")
        )
        data = "x,y\nz,\n"
        with pytest.raises(DataError, match="undeclared category.*; column 'y': missing value"):
            load_text(data, schema)

    def test_keep_raw_preserves_input(self):
        schema = make_schema(num_col("x", bins=2), cat_col("y", role="target"))
        data = "x,extra,y\n1.50,keep me,u\n2.50,also,v\n"
        dataset = load_text(data, schema, keep_raw=True)
        assert dataset.header == ("x", "extra", "y")
        assert dataset.raw_rows == (("1.50", "keep me", "u"), ("2.50", "also", "v"))

    def test_ignored_columns_are_skipped(self):
        schema = make_schema(
            cat_col("x"),
            ColumnSpec(name="note", role="ignored", kind="categorical"),
            cat_col("y", role="target"),
        )
        data = "x,note,y\na,whatever,u\n"
        dataset = load_text(data, schema)
        assert "note" not in dataset.records[0]

    def test_file_source(self, tmp_path):
        schema = make_schema(cat_col("x"), cat_col("y", role="target"))
        path = tmp_path / "data.csv"
        path.write_text("x,y\na,u\n", encoding="utf-8")
        assert load_dataset(path, schema).records == ({"x": "a", "y": "u"},)
        with pytest.raises(DataError, match="cannot read data file"):
            load_dataset(tmp_path / "absent.csv", schema)


class TestIterBatches:
    #: A model's schema: its numeric column carries explicit boundaries.
    SCHEMA = make_schema(
        ColumnSpec(
            name="n", role="predictor", kind="numeric",
            binning=BinningSpec(strategy="explicit_boundaries", boundaries=(0.0, 2.0)),
        ),
        cat_col("x", scale=Scale.FLOAT),
        cat_col("y", role="target"),
    )

    @given(
        st.lists(
            st.tuples(st.sampled_from(["1", " 2.5", "-3", ""]), st.sampled_from(["a", "b", ""])),
            max_size=12,
        ),
        st.integers(1, 5),
    )
    def test_batches_are_the_whole_load_in_pieces(self, rows, size):
        text = "x,n\n" + "".join(f"{x},{n}\n" for n, x in rows)
        whole = load_text(text, self.SCHEMA, require_target=False, keep_raw=True)
        with mock.patch.object(ingest, "BATCH_ROWS", size):
            batches = list(iter_batches(io.StringIO(text), self.SCHEMA))
        assert [batch.n_rows for batch in batches[:-1]] == [size] * (len(batches) - 1)
        assert batches[-1].n_rows < size
        assert {batch.header for batch in batches} == {whole.header}
        assert sum((batch.raw_rows for batch in batches), ()) == whole.raw_rows
        assert sum((batch.records for batch in batches), ()) == whole.records

    def test_error_rows_count_from_the_start_of_the_file(self, monkeypatch):
        monkeypatch.setattr(ingest, "BATCH_ROWS", 2)
        text = "n,x\n" + "1,a\n" * 4 + "oops,a\n"
        batches = iter_batches(io.StringIO(text), self.SCHEMA)
        assert [batch.n_rows for batch in (next(batches), next(batches))] == [2, 2]
        with pytest.raises(DataError, match="^row 5: column 'n': cannot parse 'oops'"):
            next(batches)


#: Cells of a numeric and of a categorical column: clean ones, then blanks and faults.
NUMBER_CELLS = ("1", " 2.5", "-3", "0", "7", "1e3", "", "x", "nan", "-inf")
LABEL_CELLS = ("a", "b", " c", "a", "", "d", "e")


@st.composite
def loader_inputs(draw):
    """A schema, CSV text over its columns, load options and a batch size.

    Cells may be blank, unparsable or non-finite; a row may be ragged or
    unreadable; the header may lack a parsed column or repeat one.
    """
    n_predictors = draw(st.integers(1, 3))
    columns = []
    for j in range(n_predictors + 1):
        role = "target" if j == n_predictors else "predictor"
        scale = None if role == "target" else draw(st.sampled_from(list(Scale)))
        float_category = draw(st.sampled_from([None, "z"])) if scale is Scale.FLOAT else None
        if draw(st.booleans()):
            strategy = draw(st.sampled_from(ingest._STRATEGIES))
            if strategy == "explicit_boundaries":
                binning = BinningSpec(strategy, boundaries=draw(st.sampled_from([(), (0.0, 2.0)])))
            else:
                binning = BinningSpec(strategy, bin_count=draw(st.integers(2, 4)))
            column = ColumnSpec(f"n{j}", role, "numeric", scale, binning, None, float_category)
        else:
            declared = draw(st.sampled_from([None, ("a", "b"), ("b", "a", "c")]))
            column = ColumnSpec(f"c{j}", role, "categorical", scale, None, declared, float_category)
        columns.append(column)
    columns.insert(draw(st.integers(0, len(columns))), cat_col("skip", role="ignored"))
    schema = make_schema(*draw(st.permutations(columns)))
    names = draw(st.permutations([col.name for col in schema.columns]))
    fault = draw(st.sampled_from([None] * 4 + ["drop", "repeat"]))
    if fault == "drop":
        names = names[1:]
    elif fault == "repeat":
        names = names + names[:1]
    # A clean column draws only from the first cells of its pool.
    pools = {
        col.name: (NUMBER_CELLS if col.kind == "numeric" else LABEL_CELLS)[
            : None if draw(st.booleans()) else 6 if col.kind == "numeric" else 4
        ]
        for col in schema.columns
    }
    n_rows = draw(st.integers(0, 16))
    rows = [[draw(st.sampled_from(pools[name])) for name in names] for _ in range(n_rows)]
    if rows and draw(st.integers(0, 3)) == 0:
        ragged = draw(st.sampled_from(rows))
        ragged[len(ragged) - 1 :] = draw(st.sampled_from([[], ["a", "a"]]))
    if rows and draw(st.integers(0, 7)) == 0:
        draw(st.sampled_from(rows))[0] = "a\rb"  # the CSV reader fails here
    text = ",".join(names) + "\n" + "".join(",".join(row) + "\n" for row in rows)
    return schema, text, draw(st.booleans()), draw(st.booleans()), draw(st.integers(1, 4))


def load_outcome(load, text, schema, require_target, keep_raw):
    """What loading gives: the fault text, or every field of the dataset, dict orders included."""
    try:
        dataset = load(io.StringIO(text), schema, require_target=require_target, keep_raw=keep_raw)
    except DataError as exc:
        return str(exc)
    return (
        [(name, dataset.labels(name)) for name in dataset.columns],
        list(dataset.boundaries.items()),
        list(dataset.missing_counts.items()),
        dataset.n_rows,
        dataset.header,
        dataset.raw_rows,
    )


class TestStreamedLoad:
    """Loading in batches gives what loading the whole file at once gave, faults included."""

    TARGET_FIRST = make_schema(
        cat_col("y", role="target"),
        cat_col("x", categories=("a", "b")),
        num_col("n", bins=2),
    )

    def check(self, schema, text, require_target, keep_raw, size):
        whole = load_outcome(whole_file_load_dataset, text, schema, require_target, keep_raw)
        with mock.patch.object(ingest, "BATCH_ROWS", size):
            streamed = load_outcome(load_dataset, text, schema, require_target, keep_raw)
        assert streamed == whole
        return streamed

    @settings(max_examples=400, deadline=None)
    @given(loader_inputs())
    # Declared cuts, with a blank cell and a cell on a cut, read for prediction.
    @example((
        make_schema(
            ColumnSpec("n", "predictor", "numeric", binning=BinningSpec(
                "explicit_boundaries", boundaries=(0.0, 2.0)
            )),
            cat_col("y", role="target"),
        ),
        "n,y\n2,u\n,u\n0.5,v\n3,u\n", False, True, 1,
    ))
    # A categorical float predictor's blank cell, read for training with the raw rows kept.
    @example((
        make_schema(cat_col("f", scale=Scale.FLOAT), cat_col("y", role="target")),
        "f,y\na,u\n,v\nb,u\n", True, True, 2,
    ))
    def test_batches_give_the_whole_file_load(self, inputs):
        self.check(*inputs)

    @pytest.mark.parametrize(
        "rows,message",
        [
            # A ragged row in the third batch outranks a cell fault in the first.
            (["u,a,x", "u,a,1", "u,a,2", "u,a,3", "u,a"], "row 5: expected 3 fields, found 2"),
            # A number that fails in a later batch hides the blank target before it.
            (
                [",a,1", "u,a,2", "u,a,3", "u,a,x"],
                "row 4: column 'n': cannot parse 'x' as a number",
            ),
            (["u,a,1", "u,a,inf"], "row 2: column 'n': 'inf' is not a finite number"),
            (["u,a,nan", "u,a,1", "u,a,-inf"], "row 1: column 'n': 'nan' is not a finite number"),
            # The first five undeclared cells, and the count of the rest, span the batches.
            (
                [f"u,{x},1" for x in "qabrstuva"],
                "column 'x': undeclared category 'q' at row 1, 'r' at row 4, 's' at row 5, "
                "'t' at row 6, 'u' at row 7 (+1 more)",
            ),
            # A blank cell in a later batch outranks the column's undeclared cells.
            (["u,q,1", "u,a,2", "u,,3"], "column 'x': missing value at row(s) 3"),
            (
                [",a,1", "u,a,2"] + [",a,1"] * 6,
                "column 'y': missing value at row(s) 1, 3, 4, 5, 6 (+2 more)",
            ),
        ],
        ids=[
            "ragged-after-cell",
            "number-after-blank-target",
            "inf",
            "nan",
            "undeclared",
            "blank",
            "blanks",
        ],
    )
    def test_faults_in_different_batches(self, rows, message):
        text = "y,x,n\n" + "".join(f"{row}\n" for row in rows)
        assert self.check(self.TARGET_FIRST, text, True, False, 2) == message

    @pytest.mark.parametrize(
        "text,message",
        [
            ("y,x,x\n" + "u,a,a\n" * 3 + "u,a\n", "row 4: expected 3 fields, found 2"),
            ("y,n\n" + "u,1\n" * 3 + "u\n", "row 4: expected 2 fields, found 1"),
            ("y,x,x\n" + "u,a,a\n" * 4, "duplicate column 'x' in header"),
            ("y,n\n" + "u,1\n" * 3 + ",x\n", "missing required column 'x'"),
        ],
        ids=["ragged-after-duplicate", "ragged-after-missing", "duplicate", "missing"],
    )
    def test_a_ragged_row_anywhere_outranks_the_header(self, text, message):
        assert self.check(self.TARGET_FIRST, text, True, False, 1) == message


class TestDatasetDerived:
    def test_numeric_target_classes_follow_boundaries(self):
        schema = make_schema(cat_col("x"), num_col("y", role="target", bins=3))
        data = "x,y\n" + "".join(f"a,{v}\n" for v in range(1, 10))
        dataset = load_text(data, schema)
        assert dataset.boundaries["y"] == (3, 6)
        assert dataset.classes == ("1", "2", "3")

    def test_declared_target_classes_keep_order(self):
        schema = make_schema(
            cat_col("x"), cat_col("y", role="target", categories=("high", "low"))
        )
        dataset = load_text("x,y\na,low\nb,high\n", schema)
        assert dataset.classes == ("high", "low")

    def test_observed_target_classes_sorted(self):
        schema = make_schema(cat_col("x"), cat_col("y", role="target"))
        dataset = load_text("x,y\na,zz\nb,aa\n", schema)
        assert dataset.classes == ("aa", "zz")

    def test_predictor_specs(self):
        schema = make_schema(
            num_col("n", bins=2),
            cat_col("c", categories=("q", "p")),
            cat_col("f", scale=Scale.FLOAT),
            num_col("g", bins=2, scale=Scale.FLOAT),
            cat_col("y", role="target"),
        )
        data = "n,c,f,g,y\n1,p,zz,5,u\n2,q,,,v\n3,p,aa,7,u\n4,q,aa,6,v\n"
        dataset = load_text(data, schema)
        by_name = {spec.name: spec for spec in dataset.predictor_specs()}
        assert by_name["n"].categories == ("1", "2")
        # A numeric float predictor's categories are its bins, then the floating one.
        assert dataset.labels("g") == ["1", MISSING_LABEL, "2", "1"]
        assert by_name["g"].categories == ("1", "2", MISSING_LABEL)
        assert by_name["g"].float_category == MISSING_LABEL
        assert by_name["c"].categories == ("q", "p")
        assert by_name["f"].scale is Scale.FLOAT
        # Observed order is sorted, with the floating category appended.
        assert by_name["f"].categories == ("aa", "zz", MISSING_LABEL)
        assert by_name["f"].float_category == MISSING_LABEL

    def test_schema_echo_reproduces_records(self):
        schema = make_schema(
            num_col("n", bins=3),
            cat_col("c"),
            ColumnSpec(name="junk", role="ignored", kind="categorical"),
            num_col("g", bins=2, scale=Scale.FLOAT),
            num_col("y", role="target", bins=2),
        )
        data = "n,c,junk,g,y\n" + "".join(
            f"{v},k{v % 3},x,{'' if v % 4 == 0 else v},{v * 7 % 13}\n" for v in range(1, 21)
        )
        dataset = load_text(data, schema)
        echo = DatasetSchema.from_doc(dataset.schema_echo())
        again = load_text(data, echo)
        assert again.records == dataset.records
        assert again.classes == dataset.classes
        # Echoed numeric columns carry the realized cuts verbatim.
        assert again.boundaries == dataset.boundaries
        # A numeric float predictor's categories are its bins, then the floating one.
        assert again.predictor_specs() == dataset.predictor_specs()
        g = next(spec for spec in again.predictor_specs() if spec.name == "g")
        assert g.categories == ("1", "2", MISSING_LABEL)
        names = [col.name for col in echo.columns]
        assert "junk" not in names
