"""Category merging, split scoring, and stop rules."""

from __future__ import annotations

import math
import random

import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import chaidkit.core
from chaidkit import (
    ChaidError,
    ContingencyTable,
    GrowthParams,
    PredictorSpec,
    Scale,
    best_split,
    build_contingency,
    chi_square_test,
    evaluate_predictor,
    merge_categories,
)
from chaidkit.core import CategoryPartition, SplitCandidate, StopReason, should_stop
from conftest import (
    coded,
    merge_by_recomputing,
    multi_records_from_counts,
    partition_count_oracle,
    records_from_counts,
)


def spec(categories, scale=Scale.FREE, name="x", float_category=None):
    return PredictorSpec(name, scale, tuple(categories), float_category)


def counted(records):
    """The node's per-category table, as the merge loop receives it."""
    return build_contingency(coded(records, "x"), "x")


def scipy_p(rows):
    _, p, _, _ = scipy.stats.chi2_contingency(rows, correction=False)
    return p


@pytest.mark.parametrize(
    "categories, scale, float_category, message",
    [
        (("a", "b", "a"), Scale.FREE, None, "predictor 'x' has duplicate categories"),
        (("a", "b"), Scale.FLOAT, None, "float-scale predictor 'x' must name its floating category"),
        (("a", "b"), Scale.FLOAT, "z", "floating category 'z' is not a category of 'x'"),
    ],
    ids=["duplicate_categories", "float_without_floating_category", "floating_not_a_category"],
)
def test_predictor_spec_refusals(categories, scale, float_category, message):
    with pytest.raises(ChaidError, match=message):
        spec(categories, scale, float_category=float_category)


class TestMergeCategories:
    def test_two_categories_unchanged(self):
        records = records_from_counts(
            {("A", "u"): 5, ("A", "v"): 5, ("B", "u"): 9, ("B", "v"): 1}
        )
        partition = merge_categories(counted(records), spec("AB"), 0.05)
        assert partition.groups == (("A",), ("B",))

    def test_free_scale_merges_lookalikes(self):
        counts = {
            ("A", "u"): 30, ("A", "v"): 30,
            ("B", "u"): 30, ("B", "v"): 30,
            ("C", "u"): 55, ("C", "v"): 5,
        }
        # Sanity on the construction: A vs B carries no signal, both differ
        # sharply from C.
        assert scipy_p([[30, 30], [30, 30]]) > 0.9
        assert scipy_p([[30, 30], [55, 5]]) < 1e-6
        records = records_from_counts(counts)
        partition = merge_categories(counted(records), spec("ABC"), 0.05)
        assert partition.groups == (("A", "B"), ("C",))

    def test_pairs_that_tie_in_theory_tie_in_floats(self):
        # A and B are mirror images against C, so A-C and B-C have the same
        # p-value and the earlier pair, A-C, merges.
        table = ContingencyTable.from_counts("ABC", ["u", "v"], [[2, 1], [1, 2], [1, 1]])
        assert merge_categories(table, spec("ABC"), 0.05).groups == (("A", "C"), ("B",))

    def test_monotonic_all_distinct_stays_apart(self):
        counts = {
            ("c1", "u"): 50, ("c1", "v"): 5,
            ("c2", "u"): 30, ("c2", "v"): 25,
            ("c3", "u"): 10, ("c3", "v"): 45,
            ("c4", "u"): 2, ("c4", "v"): 55,
        }
        for lo, hi in [("c1", "c2"), ("c2", "c3"), ("c3", "c4")]:
            rows = [
                [counts[(lo, "u")], counts[(lo, "v")]],
                [counts[(hi, "u")], counts[(hi, "v")]],
            ]
            assert scipy_p(rows) < 0.05
        records = records_from_counts(counts)
        partition = merge_categories(
            counted(records), spec(["c1", "c2", "c3", "c4"], Scale.MONOTONIC), 0.05
        )
        assert partition.groups == (("c1",), ("c2",), ("c3",), ("c4",))

    def test_monotonic_respects_adjacency(self):
        # c1 and c3 are statistically identical but separated by a different
        # c2, so an ordered predictor cannot unite them while a nominal one
        # can.
        counts = {
            ("c1", "u"): 40, ("c1", "v"): 10,
            ("c2", "u"): 5, ("c2", "v"): 45,
            ("c3", "u"): 40, ("c3", "v"): 10,
        }
        records = records_from_counts(counts)
        ordered = merge_categories(
            counted(records), spec(["c1", "c2", "c3"], Scale.MONOTONIC), 0.05
        )
        assert ordered.groups == (("c1",), ("c2",), ("c3",))
        free = merge_categories(counted(records), spec(["c1", "c2", "c3"]), 0.05)
        assert free.groups == (("c1", "c3"), ("c2",))

    def test_float_category_may_jump(self):
        counts = {
            ("o1", "u"): 40, ("o1", "v"): 10,
            ("o2", "u"): 40, ("o2", "v"): 10,
            ("o3", "u"): 5, ("o3", "v"): 45,
            ("<missing>", "u"): 40, ("<missing>", "v"): 10,
        }
        records = records_from_counts(counts)
        cats = ["o1", "o2", "o3", "<missing>"]
        floated = merge_categories(
            counted(records), spec(cats, Scale.FLOAT, float_category="<missing>"), 0.05
        )
        assert floated.groups == (("o1", "o2", "<missing>"), ("o3",))
        ordered = merge_categories(counted(records), spec(cats, Scale.MONOTONIC), 0.05)
        assert ordered.groups == (("o1", "o2"), ("o3",), ("<missing>",))

    def test_unobserved_float_category_behaves_monotonic(self):
        counts = {
            ("o1", "u"): 40, ("o1", "v"): 10,
            ("o2", "u"): 5, ("o2", "v"): 45,
            ("o3", "u"): 40, ("o3", "v"): 10,
        }
        records = records_from_counts(counts)
        partition = merge_categories(
            counted(records),
            spec(["o1", "o2", "o3", "<missing>"], Scale.FLOAT, float_category="<missing>"),
            0.05,
        )
        # Without the floating category on site, o1 and o3 stay apart.
        assert partition.groups == (("o1",), ("o2",), ("o3",))

    def test_empty_node(self):
        with pytest.raises(ChaidError, match="empty node"):
            evaluate_predictor(coded([], "x"), spec("AB"), 0.05)

    def test_undeclared_category(self):
        records = records_from_counts({("Z", "u"): 1})
        with pytest.raises(ChaidError, match="not declared"):
            merge_categories(counted(records), spec("AB"), 0.05)
        # A row that is already a merged group is refused, not unpacked.
        table = ContingencyTable.from_counts(
            [("a", "b"), ("c",), ("d",)], ["u", "v"], [[3, 1], [1, 3], [2, 2]]
        )
        with pytest.raises(ChaidError, match=r"row \('a', 'b'\) is not a single category of 'x'"):
            merge_categories(table, spec("abcd"), 0.05)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_merge_invariants(self, data):
        n_cats = data.draw(st.integers(1, 6))
        cats = [f"k{i}" for i in range(n_cats)]
        scale = data.draw(st.sampled_from([Scale.MONOTONIC, Scale.FREE, Scale.FLOAT]))
        float_cat = cats[-1] if scale is Scale.FLOAT else None
        counts = {}
        observed = set()
        for cat in cats:
            for cls in ("u", "v"):
                n = data.draw(st.integers(0, 25))
                if n:
                    counts[(cat, cls)] = n
                    observed.add(cat)
        if not counts:
            counts[("k0", "u")] = 1
            observed.add("k0")
        records = records_from_counts(counts)
        partition = merge_categories(
            counted(records), spec(cats, scale, float_category=float_cat), 0.05
        )
        # Covers exactly the observed categories, disjointly.
        assert set(partition.all_categories()) == observed
        flat = [c for g in partition.groups for c in g]
        assert len(flat) == len(set(flat))
        # Group count never exceeds the observed category count.
        assert len(partition.groups) <= len(observed)
        # Ordered scales keep every non-floating group contiguous in the
        # observed order.
        if scale in (Scale.MONOTONIC, Scale.FLOAT):
            order = [c for c in cats if c in observed and c != float_cat]
            rank = {c: i for i, c in enumerate(order)}
            for group in partition.groups:
                ranks = sorted(rank[c] for c in group if c != float_cat)
                if ranks:
                    assert ranks == list(range(ranks[0], ranks[-1] + 1))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_partition_as_recomputing_every_pair(self, data):
        # Sparse tables (mostly empty cells) make pairs tie at p = 1.0, where
        # the earliest pair must still win once p-values come from the cache.
        n_cats = data.draw(st.integers(2, 9))
        cats = data.draw(st.permutations([f"k{i}" for i in range(n_cats)]))
        scale = data.draw(st.sampled_from([Scale.MONOTONIC, Scale.FREE, Scale.FLOAT]))
        float_cat = data.draw(st.sampled_from(cats)) if scale is Scale.FLOAT else None
        classes = ["u", "v", "w"][: data.draw(st.integers(2, 3))]
        cell = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 60))
        grid = [[data.draw(cell) for _ in classes] for _ in cats]
        if not any(map(any, grid)):
            grid[0][0] = 1
        table = ContingencyTable.from_counts(cats, classes, grid)
        predictor = spec(cats, scale, float_category=float_cat)
        alpha_merge = data.draw(st.sampled_from([0.05, 0.5, 0.95]))
        partition = merge_categories(table, predictor, alpha_merge)
        assert partition.groups == merge_by_recomputing(table, predictor, alpha_merge)


class TestEvaluatePredictor:
    def test_single_observed_category_absent(self):
        records = records_from_counts({("A", "u"): 5, ("A", "v"): 5})
        assert evaluate_predictor(coded(records, "x"), spec("AB"), 0.05) is None

    def test_single_class_absent(self):
        records = records_from_counts({("A", "u"): 5, ("B", "u"): 5})
        assert evaluate_predictor(coded(records, "x"), spec("AB"), 0.05) is None

    def test_a_table_that_cannot_split_is_never_merged(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("merge_categories called")

        monkeypatch.setattr(chaidkit.core, "merge_categories", refuse)
        one_class = records_from_counts({("A", "u"): 5, ("B", "u"): 5})
        one_category = records_from_counts({("A", "u"): 5, ("A", "v"): 5})
        for records in (one_class, one_category):
            assert evaluate_predictor(coded(records, "x"), spec("AB"), 0.05) is None

    def test_multiplier_and_adjustment(self):
        counts = {
            ("c1", "u"): 40, ("c1", "v"): 10,
            ("c2", "u"): 40, ("c2", "v"): 10,
            ("c3", "u"): 25, ("c3", "v"): 25,
            ("c4", "u"): 5, ("c4", "v"): 45,
            ("c5", "u"): 5, ("c5", "v"): 45,
        }
        records = records_from_counts(counts)
        candidate = evaluate_predictor(
            coded(records, "x"), spec([f"c{i}" for i in range(1, 6)], Scale.MONOTONIC), 0.05
        )
        assert candidate is not None
        assert candidate.partition.groups == (("c1", "c2"), ("c3",), ("c4", "c5"))
        assert candidate.multiplier == 6
        assert candidate.multiplier == partition_count_oracle(Scale.MONOTONIC, 5, 3)
        merged_rows = [[80, 20], [25, 25], [10, 90]]
        assert candidate.raw_p == pytest.approx(scipy_p(merged_rows), rel=1e-9)
        assert candidate.adjusted_p == min(1.0, 6 * candidate.raw_p)
        assert candidate.group_sizes == (100, 50, 100)

    def test_adjusted_p_caps_at_one(self):
        rng = random.Random(5)
        counts = {}
        for cat in "ABCDE":
            base = rng.randint(18, 22)
            counts[(cat, "u")] = base
            counts[(cat, "v")] = 40 - base
        records = records_from_counts(counts)
        candidate = evaluate_predictor(coded(records, "x"), spec("ABCDE"), 0.5)
        assert candidate is not None
        assert candidate.adjusted_p == 1.0

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_split_table_equals_a_recount(self, data):
        # The split is tested on the node table's rows summed per merged
        # group; a fresh count of the records under the chosen partition
        # must give the identical test, bit for bit.
        n_cats = data.draw(st.integers(2, 6))
        cats = [f"k{i}" for i in range(n_cats)]
        scale = data.draw(st.sampled_from([Scale.MONOTONIC, Scale.FREE, Scale.FLOAT]))
        float_cat = cats[-1] if scale is Scale.FLOAT else None
        classes = ["u", "v", "w"]
        counts = {
            (cat, cls): n
            for cat in cats
            for cls in classes
            if (n := data.draw(st.integers(0, 30)))
        } or {("k0", "u"): 1}
        records = records_from_counts(counts)
        class_order = data.draw(st.sampled_from([classes, classes[::-1]]))
        alpha_merge = data.draw(st.sampled_from([0.05, 0.5]))
        candidate = evaluate_predictor(
            coded(records, "x", class_order=class_order),
            spec(cats, scale, float_category=float_cat),
            alpha_merge,
        )
        observed_cats = {cat for cat, _ in counts}
        observed_classes = {cls for _, cls in counts}
        if len(observed_cats) < 2 or len(observed_classes) < 2:
            assert candidate is None
            return
        assert candidate is not None
        recount = build_contingency(
            coded(records, "x", class_order=class_order), "x"
        ).merge_rows(candidate.partition.groups)
        reference = chi_square_test(recount)
        assert candidate.statistic == reference.statistic
        assert candidate.df == reference.degrees_of_freedom
        assert candidate.raw_p == reference.p_value
        assert candidate.group_sizes == tuple(recount.row_totals())


class TestBestSplit:
    def test_perfect_predictor_wins(self):
        counts = {}
        rng = random.Random(11)
        for _ in range(300):
            x = rng.choice("ab")
            noise = rng.choice("pqr")
            cls = "u" if x == "a" else "v"
            counts[(x, noise, cls)] = counts.get((x, noise, cls), 0) + 1
        records = multi_records_from_counts(counts, ["x", "z"])
        candidate = best_split(
            coded(records, "x", "z"),
            [spec("ab", name="x"), spec("pqr", name="z")],
            GrowthParams(),
        )
        assert candidate is not None
        assert candidate.predictor.name == "x"
        assert candidate.adjusted_p < 1e-12

    def test_tie_breaks_to_earlier_predictor(self):
        counts = {}
        for cat, cls, n in [("a", "u", 30), ("a", "v", 5), ("b", "u", 5), ("b", "v", 30)]:
            counts[(cat, cat, cls)] = n
        records = multi_records_from_counts(counts, ["x1", "x2"])
        candidate = best_split(
            coded(records, "x1", "x2"),
            [spec("ab", name="x1"), spec("ab", name="x2")],
            GrowthParams(),
        )
        assert candidate is not None
        assert candidate.predictor.name == "x1"

    def test_ranks_by_log_p_where_linear_p_underflows(self):
        # 20k binary rows: "a" agrees with the target on 65% of them
        # (chi-squared 1800), "b" on 80% (chi-squared 7200). Both linear
        # p-values underflow to 0.0, yet "b" is the stronger split.
        counts = {}
        for cls, other in (("u", "v"), ("v", "u")):
            counts[(cls, other, cls)] = 2000
            counts[(cls, cls, cls)] = 4500
            counts[(other, cls, cls)] = 3500
        records = multi_records_from_counts(counts, ["a", "b"])
        predictors = [spec("uv", name="a"), spec("uv", name="b")]
        weaker = evaluate_predictor(coded(records, "a"), predictors[0], 0.05)
        candidate = best_split(coded(records, "a", "b"), predictors, GrowthParams())
        assert weaker.statistic == pytest.approx(1800.0)
        assert candidate.statistic == pytest.approx(7200.0)
        assert weaker.raw_p == candidate.raw_p == 0.0
        assert candidate.log_raw_p < weaker.log_raw_p < -800.0
        assert candidate.predictor.name == "b"

    def test_insignificant_everything_is_absent(self):
        counts = {
            ("a", "u"): 25, ("a", "v"): 25,
            ("b", "u"): 24, ("b", "v"): 26,
        }
        records = records_from_counts(counts)
        assert best_split(coded(records, "x"), [spec("ab")], GrowthParams()) is None


def _candidate(group_sizes=(50, 50), raw_p=0.001, multiplier=2):
    groups = tuple((f"g{i}",) for i in range(len(group_sizes)))
    return SplitCandidate(
        predictor=spec([f"g{i}" for i in range(len(group_sizes))]),
        partition=CategoryPartition(groups),
        statistic=10.0,
        df=1,
        raw_p=raw_p,
        log_raw_p=math.log(raw_p),
        multiplier=multiplier,
        adjusted_p=min(1.0, multiplier * raw_p),
        group_sizes=tuple(group_sizes),
    )


class TestShouldStop:
    def test_absent_candidate_wins_over_everything(self):
        reason = should_stop(9, 3, None, GrowthParams())
        assert reason is StopReason.NO_SIGNIFICANT_PREDICTOR

    def test_max_depth(self):
        reason = should_stop(3, 1000, _candidate(), GrowthParams(max_depth=3))
        assert reason is StopReason.MAX_DEPTH

    def test_min_parent(self):
        reason = should_stop(1, 9, _candidate(), GrowthParams())
        assert reason is StopReason.MIN_PARENT

    def test_small_child(self):
        reason = should_stop(1, 100, _candidate(group_sizes=(96, 4)), GrowthParams())
        assert reason is StopReason.WOULD_CREATE_SMALL_CHILD

    def test_no_rule_fires(self):
        assert should_stop(0, 1000, _candidate(), GrowthParams()) is None

    def test_depth_precedence_over_size(self):
        reason = should_stop(5, 3, _candidate(), GrowthParams(max_depth=3))
        assert reason is StopReason.MAX_DEPTH


class TestParams:
    def test_defaults(self):
        params = GrowthParams()
        assert params.alpha_merge == 0.05
        assert params.alpha_split == 0.05
        assert params.max_depth == 3
        assert params.min_parent_size == 10
        assert params.min_child_size == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha_merge": 0.0},
            {"alpha_split": 1.0},
            {"max_depth": 0},
            {"min_parent_size": 9},
            {"min_child_size": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ChaidError):
            GrowthParams(**kwargs)
