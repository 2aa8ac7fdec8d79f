"""Category merging, split scoring, and stop rules."""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
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
from chaidkit.core import CategoryPartition, SplitCandidate, StopReason, _adjusted_p, should_stop
from chaidkit.stats import bonferroni_multiplier, chi_square_p_value, pearson_statistic
from conftest import (
    _set_partitions,
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

    @given(
        st.lists(st.lists(st.integers(0, 60), min_size=3, max_size=3), min_size=1, max_size=8),
        st.floats(0.001, 0.999),
    )
    @example([[40, 10, 0], [5, 45, 0], [40, 10, 0]], 0.05)
    @settings(max_examples=200, deadline=None)
    def test_unobserved_float_category_merges_as_monotonic(self, grid, alpha_merge):
        # A floating category with no row at the node has no group to pair
        # with, so merging needs no demotion to the monotonic scale.
        assume(any(map(any, grid)))
        cats = [f"o{i}" for i in range(len(grid))] + ["<missing>"]
        table = ContingencyTable.from_counts(cats, ["u", "v", "w"], [*grid, [0, 0, 0]])
        floated = spec(cats, Scale.FLOAT, float_category="<missing>")
        ordered = spec(cats, Scale.MONOTONIC)
        partition = merge_categories(table, floated, alpha_merge)
        assert partition == merge_categories(table, ordered, alpha_merge)

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
        # Up to 30 categories run the group spans through many merges.
        n_cats = data.draw(st.integers(2, 30))
        cats = data.draw(st.permutations([f"k{i}" for i in range(n_cats)]))
        scale = data.draw(st.sampled_from([Scale.MONOTONIC, Scale.FREE, Scale.FLOAT]))
        float_cat = data.draw(st.sampled_from(cats)) if scale is Scale.FLOAT else None
        classes = ["u", "v", "w"][: data.draw(st.integers(2, 3))]
        # Cells up to 500 and alpha_merge = 0.001 make pairs that provably
        # cannot merge common, so the pair test's stand-in p-value is met often.
        cell = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 60), st.integers(0, 500))
        grid = [[data.draw(cell) for _ in classes] for _ in cats]
        if not any(map(any, grid)):
            grid[0][0] = 1
        table = ContingencyTable.from_counts(cats, classes, grid)
        predictor = spec(cats, scale, float_category=float_cat)
        alpha_merge = data.draw(st.sampled_from([0.001, 0.05, 0.5, 0.95]))
        with mock.patch.object(
            chaidkit.core, "_pair_p_value", wraps=chaidkit.core._pair_p_value
        ) as pair_test:
            partition = merge_categories(table, predictor, alpha_merge)
        groups, tested = merge_by_recomputing(table, predictor, alpha_merge)
        assert partition.groups == groups
        # One test per distinct pair of groups the oracle tests over all its rounds.
        assert pair_test.call_count == len(tested)


@st.composite
def row_pairs(draw):
    """Two count rows over one to eight classes, some columns empty in both, some rows empty.

    The second row is drawn on its own, or is the first with each cell
    nudged, a pair much alike, or rotated, a pair that may lie far apart.
    """
    n_cols = draw(st.integers(1, 8))
    cell = st.one_of(st.just(0), st.integers(0, 5), st.integers(0, 60), st.integers(0, 500))
    row_a = [draw(cell) for _ in range(n_cols)]
    shift = draw(st.one_of(st.none(), st.integers(0, n_cols - 1)))
    if shift is None:
        row_b = [draw(cell) for _ in range(n_cols)]
    else:
        row_b = [x + draw(st.integers(0, 3)) for x in row_a[shift:] + row_a[:shift]]
    for j in draw(st.sets(st.integers(0, n_cols - 1), max_size=n_cols // 3)):
        row_a[j] = row_b[j] = 0
    return row_a, row_b


def _pearson_pair(row_a, row_b):
    """``pearson_statistic`` and df of the pair with its empty columns dropped, or None."""
    columns = [(a, b) for a, b in zip(row_a, row_b) if a + b]
    if len(columns) < 2 or not sum(a for a, _ in columns) or not sum(b for _, b in columns):
        return None
    return pearson_statistic(list(zip(*columns))), len(columns) - 1


def _provably_below(x, k, alpha_merge):
    """Chernoff's bound on the tail at statistic x on k df, in logs, lies below log alpha_merge."""
    return x > k and (k * math.log(x / k) + k - x) / 2 < math.log(alpha_merge) - 1e-9


class TestPairTest:
    @given(row_pairs(), st.sampled_from([1e-6, 0.05, 0.5, 0.95]))
    @settings(max_examples=400, deadline=None)
    def test_the_statistic_is_pearsons_bit_for_bit(self, rows, alpha_merge):
        with mock.patch.object(
            chaidkit.core, "chi_square_p_value", wraps=chaidkit.core.chi_square_p_value
        ) as tail:
            p = chaidkit.core._pair_p_value(*rows, alpha_merge)
        reference = _pearson_pair(*rows)
        if reference is None:
            assert p == 1.0 and not tail.called
        elif _provably_below(*reference, alpha_merge):
            # Decided at Pearson's statistic: the stand-in, with no tail taken.
            assert p == 0.0 and not tail.called
        else:
            (statistic, df), _ = tail.call_args
            assert (statistic.hex(), df) == (reference[0].hex(), reference[1])
            assert p == chi_square_p_value(*reference)

    @given(row_pairs(), st.sampled_from([1e-6, 0.05, 0.5, 0.95]))
    @settings(max_examples=400, deadline=None)
    def test_the_stand_in_is_given_only_where_the_pair_cannot_merge(self, rows, alpha_merge):
        p = chaidkit.core._pair_p_value(*rows, alpha_merge)
        reference = _pearson_pair(*rows)
        if p == 0.0:
            assert chi_square_p_value(*reference) <= alpha_merge

    def test_a_pair_far_apart_takes_no_tail(self):
        with mock.patch.object(
            chaidkit.core, "chi_square_p_value", wraps=chaidkit.core.chi_square_p_value
        ) as tail:
            assert chaidkit.core._pair_p_value([100, 0, 0], [0, 100, 0], 0.05) == 0.0
            assert not tail.called
            p = chaidkit.core._pair_p_value([10, 12, 0], [11, 10, 0], 0.05)
        assert p == chi_square_p_value(pearson_statistic([[10, 12], [11, 10]]), 1) > 0.05
        assert tail.call_count == 1


class TestLogMultipliers:
    @pytest.mark.parametrize("scale", list(Scale))
    def test_equal_to_the_log_of_the_exact_multiplier(self, scale):
        for c in range(1, 61):
            assert chaidkit.core._log_multipliers(scale, c) == tuple(
                math.log(bonferroni_multiplier(scale, c, r)) for r in range(2, c + 1)
            )


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

    def test_multiplier_beyond_the_float_range(self):
        # 220 free categories merge to 50 groups, and S(220, 50) has 1027 bits.
        cats = [f"c{i:03d}" for i in range(220)]
        records = [{"x": c, "y": f"k{i % 50}"} for i, c in enumerate(cats) for _ in range(4)]
        candidate = evaluate_predictor(coded(records, "x"), spec(cats), 0.05)
        assert candidate is not None
        assert len(candidate.partition.groups) == 50
        assert candidate.multiplier.bit_length() == 1027
        log_adjusted = math.log(candidate.multiplier) + candidate.log_raw_p
        assert candidate.adjusted_p == math.exp(min(0.0, log_adjusted))

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


@pytest.fixture
def merged(monkeypatch):
    """The names of the predictors ``best_split`` merges, in call order."""
    names = []
    original = chaidkit.core.merge_categories

    def recording(table, predictor, alpha_merge):
        names.append(predictor.name)
        return original(table, predictor, alpha_merge)

    monkeypatch.setattr(chaidkit.core, "merge_categories", recording)
    return names


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


    def test_a_predictor_independent_of_the_target_is_never_merged(self, merged):
        # x decides the class; every z category holds the two classes
        # equally, so z's statistic is 0 and no merge of it can pass.
        counts = {(z, x, cls): 10 for x, cls in (("a", "u"), ("b", "v")) for z in "pqrs"}
        records = multi_records_from_counts(counts, ["z", "x"])
        predictors = [spec("pqrs", scale, name="z") for scale in (Scale.FREE, Scale.MONOTONIC)]
        predictors.append(spec("ab", name="x"))
        candidate = best_split(coded(records, "z", "x"), predictors, GrowthParams())
        assert candidate is not None
        assert candidate.predictor.name == "x"
        assert merged == ["x"]


def _key(candidate):
    """The log adjusted p-value ``best_split`` ranks candidates by."""
    return min(0.0, math.log(candidate.multiplier) + candidate.log_raw_p)


def _bound(table, predictor, capped=False):
    """The least log adjusted p-value ``best_split`` bounds a predictor by, capped or not."""
    statistic = pearson_statistic(table.counts)
    if capped:  # the caps below J groups, the table's X² from J on, each with a tail of its own
        caps = chaidkit.core._statistic_caps(table, statistic)
        statistic = caps + [statistic] * (table.n_rows - 1 - len(caps))
    return min(chaidkit.core._log_p_bounds(table, predictor, statistic))


def _reference_best_split(node, predictors, params):
    """``best_split`` as documented, scoring every predictor with ``evaluate_predictor``."""
    scored = [evaluate_predictor(node, p, params.alpha_merge) for p in predictors]
    best = min(
        (c for c in scored if c is not None),
        key=lambda c: (_key(c), c.log_raw_p),
        default=None,
    )
    return None if best is None or best.adjusted_p > params.alpha_split else best


@st.composite
def leaning_nodes(draw):
    """A coded node over one to four predictors of any scale, each leaning on the class.

    Each predictor leans by its own amount, from none to fully. A float
    predictor's floating category is its last one, observed or not;
    classes number two to six, so the caps' Jacobi rotations run on
    matrices up to 5 x 5. Sometimes one column is repeated under a
    second name, ``<name>_twin``, at any schema position, so two predictors
    tie exactly.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    classes = "uvwrst"[: draw(st.integers(2, 6))]
    predictors, emitted, leans = [], [], []
    for i in range(draw(st.integers(1, 4))):
        cats = [f"k{j}" for j in range(draw(st.integers(2, 6)))]
        scale = draw(st.sampled_from(list(Scale)))
        float_cat = cats[-1] if scale is Scale.FLOAT else None
        predictors.append(spec(cats, scale, name=f"x{i}", float_category=float_cat))
        emitted.append(cats[:-1] if float_cat and draw(st.booleans()) else cats)
        leans.append(draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0])))
    records = []
    for _ in range(draw(st.integers(8, 150))):
        code = rng.randrange(len(classes))
        record = {"y": classes[code]}
        for predictor, cats, lean in zip(predictors, emitted, leans):
            leaning = rng.random() < lean
            record[predictor.name] = cats[code % len(cats)] if leaning else rng.choice(cats)
        records.append(record)
    if draw(st.booleans()):
        source = draw(st.sampled_from(predictors))
        twin = dataclasses.replace(source, name=f"{source.name}_twin")
        for record in records:
            record[twin.name] = record[source.name]
        predictors.insert(draw(st.integers(0, len(predictors))), twin)
    return coded(records, *(p.name for p in predictors)), predictors


class TestSplitBound:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_bound_is_at_most_the_scored_key(self, data):
        n_cats = data.draw(st.integers(2, 7))
        cats = [f"k{i}" for i in range(n_cats)]
        scale = data.draw(st.sampled_from(list(Scale)))
        float_cat = data.draw(st.sampled_from(cats)) if scale is Scale.FLOAT else None
        classes = ["u", "v", "w"][: data.draw(st.integers(2, 3))]
        # Rows that are multiples of one base row are proportional: merging
        # them leaves the statistic as it was, so bound and key can tie.
        base = [data.draw(st.integers(1, 30)) for _ in classes]
        cell = st.one_of(st.just(0), st.integers(0, 5), st.integers(0, 60))
        grid = []
        for cat in cats:
            if cat == float_cat and data.draw(st.booleans()):
                grid.append([0] * len(classes))  # the floating category unobserved
            elif data.draw(st.booleans()):
                multiple = data.draw(st.integers(1, 3))
                grid.append([multiple * b for b in base])
            else:
                grid.append([data.draw(cell) for _ in classes])
        counts = {
            (cat, cls): n for cat, row in zip(cats, grid) for cls, n in zip(classes, row) if n
        } or {("k0", "u"): 1}
        node = coded(records_from_counts(counts), "x")
        predictor = spec(cats, scale, float_category=float_cat)
        alpha_merge = data.draw(st.sampled_from([0.05, 0.5, 0.95]))
        candidate = evaluate_predictor(node, predictor, alpha_merge)
        table = build_contingency(node, "x")
        if candidate is None:
            assert table.n_rows < 2 or table.n_cols < 2
            return
        bound = _bound(table, predictor)
        assert bound <= 0.0
        assert bound <= _key(candidate) + 1e-12
        assert _bound(table, predictor, capped=True) <= _key(candidate) + 1e-12

    def test_a_merge_that_keeps_the_statistic_ties_the_bound(self):
        # A and B are proportional, so they merge at p = 1 and the merged
        # table has the node table's statistic: the bound's r = 2 term is
        # the candidate's key.
        table = ContingencyTable.from_counts("ABC", ["u", "v"], [[10, 20], [20, 40], [45, 5]])
        counts = {(cat, cls): n for (cat,), row in zip(table.row_labels, table.counts)
                  for cls, n in zip("uv", row)}
        candidate = evaluate_predictor(coded(records_from_counts(counts), "x"), spec("ABC"), 0.05)
        assert candidate.partition.groups == (("A", "B"), ("C",))
        assert chi_square_test(table).statistic == pytest.approx(candidate.statistic, rel=1e-15)
        bound = _bound(table, spec("ABC"))
        assert bound == pytest.approx(_key(candidate), abs=1e-12)
        assert bound <= _key(candidate) + 1e-12

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_no_merge_exceeds_its_cap(self, data):
        n_rows, n_cols = data.draw(st.integers(3, 7)), data.draw(st.integers(3, 5))
        # As above, zero cells and rows proportional to one base row are drawn.
        base = [data.draw(st.integers(1, 30)) for _ in range(n_cols)]
        cell = st.one_of(st.just(0), st.integers(0, 5), st.integers(0, 60))
        grid = []
        for _ in range(n_rows):
            if data.draw(st.booleans()):
                multiple = data.draw(st.integers(1, 3))
                grid.append([multiple * b for b in base])
            else:
                grid.append([data.draw(cell) for _ in range(n_cols)])
        assume(any(map(any, grid)))
        table = ContingencyTable.from_counts(
            [f"k{i}" for i in range(n_rows)], [f"c{j}" for j in range(n_cols)], grid
        )
        assume(table.n_rows >= 3 and table.n_cols >= 3)
        statistic = pearson_statistic(table.counts)
        caps = chaidkit.core._statistic_caps(table, statistic)
        assert len(caps) == table.n_cols - 2
        for r in range(2, table.n_rows + 1):
            # From r = J on the cap is X², which no merge exceeds beyond rounding;
            # a cap below X² carries a slack of 1e-9 X² for that rounding.
            cap = caps[r - 2] if r - 2 < len(caps) else statistic
            for blocks in _set_partitions(table.n_rows, r):
                merged = [[sum(table.counts[i][j] for i in block) for j in range(table.n_cols)]
                          for block in blocks]
                assert pearson_statistic(merged) <= cap + 1e-12 * statistic

    def test_a_sparse_predictor_that_passes_the_bound_is_never_merged(self, merged):
        # 18 categories of three records, two of one class and one of
        # another, each ordered pair of classes three times. The table's
        # X² is 36 on 34 df, which the r = 2 bound at that X² would pass,
        # but its two principal inertias are equal, so two groups keep at
        # most half of it, and no merge of z can reach alpha_split.
        pairs = [(a, b) for a in "uvw" for b in "uvw" if a != b] * 3
        records = [
            {"z": f"k{i:02}", "y": cls} for i, (a, b) in enumerate(pairs) for cls in (a, a, b)
        ]
        node = coded(records, "z")
        table = build_contingency(node, "z")
        predictor = spec(sorted({record["z"] for record in records}), name="z")
        params = GrowthParams()
        assert pearson_statistic(table.counts) == pytest.approx(36.0)
        assert chaidkit.core._statistic_caps(table, 36.0) == [pytest.approx(18.0)]
        assert _bound(table, predictor) <= math.log(params.alpha_split)
        assert _bound(table, predictor, capped=True) > math.log(params.alpha_split) + 1e-9
        assert best_split(node, [predictor], params) is None
        assert merged == []
        assert evaluate_predictor(node, predictor, params.alpha_merge).adjusted_p > 0.05

    @given(leaning_nodes(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_pruning_changes_no_choice(self, nodes, data):
        node, predictors = nodes
        scored = [c for p in predictors if (c := evaluate_predictor(node, p, 0.05)) is not None]
        # alpha_split sits on, just either side of, or well away from a
        # candidate's adjusted p-value, kept strictly inside (0, 1).
        near = data.draw(st.sampled_from(scored)).adjusted_p if scored else 0.05
        factor = data.draw(st.sampled_from([1e-3, 0.5, 1 - 1e-12, 1.0, 1 + 1e-12, 2.0, 1e3]))
        alpha_split = min(max(near * factor, 5e-324), math.nextafter(1.0, 0.0))
        params = GrowthParams(alpha_split=alpha_split)
        chosen = best_split(node, predictors, params)
        assert chosen == _reference_best_split(node, predictors, params)
        if chosen is not None:
            # Of a column and its twin, which tie exactly, the earlier one wins.
            column = chosen.predictor.name.removesuffix("_twin")
            assert chosen.predictor.name == next(
                p.name for p in predictors if p.name.removesuffix("_twin") == column
            )

    def test_the_incumbent_prunes_predictors_that_cannot_beat_it(self, merged):
        # x decides the class; z0, z1 and z2 side with it in 6, 7 and 8 of
        # every 10 records of each class: significant, but far weaker.
        records = []
        for i in range(200):
            record = {"y": "uv"[i % 2], "x": "ab"[i % 2]}
            for k, share in enumerate((6, 7, 8)):
                record[f"z{k}"] = "pq"[i % 2 if (i // 2) % 10 < share else 1 - i % 2]
            records.append(record)
        predictors = [spec("pq", name=f"z{k}") for k in range(3)] + [spec("ab", name="x")]
        node = coded(records, *(p.name for p in predictors))
        params = GrowthParams()
        candidate = best_split(node, predictors, params)
        assert candidate.predictor.name == "x"
        assert merged == ["x"]
        for predictor in predictors[:3]:
            bound = _bound(build_contingency(node, predictor.name), predictor)
            assert _key(candidate) + 1e-9 < bound <= math.log(params.alpha_split)


def _candidate(group_sizes=(50, 50), raw_p=0.001, multiplier=2, adjusted_p=None):
    groups = tuple((f"g{i}",) for i in range(len(group_sizes)))
    return SplitCandidate(
        predictor=spec([f"g{i}" for i in range(len(group_sizes))]),
        partition=CategoryPartition(groups),
        statistic=10.0,
        df=1,
        raw_p=raw_p,
        log_raw_p=math.log(raw_p),
        multiplier=multiplier,
        adjusted_p=min(1.0, multiplier * raw_p) if adjusted_p is None else adjusted_p,
        group_sizes=tuple(group_sizes),
    )


@pytest.mark.parametrize(
    "candidate, message",
    [
        (lambda: _candidate(group_sizes=(100,)), "split candidate must have at least two groups"),
        (
            lambda: dataclasses.replace(_candidate(), group_sizes=(100,)),
            "group sizes do not match partition groups",
        ),
        (lambda: _candidate(multiplier=0), "multiplier must be at least 1"),
    ],
    ids=["one_group", "sizes_mismatch", "zero_multiplier"],
)
def test_split_candidate_refusals(candidate, message):
    with pytest.raises(ChaidError, match=message):
        candidate()


class TestAdjustedP:
    @given(st.integers(1, 2**53), st.floats(0.0, 1.0))
    def test_the_float_product_while_the_multiplier_is_an_exact_float(self, multiplier, raw_p):
        log_raw_p = math.log(raw_p) if raw_p else -800.0
        assert _adjusted_p(multiplier, raw_p, log_raw_p) == min(1.0, multiplier * raw_p)

    @given(st.integers(1, 2**1100), st.floats(0.0, 1.0, exclude_min=True))
    def test_the_exact_product_rounded_once(self, multiplier, raw_p):
        exact = float(min(1, Fraction(raw_p) * multiplier))
        assert _adjusted_p(multiplier, raw_p, math.log(raw_p)) == exact

    def test_exact_beyond_the_float_range(self):
        tiny = 2.0**-1074
        assert _adjusted_p(2**1030, tiny, math.log(tiny)) == 2.0**-44
        assert _adjusted_p(2**1030 + 1, tiny, math.log(tiny)) == 2.0**-44
        assert _adjusted_p(2**1100, tiny, math.log(tiny)) == 1.0

    def test_an_underflowed_raw_p_is_read_from_its_log(self):
        multiplier = 2**2000
        near = _adjusted_p(multiplier, 0.0, -math.log(multiplier) - 10.0)
        assert near == pytest.approx(math.exp(-10.0), rel=1e-9)
        assert _adjusted_p(multiplier, 0.0, -1000.0) == 1.0
        assert _adjusted_p(multiplier, 0.0, -5000.0) == 0.0

    def test_a_candidate_takes_a_multiplier_beyond_the_float_range(self):
        candidate = _candidate(raw_p=1e-300, multiplier=2**1100, adjusted_p=1.0)
        assert candidate.adjusted_p == 1.0
        with pytest.raises(ChaidError, match="adjusted p-value"):
            _candidate(raw_p=1e-300, multiplier=2**1100, adjusted_p=0.5)


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
