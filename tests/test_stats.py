"""Statistical kernels: frozen oracle values, closed forms, and properties."""

from __future__ import annotations

import math
import random
from collections import Counter
from decimal import Decimal, localcontext

import mpmath
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaidkit import (
    ChaidError,
    CodedRecords,
    ContingencyTable,
    Scale,
    bonferroni_multiplier,
    build_contingency,
    chi_square_p_value,
    chi_square_test,
)
from chaidkit.stats import ChiSquareResult, _chi_square_log_p_series, chi_square_log_p_value
from conftest import (
    chi2_upper_tail_by_integration,
    coded,
    partition_count_oracle,
    records_from_counts,
)

# Upper-tail probabilities computed independently at 50-digit precision and
# frozen here; the adaptive-integration oracle re-derives them at run time in
# the acceptance suite.
FROZEN_TAILS = [
    (0.001, 1, 0.97477287937),
    (3.841, 1, 0.050013683764),
    (20.0, 1, 7.74421643104e-6),
    (0.5, 3, 0.918891411655),
    (10.0, 4, 0.0404276819945),
    (50.0, 10, 2.6690834249e-7),
]


#: Statistics from 1e-6 to 1e5, six per decade.
STATISTIC_GRID = [10.0 ** (k / 6) for k in range(-36, 31)]

#: Statistics deep in the tail, where the linear p-value underflows; 1352 is
#: where the odd-df start value switches from math.erfc to its asymptotic series.
DEEP_STATISTICS = [1e3, 1351.0, 1352.0, 1353.0, 1500.0, 7.2e3, 1e4, 1e5, 3.3e5, 1e6]
DEEP_DFS = [1, 2, 3, 4, 5, 8, 15, 30, 31, 64, 99, 150, 199, 200]


def _even_df_log_tail(statistic: float, df: int) -> float:
    """log Q(df/2, x) for even df as -x + log sum_{i < df/2} x^i / i!, in 60-digit decimal."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(statistic) / 2
        term = total = Decimal(1)
        for i in range(1, df // 2):
            term = term * x / i
            total += term
        return float(total.ln() - x)


def _mpmath_log_tail(statistic: float, df: int) -> float:
    """log Q(df/2, x) from mpmath's regularised upper incomplete gamma at 40 digits."""
    with mpmath.workdps(40):
        half = mpmath.mpf(statistic) / 2
        return float(mpmath.log(mpmath.gammainc(mpmath.mpf(df) / 2, half, regularized=True)))


def _reference_log_tail(statistic: float, df: int) -> float:
    """``chi_square_log_p_value`` written out in one body, terms summed outward from the largest.

    The library ends this sum in a step its bounds' series shares; it must still return
    exactly these floats.
    """
    x = statistic / 2.0
    if x == 0.0:
        return 0.0
    log_q = -math.inf
    first, count = (df % 2) / 2.0, df // 2
    if count:
        peak = min(count - 1, max(0, math.floor(x - first)))
        below = above = 0.0
        for i in range(1, peak + 1):
            below = (1.0 + below) * (first + i) / x
        for i in range(count - 1, peak, -1):
            above = (1.0 + above) * x / (first + i)
        a = first + peak
        log_q = a * math.log(x) - x - math.lgamma(a + 1.0) + math.log1p(below + above)
    if df % 2:
        if x < 676.0:
            log_erfc = math.log(math.erfc(math.sqrt(x)))
        else:
            term = total = 1.0
            for n in range(1, 10):
                term *= -(2 * n - 1) / (2.0 * x)
                total += term
            log_erfc = -x - 0.5 * math.log(math.pi * x) + math.log(total)
        high, low = max(log_q, log_erfc), min(log_q, log_erfc)
        log_q = high + math.log1p(math.exp(low - high))
    return min(0.0, log_q)


def _table(rows):
    labels = [f"r{i}" for i in range(len(rows))]
    cols = [f"c{j}" for j in range(len(rows[0]))]
    return ContingencyTable.from_counts(labels, cols, rows)


@st.composite
def tables(draw, max_side=5, max_cell=30):
    n_rows = draw(st.integers(2, max_side))
    n_cols = draw(st.integers(2, max_side))
    rows = [
        [draw(st.integers(0, max_cell)) for _ in range(n_cols)]
        for _ in range(n_rows)
    ]
    for i, row in enumerate(rows):
        if sum(row) == 0:
            rows[i][draw(st.integers(0, n_cols - 1))] = draw(st.integers(1, max_cell))
    for j in range(n_cols):
        if sum(row[j] for row in rows) == 0:
            rows[draw(st.integers(0, n_rows - 1))][j] = draw(st.integers(1, max_cell))
    return _table(rows)


class TestContingency:
    def test_direct_counts(self):
        records = records_from_counts(
            {("A", "yes"): 1, ("A", "no"): 1, ("B", "yes"): 1, ("B", "no"): 1}
        )
        table = build_contingency(coded(records, "x"), "x")
        assert table.counts == ((1, 1), (1, 1))
        assert table.row_labels == (("A",), ("B",))
        assert table.col_labels == ("no", "yes")

    def test_diagonal_counts(self):
        records = records_from_counts(
            {("A", "yes"): 2, ("B", "no"): 2}
        )
        table = build_contingency(coded(records, "x"), "x")
        assert table.counts == ((0, 2), (2, 0))

    def test_partition_rows_sum_member_rows(self):
        counts = {
            ("A", "u"): 3, ("A", "v"): 1,
            ("B", "u"): 2, ("B", "v"): 5,
            ("C", "u"): 4, ("C", "v"): 4,
        }
        records = records_from_counts(counts)
        merged = build_contingency(coded(records, "x"), "x").merge_rows([("A", "B"), ("C",)])
        plain = build_contingency(coded(records, "x"), "x")
        for j in range(2):
            assert merged.counts[0][j] == plain.counts[0][j] + plain.counts[1][j]
            assert merged.counts[1][j] == plain.counts[2][j]

    def test_empty_node(self):
        with pytest.raises(ChaidError, match="empty node"):
            build_contingency(coded([], "x"), "x")

    @pytest.mark.parametrize(
        "columns, message",
        [
            ({"x": ["a"]}, "record 0 is missing the target column 'y'"),
            ({"y": ["u"]}, "record 0 is missing column 'x'"),
        ],
    )
    def test_encode_refuses_a_missing_column(self, columns, message):
        with pytest.raises(ChaidError, match=message):
            CodedRecords.encode(columns, "y", {"x": None})

    def test_value_outside_partition(self):
        records = records_from_counts({("A", "u"): 1, ("D", "u"): 1})
        with pytest.raises(ChaidError, match="value outside partition"):
            build_contingency(coded(records, "x"), "x").merge_rows([("A", "B")])

    def test_partition_rows_refuses_a_value_outside_partition(self):
        # 'd' comes first in row order, 'c' first in category order.
        columns = {"x": ["d", "a", "b", "c", "b"], "y": ["u", "v", "u", "u", "v"]}
        node = CodedRecords.encode(columns, "y", {"x": ["a", "b", "c", "d", "e"]})
        groups = [("a",), ("b",)]
        with pytest.raises(ChaidError) as merged:
            build_contingency(node, "x").merge_rows(groups)
        with pytest.raises(ChaidError) as parted:
            node.partition_rows("x", groups)
        assert str(parted.value) == str(merged.value) == "value outside partition: 'c'"
        # A category the node does not hold ('e', and below the root 'c' and 'd') may be left out.
        assert node.partition_rows("x", [("a", "c"), ("b", "d")]) == [[1, 3], [0, 2, 4]]
        assert node.at([4, 1, 2]).partition_rows("x", groups) == [[1], [4, 2]]

    def test_merged_row_spanning_two_groups(self):
        table = ContingencyTable.from_counts([("a", "b"), ("c",)], ["u", "v"], [[3, 1], [1, 3]])
        with pytest.raises(ChaidError, match=r"row \('a', 'b'\) spans two partition groups"):
            table.merge_rows([("a",), ("b", "c")])

    def test_undeclared_class_with_explicit_order(self):
        records = records_from_counts({("A", "u"): 1})
        with pytest.raises(ChaidError, match="not in declared class order"):
            coded(records, "x", class_order=["v", "w"])

    @pytest.mark.parametrize("counts", [[[1, 2, 3], [4, 5, 6]], [[1], [4]]])
    def test_ragged_rows_refused_when_dropping_empty_lines(self, counts):
        # The shape is checked before empty lines are dropped: a long row
        # would otherwise be cut to fit, and a short one indexed past its end.
        with pytest.raises(ChaidError, match="column dimension does not match"):
            ContingencyTable.from_counts(["a", "b"], ["u", "v"], counts)
        with pytest.raises(ChaidError, match="column dimension does not match"):
            ContingencyTable((("a",), ("b",)), ("u", "v"), tuple(map(tuple, counts)))

    @pytest.mark.parametrize(
        "row_labels, counts, message",
        [
            ((("a",),), ((1, 2), (3, 4)), "counts row dimension does not match row labels"),
            ((("a",), ("b",)), ((1, 2), (0, 0)), r"all-zero row \('b',\)"),
            ((("a",), ("b",)), ((1, 0), (2, 0)), "all-zero column 'v'"),
            ((("a",), ("b",)), ((1, -1), (2, 2)), "negative cell count"),
            ((("a",), ("b",)), ((1, -1), (2,)), "negative cell count"),
            ((("a",), ("b",)), ((0, 0), (2, 0)), r"all-zero row \('a',\)"),
        ],
        ids=["row_dimension", "zero_row", "zero_column", "negative", "sign_first", "row_first"],
    )
    def test_constructor_refusals(self, row_labels, counts, message):
        with pytest.raises(ChaidError, match=message):
            ContingencyTable(row_labels, ("u", "v"), counts)

    def test_a_table_of_zeros_is_refused_as_empty(self):
        # from_counts drops every line, and the constructor refuses what is left.
        with pytest.raises(ChaidError, match="empty table"):
            ContingencyTable.from_counts(["a", "b"], ["u", "v"], [[0, 0], [0, 0]])

    def test_zero_rows_and_columns_dropped(self):
        table = ContingencyTable.from_counts(
            ["a", "b", "c"], ["u", "v", "w"],
            [[1, 0, 2], [0, 0, 0], [3, 0, 4]],
        )
        assert table.row_labels == (("a",), ("c",))
        assert table.col_labels == ("u", "w")
        assert table.counts == ((1, 2), (3, 4))

    def test_negative_count_rejected(self):
        with pytest.raises(ChaidError):
            ContingencyTable.from_counts(["a", "b"], ["u", "v"], [[1, -1], [1, 1]])


def _grid_builder(node, predictor):
    """``build_contingency`` as a zero grid over every category and class, then ``from_counts``."""
    if not node.rows:
        raise ChaidError("empty node")
    n_classes = len(node.classes)
    cats = node.categories[predictor]
    grid = [[0] * n_classes for _ in cats]
    for key, count in Counter(map(node.keys[predictor].__getitem__, node.rows)).items():
        grid[key // n_classes][key % n_classes] = count
    return ContingencyTable.from_counts(cats, node.classes, grid)


@st.composite
def coded_nodes(draw):
    """A node of a coded root whose declared categories and classes are not all observed.

    The node is the root itself, the root's rows as a list, one row, or
    any rows in any order.
    """
    classes = [f"k{i}" for i in range(draw(st.integers(1, 4)))]
    universes = {name: [f"{name}{i}" for i in range(draw(st.integers(1, 5)))] for name in "xz"}
    n = draw(st.integers(1, 40))
    columns = {
        name: draw(st.lists(st.sampled_from(cats), min_size=n, max_size=n))
        for name, cats in universes.items()
    }
    columns["y"] = draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))
    root = CodedRecords.encode(columns, "y", universes, class_order=classes)
    kind = draw(st.sampled_from(["root", "root as a list", "one row", "some rows"]))
    if kind == "root":
        return root
    if kind == "root as a list":
        return root.at(list(root.rows))
    if kind == "one row":
        return root.at([draw(st.integers(0, n - 1))])
    return root.at(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)))


class TestDirectTables:
    @given(coded_nodes())
    @settings(max_examples=200, deadline=None)
    def test_equal_to_the_zero_grid_builder(self, node):
        for name in ("x", "z"):
            table = build_contingency(node, name)
            assert table == _grid_builder(node, name)
            assert sum(map(sum, table.counts)) == len(node.rows)

    def test_empty_node(self):
        root = CodedRecords.encode({"x": ["a", "b"], "y": ["u", "v"]}, "y", {"x": None})
        for node in (root.at([]), root.at(range(0)), coded([], "x")):
            with pytest.raises(ChaidError, match="empty node"):
                build_contingency(node, "x")


class TestPearson:
    def test_uniform_table_is_zero(self):
        result = chi_square_test(_table([[10, 10], [10, 10]]))
        assert result.statistic == 0.0
        assert result.degrees_of_freedom == 1

    def test_diagonal_closed_form(self):
        result = chi_square_test(_table([[10, 0], [0, 10]]))
        assert result.statistic == 20.0
        assert result.degrees_of_freedom == 1

    def test_two_by_two_closed_form(self):
        # N (ad - bc)^2 / (r1 r2 c1 c2) for [[20, 5], [10, 15]]
        result = chi_square_test(_table([[20, 5], [10, 15]]))
        want = 50 * (20 * 15 - 5 * 10) ** 2 / (25 * 25 * 30 * 20)
        assert result.statistic == pytest.approx(want, abs=1e-9)

    def test_degenerate_table(self):
        single_row = ContingencyTable.from_counts(["a"], ["u", "v"], [[1, 2]])
        with pytest.raises(ChaidError, match="degenerate table"):
            chi_square_test(single_row)

    @given(tables())
    @settings(max_examples=150, deadline=None)
    def test_permutation_invariance(self, table):
        base = chi_square_test(table)
        rng = random.Random(hash(table.counts) & 0xFFFF)
        row_order = list(range(table.n_rows))
        col_order = list(range(table.n_cols))
        rng.shuffle(row_order)
        rng.shuffle(col_order)
        permuted = ContingencyTable.from_counts(
            [table.row_labels[i] for i in row_order],
            [table.col_labels[j] for j in col_order],
            [[table.counts[i][j] for j in col_order] for i in row_order],
        )
        other = chi_square_test(permuted)
        assert other.degrees_of_freedom == base.degrees_of_freedom
        assert other.statistic == base.statistic

    @given(tables(max_side=4, max_cell=20), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_scaling_power_of_two_is_exact(self, table, log_k):
        k = 2 ** log_k
        scaled = _table([[cell * k for cell in row] for row in table.counts])
        base = chi_square_test(table)
        big = chi_square_test(scaled)
        assert big.statistic == k * base.statistic
        assert big.degrees_of_freedom == base.degrees_of_freedom

    @given(tables(max_side=4, max_cell=20), st.integers(2, 30))
    @settings(max_examples=150, deadline=None)
    def test_scaling_general_integer(self, table, k):
        scaled = _table([[cell * k for cell in row] for row in table.counts])
        base = chi_square_test(table)
        big = chi_square_test(scaled)
        assert big.degrees_of_freedom == base.degrees_of_freedom
        assert big.statistic == pytest.approx(k * base.statistic, rel=1e-12, abs=1e-12)


class TestTailProbability:
    @pytest.mark.parametrize("statistic,df,want", FROZEN_TAILS)
    def test_frozen_values(self, statistic, df, want):
        assert chi_square_p_value(statistic, df) == pytest.approx(want, abs=1e-10)

    def test_zero_statistic(self):
        assert chi_square_p_value(0.0, 3) == 1.0

    def test_matches_integration_oracle_spot(self):
        for statistic in (0.3, 2.7, 9.2, 33.0):
            for df in (1, 4, 9):
                want = chi2_upper_tail_by_integration(statistic, df)
                assert chi_square_p_value(statistic, df) == pytest.approx(
                    want, abs=1e-10
                )

    def test_invalid_inputs(self):
        with pytest.raises(ChaidError, match="invalid test input"):
            chi_square_p_value(-0.5, 2)
        with pytest.raises(ChaidError, match="invalid test input"):
            chi_square_p_value(1.0, 0)

    @pytest.mark.parametrize("df", [2.5, 0.5])
    def test_non_integer_df_rejected(self, df):
        with pytest.raises(ChaidError, match="invalid test input"):
            chi_square_p_value(3.0, df)
        with pytest.raises(ChaidError, match="invalid test input"):
            chi_square_log_p_value(3.0, df)

    @pytest.mark.parametrize("statistic", [math.nan, math.inf])
    def test_non_finite_statistic_rejected(self, statistic):
        with pytest.raises(ChaidError, match="invalid test input"):
            chi_square_log_p_value(statistic, 3)

    def test_matches_scipy(self):
        worst = 0.0
        for df in range(1, 201):
            for statistic, want in zip(STATISTIC_GRID, scipy.stats.chi2.sf(STATISTIC_GRID, df)):
                if want >= 1e-300:
                    got = chi_square_p_value(statistic, df)
                    worst = max(worst, abs(got - want) / want)
        assert worst < 1e-12

    @pytest.mark.parametrize("df", DEEP_DFS)
    def test_log_tail_deep(self, df):
        oracle = _mpmath_log_tail if df % 2 else _even_df_log_tail
        for statistic in DEEP_STATISTICS:
            want = oracle(statistic, df)
            assert chi_square_log_p_value(statistic, df) == pytest.approx(want, rel=1e-14)
            assert chi_square_p_value(statistic, df) == pytest.approx(math.exp(want), rel=1e-10)

    @given(
        st.lists(
            st.floats(0.0, 150.0, allow_nan=False),
            min_size=2,
            max_size=8,
            unique=True,
        ),
        st.integers(1, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_strictly_decreasing_in_statistic(self, grid, df):
        grid.sort()
        values = [chi_square_p_value(s, df) for s in grid]
        for lo, hi in zip(values, values[1:]):
            assert hi < lo + 1e-12

    @given(
        st.one_of(
            st.floats(0.0, 10.0),
            st.floats(0.0, 200.0),
            st.floats(0.0, 1e4),
            st.integers(0, 10_000).map(float),
        ),
        st.integers(1, 9),
        st.integers(1, 30),
    )
    @example(1352.0, 1, 30)  # x = 676: the asymptotic erfc branch from here on
    @example(9999.5, 9, 30)
    @example(2.9, 7, 15)
    @settings(max_examples=400, deadline=None)
    def test_series_matches_each_single_tail(self, statistic, step, n):
        series = _chi_square_log_p_series(statistic, step, n)
        assert len(series) == n
        for m, got in enumerate(series, 1):
            assert got == chi_square_log_p_value(statistic, m * step), m * step

    @given(
        st.one_of(
            st.just(0.0),
            st.floats(0.0, 10.0),
            st.floats(0.0, 300.0),
            st.floats(1340.0, 1e4),
            st.floats(0.0, 1e6),
        ),
        st.integers(1, 60),
    )
    @example(1352.0, 1)  # x = 676: the asymptotic erfc branch from here on
    @example(1351.9, 60)
    @example(0.0, 2)
    @settings(max_examples=600, deadline=None)
    def test_single_tail_matches_its_reference_sum(self, statistic, df):
        assert chi_square_log_p_value(statistic, df) == _reference_log_tail(statistic, df)

    @pytest.mark.parametrize(
        "statistic, step, n", [(-0.5, 2, 3), (math.inf, 2, 3), (1.0, 0, 3), (1.0, 2, 0)]
    )
    def test_series_refusals(self, statistic, step, n):
        with pytest.raises(ChaidError, match="invalid test input"):
            _chi_square_log_p_series(statistic, step, n)

    def test_full_test_combines_parts(self):
        result = chi_square_test(_table([[20, 5], [10, 15]]))
        assert result.p_value == pytest.approx(
            chi_square_p_value(result.statistic, result.degrees_of_freedom)
        )
        assert result.log_p == pytest.approx(math.log(result.p_value))

    @pytest.mark.parametrize(
        "statistic, df, p_value, log_p, message",
        [
            (-1.0, 1, 1.0, 0.0, "negative chi-squared statistic"),
            (1.0, 0, 0.5, math.log(0.5), "degrees of freedom must be positive"),
            (1.0, 1, 1.5, 0.0, r"p-value outside \[0, 1\]"),
            (1.0, 1, 0.5, 0.1, "log p-value above 0"),
        ],
        ids=["negative_statistic", "zero_df", "p_above_one", "log_p_above_zero"],
    )
    def test_result_refusals(self, statistic, df, p_value, log_p, message):
        with pytest.raises(ChaidError, match=message):
            ChiSquareResult(statistic, df, p_value, log_p)

    def test_log_p_stays_finite_where_p_underflows(self):
        result = chi_square_test(_table([[9000, 1000], [1000, 9000]]))
        assert result.p_value == 0.0
        assert result.log_p == pytest.approx(
            chi_square_log_p_value(result.statistic, result.degrees_of_freedom)
        )
        assert -math.inf < result.log_p < -3000.0


def _stirling_table(n_max: int) -> list[list[int]]:
    table = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    table[0][0] = 1
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            table[n][k] = k * table[n - 1][k] + table[n - 1][k - 1]
    return table


class TestMultipliers:
    def test_monotonic_example(self):
        assert bonferroni_multiplier(Scale.MONOTONIC, 5, 3) == 6

    def test_free_example(self):
        assert bonferroni_multiplier(Scale.FREE, 4, 2) == 7

    def test_float_example(self):
        assert bonferroni_multiplier(Scale.FLOAT, 4, 2) == 5

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_no_merge_means_one(self, k):
        assert bonferroni_multiplier(Scale.MONOTONIC, k, k) == 1

    def test_matches_oracle_up_to_bound(self):
        for scale in Scale:
            for c in range(1, 9):
                for r in range(1, c + 1):
                    if scale is Scale.FLOAT and r < 2:
                        continue
                    assert bonferroni_multiplier(scale, c, r) == partition_count_oracle(scale, c, r), (scale, c, r)

    def test_exact_integers_up_to_32(self):
        stirling = _stirling_table(32)
        for c in range(1, 33):
            for r in range(1, c + 1):
                free = bonferroni_multiplier(Scale.FREE, c, r)
                assert free == stirling[c][r], (c, r)
                assert isinstance(free, int)
                mono = bonferroni_multiplier(Scale.MONOTONIC, c, r)
                assert mono == math.comb(c - 1, r - 1)
                if c >= 2 and r >= 2:
                    flt = bonferroni_multiplier(Scale.FLOAT, c, r)
                    assert flt == math.comb(c - 2, r - 2) + r * math.comb(c - 2, r - 1)

    @given(st.integers(1, 20), st.integers(1, 20))
    @settings(max_examples=100, deadline=None)
    def test_at_least_one(self, c, r):
        if r > c:
            c, r = r, c
        for scale in Scale:
            if scale is Scale.FLOAT and (c < 2 or r < 2):
                continue
            assert bonferroni_multiplier(scale, c, r) >= 1

    def test_invalid_arity(self):
        with pytest.raises(ChaidError, match="invalid merge arity"):
            bonferroni_multiplier(Scale.FREE, 3, 4)
        with pytest.raises(ChaidError, match="invalid merge arity"):
            bonferroni_multiplier(Scale.FREE, 3, 0)

    def test_float_underdetermined(self):
        with pytest.raises(ChaidError, match="float scale underdetermined"):
            bonferroni_multiplier(Scale.FLOAT, 3, 1)
        with pytest.raises(ChaidError, match="float scale underdetermined"):
            partition_count_oracle(Scale.FLOAT, 3, 1)


class TestPartitionOracle:
    def test_monotonic_enumeration(self):
        assert partition_count_oracle(Scale.MONOTONIC, 5, 3) == 6

    def test_free_enumeration(self):
        assert partition_count_oracle(Scale.FREE, 4, 2) == 7

    def test_single_category(self):
        assert partition_count_oracle(Scale.MONOTONIC, 1, 1) == 1

    def test_bound(self):
        with pytest.raises(ChaidError, match="oracle bound exceeded"):
            partition_count_oracle(Scale.FREE, 11, 2)

    def test_bell_number_row(self):
        # Set partitions of 6 elements into any number of blocks: Bell(6).
        assert sum(
            partition_count_oracle(Scale.FREE, 6, r) for r in range(1, 7)
        ) == 203
