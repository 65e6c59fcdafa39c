import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspahp import (
    CriteriaHierarchy,
    DecisionMatrix,
    Dimension,
    InputError,
    SubDimension,
    SweepSpec,
    WeightVector,
    default_s_grid,
    enumerate_group_subsets,
    evaluate,
    evaluate_with_group_s,
    flatten_hierarchy,
    normalize_minmax,
    rank_from_scores,
    run_sweep,
)

from conftest import make_matrix, random_matrix, random_weights, two_level_hierarchy


def weighted_sums(utilities):
    """Have ``evaluate`` take ``utilities`` as its weighted sums.

    A matrix product adds its terms to +0.0, so it cannot give -0.0: the
    penalty step is replaced by a stand-in that returns the given vector
    as the base utilities and zero penalties.
    """
    return mock.patch(
        "sspahp.evaluation._penalties",
        side_effect=lambda matrix, weights, mask: (np.array(utilities), np.zeros((len(mask), len(utilities)))),
    )


def brute_force_utilities(values, objectives, weights, s):
    """Spreadsheet-style recompute: scale, deviation-penalize, weighted sum."""
    values = np.asarray(values, dtype=float)
    m, n = values.shape
    utilities = []
    columns = []
    for j in range(n):
        col = values[:, j]
        lo, hi = col.min(), col.max()
        if hi == lo:
            scaled = [0.5] * m
        elif objectives[j] == "max":
            scaled = [(v - lo) / (hi - lo) for v in col]
        else:
            scaled = [(hi - v) / (hi - lo) for v in col]
        mean = sum(scaled) / m
        columns.append([r - abs(mean - r) * s[j] for r in scaled])
    for i in range(m):
        utilities.append(sum(columns[j][i] * weights[j] for j in range(n)))
    return np.array(utilities)


class TestCoefficientChecks:
    """``evaluate`` refuses coefficients outside [0, 1], nested or non-finite, and broadcasts a scalar."""

    @staticmethod
    def evaluate_on_two_criteria(s):
        m = make_matrix([[1.0, 2.0], [3.0, 1.0], [2.0, 5.0]])
        return evaluate(m, WeightVector(np.array([0.5, 0.5]), m.criterion_ids), s)

    @pytest.mark.parametrize("s", [[0.5, 1.2], [-0.1, 0.5], 1.5, -0.1])
    def test_rejects_out_of_range(self, s):
        with pytest.raises(InputError, match=r"^every coefficient must lie in \[0, 1\]$"):
            self.evaluate_on_two_criteria(s)

    @pytest.mark.parametrize(
        "s, message",
        [
            ([[0.5], [0.5]], "coefficients must form a flat vector"),
            ([0.5, np.nan], "coefficients must be finite"),
            ([np.inf, 0.5], "coefficients must be finite"),
            (np.nan, "coefficients must be finite"),
        ],
    )
    def test_rejects_a_nested_or_non_finite_vector(self, s, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            self.evaluate_on_two_criteria(np.array(s))

    def test_a_scalar_applies_to_every_criterion(self):
        assert self.evaluate_on_two_criteria(0.4) == self.evaluate_on_two_criteria(np.full(2, 0.4))


class TestEvaluateReduction:
    def test_full_reduction_on_spread_column(self):
        m = make_matrix([[2.0], [4.0], [6.0]])
        w = WeightVector(np.array([1.0]), m.criterion_ids)
        assert np.allclose(evaluate(m, w, 1.0).utilities, [-0.5, 0.5, 0.5])

    def test_zero_coefficient_passes_through(self):
        m = make_matrix([[2.0, 9.0], [4.0, 3.0], [6.0, 1.0]])
        w = WeightVector(np.array([0.3, 0.7]), m.criterion_ids)
        assert np.array_equal(evaluate(m, w, 0.0).utilities, normalize_minmax(m).values @ w.weights)

    def test_constant_column_is_untouched_at_any_strength(self):
        m = make_matrix([[3.0], [3.0], [3.0]])
        w = WeightVector(np.array([1.0]), m.criterion_ids)
        for s in (0.0, 0.3, 1.0):
            assert np.array_equal(evaluate(m, w, s).utilities, normalize_minmax(m).values[:, 0])

    def test_coefficient_arity_checked(self):
        m = make_matrix([[1.0, 2.0], [3.0, 4.0]])
        w = WeightVector(np.array([0.5, 0.5]), m.criterion_ids)
        with pytest.raises(InputError, match="^3 coefficients for 2 criteria$"):
            evaluate(m, w, np.array([0.1, 0.2, 0.3]))


class TestEvaluate:
    def test_two_alternative_single_criterion(self):
        m = make_matrix([[1.0], [2.0]])
        w = WeightVector(np.array([1.0]), m.criterion_ids)
        result = evaluate(m, w, 0.0)
        assert np.allclose(result.utilities, [0.0, 1.0])
        assert result.ranking.tolist() == [2, 1]

    def test_matches_brute_force_oracle_on_hand_instance(self):
        values = [[1.0, 10.0], [2.0, 5.0], [3.0, 1.0]]
        m = make_matrix(values)
        w = WeightVector(np.array([0.5, 0.5]), m.criterion_ids)
        result = evaluate(m, w, np.array([1.0, 1.0]))
        expected = brute_force_utilities(values, ["max", "max"], [0.5, 0.5], [1.0, 1.0])
        assert np.max(np.abs(result.utilities - expected)) < 1e-12
        expected_order = np.argsort(-expected, kind="stable")
        expected_ranks = np.empty(3, dtype=int)
        expected_ranks[expected_order] = [1, 2, 3]
        assert result.ranking.tolist() == expected_ranks.tolist()

    def test_matches_brute_force_oracle_on_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            m = random_matrix(rng, max_m=8, max_n=6)
            w = random_weights(rng, m)
            s = rng.uniform(0.0, 1.0, size=m.n)
            result = evaluate(m, w, s)
            expected = brute_force_utilities(
                m.values, list(m.objectives), w.weights, s
            )
            assert np.max(np.abs(result.utilities - expected)) < 1e-12

    def test_zero_coefficient_equals_plain_weighted_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = random_matrix(rng, max_m=10, max_n=8)
            w = random_weights(rng, m)
            result = evaluate(m, w, 0.0)
            plain = normalize_minmax(m).values @ w.weights
            assert np.max(np.abs(result.utilities - plain)) < 1e-12

    def test_utilities_fall_as_any_coefficient_grows(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = random_matrix(rng, max_m=10, max_n=8)
            w = random_weights(rng, m)
            s_low = rng.uniform(0.0, 0.5, size=m.n)
            s_high = np.minimum(s_low + rng.uniform(0.0, 0.5, size=m.n), 1.0)
            u_low = evaluate(m, w, s_low).utilities
            u_high = evaluate(m, w, s_high).utilities
            assert (u_high <= u_low + 1e-12).all()

    def test_utility_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_matrix(rng, max_m=10, max_n=8)
            w = random_weights(rng, m)
            u0 = evaluate(m, w, 0.0).utilities
            assert u0.min() >= -1e-12 and u0.max() <= 1.0 + 1e-12
            u1 = evaluate(m, w, rng.uniform(0, 1, size=m.n)).utilities
            assert u1.min() >= -1.0 - 1e-12 and u1.max() <= 1.0 + 1e-12

    def test_duplicate_rows_share_utility_and_ties_are_flagged(self):
        m = make_matrix([[1.0, 4.0], [1.0, 4.0], [2.0, 1.0]])
        w = WeightVector(np.array([0.6, 0.4]), m.criterion_ids)
        result = evaluate(m, w, 0.5)
        assert result.utilities[0] == pytest.approx(result.utilities[1], abs=1e-12)
        assert result.has_ties
        # earlier row takes the better rank
        assert result.ranking[0] < result.ranking[1]
        # utilities equal only as -0.0 and 0.0 tie as well
        with weighted_sums([-0.0, 0.0, 0.5]):
            assert evaluate(m, w, 0.5).has_ties

    def test_no_ties_flag_on_distinct_utilities(self):
        m = make_matrix([[1.0], [2.0], [5.0]])
        w = WeightVector(np.array([1.0]), m.criterion_ids)
        assert not evaluate(m, w, 0.0).has_ties
        # adjacent floats are distinct
        with weighted_sums([0.5, np.nextafter(0.5, 1.0), 0.25]):
            assert not evaluate(m, w, 0.0).has_ties

    @given(st.lists(st.sampled_from([-0.0, 0.0, 0.25, 0.5, float(np.nextafter(0.5, 1.0))]), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_ties_flag_matches_a_sort_of_the_utilities(self, utilities):
        m = make_matrix([[float(i)] for i in range(len(utilities))])
        w = WeightVector(np.array([1.0]), m.criterion_ids)
        ordered = sorted(utilities)
        with weighted_sums(utilities):
            assert evaluate(m, w, 0.0).has_ties == any(a == b for a, b in zip(ordered, ordered[1:]))

    def test_permuting_rows_permutes_utilities(self):
        rng = np.random.default_rng(9)
        m = random_matrix(rng, m=7, n=5)
        w = random_weights(rng, m)
        s = rng.uniform(0, 1, size=m.n)
        base = evaluate(m, w, s)
        perm = rng.permutation(7)
        shuffled = make_matrix(m.values[perm], m.objectives)
        permuted = evaluate(shuffled, w, s)
        assert np.max(np.abs(permuted.utilities - base.utilities[perm])) < 1e-12

    def test_weights_align_by_id_not_position(self):
        m = make_matrix([[1.0, 10.0], [2.0, 5.0]])
        straight = WeightVector(np.array([0.7, 0.3]), ("c1", "c2"))
        reversed_ids = WeightVector(np.array([0.3, 0.7]), ("c2", "c1"))
        assert np.allclose(
            evaluate(m, straight).utilities, evaluate(m, reversed_ids).utilities
        )

    def test_foreign_weight_ids_are_rejected(self):
        m = make_matrix([[1.0, 2.0], [3.0, 4.0]])
        foreign = WeightVector(np.array([0.5, 0.5]), ("x1", "x2"))
        with pytest.raises(InputError, match="do not match"):
            evaluate(m, foreign)

    def test_rank_of_lookup(self):
        m = make_matrix([[1.0], [2.0]])
        w = WeightVector(np.array([1.0]), m.criterion_ids)
        result = evaluate(m, w)
        assert result.rank_of("a2") == 1
        with pytest.raises(InputError, match="alternative 'zz' not in the result"):
            result.rank_of("zz")

    def test_ranking_is_the_integer_input_order_ranking_of_the_utilities(self):
        m = make_matrix([[1.0, 2.0], [2.0, 1.0], [1.0, 2.0], [3.0, 3.0]])
        w = WeightVector(np.array([0.5, 0.5]), m.criterion_ids)
        result = evaluate(m, w)
        assert result.ranking.dtype == int
        assert result.ranking.tolist() == rank_from_scores(result.utilities).tolist() == [2, 3, 4, 1]


class TestEvaluateWithGroupS:
    def test_empty_selection_equals_zero_coefficient(self):
        h = two_level_hierarchy()
        rng = np.random.default_rng(15)
        values = rng.uniform(1, 9, size=(5, 6))
        m = make_matrix(values, crit_prefix="C")
        w = WeightVector(np.full(6, 1 / 6), m.criterion_ids)
        selected = evaluate_with_group_s(m, w, h, (), 0.9)
        baseline = evaluate(m, w, 0.0)
        assert np.array_equal(selected.utilities, baseline.utilities)
        assert np.array_equal(selected.ranking, baseline.ranking)

    def test_all_groups_at_zero_strength_equals_baseline(self):
        h = two_level_hierarchy()
        rng = np.random.default_rng(16)
        m = make_matrix(rng.uniform(1, 9, size=(5, 6)), crit_prefix="C")
        w = WeightVector(np.full(6, 1 / 6), m.criterion_ids)
        selected = evaluate_with_group_s(m, w, h, ("G1", "G2", "G3"), 0.0)
        baseline = evaluate(m, w, 0.0)
        assert np.array_equal(selected.utilities, baseline.utilities)

    def test_selection_matches_manual_coefficient_vector(self):
        h = two_level_hierarchy()
        rng = np.random.default_rng(17)
        m = make_matrix(rng.uniform(1, 9, size=(5, 6)), crit_prefix="C")
        w = WeightVector(np.full(6, 1 / 6), m.criterion_ids)
        selected = evaluate_with_group_s(m, w, h, ("G3",), 0.7)
        cell = run_sweep(SweepSpec(matrix=m, hierarchy=h, weights=w, s_grid=[0.7], group_subsets=[("G3",)]))
        assert np.array_equal(selected.utilities, cell.utilities[0, 0])
        assert np.array_equal(selected.ranking, cell.ranks[0, 0])
        manual = evaluate(m, w, np.array([0, 0, 0, 0.7, 0.7, 0.7]))
        assert np.array_equal(selected.utilities, manual.utilities)
        assert np.array_equal(selected.ranking, manual.ranking)

    def test_unknown_group_is_rejected(self):
        h = two_level_hierarchy()
        m = make_matrix(np.ones((2, 6)) * [[1], [2]], crit_prefix="C")
        w = WeightVector(np.full(6, 1 / 6), m.criterion_ids)
        with pytest.raises(InputError, match="unknown group"):
            evaluate_with_group_s(m, w, h, ("G7",), 0.5)

    def test_groups_given_as_a_string_are_rejected(self):
        h = two_level_hierarchy()
        m = make_matrix(np.ones((2, 6)) * [[1], [2]], crit_prefix="C")
        w = WeightVector(np.full(6, 1 / 6), m.criterion_ids)
        with pytest.raises(InputError, match=r"^groups 'G1' is a string, not a tuple of dimension ids$"):
            evaluate_with_group_s(m, w, h, "G1", 0.5)

    def test_a_repeated_group_is_rejected(self):
        h = two_level_hierarchy()
        m = make_matrix(np.ones((2, 6)) * [[1], [2]], crit_prefix="C")
        w = WeightVector(np.full(6, 1 / 6), m.criterion_ids)
        with pytest.raises(InputError, match=r"^group id\(s\) repeated: G3, G1$"):
            evaluate_with_group_s(m, w, h, ("G3", "G1", "G3", "G1", "G3"), 0.5)

    def test_out_of_range_strength_is_rejected(self):
        h = two_level_hierarchy()
        m = make_matrix(np.ones((2, 6)) * [[1], [2]], crit_prefix="C")
        w = WeightVector(np.full(6, 1 / 6), m.criterion_ids)
        with pytest.raises(InputError, match=r"\[0, 1\]"):
            evaluate_with_group_s(m, w, h, ("G1",), 1.4)


@pytest.mark.parametrize(
    "entry, value",
    [(entry, value) for entry in ("evaluate", "evaluate_with_group_s") for value in ("abc", "0.5", None, 0.5j, [[0.5], 0.5])]
    + [("evaluate_with_group_s", [0.5])],
)
def test_a_coefficient_that_is_not_a_real_number_is_refused_by_name(entry, value):
    h = two_level_hierarchy()
    m = make_matrix(np.ones((2, 6)) * [[1], [2]], crit_prefix="C")
    w = WeightVector(np.full(6, 1 / 6), m.criterion_ids)
    with pytest.raises(InputError, match=re.escape(repr(value))):
        if entry == "evaluate":
            evaluate(m, w, value)
        else:
            evaluate_with_group_s(m, w, h, ("G1",), value)


@st.composite
def grouped_problem(draw):
    """Integer cells 1..5 under k = 1..4 dimensions, the criteria in a column order that is not dimension-major."""
    k = draw(st.integers(min_value=1, max_value=4))
    per_dim = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=k, max_size=k))
    n = sum(per_dim)
    names = ["C1", "C2", "C9", "C10", "X1", "X2", "B7", "A3", "Z5", "C12", "D4", "E8"]
    ids = draw(st.lists(st.sampled_from(names), min_size=n, max_size=n, unique=True))
    dims, start = [], 0
    for d, count in enumerate(per_dim):
        dims.append(Dimension(f"G{d + 1}", f"g{d + 1}", (SubDimension("sd", tuple(ids[start : start + count])),)))
        start += count
    objectives = draw(st.lists(st.sampled_from(["max", "min"]), min_size=n, max_size=n))
    h = CriteriaHierarchy(tuple(dims), dict(zip(ids, objectives)))
    columns = [ids[i] for i in draw(st.permutations(range(n)))]
    m = draw(st.integers(min_value=2, max_value=12))
    row = st.lists(st.integers(min_value=1, max_value=5), min_size=n, max_size=n)
    values = np.array(draw(st.lists(row, min_size=m, max_size=m)), dtype=float)
    matrix = DecisionMatrix([f"a{i + 1}" for i in range(m)], columns, values, [h.objectives[c] for c in columns])
    raw = np.array(draw(st.lists(st.integers(min_value=1, max_value=4), min_size=n, max_size=n)), dtype=float)
    weights = WeightVector(raw / raw.sum(), columns)
    subset = draw(st.sampled_from(enumerate_group_subsets(h.dimension_ids())))
    return matrix, weights, h, subset, draw(st.sampled_from(default_s_grid().tolist()))


@given(grouped_problem())
@settings(max_examples=150, deadline=None)
def test_evaluate_group_evaluation_and_sweep_cell_agree_bit_for_bit(problem):
    matrix, weights, h, subset, c = problem
    dim_of = dict(flatten_hierarchy(h))
    mask = np.array([dim_of[col] in subset for col in matrix.criterion_ids])
    cell = run_sweep(SweepSpec(matrix=matrix, hierarchy=h, weights=weights, s_grid=[c], group_subsets=[subset]))
    for result in (evaluate(matrix, weights, c * mask), evaluate_with_group_s(matrix, weights, h, subset, c)):
        assert np.array_equal(result.utilities, cell.utilities[0, 0])
        assert np.array_equal(result.ranking, cell.ranks[0, 0])
    every = run_sweep(
        SweepSpec(matrix=matrix, hierarchy=h, weights=weights, s_grid=[c], group_subsets=[h.dimension_ids()])
    )
    uniform = evaluate(matrix, weights, c)
    assert np.array_equal(uniform.utilities, every.utilities[0, 0])
    assert np.array_equal(uniform.ranking, every.ranks[0, 0])


@st.composite
def levelled_problem(draw):
    """Integer cells 1..5 and coefficients drawn from a few levels, so that criteria share levels."""
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=2, max_value=10))
    row = st.lists(st.integers(min_value=1, max_value=5), min_size=n, max_size=n)
    matrix = make_matrix(np.array(draw(st.lists(row, min_size=m, max_size=m)), dtype=float))
    raw = np.array(draw(st.lists(st.integers(min_value=1, max_value=4), min_size=n, max_size=n)), dtype=float)
    weights = WeightVector(raw / raw.sum(), matrix.criterion_ids)
    levels = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    return matrix, weights, np.array(draw(st.lists(levels, min_size=n, max_size=n))), draw(levels)


@given(levelled_problem())
@settings(max_examples=150, deadline=None)
def test_shared_coefficient_levels_match_the_oracle_and_a_scalar_its_full_vector(problem):
    matrix, weights, s, c = problem
    expected = brute_force_utilities(matrix.values, list(matrix.objectives), weights.weights, s)
    assert np.max(np.abs(evaluate(matrix, weights, s).utilities - expected)) < 1e-12
    scalar, full = evaluate(matrix, weights, c), evaluate(matrix, weights, np.full(matrix.n, c))
    assert np.array_equal(scalar.utilities, full.utilities)
    assert np.array_equal(scalar.ranking, full.ranking)
    assert scalar.has_ties == full.has_ties
