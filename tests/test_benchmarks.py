import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspahp import (
    InputError,
    NumericalError,
    WeightVector,
    codas,
    evaluate,
    mabac,
    promethee2,
    rank_from_scores,
    run_all,
    spotis,
    topsis,
)

from conftest import make_matrix, random_matrix, random_weights


def equal_weights(matrix):
    return WeightVector(np.full(matrix.n, 1.0 / matrix.n), matrix.criterion_ids)


def codas_oracle(values, objectives, weights, tau):
    """Plain-loop recompute of the assessment chain for small instances."""
    values = np.asarray(values, dtype=float)
    m, n = values.shape
    norm = np.empty_like(values)
    for j in range(n):
        col = values[:, j]
        if objectives[j] == "max":
            norm[:, j] = col / col.max()
        else:
            norm[:, j] = col.min() / col
    v = norm * np.asarray(weights)
    anti = v.min(axis=0)
    e = [math.sqrt(sum((v[i, j] - anti[j]) ** 2 for j in range(n))) for i in range(m)]
    t = [sum(abs(v[i, j] - anti[j]) for j in range(n)) for i in range(m)]
    scores = []
    for i in range(m):
        total = 0.0
        for k in range(m):
            de = e[i] - e[k]
            psi = 1.0 if abs(de) >= tau else 0.0
            total += de + psi * (t[i] - t[k])
        scores.append(total)
    return np.array(scores)


def codas_gate_product(matrix, weights, tau):
    """CODAS with the pairwise gate held as a float matrix and multiplied in."""
    x = matrix.values
    w = weights.aligned(matrix.criterion_ids)
    profit = np.array([obj == "max" for obj in matrix.objectives])
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.where(profit, x / x.max(axis=0), x.min(axis=0) / x)
    v = norm * w
    anti = v.min(axis=0)
    e = np.sqrt(((v - anti) ** 2).sum(axis=1))
    t = np.abs(v - anti).sum(axis=1)
    de = e[:, None] - e[None, :]
    dt = t[:, None] - t[None, :]
    gate = (np.abs(de) >= tau).astype(float)
    return (de + gate * dt).sum(axis=1)


def promethee2_oracle(matrix, weights):
    """Net flows from the full m x m x n table of pairwise criterion votes."""
    x = matrix.values
    w = weights.aligned(matrix.criterion_ids)
    profit = np.array([obj == "max" for obj in matrix.objectives])
    m = x.shape[0]
    diff = x[:, None, :] - x[None, :, :]
    better = np.where(profit, diff > 0, diff < 0)
    pi = better.astype(float) @ w
    return (pi.sum(axis=1) - pi.sum(axis=0)) / (m - 1)


def promethee2_lead_oracle(matrix, weights):
    """Net flows from per-column ``searchsorted`` counts of strictly lower and higher values."""
    x = matrix.values
    w = weights.aligned(matrix.criterion_ids)
    profit = np.array([obj == "max" for obj in matrix.objectives])
    m = x.shape[0]
    lead = np.column_stack([
        np.searchsorted(ordered, col, "left") + np.searchsorted(ordered, col, "right") - m
        for ordered, col in zip(np.sort(x, axis=0).T, x.T)
    ])
    return (np.where(profit, lead, -lead) @ w) / (m - 1)


class TestTopsis:
    def test_single_profit_criterion_orders_by_value(self):
        m = make_matrix([[1.0], [2.0], [3.0]])
        score = topsis(m, equal_weights(m))
        assert score.ranking.tolist() == [3, 2, 1]
        assert score.higher_better

    def test_alternative_at_the_ideal_point_has_closeness_one(self):
        # first row dominates on both directions, so it *is* the ideal point
        m = make_matrix([[9.0, 1.0], [4.0, 3.0], [2.0, 5.0]], objectives=("max", "min"))
        score = topsis(m, equal_weights(m))
        assert score.values[0] == pytest.approx(1.0)

    def test_closeness_stays_in_unit_interval(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            m = random_matrix(rng, max_m=9, max_n=6)
            score = topsis(m, random_weights(rng, m))
            assert score.values.min() >= 0.0
            assert score.values.max() <= 1.0

    def test_zero_norm_column_is_a_normalization_error(self):
        m = make_matrix([[0.0, 1.0], [0.0, 2.0]])
        with pytest.raises(NumericalError, match="zero-norm"):
            topsis(m, equal_weights(m))


class TestMabac:
    def test_identical_alternatives_score_zero(self):
        m = make_matrix([[2.0, 7.0], [2.0, 7.0], [2.0, 7.0]])
        score = mabac(m, equal_weights(m))
        assert np.allclose(score.values, 0.0, atol=1e-12)

    def test_two_by_one_hand_instance(self):
        # v = (r + 1) = [1, 2]; border = sqrt(2); scores v - border
        m = make_matrix([[1.0], [2.0]])
        score = mabac(m, WeightVector(np.array([1.0]), m.criterion_ids))
        assert score.values == pytest.approx([1 - math.sqrt(2), 2 - math.sqrt(2)])
        assert score.values[1] > 0 > score.values[0]
        assert score.ranking.tolist() == [2, 1]

    def test_scores_bounded_by_one_in_magnitude(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            m = random_matrix(rng, max_m=9, max_n=6)
            score = mabac(m, random_weights(rng, m))
            assert np.abs(score.values).max() <= 1.0 + 1e-12


class TestCodas:
    def test_anti_ideal_alternative_scores_lowest(self):
        m = make_matrix(
            [[1.0, 9.0], [3.0, 4.0], [6.0, 2.0]], objectives=("max", "min")
        )
        score = codas(m, equal_weights(m))
        assert score.values.argmin() == 0  # worst on both criteria

    def test_taxicab_separates_equal_euclidean_pair(self):
        # weighted normalized rows sit at distances (0.3, 0.4) and (0, 0.5)
        # from the anti-ideal: equal Euclidean 0.5 but taxicab 0.7 vs 0.5;
        # the clearly separated third row lets the taxicab comparisons decide
        m = make_matrix([[1.0, 0.8], [0.4, 1.0], [0.4, 0.0]])
        w = WeightVector(np.array([0.5, 0.5]), m.criterion_ids)
        score = codas(m, w, tau=0.02)
        assert score.values[0] > score.values[1]
        assert score.ranking.tolist()[:2] == [1, 2]

    def test_matches_oracle_on_hand_instance(self):
        values = [[7.0, 2.0], [6.0, 9.0], [4.0, 6.0]]
        m = make_matrix(values, objectives=("max", "min"))
        w = WeightVector(np.array([0.6, 0.4]), m.criterion_ids)
        got = codas(m, w, tau=0.02)
        expected = codas_oracle(values, ["max", "min"], [0.6, 0.4], 0.02)
        assert np.max(np.abs(got.values - expected)) < 1e-12

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            m = random_matrix(rng, max_m=8, max_n=5)
            w = random_weights(rng, m)
            got = codas(m, w)
            expected = codas_oracle(m.values, list(m.objectives), w.weights, 0.02)
            assert np.max(np.abs(got.values - expected)) < 1e-10

    def test_pair_exactly_tau_apart_counts_its_taxicab_term(self):
        # e = t = (0.75, 0.25, 0): rows 2 and 3 are exactly 0.25 apart, and
        # their taxicab difference joins the score only if the gate includes tau
        m = make_matrix([[1.0], [0.5], [0.25]])
        w = WeightVector(np.array([1.0]), m.criterion_ids)
        score = codas(m, w, tau=0.25)
        assert score.values.tolist() == [2.5, -0.5, -2.0]
        expected = codas_oracle(m.values, ["max"], [1.0], 0.25)
        assert np.array_equal(score.values, expected)
        # just above the boundary the pair's taxicab term drops out
        above = codas(m, w, tau=float(np.nextafter(0.25, 1.0)))
        assert above.values.tolist() == [2.5, -0.75, -1.75]

    def test_values_equal_the_gate_product_formula_bit_for_bit(self):
        rng = np.random.default_rng(61)
        for tau in (0.01, 0.02, 0.05, 0.2):
            for _ in range(10):
                m = random_matrix(rng, max_m=40, max_n=8)
                w = random_weights(rng, m)
                got = codas(m, w, tau=tau).values
                assert np.array_equal(got, codas_gate_product(m, w, tau))

    @pytest.mark.parametrize("m", [63, 64, 65, 129])
    def test_row_blocks_keep_the_gate_product_bit_for_bit(self, m, monkeypatch):
        # 320 cells give blocks of 5, 5, 4 and 2 rows, and each m ends in a partial block
        monkeypatch.setattr("sspahp.benchmarks._CODAS_CELLS", 320)
        rng = np.random.default_rng(m)
        for tau in (0.01, 0.05):
            matrix = random_matrix(rng, m=m, max_n=8)
            values = matrix.values.copy()
            values[-1] = values[0]  # a copied row across the block edge
            matrix = make_matrix(values, matrix.objectives)
            w = random_weights(rng, matrix)
            got = codas(matrix, w, tau=tau).values
            assert np.array_equal(got, codas_gate_product(matrix, w, tau))

    def test_non_positive_columns_are_rejected(self):
        m = make_matrix([[0.0, 1.0], [-1.0, 2.0]])
        with pytest.raises(NumericalError, match="positive"):
            codas(m, equal_weights(m))

    def test_bad_tau_is_rejected(self):
        m = make_matrix([[1.0], [2.0]])
        with pytest.raises(InputError, match="tau"):
            codas(m, equal_weights(m), tau=0.0)


class TestSpotis:
    def test_alternative_at_the_star_point_has_zero_preference(self):
        m = make_matrix([[9.0, 1.0], [4.0, 3.0]], objectives=("max", "min"))
        score = spotis(m, equal_weights(m))
        assert score.values[0] == pytest.approx(0.0)
        assert not score.higher_better

    def test_complements_zero_coefficient_utilities_on_data_bounds(self):
        rng = np.random.default_rng(54)
        for _ in range(30):
            m = random_matrix(rng, max_m=10, max_n=8)
            w = random_weights(rng, m)
            pref = spotis(m, w).values
            util = evaluate(m, w, 0.0).utilities
            assert np.max(np.abs(pref - (1.0 - util))) < 1e-9

    def test_preference_stays_in_unit_interval(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            m = random_matrix(rng, max_m=9, max_n=6)
            score = spotis(m, random_weights(rng, m))
            assert score.values.min() >= 0.0
            assert score.values.max() <= 1.0 + 1e-12

    def test_value_outside_bounds_is_rejected(self):
        m = make_matrix([[1.0], [5.0]])
        bounds = np.array([[2.0, 6.0]])
        with pytest.raises(InputError, match="outside the bounds"):
            spotis(m, equal_weights(m), bounds=bounds)

    def test_degenerate_bounds_are_rejected(self):
        m = make_matrix([[3.0], [3.0]])
        with pytest.raises(InputError, match="min < max"):
            spotis(m, equal_weights(m))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (2,), (4,)])
    def test_bounds_of_another_shape_are_rejected(self, shape):
        m = make_matrix([[1.0, 2.0], [3.0, 5.0]])
        message = f"bounds must be shaped (2, 2), got {shape}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            spotis(m, equal_weights(m), bounds=np.zeros(shape))

    def test_non_finite_bounds_name_their_criteria(self):
        m = make_matrix([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]])
        bounds = np.array([[0.0, 4.0], [np.nan, 5.0], [0.0, np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="^bounds must be finite; offending criteria: c2, c3$"):
                spotis(m, equal_weights(m), bounds=bounds)

    def test_wider_bounds_shrink_preferences_consistently(self):
        m = make_matrix([[1.0], [3.0]])
        w = equal_weights(m)
        wide = spotis(m, w, bounds=np.array([[0.0, 4.0]]))
        assert wide.values == pytest.approx([0.75, 0.25])


class TestPromethee2:
    def test_dominating_pair_saturates_flows(self):
        m = make_matrix([[5.0, 2.0], [1.0, 9.0]], objectives=("max", "min"))
        score = promethee2(m, equal_weights(m))
        assert score.values == pytest.approx([1.0, -1.0])

    def test_identical_alternatives_have_zero_flows(self):
        m = make_matrix([[4.0, 4.0], [4.0, 4.0], [4.0, 4.0]])
        score = promethee2(m, equal_weights(m))
        assert np.allclose(score.values, 0.0)

    def test_net_flows_sum_to_zero(self):
        rng = np.random.default_rng(56)
        for _ in range(20):
            m = random_matrix(rng, max_m=9, max_n=6)
            score = promethee2(m, random_weights(rng, m))
            assert abs(score.values.sum()) < 1e-9
            assert np.abs(score.values).max() <= 1.0 + 1e-12


    def test_matches_dense_oracle_on_tie_heavy_instances(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            values = rng.integers(0, 4, size=(120, 6)).astype(float)
            objectives = tuple(rng.choice(["max", "min"], size=6).tolist())
            m = make_matrix(values, objectives)
            w = random_weights(rng, m)
            got = promethee2(m, w).values
            assert np.abs(got - promethee2_oracle(m, w)).max() <= 1e-12
            assert np.array_equal(got, promethee2_lead_oracle(m, w))

    def test_constant_and_signed_zero_columns_match_the_lead_oracle(self):
        values = np.array([[4.0, 0.0, 1.0], [4.0, -0.0, 2.0], [4.0, 0.0, 2.0], [4.0, 1.0, 0.5]])
        m = make_matrix(values, ("max", "min", "max"))
        w = WeightVector(np.array([0.2, 0.3, 0.5]), m.criterion_ids)
        assert np.array_equal(promethee2(m, w).values, promethee2_lead_oracle(m, w))


@st.composite
def flow_case(draw):
    """Matrix with tied levels, constant columns, copied rows and zero weights."""
    m = draw(st.integers(min_value=2, max_value=8))
    n = draw(st.integers(min_value=1, max_value=5))
    cell = st.one_of(
        st.floats(min_value=-10.0, max_value=10.0), st.sampled_from([-1.0, 0.0, 2.5])
    )
    values = np.array(draw(st.lists(
        st.lists(cell, min_size=n, max_size=n), min_size=m, max_size=m
    )))
    for j, constant in enumerate(draw(st.lists(st.booleans(), min_size=n, max_size=n))):
        if constant:
            values[:, j] = 4.0
    if draw(st.booleans()):
        values[-1] = values[0]
    objectives = draw(st.lists(st.sampled_from(["max", "min"]), min_size=n, max_size=n))
    raw = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]), min_size=n, max_size=n
    )))
    raw[draw(st.integers(min_value=0, max_value=n - 1))] = 1.0
    matrix = make_matrix(values, objectives)
    return matrix, WeightVector(raw / raw.sum(), matrix.criterion_ids)


@given(flow_case())
@settings(max_examples=100, deadline=None)
def test_promethee2_matches_the_dense_pairwise_oracle(case):
    matrix, weights = case
    score = promethee2(matrix, weights)
    expected = promethee2_oracle(matrix, weights)
    assert np.abs(score.values - expected).max() <= 1e-12
    assert np.array_equal(score.values, promethee2_lead_oracle(matrix, weights))
    if (np.diff(np.sort(expected)) > 1e-12).all():
        assert np.array_equal(score.ranking, rank_from_scores(expected))


class TestCrossMethod:
    def test_single_criterion_rankings_agree_everywhere(self):
        rng = np.random.default_rng(57)
        for _ in range(15):
            m_count = int(rng.integers(2, 10))
            values = rng.uniform(0.5, 9.0, size=(m_count, 1))
            objective = str(rng.choice(["max", "min"]))
            m = make_matrix(values, objectives=(objective,))
            w = WeightVector(np.array([1.0]), m.criterion_ids)
            reference = evaluate(m, w, 0.0).ranking.tolist()
            for score in run_all(m, w).values():
                assert score.ranking.tolist() == reference, score.method

    def test_duplicate_rows_share_scores(self):
        rng = np.random.default_rng(58)
        values = rng.uniform(1.0, 9.0, size=(5, 4))
        values[3] = values[1]
        m = make_matrix(values)
        w = random_weights(rng, m)
        for score in run_all(m, w).values():
            assert score.values[1] == pytest.approx(score.values[3], abs=1e-12), (
                score.method
            )

    def test_permuting_rows_permutes_scores(self):
        rng = np.random.default_rng(59)
        m = random_matrix(rng, m=6, n=4)
        w = random_weights(rng, m)
        perm = rng.permutation(6)
        shuffled = make_matrix(m.values[perm], m.objectives)
        base = run_all(m, w)
        moved = run_all(shuffled, w)
        for name in base:
            assert np.max(
                np.abs(moved[name].values - base[name].values[perm])
            ) < 1e-12, name

    def test_spotis_is_the_only_lower_better_method(self, matrix16, hierarchy):
        rng = np.random.default_rng(60)
        w = random_weights(rng, matrix16)
        scores = run_all(matrix16, w)
        assert not scores["spotis"].higher_better
        for name in ("topsis", "mabac", "codas", "promethee2"):
            assert scores[name].higher_better
