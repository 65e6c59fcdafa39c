import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sspahp import InputError, NumericalError, pearson, rank_from_scores, weighted_spearman
from sspahp.correlation import _tie_sums


def weighted_spearman_oracle(x, y):
    """Straight plain-Python substitution into the coefficient formula."""
    n = len(x)
    total = 0.0
    for xi, yi in zip(x, y):
        total += (xi - yi) ** 2 * ((n - xi + 1) + (n - yi + 1))
    return 1.0 - 6.0 * total / (n**4 + n**3 - n**2 - n)


def pearson_oracle(x, y):
    n = len(x)
    sx, sy = sum(x), sum(y)
    sxx = sum(v * v for v in x)
    syy = sum(v * v for v in y)
    sxy = sum(a * b for a, b in zip(x, y))
    import math

    return (n * sxy - sx * sy) / math.sqrt((n * sxx - sx**2) * (n * syy - sy**2))


def average_ranks_oracle(values, higher_better=True):
    """Average ranks from a walk over the stably sorted keys, one tie group at a time."""
    v = np.asarray(values, dtype=float)
    key = -v if higher_better else v
    order = np.argsort(key, kind="stable")
    n = v.shape[0]
    ranks = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j < n and key[order[j]] == key[order[i]]:
            j += 1
        ranks[order[i:j]] = (i + 1 + j) / 2.0
        i = j
    return ranks


class TestWeightedSpearman:
    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_identical_rankings_give_exactly_one(self, n):
        ranks = np.arange(1, n + 1, dtype=float)
        assert weighted_spearman(ranks, ranks) == 1.0

    def test_two_item_reversal(self):
        # hand substitution: both terms contribute 1 * 3, denominator 18
        assert weighted_spearman([1, 2], [2, 1]) == pytest.approx(-1.0, abs=1e-15)

    def test_matches_oracle_on_random_permutations(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = 16
            x = rng.permutation(n) + 1.0
            y = rng.permutation(n) + 1.0
            assert weighted_spearman(x, y) == pytest.approx(
                weighted_spearman_oracle(x, y), abs=1e-12
            )

    def test_accepts_fractional_average_ranks(self):
        got = weighted_spearman([1.5, 1.5, 3.0], [1.0, 2.0, 3.0])
        assert got == pytest.approx(weighted_spearman_oracle([1.5, 1.5, 3], [1, 2, 3]))

    def test_length_mismatch_is_rejected(self):
        with pytest.raises(InputError, match="length mismatch"):
            weighted_spearman([1, 2], [1, 2, 3])

    def test_out_of_range_ranks_are_rejected(self):
        with pytest.raises(InputError, match="outside"):
            weighted_spearman([0, 1], [1, 2])

    def test_symmetry(self):
        rng = np.random.default_rng(29)
        x = rng.permutation(10) + 1.0
        y = rng.permutation(10) + 1.0
        assert weighted_spearman(x, y) == pytest.approx(weighted_spearman(y, x))


class TestPearson:
    def test_identical_vectors_give_one(self):
        assert pearson([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 7, 16])
    def test_reversed_rankings_give_minus_one(self, n):
        x = np.arange(1, n + 1, dtype=float)
        assert pearson(x, x[::-1]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_instance(self):
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_constant_vector_is_undefined(self):
        with pytest.raises(NumericalError, match="constant"):
            pearson([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_invariant_under_positive_affine_transform(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        base = pearson(x, y)
        assert pearson(3.5 * x + 2.0, y) == pytest.approx(base, abs=1e-12)
        assert pearson(x, 0.25 * y - 7.0) == pytest.approx(base, abs=1e-12)

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            x = rng.permutation(16) + 1.0
            y = rng.permutation(16) + 1.0
            assert pearson(x, y) == pytest.approx(pearson_oracle(x, y), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=9)
        y = rng.normal(size=9)
        assert pearson(x, y) == pytest.approx(pearson(y, x))

    def test_single_element_rejected(self):
        with pytest.raises(InputError, match="at least 2"):
            pearson([1.0], [2.0])


class TestRankFromScores:
    def test_higher_better_input_order(self):
        assert rank_from_scores([0.9, 0.1, 0.5]).tolist() == [1.0, 3.0, 2.0]

    def test_average_ties(self):
        assert rank_from_scores([0.5, 0.5], ties="average").tolist() == [1.5, 1.5]

    def test_lower_better(self):
        assert rank_from_scores([0.3, 0.7], higher_better=False).tolist() == [1.0, 2.0]

    def test_input_order_breaks_exact_ties(self):
        assert rank_from_scores([0.5, 0.5, 0.1]).tolist() == [1.0, 2.0, 3.0]

    def test_average_ties_middle_group(self):
        got = rank_from_scores([0.9, 0.4, 0.4, 0.1], ties="average")
        assert got.tolist() == [1.0, 2.5, 2.5, 4.0]

    def test_unknown_tie_rule_rejected(self):
        with pytest.raises(InputError, match="tie rule"):
            rank_from_scores([1.0, 2.0], ties="random")

    def test_non_finite_scores_rejected(self):
        with pytest.raises(InputError, match="finite"):
            rank_from_scores([np.nan, 1.0])

    @pytest.mark.parametrize("higher_better", [True, False])
    def test_input_order_ranks_along_the_last_axis(self, higher_better):
        scores = np.round(np.random.default_rng(5).random((3, 4, 6)), 1)
        got = rank_from_scores(scores, higher_better=higher_better)
        for idx in np.ndindex(scores.shape[:-1]):
            assert np.array_equal(
                got[idx], rank_from_scores(scores[idx], higher_better=higher_better)
            )

    def test_average_ties_need_a_flat_vector(self):
        with pytest.raises(InputError, match="flat"):
            rank_from_scores([[0.5, 0.5], [0.1, 0.2]], ties="average")


#: few distinct levels, so most draws hold tie groups; -0.0 and 0.0 tie too
tied_scores = st.lists(
    st.one_of(st.sampled_from([-0.0, 0.0, 0.5, -1.0, 3.0]), st.floats(-5.0, 5.0)),
    min_size=1,
    max_size=60,
)


class TestAverageRanksMatchTheOracle:
    @given(tied_scores, st.booleans())
    @example([2.0] * 7, True)  # one constant group
    @example([1.5], False)
    @example([0.0, -0.0, 0.0, -0.0], True)
    @example([-0.0, 1.0, 0.0, 1.0, -0.0], False)
    @settings(max_examples=200, deadline=None)
    def test_tie_heavy_vectors(self, values, higher_better):
        got = rank_from_scores(values, higher_better=higher_better, ties="average")
        assert np.array_equal(got, average_ranks_oracle(values, higher_better))


def tie_sums_oracle(key):
    """start + 1 + end of each cell's tie group, from searchsorted left and right in its sorted row."""
    rows = key.reshape(-1, key.shape[-1])
    sums = [np.searchsorted(s, row, "left") + np.searchsorted(s, row, "right") + 1 for s, row in zip(np.sort(rows), rows)]
    return np.array(sums, dtype=np.intp).reshape(key.shape)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=30),
    st.sampled_from(["rows", "flat", "transposed"]),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_tie_sums_equal_the_searchsorted_oracle(rows, m, layout, data):
    """Tie-heavy keys, -0.0 among them, written into C-ordered, flat and transposed outputs."""
    pool = st.sampled_from([-0.0, 0.0, 0.5, -0.5, 1.0, 2.0**-1074])
    key = np.array(data.draw(st.lists(st.lists(pool, min_size=m, max_size=m), min_size=rows, max_size=rows)))
    if layout == "flat":
        key = key[0]
    out = np.full(key.shape, -1, dtype=np.intp)
    if layout == "transposed":  # as PROMETHEE II calls it: a column-major view of key and out
        key = np.ascontiguousarray(key.T).T
        out = np.empty(key.shape[::-1], dtype=np.intp).T
    _tie_sums(key, out)
    assert np.array_equal(out, tie_sums_oracle(key))
