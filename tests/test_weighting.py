import math

import numpy as np
import pytest

from sspahp import (
    ConvergenceError,
    DegenerateWeightsError,
    InputError,
    PairwiseMatrix,
    RANDOM_INDEX,
    aggregate_pairwise,
    ahp_weights,
    consistency,
    critic_weights,
    distribute_weights,
    entropy_weights,
)

from conftest import (
    CONSENSUS_JUDGMENTS,
    DIMENSION_IDS,
    EXPECTED_CR,
    EXPECTED_DIMENSION_WEIGHTS,
    make_matrix,
)


def random_reciprocal(rng, n):
    values = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = rng.uniform(1 / 9, 9)
            values[j, i] = 1.0 / values[i, j]
    return PairwiseMatrix(values)


def consistent_matrix(w):
    return PairwiseMatrix(np.outer(w, 1.0 / np.asarray(w)))


class TestPairwiseMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(InputError, match="square"):
            PairwiseMatrix(np.ones((2, 3)))

    def test_rejects_non_positive_entries(self):
        with pytest.raises(InputError, match="positive"):
            PairwiseMatrix(np.array([[1.0, 0.0], [2.0, 1.0]]))

    def test_rejects_broken_reciprocity(self):
        with pytest.raises(InputError, match="reciprocity"):
            PairwiseMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_bad_diagonal(self):
        with pytest.raises(InputError, match="diagonal"):
            PairwiseMatrix(np.array([[2.0, 2.0], [0.5, 0.5]]))


class TestAggregatePairwise:
    def test_single_matrix_is_identity(self):
        m = PairwiseMatrix(np.array([[1.0, 4.0], [0.25, 1.0]]))
        agg = aggregate_pairwise([m])
        assert np.allclose(agg.values, m.values)

    def test_opposite_judgments_cancel(self):
        a = PairwiseMatrix(np.array([[1.0, 5.0], [0.2, 1.0]]))
        b = PairwiseMatrix(np.array([[1.0, 0.2], [5.0, 1.0]]))
        agg = aggregate_pairwise([a, b])
        assert agg.values[0, 1] == pytest.approx(1.0)

    def test_geometric_mean_of_two_and_eight_is_four(self):
        a = PairwiseMatrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
        b = PairwiseMatrix(np.array([[1.0, 8.0], [0.125, 1.0]]))
        agg = aggregate_pairwise([a, b])
        assert agg.values[0, 1] == pytest.approx(math.sqrt(2.0 * 8.0))

    def test_empty_list_is_an_error(self):
        with pytest.raises(InputError, match="no pairwise"):
            aggregate_pairwise([])

    def test_size_mismatch_is_an_error(self):
        a = PairwiseMatrix(np.ones((2, 2)))
        b = PairwiseMatrix(np.ones((3, 3)))
        with pytest.raises(InputError, match="differ in size"):
            aggregate_pairwise([a, b])

    def test_reciprocity_survives_aggregation(self):
        rng = np.random.default_rng(3)
        mats = [random_reciprocal(rng, 5) for _ in range(7)]
        agg = aggregate_pairwise(mats)
        assert np.max(np.abs(agg.values * agg.values.T - 1.0)) < 1e-9

    def test_labelled_matrices_are_aligned_before_averaging(self):
        a = PairwiseMatrix(CONSENSUS_JUDGMENTS, labels=DIMENSION_IDS)
        order = [3, 0, 4, 2, 1]
        b = PairwiseMatrix(CONSENSUS_JUDGMENTS[np.ix_(order, order)], labels=tuple(DIMENSION_IDS[i] for i in order))
        agg = aggregate_pairwise([a, b])
        assert agg.labels == DIMENSION_IDS
        assert np.array_equal(agg.values, aggregate_pairwise([a, a]).values)

    def test_the_same_numbers_under_reversed_labels_cancel(self):
        scale = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
        gap = np.subtract.outer(np.arange(5), np.arange(5))
        values = np.where(gap <= 0, scale[np.abs(gap)], 1.0 / scale[np.abs(gap)])
        experts = [PairwiseMatrix(values, labels=DIMENSION_IDS), PairwiseMatrix(values, labels=DIMENSION_IDS[::-1])]
        weights, report = ahp_weights(aggregate_pairwise(experts))
        assert weights.criterion_ids == DIMENSION_IDS
        assert np.allclose(weights.weights, 0.2, atol=1e-12)
        assert report.cr == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "first, second, listed",
        [
            (("G1", "G2", "G3"), ("G1", "G2", "X3"), "G1, G2, G3 vs G1, G2, X3"),
            (("G1", "G2", "G3"), None, "G1, G2, G3 vs unlabelled"),
            (None, ("G1", "G2", "G3"), "unlabelled vs G1, G2, G3"),
            (("G1", "G2", "G3"), ("G1", "G1", "G2"), "G1, G2, G3 vs G1, G1, G2"),
        ],
    )
    def test_matrices_over_different_items_are_refused(self, first, second, listed):
        same = PairwiseMatrix(np.ones((3, 3)), labels=first)
        other = PairwiseMatrix(np.ones((3, 3)), labels=second)
        with pytest.raises(InputError, match=f"pairwise matrices 1 and 3 compare different items: {listed}$"):
            aggregate_pairwise([same, same, other])


def test_random_index_table_holds_the_published_values():
    assert RANDOM_INDEX == {
        1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12,
        6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45, 10: 1.49,
    }


class TestConsistency:
    def test_consensus_judgments_hit_published_ratio(self, consensus_pairwise):
        report = consistency(consensus_pairwise)
        assert report.cr == pytest.approx(EXPECTED_CR, abs=5e-3)
        assert report.acceptable

    def test_fully_consistent_matrix_has_zero_ratio(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(0.5, 3.0, size=6)
        report = consistency(consistent_matrix(w))
        assert abs(report.cr) < 1e-6
        assert report.acceptable

    def test_wild_judgments_are_rejected(self):
        m = PairwiseMatrix(
            np.array([[1, 2, 9], [1 / 2, 1, 1 / 9], [1 / 9, 9, 1]], dtype=float)
        )
        report = consistency(m)
        # independent eigen solve as the oracle for lambda_max
        eigvals = np.linalg.eigvals(m.values)
        lam = float(np.max(eigvals.real))
        assert report.lambda_max == pytest.approx(lam, abs=1e-9)
        expected_cr = ((lam - 3) / 2) / RANDOM_INDEX[3]
        assert report.cr == pytest.approx(expected_cr, abs=1e-9)
        assert report.cr > 0.1
        assert not report.acceptable

    def test_sizes_one_and_two_are_consistent_by_definition(self):
        assert consistency(PairwiseMatrix(np.array([[1.0]]))).cr == 0.0
        two = PairwiseMatrix(np.array([[1.0, 7.0], [1 / 7, 1.0]]))
        report = consistency(two)
        assert report.cr == 0.0
        assert report.acceptable

    def test_size_above_table_is_unsupported(self):
        rng = np.random.default_rng(5)
        with pytest.raises(InputError, match="n = 11"):
            consistency(random_reciprocal(rng, 11))

    def test_bad_random_index_keys_are_rejected(self):
        two = PairwiseMatrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
        with pytest.raises(InputError, match="keys"):
            consistency(two, random_index={12: 1.5})


class TestAhpWeights:
    def test_consensus_judgments_reproduce_published_weights(self, consensus_pairwise):
        weights, report = ahp_weights(consensus_pairwise)
        assert np.max(np.abs(weights.weights - EXPECTED_DIMENSION_WEIGHTS)) < 1e-3
        assert weights.criterion_ids == DIMENSION_IDS
        assert report.cr == pytest.approx(EXPECTED_CR, abs=5e-3)

    def test_indifferent_judgments_give_equal_weights(self):
        weights, report = ahp_weights(PairwiseMatrix(np.ones((4, 4))))
        assert np.allclose(weights.weights, 0.25)
        assert report.cr == pytest.approx(0.0, abs=1e-12)

    def test_two_by_two_is_proportional_to_columns(self):
        weights, _ = ahp_weights(PairwiseMatrix(np.array([[1.0, 3.0], [1 / 3, 1.0]])))
        assert np.allclose(weights.weights, [0.75, 0.25])

    @pytest.mark.parametrize("n", range(2, 11))
    def test_recovers_weights_of_consistent_matrices(self, n):
        rng = np.random.default_rng(100 + n)
        w = rng.uniform(0.2, 5.0, size=n)
        w = w / w.sum()
        recovered, report = ahp_weights(consistent_matrix(w))
        assert np.max(np.abs(recovered.weights - w)) < 1e-6
        assert abs(report.cr) < 1e-6

    def test_weights_sum_to_one(self, consensus_pairwise):
        weights, _ = ahp_weights(consensus_pairwise)
        assert weights.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert (weights.weights >= 0).all()

    def test_single_item_matrix(self):
        weights, report = ahp_weights(PairwiseMatrix(np.array([[1.0]])))
        assert weights.weights.tolist() == [1.0]
        assert report.cr == 0.0

    def test_iteration_cap_carries_last_iterate(self, consensus_pairwise):
        with pytest.raises(ConvergenceError) as exc:
            ahp_weights(consensus_pairwise, max_iter=1)
        assert exc.value.last_iterate is not None
        assert len(exc.value.last_iterate) == 5


class TestEntropyWeights:
    def test_uniform_column_contributes_nothing(self):
        m = make_matrix([[1.0, 1.0], [1.0, 3.0]])
        weights = entropy_weights(m)
        assert weights.weights[0] == 0.0

    def test_two_column_hand_instance(self):
        # plain-loop recompute of the entropy chain for columns [1,1] and [1,3]
        cols = [[1.0, 1.0], [1.0, 3.0]]
        info = []
        for col in cols:
            total = sum(col)
            p = [v / total for v in col]
            h = -sum(pi * math.log(pi) for pi in p if pi > 0) / math.log(len(col))
            info.append(1.0 - h)
        expected = [x / sum(info) for x in info]

        weights = entropy_weights(make_matrix(np.array(cols).T))
        assert np.allclose(weights.weights, expected, atol=1e-12)
        assert np.allclose(weights.weights, [0.0, 1.0], atol=1e-12)

    def test_all_constant_matrix_is_degenerate(self):
        with pytest.raises(DegenerateWeightsError):
            entropy_weights(make_matrix([[2.0, 5.0], [2.0, 5.0], [2.0, 5.0]]))

    def test_negative_values_are_rejected_with_advice(self):
        with pytest.raises(InputError, match="shift"):
            entropy_weights(make_matrix([[1.0, -2.0], [2.0, 3.0]]))

    def test_zero_sum_column_is_rejected(self):
        with pytest.raises(InputError, match="zero"):
            entropy_weights(make_matrix([[0.0, 1.0], [0.0, 2.0]]))

    def test_invariant_to_positive_column_scaling(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(0.5, 9.0, size=(6, 4))
        base = entropy_weights(make_matrix(values)).weights
        scaled = values * np.array([3.0, 0.25, 11.0, 1.0])
        rescaled = entropy_weights(make_matrix(scaled)).weights
        assert np.max(np.abs(rescaled - base)) < 1e-12


def critic_oracle(values, objectives, ddof=1):
    """Plain-loop reimplementation of the CRITIC chain for small instances."""
    values = np.asarray(values, dtype=float)
    m, n = values.shape
    r = np.empty_like(values)
    for j in range(n):
        lo, hi = values[:, j].min(), values[:, j].max()
        if hi == lo:
            r[:, j] = 0.5
        elif objectives[j] == "max":
            r[:, j] = (values[:, j] - lo) / (hi - lo)
        else:
            r[:, j] = (hi - values[:, j]) / (hi - lo)
    c = []
    for j in range(n):
        sj = np.std(r[:, j], ddof=ddof)
        conflict = 0.0
        for k in range(n):
            num = np.sum((r[:, j] - r[:, j].mean()) * (r[:, k] - r[:, k].mean()))
            den = math.sqrt(
                np.sum((r[:, j] - r[:, j].mean()) ** 2)
                * np.sum((r[:, k] - r[:, k].mean()) ** 2)
            )
            rho = num / den if den > 0 else 0.0
            conflict += 1.0 - rho
        c.append(sj * conflict)
    return np.array(c) / sum(c)


class TestCriticWeights:
    def test_mirrored_columns_share_the_weight(self):
        m = make_matrix([[2.0, 2.0], [4.0, 4.0], [6.0, 6.0]], objectives=("max", "min"))
        weights = critic_weights(m)
        assert np.allclose(weights.weights, [0.5, 0.5], atol=1e-12)

    def test_identical_pair_has_no_mutual_conflict(self):
        values = np.array(
            [[1.0, 1.0, 9.0], [2.0, 2.0, 1.0], [3.0, 3.0, 5.0], [4.0, 4.0, 2.0]]
        )
        m = make_matrix(values)
        weights = critic_weights(m)
        expected = critic_oracle(values, ["max"] * 3)
        assert np.allclose(weights.weights, expected, atol=1e-12)
        assert weights.weights[0] == pytest.approx(weights.weights[1], abs=1e-12)

    def test_constant_column_gets_zero_weight(self):
        m = make_matrix([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
        weights = critic_weights(m)
        assert weights.weights[1] == 0.0
        assert weights.weights[0] == pytest.approx(1.0)

    def test_all_constant_matrix_is_degenerate(self):
        with pytest.raises(DegenerateWeightsError):
            critic_weights(make_matrix([[5.0, 2.0], [5.0, 2.0]]))

    @pytest.mark.parametrize("sample_std", [True, False])
    def test_one_alternative_is_refused(self, sample_std):
        with pytest.raises(InputError, match="need at least 2 alternatives, got 1"):
            critic_weights(make_matrix([[1.0, 2.0]]), sample_std=sample_std)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = rng.integers(3, 9)
            n = rng.integers(2, 7)
            values = rng.uniform(0.0, 10.0, size=(m, n))
            objectives = rng.choice(["max", "min"], size=n).tolist()
            got = critic_weights(make_matrix(values, objectives)).weights
            expected = critic_oracle(values, objectives)
            assert np.max(np.abs(got - expected)) < 1e-10

    def test_invariant_to_positive_affine_rescaling(self):
        rng = np.random.default_rng(13)
        values = rng.uniform(1.0, 5.0, size=(7, 4))
        base = critic_weights(make_matrix(values)).weights
        rescaled = critic_weights(make_matrix(values * 4.0 + 17.0)).weights
        assert np.max(np.abs(rescaled - base)) < 1e-9

    def test_population_std_flag_leaves_weights_unchanged(self):
        rng = np.random.default_rng(14)
        m = make_matrix(rng.uniform(0.0, 4.0, size=(6, 3)))
        assert np.allclose(
            critic_weights(m, sample_std=True).weights,
            critic_weights(m, sample_std=False).weights,
            atol=1e-12,
        )


class TestDistributeWeights:
    def test_equal_split_down_the_tree(self, hierarchy):
        from sspahp import WeightVector

        dim_weights = WeightVector(EXPECTED_DIMENSION_WEIGHTS, DIMENSION_IDS)
        crit = distribute_weights(dim_weights, hierarchy)
        printed = {c: f"{w:.4f}" for c, w in crit.as_dict().items()}
        assert printed["C1"] == "0.0615"
        assert printed["C5"] == "0.0410"
        assert printed["C8"] == "0.0296"
        assert printed["C12"] == "0.1182"
        assert printed["C13"] == "0.0591"
        assert printed["C15"] == "0.0646"
        assert printed["C16"] == "0.0323"
        assert printed["C18"] == "0.0595"
        assert printed["C19"] == "0.0298"
        assert printed["C21"] == "0.0047"
        assert printed["C25"] == "0.0094"

    def test_mass_is_preserved(self, hierarchy):
        from sspahp import WeightVector

        dim_weights = WeightVector(EXPECTED_DIMENSION_WEIGHTS, DIMENSION_IDS)
        crit = distribute_weights(dim_weights, hierarchy)
        assert abs(crit.weights.sum() - dim_weights.weights.sum()) < 1e-12

    def test_trivial_single_chain(self):
        from sspahp import CriteriaHierarchy, Dimension, SubDimension, WeightVector

        h = CriteriaHierarchy(
            dimensions=(Dimension("G1", "g", (SubDimension("sd", ("C1",)),)),),
            objectives={"C1": "max"},
        )
        crit = distribute_weights(WeightVector(np.array([1.0]), ("G1",)), h)
        assert crit.as_dict() == {"C1": 1.0}

    def test_empty_sub_dimension_is_structural_error(self):
        from sspahp import CriteriaHierarchy, Dimension, SubDimension

        with pytest.raises(InputError, match="no criteria"):
            CriteriaHierarchy(
                dimensions=(Dimension("G1", "g", (SubDimension("sd", ()),)),),
                objectives={},
            )

    def test_mismatched_dimension_ids_are_rejected(self, hierarchy):
        from sspahp import WeightVector

        bad = WeightVector(np.array([0.5, 0.5]), ("G1", "GX"))
        with pytest.raises(InputError, match="do not match"):
            distribute_weights(bad, hierarchy)

    def test_misordered_dimension_weights_align_by_id(self, hierarchy):
        from sspahp import WeightVector

        reordered = WeightVector(
            EXPECTED_DIMENSION_WEIGHTS[::-1].copy(), DIMENSION_IDS[::-1]
        )
        straight = WeightVector(EXPECTED_DIMENSION_WEIGHTS, DIMENSION_IDS)
        assert (
            distribute_weights(reordered, hierarchy).as_dict()
            == distribute_weights(straight, hierarchy).as_dict()
        )
