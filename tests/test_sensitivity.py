import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspahp import (
    CriteriaHierarchy,
    Dimension,
    InputError,
    SubDimension,
    SweepResult,
    SweepSpec,
    WeightVector,
    compare_rankings,
    default_s_grid,
    enumerate_group_subsets,
    evaluate,
    evaluate_with_group_s,
    rank_from_scores,
    run_sweep,
    stability_report,
)
from sspahp.io import records_to_csv
from sspahp import sensitivity
from sspahp.sensitivity import MAX_DIMENSIONS, MAX_SWEEP_CELLS, subset_label

from conftest import make_matrix, random_weights, two_level_hierarchy

from test_correlation import pearson_oracle, weighted_spearman_oracle


def small_sweep(seed=101, s_grid=None):
    h = two_level_hierarchy()
    rng = np.random.default_rng(seed)
    m = make_matrix(rng.uniform(1.0, 9.0, size=(6, 6)), crit_prefix="C")
    w = random_weights(rng, m)
    spec = SweepSpec(matrix=m, hierarchy=h, weights=w, s_grid=s_grid)
    return spec, run_sweep(spec)


class TestGrid:
    def test_default_grid_has_21_points_ending_at_one(self):
        grid = default_s_grid()
        assert grid.shape == (21,)
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        assert np.allclose(np.diff(grid), 0.05)

    def test_quarter_step(self):
        assert default_s_grid(0.25).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_non_dividing_step_stops_below_one(self):
        grid = default_s_grid(0.3)
        assert grid.tolist() == [0.0, 0.3, 0.6, 0.9]

    def test_bad_step_rejected(self):
        with pytest.raises(InputError, match="step"):
            default_s_grid(0.0)


class TestSubsetEnumeration:
    def test_binary_counter_order_over_five_dimensions(self):
        subsets = enumerate_group_subsets(("G1", "G2", "G3", "G4", "G5"))
        assert len(subsets) == 32
        assert subsets[0] == ()
        assert subsets[1] == ("G5",)
        assert subsets[2] == ("G4",)
        assert subsets[3] == ("G4", "G5")
        assert subsets[4] == ("G3",)
        assert subsets[8] == ("G2",)
        assert subsets[16] == ("G1",)
        assert subsets[-1] == ("G1", "G2", "G3", "G4", "G5")
        assert len(set(subsets)) == 32

    def test_twenty_dimensions_are_the_limit(self):
        ids = tuple(f"G{i + 1}" for i in range(MAX_DIMENSIONS))
        subsets = enumerate_group_subsets(ids)
        assert MAX_DIMENSIONS == 20
        assert len(subsets) == 2**20
        assert subsets[1] == ("G20",)
        assert subsets[2**19] == ("G1",)
        assert subsets[-1] == ids

    def test_more_than_twenty_dimensions_are_rejected(self):
        ids = tuple(f"G{i + 1}" for i in range(MAX_DIMENSIONS + 1))
        message = "21 dimensions give 2,097,152 subsets; at most 20 dimensions are supported"
        with pytest.raises(InputError, match=message):
            enumerate_group_subsets(ids)

    def test_subset_label(self):
        assert subset_label(()) == ""
        assert subset_label(("G1", "G4")) == "G1+G4"


def flat_spec(k, m, **kwargs):
    """SweepSpec over k dimensions of one max criterion each, m alternatives."""
    ids = [f"C{i + 1}" for i in range(k)]
    h = CriteriaHierarchy(
        dimensions=tuple(
            Dimension(id=f"G{i + 1}", name=f"g{i + 1}", sub_dimensions=(SubDimension(name="sd", criterion_ids=(c,)),))
            for i, c in enumerate(ids)
        ),
        objectives={c: "max" for c in ids},
    )
    rng = np.random.default_rng(k)
    matrix = make_matrix(rng.uniform(1.0, 9.0, size=(m, k)), crit_prefix="C")
    return SweepSpec(matrix=matrix, hierarchy=h, weights=random_weights(rng, matrix), **kwargs)


class TestSweepSize:
    def test_twenty_dimensions_at_sixteen_alternatives_are_refused_up_front(self, monkeypatch):
        def never(ids):
            raise AssertionError("subsets enumerated before the size check")

        monkeypatch.setattr(sensitivity, "enumerate_group_subsets", never)
        message = (
            "a sweep of 1,048,576 subsets x 21 grid points x 16 alternatives needs "
            "5,637,144,576 bytes for 352,321,536 cells; at most 33,554,432 cells are supported"
        )
        with pytest.raises(InputError, match=message):
            flat_spec(MAX_DIMENSIONS, 16)

    @pytest.mark.parametrize("explicit", [False, True])
    def test_limit_is_inclusive(self, explicit):
        assert MAX_SWEEP_CELLS == 1024 * 2048 * 16
        subsets = enumerate_group_subsets([f"G{i + 1}" for i in range(10)]) if explicit else None
        spec = flat_spec(10, 16, s_grid=np.linspace(0.0, 1.0, 2048), group_subsets=subsets)
        assert len(spec.group_subsets) * spec.s_grid.size * spec.matrix.m == MAX_SWEEP_CELLS
        with pytest.raises(InputError, match="1,024 subsets x 2049 grid points x 16 alternatives"):
            flat_spec(10, 16, s_grid=np.linspace(0.0, 1.0, 2049), group_subsets=subsets)


class TestSweepSpec:
    def test_defaults_fill_grid_and_subsets(self):
        spec, _ = small_sweep()
        assert spec.s_grid.shape == (21,)
        assert len(spec.group_subsets) == 8  # three dimensions

    def test_rejects_decreasing_grid(self):
        h = two_level_hierarchy()
        m = make_matrix(np.ones((2, 6)) * [[1.0], [2.0]], crit_prefix="C")
        w = WeightVector(np.full(6, 1 / 6), m.criterion_ids)
        with pytest.raises(InputError, match="strictly"):
            SweepSpec(matrix=m, hierarchy=h, weights=w, s_grid=[0.0, 0.5, 0.5])

    def test_rejects_out_of_range_grid(self):
        h = two_level_hierarchy()
        m = make_matrix(np.ones((2, 6)) * [[1.0], [2.0]], crit_prefix="C")
        w = WeightVector(np.full(6, 1 / 6), m.criterion_ids)
        with pytest.raises(InputError, match=r"\[0, 1\]"):
            SweepSpec(matrix=m, hierarchy=h, weights=w, s_grid=[0.0, 1.5])

    def test_rejects_duplicate_subsets(self):
        h = two_level_hierarchy()
        m = make_matrix(np.ones((2, 6)) * [[1.0], [2.0]], crit_prefix="C")
        w = WeightVector(np.full(6, 1 / 6), m.criterion_ids)
        with pytest.raises(InputError, match="unique"):
            SweepSpec(
                matrix=m,
                hierarchy=h,
                weights=w,
                group_subsets=(("G1",), ("G1",)),
            )

    def test_rejects_empty_subset_list(self):
        h = two_level_hierarchy()
        m = make_matrix(np.ones((2, 6)) * [[1.0], [2.0]], crit_prefix="C")
        w = WeightVector(np.full(6, 1 / 6), m.criterion_ids)
        with pytest.raises(InputError, match="at least one group subset"):
            SweepSpec(matrix=m, hierarchy=h, weights=w, group_subsets=())


class TestRunSweep:
    def test_every_subset_starts_at_the_common_baseline(self):
        spec, result = small_sweep()
        baseline = evaluate(spec.matrix, spec.weights, 0.0)
        for si in range(len(result.subsets)):
            assert np.array_equal(result.ranks[si, 0], baseline.ranking)
            assert np.array_equal(result.utilities[si, 0], baseline.utilities)

    def test_empty_subset_row_never_moves(self):
        _, result = small_sweep()
        empty_index = result.subsets.index(())
        ranks, utilities = result.ranks[empty_index], result.utilities[empty_index]
        for gi in range(len(result.s_grid)):
            assert np.array_equal(ranks[gi], ranks[0])
            assert np.array_equal(utilities[gi], utilities[0])

    def test_larger_subsets_never_raise_utilities(self):
        spec, result = small_sweep()
        by_subset = {sub: i for i, sub in enumerate(result.subsets)}
        grid_len = len(spec.s_grid)
        for sub, si in by_subset.items():
            for other, oi in by_subset.items():
                if set(sub) < set(other):
                    for gi in range(grid_len):
                        u_small = result.utilities[si, gi]
                        u_large = result.utilities[oi, gi]
                        assert (u_large <= u_small + 1e-12).all()

    def test_serialization_is_deterministic(self):
        _, first = small_sweep(seed=7)
        _, second = small_sweep(seed=7)
        fields = ["subset", "s", "alternative", "utility", "rank"]
        assert records_to_csv(first.to_records(), fields) == records_to_csv(
            second.to_records(), fields
        )

    def test_record_count(self):
        spec, result = small_sweep()
        rows = result.to_records()
        assert len(rows) == len(spec.group_subsets) * len(spec.s_grid) * spec.matrix.m

    def test_trajectory_lookup(self):
        spec, result = small_sweep()
        traj = result.rank_trajectory("a1", ("G1", "G2", "G3"))
        assert traj.shape == (len(spec.s_grid),)
        assert traj[0] == result.ranks[0, 0, 0]

    def test_unknown_subset_in_trajectory_is_rejected(self):
        _, result = small_sweep()
        with pytest.raises(InputError, match="not in sweep"):
            result.rank_trajectory("a1", ("G9",))

    def test_cell_errors_carry_their_coordinates(self):
        h = two_level_hierarchy()
        rng = np.random.default_rng(103)
        m = make_matrix(rng.uniform(1.0, 9.0, size=(4, 6)), crit_prefix="C")
        foreign = WeightVector(np.full(6, 1 / 6), tuple(f"X{i}" for i in range(6)))
        spec = SweepSpec(
            matrix=m, hierarchy=h, weights=foreign, group_subsets=(("G2",),)
        )
        with pytest.raises(InputError, match=r"sweep cell \(subset=G2, s=0\)"):
            run_sweep(spec)

    def test_unknown_group_names_its_own_subset(self):
        h = two_level_hierarchy()
        rng = np.random.default_rng(107)
        m = make_matrix(rng.uniform(1.0, 9.0, size=(4, 6)), crit_prefix="C")
        spec = SweepSpec(
            matrix=m,
            hierarchy=h,
            weights=random_weights(rng, m),
            group_subsets=(("G1",), ("G9",)),
        )
        with pytest.raises(InputError, match=r"sweep cell \(subset=G9, s=0\)"):
            run_sweep(spec)


@st.composite
def sweep_case(draw):
    """Six-criterion matrix with levels that tie, constant columns and copied rows."""
    m = draw(st.integers(min_value=2, max_value=7))
    cell = st.one_of(st.floats(min_value=0.0, max_value=10.0), st.sampled_from([1.0, 5.0]))
    row = st.lists(cell, min_size=6, max_size=6)
    values = np.array(draw(st.lists(row, min_size=m, max_size=m)))
    for j, constant in enumerate(draw(st.lists(st.booleans(), min_size=6, max_size=6))):
        if constant:
            values[:, j] = 3.0
    if draw(st.booleans()):
        values[-1] = values[0]
    objectives = draw(st.lists(st.sampled_from(["max", "min"]), min_size=6, max_size=6))
    levels = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0])
    raw = np.array(draw(st.lists(levels, min_size=6, max_size=6)))
    raw[draw(st.integers(min_value=0, max_value=5))] = 1.0
    matrix = make_matrix(values, objectives, crit_prefix="C")
    return matrix, WeightVector(raw / raw.sum(), matrix.criterion_ids)


@given(sweep_case())
@settings(max_examples=40, deadline=None)
def test_sweep_matches_cell_by_cell_evaluation(case):
    matrix, weights = case
    h = two_level_hierarchy()
    spec = SweepSpec(matrix=matrix, hierarchy=h, weights=weights)
    result = run_sweep(spec)
    for si, subset in enumerate(spec.group_subsets):
        for gi, s in enumerate(spec.s_grid):
            cell = evaluate_with_group_s(matrix, weights, h, subset, float(s))
            utilities = result.utilities[si, gi]
            assert np.abs(utilities - cell.utilities).max() <= 1e-12
            assert np.array_equal(result.ranks[si, gi], rank_from_scores(utilities))
            if (np.diff(np.sort(cell.utilities)) > 1e-12).all():
                assert np.array_equal(result.ranks[si, gi], cell.ranking)


class TestCompareRankings:
    def test_sweep_compared_with_itself_is_all_ones(self):
        _, result = small_sweep()
        out = compare_rankings(result, result)
        assert set(out) == set(result.subsets)
        for rw, pr in out.values():
            assert rw == 1.0
            assert pr == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_formula_oracles(self):
        rng = np.random.default_rng(19)
        a = {("G1",): rng.permutation(16) + 1}
        b = {("G1",): rng.permutation(16) + 1}
        out = compare_rankings(a, b)
        rw, pr = out[("G1",)]
        x, y = a[("G1",)].astype(float), b[("G1",)].astype(float)
        assert rw == pytest.approx(weighted_spearman_oracle(x, y), abs=1e-12)
        assert pr == pytest.approx(pearson_oracle(x, y), abs=1e-12)

    def test_mismatched_subset_lists_are_rejected(self):
        a = {("G1",): np.array([1, 2])}
        b = {("G2",): np.array([1, 2])}
        with pytest.raises(InputError, match="subset lists differ"):
            compare_rankings(a, b)


def fake_sweep_from_trajectory(trajectory):
    """SweepResult with one subset whose first alternative follows the ranks."""
    m = max(trajectory)
    alt_ids = tuple(f"a{i + 1}" for i in range(m))
    ranks = np.array(
        [[target] + [r for r in range(1, m + 1) if r != target] for target in trajectory]
    )
    return SweepResult(
        alternative_ids=alt_ids,
        subsets=(("G1",),),
        s_grid=np.linspace(0, 1, len(trajectory)),
        utilities=(1.0 - ranks / (m + 1.0))[None],
        ranks=ranks[None],
    )


class TestStabilityReport:
    def test_constant_trajectory_is_stable(self):
        result = fake_sweep_from_trajectory([2, 2, 2, 2])
        report = stability_report(result)
        assert report["a1"] == {
            "min_rank": 2,
            "max_rank": 2,
            "span": 0,
            "stable": True,
            "monotone_direction": "flat",
        }

    def test_drifting_trajectory_is_volatile(self):
        result = fake_sweep_from_trajectory([3, 3, 4, 4, 6, 7])
        report = stability_report(result)
        assert report["a1"]["span"] == 4
        assert not report["a1"]["stable"]
        assert report["a1"]["monotone_direction"] == "declining"

    def test_improving_and_mixed_labels(self):
        improving = fake_sweep_from_trajectory([5, 4, 4, 2])
        assert stability_report(improving)["a1"]["monotone_direction"] == "improving"
        mixed = fake_sweep_from_trajectory([3, 5, 2, 4])
        assert stability_report(mixed)["a1"]["monotone_direction"] == "mixed"

    def test_single_rank_move_counts_as_stable(self):
        result = fake_sweep_from_trajectory([2, 3, 3, 3])
        assert stability_report(result)["a1"]["stable"]
