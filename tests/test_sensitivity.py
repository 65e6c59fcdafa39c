import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspahp import (
    CriteriaHierarchy,
    DecisionMatrix,
    Dimension,
    InputError,
    NumericalError,
    SubDimension,
    SustainabilityCoefficients,
    SweepResult,
    SweepSpec,
    WeightVector,
    compare_rankings,
    default_s_grid,
    enumerate_group_subsets,
    evaluate,
    evaluate_with_group_s,
    flatten_hierarchy,
    normalize_minmax,
    pearson,
    rank_from_scores,
    run_sweep,
    stability_report,
    weighted_spearman,
)
from sspahp.io import records_to_csv
from sspahp import benchmarks, core, correlation, sensitivity
from sspahp.sensitivity import MAX_DIMENSIONS, MAX_GRID_POINTS, MAX_SWEEP_BYTES, subset_label

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

    def test_step_past_the_largest_grid_is_refused_before_building_it(self):
        # one point more than a subset of two alternatives can hold
        assert MAX_GRID_POINTS == 66_322_430
        with pytest.raises(InputError, match=r"^step 1\.507785525952532e-08 gives 66,322,431 grid points; a sweep holds at most 66,322,430$"):
            default_s_grid(1 / 66_322_430)
        with pytest.raises(InputError, match=r"^step 5e-324 gives inf grid points"):
            default_s_grid(5e-324)


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
            "a sweep of 1,048,576 subsets x 21 grid points x 16 alternatives needs 1,549,795,328 bytes "
            r"\(1,409,286,144 for ranks, 134,217,728 for penalties, 6,291,456 for ranking\); "
            "at most 536,870,912 bytes are supported"
        )
        with pytest.raises(InputError, match=message):
            flat_spec(MAX_DIMENSIONS, 16)

    def test_penalties_count_at_a_one_point_grid(self, monkeypatch):
        # the ranks alone take 528 MB of the 537 MB; the [subset, alternative] penalties double that
        monkeypatch.setattr(sensitivity, "enumerate_group_subsets", None)  # refused before any subset is listed
        message = (
            "a sweep of 1,048,576 subsets x 1 grid points x 126 alternatives needs 1,591,738,368 bytes "
            r"\(528,482,304 for ranks, 1,056,964,608 for penalties, 6,291,456 for ranking\)"
        )
        with pytest.raises(InputError, match=message):
            flat_spec(MAX_DIMENSIONS, 126, s_grid=[1.0])

    def test_eight_dimensions_at_ten_thousand_alternatives_fit_and_twelve_do_not(self):
        assert flat_spec(8, 10_000).s_grid.size == 21
        message = (
            "a sweep of 4,096 subsets x 21 grid points x 10000 alternatives needs "
            r"3,774,611,456 bytes \(3,440,640,000 for ranks, 327,680,000 for penalties, 6,291,456 for ranking\); "
            "at most 536,870,912 bytes are supported"
        )
        with pytest.raises(InputError, match=message):
            flat_spec(12, 10_000)

    @pytest.mark.parametrize("explicit", [False, True])
    def test_limit_is_inclusive(self, explicit):
        # 1,024 x 251 x 512 int32 ranks, 1,024 x 512 float penalties and one block of 2^17 cells at 48 bytes
        assert MAX_SWEEP_BYTES == 1024 * 512 * (251 * 4 + 8) + 2**17 * 48
        subsets = enumerate_group_subsets([f"G{i + 1}" for i in range(10)]) if explicit else None
        spec = flat_spec(10, 512, s_grid=np.linspace(0.0, 1.0, 251), group_subsets=subsets)
        assert (len(spec.group_subsets), spec.s_grid.size, spec.matrix.m) == (1024, 251, 512)
        with pytest.raises(InputError, match="1,024 subsets x 252 grid points x 512 alternatives"):
            flat_spec(10, 512, s_grid=np.linspace(0.0, 1.0, 252), group_subsets=subsets)


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
        for grid in ([0.0, 1.5], [np.nan], [0.0, np.nan]):
            with pytest.raises(InputError, match=r"\[0, 1\]"):
                SweepSpec(matrix=m, hierarchy=h, weights=w, s_grid=grid)

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

    @pytest.mark.parametrize(
        "build, scores, ranks",
        [
            pytest.param(run_sweep, "utilities", "ranks", id="run_sweep"),
            pytest.param(lambda spec: evaluate(spec.matrix, spec.weights, 0.5), "utilities", "ranking", id="evaluate"),
            pytest.param(
                lambda spec: evaluate_with_group_s(spec.matrix, spec.weights, spec.hierarchy, ("G2",), 0.5),
                "utilities",
                "ranking",
                id="evaluate_with_group_s",
            ),
            *[
                pytest.param(
                    lambda spec, method=method: getattr(benchmarks, method)(spec.matrix, spec.weights),
                    "values",
                    "ranking",
                    id=method,
                )
                for method in benchmarks.METHODS
            ],
        ],
    )
    def test_sweep_freezes_the_arrays_it_built_without_copying(self, monkeypatch, build, scores, ranks):
        spec, _ = small_sweep()
        copied = []
        # the result types freeze their arrays in core, through its own binding
        monkeypatch.setattr(core, "_frozen_array", lambda obj, name, values: copied.append(name))
        result = build(spec)
        assert copied == []
        arrays = [f.name for f in dataclasses.fields(result) if isinstance(getattr(result, f.name), np.ndarray)]
        assert not any(getattr(result, name).flags.writeable for name in [scores, ranks, *arrays])
        rank_dtype = np.int32 if build is run_sweep else int
        assert getattr(result, scores).dtype == float and getattr(result, ranks).dtype == rank_dtype
        # arrays passed in by a caller are still copied, through the patched helper
        type(result)(**{f.name: getattr(result, f.name) for f in dataclasses.fields(result)})
        assert sorted(copied) == sorted(arrays)

    def test_trajectory_lookup(self):
        spec, result = small_sweep()
        traj = result.rank_trajectory("a1", ("G1", "G2", "G3"))
        assert traj.shape == (len(spec.s_grid),)
        assert traj[0] == result.ranks[0, 0, 0]
        with pytest.raises(InputError, match="alternative 'zz' not in the result"):
            result.rank_trajectory("zz", ("G1", "G2", "G3"))

    def test_unknown_subset_in_trajectory_is_rejected(self):
        _, result = small_sweep()
        with pytest.raises(InputError, match="not in sweep"):
            result.rank_trajectory("a1", ("G9",))

    def test_list_grid_and_subsets_are_frozen_like_the_arrays(self):
        grid = [0.0, 1.0]
        result = SweepResult(("a", "b"), [["G1"]], grid, [0.5, 0.25], [[0.5, 0.0]], [[[1, 2], [2, 1]]])
        assert result.subsets == (("G1",),)
        assert result.s_grid.dtype == float and not result.s_grid.flags.writeable
        grid[1] = 0.5
        assert result.s_grid.tolist() == [0.0, 1.0]
        assert [(r["s"], r["rank"]) for r in result.to_records()] == [(0.0, 1), (0.0, 2), (1.0, 2), (1.0, 1)]
        assert result.rank_trajectory("a", ("G1",)).tolist() == [1, 2]

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

    def test_sweeps_are_paired_by_alternative_not_position(self):
        spec, result = small_sweep()
        m = spec.matrix
        reversed_matrix = DecisionMatrix(m.alternative_ids[::-1], m.criterion_ids, m.values[::-1], m.objectives)
        reversed_result = run_sweep(dataclasses.replace(spec, matrix=reversed_matrix))
        assert np.array_equal(reversed_result.ranks[:, :, ::-1], result.ranks)
        assert compare_rankings(result, reversed_result) == compare_rankings(result, result)

    def test_sweeps_over_different_alternatives_are_refused(self):
        _, result = small_sweep()
        renamed = dataclasses.replace(result, alternative_ids=("a1", "x2", "a3", "a4", "a5", "x6"))
        message = "alternative ids differ between the two results; in only one: a2, a6, x2, x6"
        with pytest.raises(InputError, match=f"^{message}$"):
            compare_rankings(result, renamed)


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
        base=np.zeros(m),
        penalty=np.zeros((1, m)),
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


class TestCompareRankingsErrors:
    def test_ranks_outside_one_to_n_name_the_subset(self):
        a = {("G1",): [1, 2, 3], ("G1", "G4"): [1, 2, 9]}
        b = {("G1",): [3, 2, 1], ("G1", "G4"): [3, 2, 1]}
        message = r"subset G1\+G4: first ranking has ranks outside 1\.\.3"
        with pytest.raises(InputError, match=message):
            compare_rankings(a, b)

    def test_a_constant_ranking_names_the_subset(self):
        a = {("G1",): [1, 2, 3], ("G1", "G4"): [1, 2, 3]}
        b = {("G1",): [3, 2, 1], ("G1", "G4"): [2, 2, 2]}
        message = r"subset G1\+G4: correlation undefined for a constant vector"
        with pytest.raises(NumericalError, match=message):
            compare_rankings(a, b)

    def test_ragged_rankings_name_the_subset_of_the_bad_row(self):
        a = {("G1",): [1, 2, 3], ("G2",): [1, 2], ("G1", "G2"): [2, 1, 3]}
        b = {("G1",): [3, 2, 1], ("G2",): [2, 1], ("G1", "G2"): [1, 2, np.nan]}
        with pytest.raises(InputError, match=r"subset G1\+G2: vectors must be finite"):
            compare_rankings(a, b)

    def test_a_short_ranking_names_the_subset(self):
        with pytest.raises(InputError, match=r"subset G2: need at least 2 entries, got 1"):
            compare_rankings({("G1",): [1, 2], ("G2",): [1]}, {("G1",): [2, 1], ("G2",): [1]})

    def test_lengths_that_differ_name_the_subset(self):
        with pytest.raises(InputError, match="ranking lengths differ for subset G2"):
            compare_rankings({("G1",): [1, 2], ("G2",): [1, 2]}, {("G1",): [2, 1], ("G2",): [1, 2, 3]})


# Oracles: the per-subset and per-alternative loops the sweep and its
# summaries ran before they became array operations.


def membership_oracle(hierarchy, subsets, criterion_ids):
    """One coefficient vector per subset, each built by a walk over the hierarchy."""
    rows = []
    for subset in subsets:
        known = set(hierarchy.dimension_ids())
        unknown = [g for g in subset if g not in known]
        if unknown:
            raise InputError(f"unknown group id(s): {', '.join(unknown)}")
        dim_of = dict(flatten_hierarchy(hierarchy))
        missing = [c for c in criterion_ids if c not in dim_of]
        if missing:
            raise InputError(f"criteria not present in the hierarchy: {', '.join(missing)}")
        selected = set(subset)
        rows.append([1.0 if dim_of[c] in selected else 0.0 for c in criterion_ids])
    return np.array(rows)


def ordinal_ranks_oracle(scores):
    """Float ranks along the last axis from one stable argsort, ties in input order."""
    order = np.argsort(-scores, axis=-1, kind="stable")
    ranks = np.empty(scores.shape)
    np.put_along_axis(ranks, order, np.arange(1, scores.shape[-1] + 1, dtype=float), axis=-1)
    return ranks


def sweep_oracle(spec):
    """Utilities and ranks of every cell from the per-subset membership loop."""
    matrix = spec.matrix
    w = spec.weights.aligned(matrix.criterion_ids)
    r = normalize_minmax(matrix).values
    membership = membership_oracle(spec.hierarchy, spec.group_subsets, matrix.criterion_ids)
    penalty = membership @ (np.abs(r.mean(axis=0) - r) * w).T
    utilities = (r @ w) - spec.s_grid[None, :, None] * penalty[:, None, :]
    return utilities, ordinal_ranks_oracle(utilities).astype(int)


def stability_oracle(result):
    """Per-alternative walk over the rank trajectories."""
    report = {}
    lowest = result.ranks.min(axis=(0, 1))
    highest = result.ranks.max(axis=(0, 1))
    for ai, alt in enumerate(result.alternative_ids):
        deltas = np.diff(result.ranks[-1, :, ai])
        if (deltas == 0).all():
            direction = "flat"
        elif (deltas <= 0).all():
            direction = "improving"
        elif (deltas >= 0).all():
            direction = "declining"
        else:
            direction = "mixed"
        span = int(highest[ai] - lowest[ai])
        report[alt] = {
            "min_rank": int(lowest[ai]),
            "max_rank": int(highest[ai]),
            "span": span,
            "stable": span <= 1,
            "monotone_direction": direction,
        }
    return report


def compare_oracle(a, b):
    """One weighted Spearman and one Pearson call per subset."""
    if isinstance(a, SweepResult):
        a, b = a.final_rankings(), b.final_rankings()
    return {tuple(sub): (weighted_spearman(a[sub], b[sub]), pearson(a[sub], b[sub])) for sub in a}


@st.composite
def grouped_sweep(draw):
    """A k = 1..6 dimension sweep with tied and constant columns, shuffled criteria and any grid."""
    k = draw(st.integers(min_value=1, max_value=6))
    per_dim = draw(st.lists(st.integers(min_value=1, max_value=2), min_size=k, max_size=k))
    dims, ids = [], []
    for d, count in enumerate(per_dim):
        crits = tuple(f"C{len(ids) + j + 1}" for j in range(count))
        ids += crits
        dims.append(Dimension(id=f"G{d + 1}", name=f"g{d + 1}", sub_dimensions=(SubDimension("sd", crits),)))
    n = len(ids)
    order = draw(st.permutations(range(n)))
    m = draw(st.integers(min_value=2, max_value=6))
    cell = st.sampled_from([1.0, 2.0, 2.0, 5.0, 7.5])
    values = np.array(draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=m, max_size=m)))
    for j, constant in enumerate(draw(st.lists(st.booleans(), min_size=n, max_size=n))):
        if constant:
            values[:, j] = 3.0
    objectives = draw(st.lists(st.sampled_from(["max", "min"]), min_size=n, max_size=n))
    h = CriteriaHierarchy(dimensions=tuple(dims), objectives=dict(zip(ids, objectives)))
    criterion_ids = tuple(ids[i] for i in order)
    matrix = DecisionMatrix(
        tuple(f"a{i + 1}" for i in range(m)), criterion_ids, values, tuple(h.objectives[c] for c in criterion_ids)
    )
    levels = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=n, max_size=n)))
    levels[draw(st.integers(min_value=0, max_value=n - 1))] = 1.0
    grid = draw(st.sampled_from([None, [0.0], [1.0], [0.5], [0.0, 0.5, 1.0]]))
    subsets = None
    if draw(st.booleans()):
        every = enumerate_group_subsets(h.dimension_ids())
        subsets = draw(st.lists(st.sampled_from(every), min_size=1, max_size=len(every), unique=True))
    weights = WeightVector(levels / levels.sum(), ids)
    return SweepSpec(matrix=matrix, hierarchy=h, weights=weights, s_grid=grid, group_subsets=subsets)


@given(grouped_sweep())
@settings(max_examples=80, deadline=None)
def test_sweep_equals_the_per_subset_oracle(spec):
    result = run_sweep(spec)
    utilities, ranks = sweep_oracle(spec)
    assert np.array_equal(result.utilities, utilities)
    assert result.ranks.dtype.kind == "i"
    assert np.array_equal(result.ranks, ranks)
    membership = membership_oracle(spec.hierarchy, spec.group_subsets, spec.matrix.criterion_ids)
    for subset, row in zip(spec.group_subsets, membership):
        coeffs = SustainabilityCoefficients.for_groups(spec.hierarchy, subset, 0.5, spec.matrix.criterion_ids)
        assert np.array_equal(coeffs.s, row * 0.5)


@given(grouped_sweep(), st.data())
@settings(max_examples=80, deadline=None)
def test_summaries_equal_the_loop_oracles(spec, data):
    result = run_sweep(spec)
    assert stability_report(result) == stability_oracle(result)
    other = run_sweep(
        SweepSpec(
            matrix=spec.matrix,
            hierarchy=spec.hierarchy,
            weights=WeightVector(np.full(spec.matrix.n, 1 / spec.matrix.n), spec.matrix.criterion_ids),
            s_grid=spec.s_grid,
            group_subsets=spec.group_subsets,
        )
    )
    assert compare_rankings(result, other) == compare_oracle(result, other)
    mixed = data.draw(st.booleans())
    plain = other.final_rankings() if mixed else other
    assert compare_rankings(result, plain) == compare_oracle(result, other)


@st.composite
def ragged_rankings(draw):
    """Two subset -> ranking mappings whose rankings differ in length, average ranks included."""
    subsets = draw(st.lists(st.sampled_from(enumerate_group_subsets(("G1", "G2", "G3"))), min_size=1, unique=True))
    a, b = {}, {}
    for subset in subsets:
        n = draw(st.integers(min_value=2, max_value=9))
        for side in (a, b):
            scores = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=n, max_size=n)))
            if (scores == scores[0]).all():
                scores[0] += 1.0  # a constant ranking has no Pearson coefficient
            side[subset] = rank_from_scores(scores, ties=draw(st.sampled_from(["average", "input-order"])))
    return a, b


@given(ragged_rankings())
@settings(max_examples=100, deadline=None)
def test_ragged_mappings_equal_the_per_subset_oracle(pair):
    a, b = pair
    assert compare_rankings(a, b) == compare_oracle(a, b)


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=2, max_value=6),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_stability_report_equals_the_per_alternative_oracle(n_subsets, n_grid, m, data):
    ranks = np.array(
        data.draw(
            st.lists(
                st.lists(st.lists(st.integers(1, m), min_size=m, max_size=m), min_size=n_grid, max_size=n_grid),
                min_size=n_subsets,
                max_size=n_subsets,
            )
        )
    )
    result = SweepResult(
        alternative_ids=tuple(f"a{i + 1}" for i in range(m)),
        subsets=enumerate_group_subsets(("G1", "G2"))[:n_subsets],
        s_grid=np.linspace(0.0, 1.0, n_grid),
        base=np.zeros(m),
        penalty=np.zeros((n_subsets, m)),
        ranks=ranks,
    )
    assert stability_report(result) == stability_oracle(result)


@contextlib.contextmanager
def ranking_blocks(cells):
    """Rank in blocks of ``cells`` cells; None keeps the shipped block."""
    with pytest.MonkeyPatch.context() as mp:
        if cells is not None:
            mp.setattr(correlation, "_BLOCK_CELLS", cells)
        yield


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([None, 1, 2, 3]),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_blocked_ranks_equal_the_stable_sort_oracle(rows, m, block_rows, data):
    pool = st.sampled_from([-0.0, 0.0, 0.5, -0.5, 1.0, 2.0**-1074])
    key = np.array(data.draw(st.lists(st.lists(pool, min_size=m, max_size=m), min_size=rows, max_size=rows)))
    if rows == 1 and data.draw(st.booleans()):
        key = key[0]
    with ranking_blocks(None if block_rows is None else block_rows * m):
        ranks = correlation._ordinal_ranks(key)
    assert np.array_equal(ranks, ordinal_ranks_oracle(-key))


def eighths_spec(values):
    """A sweep over ``two_level_hierarchy`` whose utilities are exact: values 0..8, weights in eighths."""
    weights = WeightVector(np.array([2, 1, 2, 1, 1, 1]) / 8, tuple(f"C{j + 1}" for j in range(6)))
    return SweepSpec(make_matrix(values, crit_prefix="C"), two_level_hierarchy(), weights)


def crossing_ties(utilities):
    """(subset, s, a, b) cells where a and b tie exactly but swap order between s = 0 and s = 1."""
    gap = utilities[:, :, :, None] - utilities[:, :, None, :]
    return np.argwhere((gap == 0) & (gap[:, :1] * gap[:, -1:] < 0))


@pytest.mark.parametrize("block_rows", [None, 1, 2, 3])
def test_duplicated_alternatives_tie_in_input_order(block_rows):
    distinct = np.random.default_rng(11).integers(0, 9, size=(16, 6)).astype(float)
    distinct[0], distinct[1] = 0.0, 8.0
    values = distinct[np.random.default_rng(12).permutation(np.arange(32) % 16)]
    spec = eighths_spec(values)
    with ranking_blocks(block_rows and block_rows * 32):
        result = run_sweep(spec)
    utilities, ranks = sweep_oracle(spec)
    assert np.array_equal(result.utilities, utilities)
    assert np.array_equal(result.ranks, ranks)
    # the two copies of a row tie at every cell, and the earlier one ranks first
    for row in distinct:
        early, late = np.flatnonzero((values == row).all(axis=1))
        assert (utilities[..., early] == utilities[..., late]).all()
        assert (result.ranks[..., early] < result.ranks[..., late]).all()


@pytest.mark.parametrize("block_rows", [None, 1, 2, 3])
def test_lines_crossing_on_a_grid_point_tie_in_input_order(block_rows):
    values = np.random.default_rng(17).integers(0, 9, size=(16, 6)).astype(float)
    values[0], values[1] = 0.0, 8.0
    spec = eighths_spec(values)
    with ranking_blocks(block_rows and block_rows * 16):
        result = run_sweep(spec)
    utilities, ranks = sweep_oracle(spec)
    assert np.array_equal(result.utilities, utilities)
    assert np.array_equal(result.ranks, ranks)
    ties = crossing_ties(utilities)
    assert len(ties) >= 2 * 20  # each crossing is found as (a, b) and as (b, a)
    for si, gi, a, b in ties[ties[:, 2] < ties[:, 3]]:
        assert result.ranks[si, gi, a] < result.ranks[si, gi, b]
