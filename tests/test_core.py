import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspahp import (
    BenchmarkScore,
    CriteriaHierarchy,
    DecisionMatrix,
    Dimension,
    EvaluationResult,
    InputError,
    NormalizedMatrix,
    PairwiseMatrix,
    SubDimension,
    SustainabilityCoefficients,
    SweepResult,
    SweepSpec,
    WeightVector,
    critic_weights,
    evaluate,
    flatten_hierarchy,
    normalize_minmax,
    run_all,
    run_sweep,
    topsis,
    validate_matrix,
)
from sspahp import core
from sspahp.io import load_decision_matrix, load_hierarchy, write_hierarchy_json, write_matrix_csv
from sspahp.sample import sample_hierarchy, sample_matrix

from conftest import make_matrix, two_level_hierarchy


class TestValidateMatrix:
    def test_clean_matrix_yields_empty_report(self):
        report = validate_matrix(make_matrix([[1.0, 2.0], [3.0, 4.0]]))
        assert report.ok
        assert report.issues == ()
        assert bool(report)

    def test_non_finite_cell_is_reported(self):
        report = validate_matrix(make_matrix([[1.0, np.nan], [3.0, 4.0]]))
        assert not report.ok
        assert sum("non-finite cell" in i for i in report.issues) == 1
        assert "row 1, column 2" in report.issues[0]

    def test_objective_arity_is_reported(self):
        m = DecisionMatrix(
            alternative_ids=("a1", "a2"),
            criterion_ids=("c1", "c2"),
            values=[[1.0, 2.0], [3.0, 4.0]],
            objectives=("max",),
        )
        report = validate_matrix(m)
        assert sum("objective arity" in i for i in report.issues) == 1

    def test_duplicate_ids_are_reported(self):
        m = DecisionMatrix(
            alternative_ids=("a1", "a1"),
            criterion_ids=("c1", "c2"),
            values=[[1.0, 2.0], [3.0, 4.0]],
            objectives=("max", "max"),
        )
        issues = validate_matrix(m).issues
        assert any("duplicate alternative id 'a1'" in i for i in issues)

    def test_single_alternative_is_rejected(self):
        report = validate_matrix(make_matrix([[1.0, 2.0]]))
        assert any("at least 2 alternatives" in i for i in report.issues)

    def test_unknown_objective_token_is_reported(self):
        m = make_matrix([[1.0], [2.0]], objectives=("maximize",))
        assert any("unknown objective" in i for i in validate_matrix(m).issues)


class TestValidateOnce:
    def test_one_check_per_matrix_from_load_to_reference_methods(self, tmp_path, monkeypatch):
        h = sample_hierarchy()
        path = tmp_path / "matrix.csv"
        write_matrix_csv(sample_matrix(hierarchy=h), path)
        calls = []
        checked = core.validate_matrix
        monkeypatch.setattr(core, "validate_matrix", lambda m: calls.append(m) or checked(m))
        matrix = load_decision_matrix(path, h)
        w = critic_weights(matrix)
        evaluate(matrix, w, 0.5)
        run_all(matrix, w)
        assert calls == [matrix]

    def test_a_passed_check_leaves_fields_and_repr_alone(self):
        checked, fresh = (make_matrix([[1.0, 2.0], [3.0, 4.0]]) for _ in range(2))
        normalize_minmax(checked)
        assert [f.name for f in dataclasses.fields(checked)] == [
            "alternative_ids", "criterion_ids", "values", "objectives"
        ]
        assert repr(checked) == repr(fresh)

    def test_a_failed_check_is_never_recorded(self):
        matrix = make_matrix([[1.0, np.nan], [3.0, 4.0], [2.0, 5.0]])
        w = WeightVector(np.array([0.5, 0.5]), matrix.criterion_ids)
        h = CriteriaHierarchy(
            dimensions=(Dimension(id="G1", name="g", sub_dimensions=(SubDimension("sd", ("c1", "c2")),)),),
            objectives={"c1": "max", "c2": "max"},
        )
        calls = (
            lambda: evaluate(matrix, w, 0.0),
            lambda: topsis(matrix, w),
            lambda: critic_weights(matrix),
            lambda: run_sweep(SweepSpec(matrix=matrix, hierarchy=h, weights=w)),
        )
        for _ in range(2):
            for call in calls:
                with pytest.raises(InputError, match="non-finite cell at row 1, column 2"):
                    call()


class TestNormalizeOnce:
    def test_one_scaling_per_matrix_from_weights_to_sweeps(self, monkeypatch):
        h = sample_hierarchy()
        matrix = sample_matrix(hierarchy=h)
        calls = []
        scale = core.normalize_minmax
        monkeypatch.setattr(core, "normalize_minmax", lambda m: calls.append(m) or scale(m))
        w = critic_weights(matrix)
        evaluate(matrix, w, 0.5)
        run_all(matrix, w)
        run_sweep(SweepSpec(matrix=matrix, hierarchy=h, weights=w, group_subsets=(("G1",),)))
        assert calls == [matrix]

    def test_the_kept_result_carries_its_warnings(self):
        matrix = make_matrix([[1.0, 2.0], [1.0, 4.0], [1.0, 3.0]])
        kept = core._normalized(matrix)
        assert kept is core._normalized(matrix)
        assert kept == normalize_minmax(matrix)
        assert kept.warnings == ("criterion 'c1' is constant; all cells set to 0.5",)
        assert [f.name for f in dataclasses.fields(matrix)] == [
            "alternative_ids", "criterion_ids", "values", "objectives"
        ]

    def test_an_invalid_matrix_is_never_kept(self):
        matrix = make_matrix([[1.0, np.nan], [3.0, 4.0]])
        for _ in range(2):
            with pytest.raises(InputError, match="non-finite cell"):
                core._normalized(matrix)
        assert not hasattr(matrix, "_normalized")


class TestNormalizeMinmax:
    def test_profit_column_maps_to_unit_interval(self):
        norm = normalize_minmax(make_matrix([[2.0], [4.0], [6.0]]))
        assert np.allclose(norm.values[:, 0], [0.0, 0.5, 1.0])

    def test_cost_column_flips_direction(self):
        norm = normalize_minmax(make_matrix([[2.0], [4.0], [6.0]], objectives=("min",)))
        assert np.allclose(norm.values[:, 0], [1.0, 0.5, 0.0])

    @pytest.mark.parametrize("objective", ["max", "min"])
    def test_constant_column_becomes_neutral_with_warning(self, objective):
        norm = normalize_minmax(make_matrix([[3.0], [3.0], [3.0]], objectives=(objective,)))
        assert np.all(norm.values == 0.5)
        assert len(norm.warnings) == 1
        assert "constant" in norm.warnings[0]

    def test_invalid_matrix_is_rejected(self):
        with pytest.raises(InputError, match="non-finite"):
            normalize_minmax(make_matrix([[np.inf], [1.0]]))

    def test_ids_carried_through(self):
        m = make_matrix([[1.0, 2.0], [3.0, 4.0]])
        norm = normalize_minmax(m)
        assert norm.alternative_ids == m.alternative_ids
        assert norm.criterion_ids == m.criterion_ids


# strategies for property tests: bounded floats, guaranteed column spread
_cols = st.integers(min_value=1, max_value=6)
_rows = st.integers(min_value=2, max_value=12)


@st.composite
def spread_matrix(draw):
    m = draw(_rows)
    n = draw(_cols)
    cells = draw(
        st.lists(
            st.lists(
                st.floats(min_value=-50, max_value=50, allow_nan=False),
                min_size=n,
                max_size=n,
            ),
            min_size=m,
            max_size=m,
        )
    )
    values = np.asarray(cells)
    # force a clear spread in every column so spans are well conditioned
    values[0] = -60.0
    values[1] = 60.0
    return values


@given(spread_matrix())
@settings(max_examples=60, deadline=None)
def test_normalization_is_idempotent(values):
    first = normalize_minmax(make_matrix(values)).values
    second = normalize_minmax(make_matrix(first)).values
    assert np.max(np.abs(second - first)) < 1e-12


@given(spread_matrix())
@settings(max_examples=60, deadline=None)
def test_profit_and_cost_normalizations_are_dual(values):
    n = values.shape[1]
    profit = normalize_minmax(make_matrix(values, ("max",) * n)).values
    cost = normalize_minmax(make_matrix(values, ("min",) * n)).values
    assert np.max(np.abs(profit + cost - 1.0)) < 1e-12


@given(
    spread_matrix(),
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=-100.0, max_value=100.0),
)
@settings(max_examples=60, deadline=None)
def test_normalization_ignores_positive_affine_rescaling(values, a, b):
    base = normalize_minmax(make_matrix(values)).values
    scaled = normalize_minmax(make_matrix(a * values + b)).values
    assert np.max(np.abs(scaled - base)) < 1e-12


@given(spread_matrix())
@settings(max_examples=60, deadline=None)
def test_normalized_cells_stay_in_unit_interval(values):
    norm = normalize_minmax(make_matrix(values)).values
    assert norm.min() >= 0.0
    assert norm.max() <= 1.0


class TestWeightVector:
    def test_rejects_sum_away_from_one(self):
        with pytest.raises(InputError, match="sum"):
            WeightVector(np.array([0.5, 0.4]), ("c1", "c2"))

    def test_rejects_negative_weight(self):
        with pytest.raises(InputError, match="negative"):
            WeightVector(np.array([1.2, -0.2]), ("c1", "c2"))

    def test_accepts_valid_vector(self):
        wv = WeightVector(np.array([0.25, 0.75]), ("c1", "c2"))
        assert wv.as_dict() == {"c1": 0.25, "c2": 0.75}

    def test_rejects_duplicate_ids(self):
        with pytest.raises(InputError, match="duplicate weight id 'C1'"):
            WeightVector(np.array([0.5, 0.3, 0.2]), ("C1", "C1", "C2"))

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([np.nan, 1.0], "non-finite weight nan for criterion 'c1'"),
            ([1.0, np.nan], "non-finite weight nan for criterion 'c2'"),
            ([np.inf, -np.inf], "non-finite weight inf for criterion 'c1'"),
            ([0.5, np.inf], "non-finite weight inf for criterion 'c2'"),
        ],
    )
    def test_rejects_non_finite_weight_naming_the_criterion(self, weights, message):
        with pytest.raises(InputError, match=message):
            WeightVector(np.array(weights), ("c1", "c2"))

    def test_aligned_reorders_by_id(self):
        wv = WeightVector(np.array([0.25, 0.75]), ("c1", "c2"))
        assert wv.aligned(("c2", "c1")).tolist() == [0.75, 0.25]
        with pytest.raises(InputError, match="do not match"):
            wv.aligned(("c1", "c3"))

    def test_aligned_mismatch_names_only_the_unknown_and_missing_ids(self):
        ids = sample_hierarchy().criterion_ids()
        renamed = tuple("C99" if c == "C7" else c for c in ids)
        wv = WeightVector(np.full(len(ids), 1 / len(ids)), renamed)
        with pytest.raises(InputError, match="weight ids do not match") as info:
            wv.aligned(ids)
        named = re.findall(r"C\d+", str(info.value))
        assert named == ["C99", "C7"]
        assert "unknown C99" in str(info.value) and "missing C7" in str(info.value)


class TestFlattenHierarchy:
    def test_dimension_major_order_with_group_labels(self):
        h = CriteriaHierarchy(
            dimensions=(
                Dimension("G1", "g1", (SubDimension("sd1", ("C1", "C2")),)),
                Dimension("G2", "g2", (SubDimension("sd1", ("C3",)),)),
            ),
            objectives={"C1": "max", "C2": "max", "C3": "max"},
        )
        assert flatten_hierarchy(h) == [("C1", "G1"), ("C2", "G1"), ("C3", "G2")]

    def test_single_criterion_hierarchy(self):
        h = CriteriaHierarchy(
            dimensions=(Dimension("G1", "g1", (SubDimension("sd", ("C1",)),)),),
            objectives={"C1": "min"},
        )
        assert flatten_hierarchy(h) == [("C1", "G1")]

    def test_membership_names_criteria_absent_from_the_hierarchy(self):
        with pytest.raises(InputError, match=r"^criteria not present in the hierarchy: C9, X1$"):
            SustainabilityCoefficients.for_groups(two_level_hierarchy(), ("G1",), 0.5, ("C1", "C9", "C2", "X1"))

    def test_duplicate_criterion_membership_is_structural_error(self):
        with pytest.raises(
            InputError, match=r"^dimensions\[1\]\.sub_dimensions\[0\]\.criteria\[0\]: duplicate criterion 'C1'$"
        ):
            CriteriaHierarchy(
                dimensions=(
                    Dimension("G1", "g1", (SubDimension("sd1", ("C1",)),)),
                    Dimension("G2", "g2", (SubDimension("sd1", ("C1",)),)),
                ),
                objectives={"C1": "max"},
            )

    def test_dimension_without_sub_dimensions_is_structural_error(self):
        with pytest.raises(InputError, match=r"^dimensions\[1\]: dimension 'G2' has no sub-dimensions$"):
            CriteriaHierarchy(
                dimensions=(Dimension("G1", "g1", (SubDimension("sd1", ("C1",)),)), Dimension("G2", "g2", ())),
                objectives={"C1": "max"},
            )

    def test_sub_dimension_without_criteria_is_structural_error(self):
        with pytest.raises(
            InputError, match=r"^dimensions\[0\]\.sub_dimensions\[1\]: sub-dimension 'sd2' of 'G1' has no criteria$"
        ):
            CriteriaHierarchy(
                dimensions=(Dimension("G1", "g1", (SubDimension("sd1", ("C1",)), SubDimension("sd2", ()))),),
                objectives={"C1": "max"},
            )

    def test_a_repeat_is_named_before_an_earlier_empty_entry(self):
        with pytest.raises(InputError, match=r"^dimensions\[2\]: duplicate dimension id 'G1'$"):
            CriteriaHierarchy(
                dimensions=(
                    Dimension("G1", "g1", (SubDimension("sd1", ("C1",)),)),
                    Dimension("G2", "g2", ()),
                    Dimension("G1", "g3", (SubDimension("sd1", ("C2",)),)),
                ),
                objectives={"C1": "max", "C2": "max"},
            )

    def test_duplicate_dimension_id_is_structural_error(self):
        with pytest.raises(InputError, match="duplicate dimension"):
            CriteriaHierarchy(
                dimensions=(
                    Dimension("G1", "g1", (SubDimension("sd1", ("C1",)),)),
                    Dimension("G1", "g2", (SubDimension("sd1", ("C2",)),)),
                ),
                objectives={"C1": "max", "C2": "max"},
            )


def flatten_oracle(dimensions) -> list[tuple[str, str]]:
    """The tree walk ``flatten_hierarchy`` once ran on every call, naming each entry it refuses.

    The reference for the walk ``CriteriaHierarchy`` now makes once, when it
    is built.
    """
    seen_dims: set[str] = set()
    seen_crit: set[str] = set()
    out: list[tuple[str, str]] = []
    for i, dim in enumerate(dimensions):
        if dim.id in seen_dims:
            raise InputError(f"dimensions[{i}]: duplicate dimension id '{dim.id}'")
        seen_dims.add(dim.id)
        for j, sub in enumerate(dim.sub_dimensions):
            for k, cid in enumerate(sub.criterion_ids):
                if cid in seen_crit:
                    raise InputError(f"dimensions[{i}].sub_dimensions[{j}].criteria[{k}]: duplicate criterion '{cid}'")
                seen_crit.add(cid)
                out.append((cid, dim.id))
    # with no repeat anywhere, the first empty entry is refused
    for i, dim in enumerate(dimensions):
        if not dim.sub_dimensions:
            raise InputError(f"dimensions[{i}]: dimension '{dim.id}' has no sub-dimensions")
        for j, sub in enumerate(dim.sub_dimensions):
            if not sub.criterion_ids:
                raise InputError(f"dimensions[{i}].sub_dimensions[{j}]: sub-dimension '{sub.name}' of '{dim.id}' has no criteria")
    return out


def _numbered(shape):
    """A tree with fresh ids from its shape, [[criterion count per sub-dimension] per dimension]."""
    ids = iter(range(1, 25))
    return [(f"G{i + 1}", [[f"C{next(ids)}" for _ in range(n)] for n in subs]) for i, subs in enumerate(shape)]


# few ids, so that dimensions and criteria repeat often; or fresh ids, so
# that only the empty dimensions and sub-dimensions both kinds draw decide
_trees = st.one_of(
    st.lists(
        st.tuples(
            st.sampled_from(["G1", "G2", "G3"]),
            st.lists(st.lists(st.sampled_from(["C1", "C2", "C3", "C4", "C5", "C6"]), max_size=3), max_size=3),
        ),
        max_size=4,
    ),
    st.lists(st.lists(st.integers(min_value=0, max_value=2), max_size=3), max_size=4).map(_numbered),
)


@given(_trees)
@settings(max_examples=200, deadline=None)
def test_hierarchy_walk_matches_the_oracle(tmp_path_factory, tree):
    dimensions = tuple(
        Dimension(did, f"dimension {did}", tuple(SubDimension(f"sd{j}", tuple(cids)) for j, cids in enumerate(subs)))
        for did, subs in tree
    )
    objectives = {cid: ("max", "min")[int(cid[1:]) % 2] for _, subs in tree for cids in subs for cid in cids}
    try:
        expected = flatten_oracle(dimensions)
    except InputError as exc:
        with pytest.raises(InputError) as info:
            CriteriaHierarchy(dimensions=dimensions, objectives=objectives)
        assert str(info.value) == str(exc)
        return
    h = CriteriaHierarchy(dimensions=dimensions, objectives=objectives)
    assert flatten_hierarchy(h) == expected
    assert h.criterion_ids() == tuple(cid for cid, _ in expected)
    path = tmp_path_factory.getbasetemp() / "tree.json"
    write_hierarchy_json(h, path)
    assert load_hierarchy(path) == h


_IDS = ("a1", "a2")


@pytest.mark.parametrize(
    "build, caller",
    [
        pytest.param(
            lambda a: DecisionMatrix(_IDS, ("c1", "c2"), a, ("max", "max")).values,
            np.eye(2),
            id="DecisionMatrix",
        ),
        pytest.param(
            lambda a: NormalizedMatrix(a, _IDS, ("c1", "c2")).values,
            np.eye(2),
            id="NormalizedMatrix",
        ),
        pytest.param(
            lambda a: WeightVector(a, ("c1", "c2")).weights,
            np.array([0.25, 0.75]),
            id="WeightVector",
        ),
        pytest.param(
            lambda a: PairwiseMatrix(a).values,
            np.array([[1.0, 2.0], [0.5, 1.0]]),
            id="PairwiseMatrix",
        ),
        pytest.param(
            lambda a: SustainabilityCoefficients(a).s,
            np.array([0.25, 0.75]),
            id="SustainabilityCoefficients",
        ),
        pytest.param(
            lambda a: EvaluationResult(a, [2, 1], _IDS).utilities,
            np.array([0.25, 0.75]),
            id="EvaluationResult.utilities",
        ),
        pytest.param(
            lambda a: EvaluationResult([0.25, 0.75], a, _IDS).ranking,
            np.array([2, 1]),
            id="EvaluationResult.ranking",
        ),
        pytest.param(
            lambda a: BenchmarkScore("m", a, [2, 1], _IDS).values,
            np.array([0.25, 0.75]),
            id="BenchmarkScore.values",
        ),
        pytest.param(
            lambda a: BenchmarkScore("m", [0.25, 0.75], a, _IDS).ranking,
            np.array([2, 1]),
            id="BenchmarkScore.ranking",
        ),
        pytest.param(
            lambda a: SweepSpec(
                make_matrix(np.eye(2)),
                two_level_hierarchy(),
                WeightVector([0.5, 0.5], ("c1", "c2")),
                s_grid=a,
            ).s_grid,
            np.array([0.0, 0.5, 1.0]),
            id="SweepSpec.s_grid",
        ),
        pytest.param(
            lambda a: SweepResult(_IDS, ((),), [0.0], a, [[0.0, 0.0]], [[[2, 1]]]).utilities,
            np.array([0.25, 0.75]),
            id="SweepResult.utilities",
        ),
        pytest.param(
            lambda a: SweepResult(_IDS, ((),), [0.0], a, [[0.0, 0.0]], [[[2, 1]]]).base,
            np.array([0.25, 0.75]),
            id="SweepResult.base",
        ),
        pytest.param(
            lambda a: SweepResult(_IDS, ((),), [0.0], [0.25, 0.75], a, [[[2, 1]]]).penalty,
            np.array([[0.0, 0.5]]),
            id="SweepResult.penalty",
        ),
        pytest.param(
            lambda a: SweepResult(_IDS, ((),), [0.0], [0.25, 0.75], [[0.0, 0.0]], a).ranks,
            np.array([[[2, 1]]]),
            id="SweepResult.ranks",
        ),
    ],
)
def test_construction_leaves_the_caller_array_writable(build, caller):
    caller = caller.copy()
    kept = build(caller)
    before = kept.copy()
    caller[...] = 0
    assert np.array_equal(kept, before)
    with pytest.raises(ValueError, match="read-only"):
        kept[...] = 0


def _sweep_result(ranks):
    return SweepResult(_IDS, ((),), [0.0], [0.25, 0.75], [[0.0, 0.0]], ranks)


@pytest.mark.parametrize(
    "build, same, other",
    [
        pytest.param(
            lambda a: DecisionMatrix(_IDS, ("c1", "c2"), a, ("max", "max")),
            np.eye(2),
            np.array([[1.0, 0.0], [0.0, 2.0]]),
            id="DecisionMatrix",
        ),
        pytest.param(
            lambda a: NormalizedMatrix(a, _IDS, ("c1", "c2")), np.eye(2), 1 - np.eye(2), id="NormalizedMatrix"
        ),
        pytest.param(
            lambda a: WeightVector(a, ("c1", "c2")), np.array([0.25, 0.75]), np.array([0.75, 0.25]), id="WeightVector"
        ),
        pytest.param(
            PairwiseMatrix, np.array([[1.0, 2.0], [0.5, 1.0]]), np.array([[1.0, 4.0], [0.25, 1.0]]), id="PairwiseMatrix"
        ),
        pytest.param(
            SustainabilityCoefficients, np.array([0.25, 0.75]), np.array([0.25, 0.5]), id="SustainabilityCoefficients"
        ),
        pytest.param(
            lambda a: EvaluationResult([0.25, 0.75], a, _IDS), np.array([2, 1]), np.array([1, 2]), id="EvaluationResult"
        ),
        pytest.param(
            lambda a: BenchmarkScore("m", a, [2, 1], _IDS),
            np.array([0.25, 0.75]),
            np.array([0.25, 0.5]),
            id="BenchmarkScore",
        ),
        pytest.param(
            lambda a: SweepSpec(
                make_matrix(np.eye(2)), two_level_hierarchy(), WeightVector([0.5, 0.5], ("c1", "c2")), s_grid=a
            ),
            np.array([0.0, 0.5, 1.0]),
            np.array([0.0, 1.0]),
            id="SweepSpec",
        ),
        pytest.param(_sweep_result, np.array([[[2, 1]]]), np.array([[[1, 2]]]), id="SweepResult"),
    ],
)
def test_equality_of_array_holders_is_one_bool(build, same, other):
    first, second, changed = build(same), build(same.copy()), build(other)
    assert (first == second) is True
    assert (first != second) is False
    assert (first == changed) is False
    assert (first != changed) is True
    assert (first == "not a dataclass") is False
