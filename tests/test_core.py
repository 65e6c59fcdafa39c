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
    WeightVector,
    flatten_hierarchy,
    normalize_minmax,
    validate_matrix,
)

from conftest import make_matrix


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

    def test_aligned_reorders_by_id(self):
        wv = WeightVector(np.array([0.25, 0.75]), ("c1", "c2"))
        assert wv.aligned(("c2", "c1")).tolist() == [0.75, 0.25]
        with pytest.raises(InputError, match="do not match"):
            wv.aligned(("c1", "c3"))


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

    def test_duplicate_criterion_membership_is_structural_error(self):
        h = CriteriaHierarchy(
            dimensions=(
                Dimension("G1", "g1", (SubDimension("sd1", ("C1",)),)),
                Dimension("G2", "g2", (SubDimension("sd1", ("C1",)),)),
            ),
            objectives={"C1": "max"},
        )
        with pytest.raises(InputError, match="more than one sub-dimension"):
            flatten_hierarchy(h)

    def test_duplicate_dimension_id_is_structural_error(self):
        h = CriteriaHierarchy(
            dimensions=(
                Dimension("G1", "g1", (SubDimension("sd1", ("C1",)),)),
                Dimension("G1", "g2", (SubDimension("sd1", ("C2",)),)),
            ),
            objectives={"C1": "max", "C2": "max"},
        )
        with pytest.raises(InputError, match="duplicate dimension"):
            flatten_hierarchy(h)
