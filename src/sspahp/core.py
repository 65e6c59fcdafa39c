"""Domain types, decision-matrix validation, and direction-aware min-max scaling."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

MAX = "max"
MIN = "min"
OBJECTIVE_TOKENS = (MAX, MIN)

#: absolute tolerance for numeric invariant checks
TOL = 1e-9


def _as_2d(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise InputError(f"expected a 2-D value table, got {arr.ndim} dimension(s)")
    return arr


def _frozen_array(obj, name, values):
    arr = values.copy()
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class DecisionMatrix:
    """Raw m x n performance table with a max/min objective per criterion.

    Construction only coerces shapes; use :func:`validate_matrix` to check
    the full set of invariants (finiteness, unique ids, arity).
    """

    alternative_ids: tuple[str, ...]
    criterion_ids: tuple[str, ...]
    values: np.ndarray
    objectives: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "alternative_ids", tuple(self.alternative_ids))
        object.__setattr__(self, "criterion_ids", tuple(self.criterion_ids))
        object.__setattr__(self, "objectives", tuple(self.objectives))
        _frozen_array(self, "values", _as_2d(self.values))

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ValidationReport:
    """List of invariant violations; empty means the matrix is usable."""

    issues: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __bool__(self) -> bool:
        return self.ok


def validate_matrix(matrix: DecisionMatrix) -> ValidationReport:
    """Check every DecisionMatrix invariant and report violations.

    Report-style on purpose: callers decide whether to abort. Operations in
    this package that require a valid matrix raise
    :class:`~sspahp.errors.InputError` when the report is non-empty.
    """
    issues: list[str] = []
    m, n = matrix.values.shape

    if m < 2:
        issues.append(f"need at least 2 alternatives, got {m}")
    if n < 1:
        issues.append("need at least 1 criterion")
    if len(matrix.alternative_ids) != m:
        issues.append(
            f"alternative id arity: {len(matrix.alternative_ids)} ids for {m} rows"
        )
    if len(matrix.criterion_ids) != n:
        issues.append(
            f"criterion id arity: {len(matrix.criterion_ids)} ids for {n} columns"
        )
    if len(matrix.objectives) != n:
        issues.append(
            f"objective arity: {len(matrix.objectives)} directions for {n} criteria"
        )
    for label, ids in (
        ("alternative", matrix.alternative_ids),
        ("criterion", matrix.criterion_ids),
    ):
        seen = set()
        for i in ids:
            if i in seen:
                issues.append(f"duplicate {label} id '{i}'")
            seen.add(i)
    for tok in matrix.objectives:
        if tok not in OBJECTIVE_TOKENS:
            issues.append(f"unknown objective token '{tok}' (expected 'max' or 'min')")
    bad = ~np.isfinite(matrix.values)
    for i, j in zip(*np.nonzero(bad)):
        issues.append(f"non-finite cell at row {i + 1}, column {j + 1}")

    return ValidationReport(tuple(issues))


def require_valid(matrix: DecisionMatrix) -> None:
    """Raise InputError if the matrix violates any invariant."""
    report = validate_matrix(matrix)
    if not report.ok:
        raise InputError("invalid decision matrix: " + "; ".join(report.issues))


@dataclass(frozen=True)
class NormalizedMatrix:
    """Min-max scaled values in [0, 1], ids carried through from the source."""

    values: np.ndarray
    alternative_ids: tuple[str, ...]
    criterion_ids: tuple[str, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "alternative_ids", tuple(self.alternative_ids))
        object.__setattr__(self, "criterion_ids", tuple(self.criterion_ids))
        object.__setattr__(self, "warnings", tuple(self.warnings))
        _frozen_array(self, "values", _as_2d(self.values))


def normalize_minmax(matrix: DecisionMatrix) -> NormalizedMatrix:
    """Scale each column to [0, 1] respecting its objective direction.

    Max-direction columns map through (x - min) / (max - min); min-direction
    columns through (max - x) / (max - min), so 1 is always best. A constant
    column has no spread to scale, so every cell becomes the neutral 0.5 and
    a warning is attached to the result.
    """
    require_valid(matrix)
    x = matrix.values
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    span = hi - lo

    out = np.empty_like(x)
    warnings = []
    for j, cid in enumerate(matrix.criterion_ids):
        if span[j] == 0.0:
            out[:, j] = 0.5
            warnings.append(f"criterion '{cid}' is constant; all cells set to 0.5")
        elif matrix.objectives[j] == MAX:
            out[:, j] = (x[:, j] - lo[j]) / span[j]
        else:
            out[:, j] = (hi[j] - x[:, j]) / span[j]

    return NormalizedMatrix(
        values=out,
        alternative_ids=matrix.alternative_ids,
        criterion_ids=matrix.criterion_ids,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class WeightVector:
    """Non-negative per-criterion weights that sum to 1."""

    weights: np.ndarray
    criterion_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "criterion_ids", tuple(self.criterion_ids))
        arr = np.asarray(self.weights, dtype=float)
        if arr.ndim != 1:
            raise InputError("weights must be a flat vector")
        if len(self.criterion_ids) != arr.shape[0]:
            raise InputError(
                f"weight arity: {arr.shape[0]} weights for "
                f"{len(self.criterion_ids)} ids"
            )
        if arr.min(initial=0.0) < -TOL:
            raise InputError(f"negative weight {arr.min():.3e}")
        if abs(arr.sum() - 1.0) > TOL:
            raise InputError(f"weights sum to {arr.sum():.12f}, expected 1")
        for i, cid in enumerate(self.criterion_ids):
            if cid in self.criterion_ids[:i]:
                raise InputError(f"duplicate weight id '{cid}'")
        _frozen_array(self, "weights", np.clip(arr, 0.0, None))

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.criterion_ids, self.weights.tolist()))

    def aligned(self, criterion_ids) -> np.ndarray:
        """Weights reordered into the given id order, matched by id."""
        if set(self.criterion_ids) != set(criterion_ids):
            raise InputError(
                f"weight ids do not match: weights for {sorted(self.criterion_ids)}, "
                f"expected {sorted(criterion_ids)}"
            )
        by_id = self.as_dict()
        return np.array([by_id[c] for c in criterion_ids])


@dataclass(frozen=True)
class SubDimension:
    name: str
    criterion_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "criterion_ids", tuple(self.criterion_ids))


@dataclass(frozen=True)
class Dimension:
    id: str
    name: str
    sub_dimensions: tuple[SubDimension, ...]

    def __post_init__(self):
        object.__setattr__(self, "sub_dimensions", tuple(self.sub_dimensions))


@dataclass(frozen=True)
class CriteriaHierarchy:
    """Dimension -> sub-dimension -> criterion tree with objective directions.

    The flattened criterion order (dimension-major, then sub-dimension-major)
    is the canonical order every aligned vector follows.
    """

    dimensions: tuple[Dimension, ...]
    objectives: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "dimensions", tuple(self.dimensions))
        object.__setattr__(self, "objectives", dict(self.objectives))

    def dimension_ids(self) -> tuple[str, ...]:
        return tuple(d.id for d in self.dimensions)

    def criterion_ids(self) -> tuple[str, ...]:
        return tuple(cid for cid, _ in flatten_hierarchy(self))

    def objective_for(self, criterion_id: str) -> str:
        try:
            return self.objectives[criterion_id]
        except KeyError:
            raise InputError(f"no objective declared for criterion '{criterion_id}'")


def flatten_hierarchy(h: CriteriaHierarchy) -> list[tuple[str, str]]:
    """Return (criterion_id, dimension_id) pairs in canonical order.

    Raises InputError when a criterion is listed under more than one
    sub-dimension or a dimension id repeats.
    """
    seen_dims: set[str] = set()
    seen_crit: set[str] = set()
    out: list[tuple[str, str]] = []
    for dim in h.dimensions:
        if dim.id in seen_dims:
            raise InputError(f"duplicate dimension id '{dim.id}'")
        seen_dims.add(dim.id)
        for sub in dim.sub_dimensions:
            for cid in sub.criterion_ids:
                if cid in seen_crit:
                    raise InputError(
                        f"criterion '{cid}' appears in more than one sub-dimension"
                    )
                seen_crit.add(cid)
                out.append((cid, dim.id))
    return out
