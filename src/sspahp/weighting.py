"""Criteria-weighting backends.

Three ways to obtain a weight vector:

* pairwise judgments on the 1..9 comparison scale, solved with the principal
  eigenvector (subjective),
* entropy of the per-criterion value distribution (objective),
* CRITIC, combining column contrast with inter-criterion conflict (objective),

plus geometric-mean aggregation of several judgment matrices and equal-split
distribution of dimension weights down a criteria hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CriteriaHierarchy,
    DecisionMatrix,
    WeightVector,
    flatten_hierarchy,
    normalize_minmax,
    require_valid,
)
from .errors import ConvergenceError, DegenerateWeightsError, InputError

#: expected consistency index of random reciprocal matrices, by size
RANDOM_INDEX = {
    1: 0.0,
    2: 0.0,
    3: 0.58,
    4: 0.90,
    5: 1.12,
    6: 1.24,
    7: 1.32,
    8: 1.41,
    9: 1.45,
    10: 1.49,
}

#: judgments above this consistency ratio are conventionally rejected
CR_THRESHOLD = 0.1

_RECIPROCITY_TOL = 1e-9


@dataclass(frozen=True)
class PairwiseMatrix:
    """Positive reciprocal judgment matrix.

    User-entered matrices normally hold comparison-scale values {1..9} and
    their reciprocals; geometric-mean aggregates may hold any positive reals.
    Reciprocity (values[i][j] * values[j][i] == 1) and a unit diagonal are
    enforced at construction.
    """

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InputError("pairwise matrix must be square")
        if not np.isfinite(arr).all() or (arr <= 0).any():
            raise InputError("pairwise entries must be finite and positive")
        if np.abs(np.diag(arr) - 1.0).max(initial=0.0) > _RECIPROCITY_TOL:
            raise InputError("pairwise diagonal must be all ones")
        if np.abs(arr * arr.T - 1.0).max(initial=0.0) > _RECIPROCITY_TOL:
            i, j = np.unravel_index(
                np.argmax(np.abs(arr * arr.T - 1.0)), arr.shape
            )
            raise InputError(
                f"reciprocity violated at ({i + 1}, {j + 1}): "
                f"{arr[i, j]:g} * {arr[j, i]:g} != 1"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != arr.shape[0]:
                raise InputError(
                    f"{len(labels)} labels for a {arr.shape[0]}x{arr.shape[0]} matrix"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class ConsistencyReport:
    """Principal-eigenvalue consistency diagnostics for a judgment matrix."""

    lambda_max: float
    ci: float
    cr: float
    acceptable: bool


def aggregate_pairwise(matrices: list[PairwiseMatrix]) -> PairwiseMatrix:
    """Element-wise geometric mean of several judgment matrices.

    The geometric mean of reciprocal matrices is reciprocal by construction,
    so the consensus matrix is again a valid PairwiseMatrix.
    """
    if not matrices:
        raise InputError("no pairwise matrices to aggregate")
    sizes = {m.n for m in matrices}
    if len(sizes) != 1:
        raise InputError(f"pairwise matrices differ in size: {sorted(sizes)}")
    stack = np.stack([m.values for m in matrices])
    consensus = np.exp(np.log(stack).mean(axis=0))
    labels = matrices[0].labels
    if any(m.labels != labels for m in matrices[1:]):
        labels = None
    return PairwiseMatrix(consensus, labels=labels)


def _principal_eigenvector(
    values: np.ndarray, tol: float = 1e-10, max_iter: int = 1000
) -> tuple[np.ndarray, float]:
    """Power iteration from the uniform vector, renormalized to sum 1.

    Converges when successive iterates differ by less than ``tol`` in
    max-norm; the dominant eigenvalue is estimated as the mean of the
    component-wise ratios (X w) / w at the converged vector.
    """
    n = values.shape[0]
    w = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        y = values @ w
        w_next = y / y.sum()
        if np.abs(w_next - w).max() < tol:
            lam = float(np.mean((values @ w_next) / w_next))
            return w_next, lam
        w = w_next
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations",
        last_iterate=w,
    )


def _check_size(n: int, random_index: dict[int, float]) -> None:
    if n > max(random_index):
        raise InputError(
            f"no random index for n = {n}; matrices up to "
            f"{max(random_index)} criteria are supported"
        )


def _consistency_from_lambda(
    lambda_max: float, n: int, random_index: dict[int, float]
) -> ConsistencyReport:
    if n <= 2:
        # reciprocal 1x1 and 2x2 matrices are consistent by construction
        return ConsistencyReport(lambda_max=lambda_max, ci=0.0, cr=0.0, acceptable=True)
    ci = (lambda_max - n) / (n - 1)
    cr = ci / random_index[n]
    return ConsistencyReport(
        lambda_max=lambda_max, ci=ci, cr=cr, acceptable=cr <= CR_THRESHOLD
    )


def consistency(
    matrix: PairwiseMatrix, random_index: dict[int, float] | None = None
) -> ConsistencyReport:
    """Consistency ratio of a judgment matrix.

    cr = ci / ri where ci = (lambda_max - n) / (n - 1) and ri is the random
    index for the matrix size. Sizes 1 and 2 are consistent by definition
    (cr = 0); sizes above 10 are rejected because the random-index table
    ends there.
    """
    ri = RANDOM_INDEX if random_index is None else dict(random_index)
    if set(ri) - set(RANDOM_INDEX):
        raise InputError(
            f"random index keys must lie in 1..{max(RANDOM_INDEX)}, "
            f"got {sorted(set(ri) - set(RANDOM_INDEX))}"
        )
    n = matrix.n
    _check_size(n, ri)
    if n == 1:
        return ConsistencyReport(lambda_max=1.0, ci=0.0, cr=0.0, acceptable=True)
    _, lam = _principal_eigenvector(matrix.values)
    return _consistency_from_lambda(lam, n, ri)


def ahp_weights(
    matrix: PairwiseMatrix, tol: float = 1e-10, max_iter: int = 1000
) -> tuple[WeightVector, ConsistencyReport]:
    """Priority weights from a judgment matrix via the principal eigenvector.

    Returns the eigenvector normalized to sum 1 together with the
    consistency report computed from the same eigen solve.
    """
    n = matrix.n
    _check_size(n, RANDOM_INDEX)
    labels = matrix.labels or tuple(f"c{i + 1}" for i in range(n))
    if n == 1:
        return (
            WeightVector(np.array([1.0]), labels),
            ConsistencyReport(lambda_max=1.0, ci=0.0, cr=0.0, acceptable=True),
        )
    w, lam = _principal_eigenvector(matrix.values, tol=tol, max_iter=max_iter)
    return WeightVector(w, labels), _consistency_from_lambda(lam, n, RANDOM_INDEX)


def entropy_weights(matrix: DecisionMatrix) -> WeightVector:
    """Objective weights from the information content of each criterion.

    Each column is turned into a distribution p_ij = x_ij / sum_i(x_ij), its
    entropy h_j = -(ln m)^-1 * sum_i(p_ij ln p_ij) computed with
    0 * ln 0 taken as 0, and the weight assigned proportionally to 1 - h_j.
    Columns with identical values carry no information and get weight 0.
    """
    require_valid(matrix)
    x = matrix.values
    m = x.shape[0]

    if (x < 0).any():
        bad = [
            matrix.criterion_ids[j]
            for j in np.unique(np.nonzero(x < 0)[1])
        ]
        raise InputError(
            "entropy weighting needs non-negative values; criteria with "
            f"negatives: {', '.join(bad)} (shift them before weighting)"
        )
    colsum = x.sum(axis=0)
    zero = np.nonzero(colsum == 0)[0]
    if zero.size:
        bad = ", ".join(matrix.criterion_ids[j] for j in zero)
        raise InputError(f"criteria summing to zero cannot form a distribution: {bad}")

    p = x / colsum
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(p), 0.0)
    h = -plogp.sum(axis=0) / np.log(m)
    info = 1.0 - h
    # uniform columns give h = 1 up to rounding; snap the noise to exactly 0
    info[np.abs(info) < 1e-12] = 0.0
    total = info.sum()
    if total <= 0:
        raise DegenerateWeightsError(
            "every criterion has maximum entropy (all columns constant); "
            "entropy weights are undefined"
        )
    return WeightVector(info / total, matrix.criterion_ids)


def critic_weights(matrix: DecisionMatrix, sample_std: bool = True) -> WeightVector:
    """Objective weights from contrast and conflict of the scaled columns.

    The matrix is min-max scaled (direction-aware, so cost criteria are
    flipped first), then each criterion gets c_j = sigma_j * sum_k(1 - rho_jk)
    where sigma is the column standard deviation and rho the Pearson
    correlation between scaled columns; weights are c_j / sum(c).

    ``sample_std`` selects the m-1 divisor (default); pass False for the
    population form. Constant columns have sigma = 0 and receive weight 0.
    """
    norm = normalize_minmax(matrix)
    r = norm.values
    m, n = r.shape
    ddof = 1 if sample_std else 0
    if sample_std and m < 2:
        raise InputError("sample standard deviation needs at least 2 alternatives")

    sigma = r.std(axis=0, ddof=ddof)
    centered = r - r.mean(axis=0)
    ss = (centered**2).sum(axis=0)
    denom = np.sqrt(np.outer(ss, ss))
    cov = centered.T @ centered
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0), 0.0)

    c = sigma * (1.0 - rho).sum(axis=1)
    total = c.sum()
    if not np.isfinite(total) or total <= 0:
        raise DegenerateWeightsError(
            "no criterion carries contrast or conflict information; "
            "CRITIC weights are undefined"
        )
    return WeightVector(c / total, matrix.criterion_ids)


def distribute_weights(
    dimension_weights: WeightVector, hierarchy: CriteriaHierarchy
) -> WeightVector:
    """Split dimension weights equally down to criteria.

    Each dimension's weight is divided equally among its sub-dimensions and
    each sub-dimension's share equally among its criteria, preserving total
    mass. ``dimension_weights`` ids must match the hierarchy's dimension ids.
    """
    flatten_hierarchy(hierarchy)  # surfaces duplicate memberships before splitting
    dim_weights = dimension_weights.aligned(hierarchy.dimension_ids())

    weights: list[float] = []
    ids: list[str] = []
    for dim, dim_weight in zip(hierarchy.dimensions, dim_weights):
        subs = dim.sub_dimensions
        if not subs:
            raise InputError(f"dimension '{dim.id}' has no sub-dimensions")
        sub_share = dim_weight / len(subs)
        for sub in subs:
            if not sub.criterion_ids:
                raise InputError(
                    f"sub-dimension '{sub.name}' of '{dim.id}' has no criteria"
                )
            crit_share = sub_share / len(sub.criterion_ids)
            for cid in sub.criterion_ids:
                ids.append(cid)
                weights.append(crit_share)

    return WeightVector(np.array(weights), tuple(ids))
