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
    _fields_equal,
    _frozen_array,
    _normalized,
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

    __eq__ = _fields_equal

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
        _frozen_array(self, "values", arr)
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

    Labelled matrices are first put in the first one's label order. Matrices
    over different items, or labelled and unlabelled ones mixed, raise
    InputError naming the two (counted from 1) and their labels.
    The geometric mean of reciprocal matrices is reciprocal by construction,
    so the consensus matrix is again a valid PairwiseMatrix.
    """
    if not matrices:
        raise InputError("no pairwise matrices to aggregate")
    sizes = {m.n for m in matrices}
    if len(sizes) != 1:
        raise InputError(f"pairwise matrices differ in size: {sorted(sizes)}")
    labels, stack = matrices[0].labels, []
    for i, m in enumerate(matrices, start=1):
        order = slice(None)
        if m.labels != labels:
            if labels is None or m.labels is None or len(set(m.labels)) < m.n or set(m.labels) != set(labels):
                listed = ["unlabelled" if x is None else ", ".join(x) for x in (labels, m.labels)]
                raise InputError(f"pairwise matrices 1 and {i} compare different items: {listed[0]} vs {listed[1]}")
            order = [m.labels.index(label) for label in labels]
        stack.append(m.values[order][:, order])
    consensus = np.exp(np.log(np.stack(stack)).mean(axis=0))
    return PairwiseMatrix(consensus, labels=labels)


def _eigen_solve(
    matrix: PairwiseMatrix,
    random_index: dict[int, float],
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> tuple[np.ndarray, ConsistencyReport]:
    """Principal eigenvector (sum 1) and the consistency of its eigenvalue.

    Power iteration from the uniform vector, renormalized to sum 1.
    Converges when successive iterates differ by less than ``tol`` in
    max-norm; the dominant eigenvalue is estimated as the mean of the
    component-wise ratios (X w) / w at the converged vector.
    """
    n = matrix.n
    if n > max(random_index):
        raise InputError(
            f"no random index for n = {n}; matrices up to "
            f"{max(random_index)} criteria are supported"
        )
    values = matrix.values
    w = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        y = values @ w
        w_next = y / y.sum()
        if np.abs(w_next - w).max() < tol:
            lam = float(np.mean((values @ w_next) / w_next))
            return w_next, _consistency_from_lambda(lam, n, random_index)
        w = w_next
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations",
        last_iterate=w,
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
    (cr = 0); a 1x1 matrix goes through the same eigen solve as any other
    and gives lambda_max = 1. Sizes above 10 are rejected because the
    random-index table ends there.
    """
    ri = RANDOM_INDEX if random_index is None else dict(random_index)
    if set(ri) - set(RANDOM_INDEX):
        raise InputError(
            f"random index keys must lie in 1..{max(RANDOM_INDEX)}, "
            f"got {sorted(set(ri) - set(RANDOM_INDEX))}"
        )
    return _eigen_solve(matrix, ri)[1]


def ahp_weights(
    matrix: PairwiseMatrix, tol: float = 1e-10, max_iter: int = 1000
) -> tuple[WeightVector, ConsistencyReport]:
    """Priority weights from a judgment matrix via the principal eigenvector.

    Returns the eigenvector normalized to sum 1 together with the
    consistency report computed from the same eigen solve. A 1x1 matrix
    takes the general path and gives weight 1 with cr = 0.
    """
    w, report = _eigen_solve(matrix, RANDOM_INDEX, tol, max_iter)
    labels = matrix.labels or tuple(f"c{i + 1}" for i in range(matrix.n))
    return WeightVector(w, labels), report


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
        bad = [matrix.criterion_ids[j] for j in np.flatnonzero((x < 0).any(axis=0))]
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
    r = _normalized(matrix).values
    sigma = r.std(axis=0, ddof=1 if sample_std else 0)
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
    dim_weights = dimension_weights.aligned(hierarchy.dimension_ids())

    weights: list[float] = []
    ids: list[str] = []
    for dim, dim_weight in zip(hierarchy.dimensions, dim_weights):
        subs = dim.sub_dimensions  # never empty, as the hierarchy checked
        sub_share = dim_weight / len(subs)
        for sub in subs:
            crit_share = sub_share / len(sub.criterion_ids)
            for cid in sub.criterion_ids:
                ids.append(cid)
                weights.append(crit_share)

    return WeightVector(np.array(weights), tuple(ids))
