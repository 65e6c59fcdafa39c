"""Compensation-reducing weighted-sum evaluation.

Classical weighted-sum aggregation lets a strong score on one criterion buy
back a weak score on another. This evaluator dampens that exchange: each
normalized cell is penalized by its absolute deviation from the column
mean, scaled with a per-criterion coefficient in [0, 1]. Above-mean
advantages shrink and below-mean deficits deepen, so uneven profiles lose
utility relative to balanced ones. At coefficient 0 the plain weighted sum
is recovered; at 1 the penalty applies in full. ``evaluate_with_group_s``
applies it inside chosen dimensions by the formula of a sweep cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CriteriaHierarchy,
    DecisionMatrix,
    NormalizedMatrix,
    WeightVector,
    _fields_equal,
    _frozen_array,
    _normalized,
    _penalties,
    _Ranked,
    _subset,
)
from .errors import InputError


@dataclass(frozen=True, eq=False)
class SustainabilityCoefficients:
    """Per-criterion compensation-reduction strengths, each in [0, 1]."""

    s: np.ndarray

    __eq__ = _fields_equal

    def __post_init__(self):
        arr = np.asarray(self.s, dtype=float)
        if arr.ndim != 1:
            raise InputError("coefficients must form a flat vector")
        if not np.isfinite(arr).all():
            raise InputError("coefficients must be finite")
        if arr.min(initial=0.0) < 0.0 or arr.max(initial=0.0) > 1.0:
            raise InputError("every coefficient must lie in [0, 1]")
        _frozen_array(self, "s", arr)

    @classmethod
    def uniform(cls, n: int, value: float) -> "SustainabilityCoefficients":
        return cls(np.full(n, float(value)))


@dataclass(frozen=True, eq=False)
class EvaluationResult(_Ranked):
    """Utilities plus the ranking they induce (rank 1 = best)."""

    utilities: np.ndarray
    ranking: np.ndarray
    alternative_ids: tuple[str, ...]
    has_ties: bool = False

    _ARRAYS = {"utilities": float, "ranking": int}

    def rank_of(self, alternative_id: str) -> int:
        return int(self.ranking[self._position(alternative_id)])


def mad_transform(normalized: NormalizedMatrix, s) -> np.ndarray:
    """Subtract the scaled absolute deviation from the column mean.

    b_ij = r_ij - |mean_i(r_ij) - r_ij| * s_j, with the mean taken over
    alternatives. At s_j = 0 the column passes through unchanged.
    """
    r = normalized.values
    if isinstance(s, SustainabilityCoefficients):
        vec = s.s
    elif np.isscalar(s):
        vec = SustainabilityCoefficients.uniform(r.shape[1], float(s)).s
    else:
        vec = SustainabilityCoefficients(np.asarray(s, dtype=float)).s
    if vec.shape[0] != r.shape[1]:
        raise InputError(f"{vec.shape[0]} coefficients for {r.shape[1]} criteria")
    col_mean = r.mean(axis=0)
    return r - np.abs(col_mean - r) * vec


def evaluate(matrix: DecisionMatrix, weights: WeightVector, s=0.0) -> EvaluationResult:
    """Score and rank alternatives under compensation reduction ``s``.

    ``s`` may be a scalar applied to every criterion, a vector, or a
    SustainabilityCoefficients instance. Utilities are the weighted sums of
    the transformed normalized matrix; ranks sort utilities descending with
    ties broken by input order (tie presence is flagged on the result).
    """
    w = weights.aligned(matrix.criterion_ids)
    norm = _normalized(matrix)
    b = mad_transform(norm, s)
    return EvaluationResult._from_scores(b @ w, matrix.alternative_ids)


def evaluate_with_group_s(
    matrix: DecisionMatrix,
    weights: WeightVector,
    hierarchy: CriteriaHierarchy,
    groups,
    s_value: float,
) -> EvaluationResult:
    """Evaluate with compensation reduced only inside the chosen dimensions.

    The result is the sweep's cell for ``groups`` at ``s_value`` bit for
    bit, ranks included: the utilities are ``r.w - s_value * P[groups]``.
    """
    if not 0.0 <= float(s_value) <= 1.0:
        raise InputError(f"s must lie in [0, 1], got {s_value}")
    base, penalty = _penalties(matrix, weights, hierarchy, (_subset(groups, "groups"),))
    return EvaluationResult._from_scores(base - float(s_value) * penalty[0], matrix.alternative_ids)
