"""Compensation-reducing weighted-sum evaluation.

Classical weighted-sum aggregation lets a strong score on one criterion buy
back a weak score on another. This evaluator dampens that exchange: each
normalized cell is penalized by its absolute deviation from the column
mean, scaled with a per-criterion coefficient in [0, 1]. Above-mean
advantages shrink and below-mean deficits deepen, so uneven profiles lose
utility relative to balanced ones. At coefficient 0 the plain weighted sum
is recovered; at 1 the penalty applies in full. Both ``evaluate`` and
``evaluate_with_group_s`` take their penalties from ``core._penalties``,
the code a sweep takes its cells from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CriteriaHierarchy, DecisionMatrix, WeightVector, _membership, _penalties, _Ranked, _subset
from .errors import InputError


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


def _real(value) -> np.ndarray:
    """``value`` as floats; a string, None, a complex number, a ragged list or another non-real value raises InputError naming it."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged list, such as [[0.5], 0.5]
        arr = np.asarray(None)
    if arr.dtype.kind not in "biuf":
        raise InputError(f"coefficients must be real numbers, got {value!r}")
    return arr.astype(float)


def evaluate(matrix: DecisionMatrix, weights: WeightVector, s=0.0) -> EvaluationResult:
    """Score and rank alternatives under compensation reduction ``s``.

    ``s`` is a scalar applied to every criterion or a flat vector with one
    finite value in [0, 1] per criterion; a value that is not a real number
    raises InputError naming it. Each distinct positive coefficient c takes
    one penalty P_c from ``core._penalties`` over the criteria that carry
    it, and the utilities are r.w - sum_c c * P_c: a scalar ``s`` gives
    r.w - s * P, the sweep's every-dimension cell, bit for bit. Ranks sort
    utilities descending with ties broken by input order (tie presence is
    flagged on the result).
    """
    s = _real(s)
    if s.ndim == 0:
        s = np.full(matrix.n, s)
    if s.ndim != 1:
        raise InputError("coefficients must form a flat vector")
    if not np.isfinite(s).all():
        raise InputError("coefficients must be finite")
    if s.min(initial=0.0) < 0.0 or s.max(initial=0.0) > 1.0:
        raise InputError("every coefficient must lie in [0, 1]")
    if s.shape[0] != matrix.n:
        raise InputError(f"{s.shape[0]} coefficients for {matrix.n} criteria")
    levels = np.array(sorted(set(s.tolist()) - {0.0}))
    base, penalty = _penalties(matrix, weights, s == levels[:, None])
    return EvaluationResult._from_scores(base - levels @ penalty, matrix.alternative_ids)


def evaluate_with_group_s(
    matrix: DecisionMatrix,
    weights: WeightVector,
    hierarchy: CriteriaHierarchy,
    groups,
    s_value: float,
) -> EvaluationResult:
    """Evaluate with compensation reduced only inside the chosen dimensions.

    This is ``evaluate`` with ``s_value`` on the criteria of ``groups`` and
    0 elsewhere, and the sweep's cell for ``groups`` at ``s_value`` bit for
    bit, ranks included: the utilities are ``r.w - s_value * P[groups]``.
    """
    s = _real(s_value)
    if s.ndim or not 0.0 <= s <= 1.0:
        raise InputError(f"s must lie in [0, 1], got {s_value}")
    mask = _membership(hierarchy, (_subset(groups, "groups"),), matrix.criterion_ids)[0]
    return evaluate(matrix, weights, s * mask)
