"""Compensation-reducing weighted-sum evaluation.

Classical weighted-sum aggregation lets a strong score on one criterion buy
back a weak score on another. This evaluator dampens that exchange: each
normalized cell is penalized by its absolute deviation from the column
mean, scaled with a per-criterion coefficient in [0, 1]. Above-mean
advantages shrink and below-mean deficits deepen, so uneven profiles lose
utility relative to balanced ones. At coefficient 0 the plain weighted sum
is recovered; at 1 the penalty applies in full.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CriteriaHierarchy,
    DecisionMatrix,
    NormalizedMatrix,
    WeightVector,
    flatten_hierarchy,
    normalize_minmax,
)
from .correlation import INPUT_ORDER, rank_from_scores
from .errors import InputError


@dataclass(frozen=True)
class SustainabilityCoefficients:
    """Per-criterion compensation-reduction strengths, each in [0, 1]."""

    s: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.s, dtype=float)
        if arr.ndim != 1:
            raise InputError("coefficients must form a flat vector")
        if not np.isfinite(arr).all():
            raise InputError("coefficients must be finite")
        if arr.min(initial=0.0) < 0.0 or arr.max(initial=0.0) > 1.0:
            raise InputError("every coefficient must lie in [0, 1]")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "s", arr)

    @classmethod
    def uniform(cls, n: int, value: float) -> "SustainabilityCoefficients":
        return cls(np.full(n, float(value)))

    @classmethod
    def for_groups(
        cls,
        hierarchy: CriteriaHierarchy,
        groups,
        s_value: float,
        criterion_ids=None,
    ) -> "SustainabilityCoefficients":
        """Coefficient ``s_value`` for criteria in the given dimensions, 0 elsewhere.

        ``criterion_ids`` fixes the vector order; defaults to the hierarchy's
        canonical order.
        """
        groups = tuple(groups)
        known = set(hierarchy.dimension_ids())
        unknown = [g for g in groups if g not in known]
        if unknown:
            raise InputError(f"unknown group id(s): {', '.join(unknown)}")
        dim_of = dict(flatten_hierarchy(hierarchy))
        if criterion_ids is None:
            criterion_ids = tuple(dim_of)
        missing = [c for c in criterion_ids if c not in dim_of]
        if missing:
            raise InputError(
                f"criteria not present in the hierarchy: {', '.join(missing)}"
            )
        selected = set(groups)
        s = np.array(
            [float(s_value) if dim_of[c] in selected else 0.0 for c in criterion_ids]
        )
        return cls(s)


@dataclass(frozen=True)
class EvaluationResult:
    """Utilities plus the ranking they induce (rank 1 = best)."""

    utilities: np.ndarray
    ranking: np.ndarray
    alternative_ids: tuple[str, ...]
    has_ties: bool = False

    def __post_init__(self):
        object.__setattr__(self, "alternative_ids", tuple(self.alternative_ids))
        u = np.asarray(self.utilities, dtype=float)
        r = np.asarray(self.ranking, dtype=int)
        u.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "utilities", u)
        object.__setattr__(self, "ranking", r)

    def rank_of(self, alternative_id: str) -> int:
        return int(self.ranking[self.alternative_ids.index(alternative_id)])


def _coeff_vector(s, n: int) -> np.ndarray:
    if isinstance(s, SustainabilityCoefficients):
        vec = s.s
    elif np.isscalar(s):
        vec = SustainabilityCoefficients.uniform(n, float(s)).s
    else:
        vec = SustainabilityCoefficients(np.asarray(s, dtype=float)).s
    if vec.shape[0] != n:
        raise InputError(f"{vec.shape[0]} coefficients for {n} criteria")
    return vec


def mad_transform(normalized: NormalizedMatrix, s) -> np.ndarray:
    """Subtract the scaled absolute deviation from the column mean.

    b_ij = r_ij - |mean_i(r_ij) - r_ij| * s_j, with the mean taken over
    alternatives. At s_j = 0 the column passes through unchanged.
    """
    r = normalized.values
    vec = _coeff_vector(s, r.shape[1])
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
    norm = normalize_minmax(matrix)
    b = mad_transform(norm, s)
    utilities = b @ w
    ranking = rank_from_scores(utilities, higher_better=True, ties=INPUT_ORDER)
    has_ties = np.unique(utilities).size < utilities.size
    return EvaluationResult(
        utilities=utilities,
        ranking=ranking.astype(int),
        alternative_ids=matrix.alternative_ids,
        has_ties=has_ties,
    )


def evaluate_with_group_s(
    matrix: DecisionMatrix,
    weights: WeightVector,
    hierarchy: CriteriaHierarchy,
    groups,
    s_value: float,
) -> EvaluationResult:
    """Evaluate with compensation reduced only inside the chosen dimensions.

    Criteria belonging to a dimension in ``groups`` get coefficient
    ``s_value``; all other criteria get 0.
    """
    if not 0.0 <= float(s_value) <= 1.0:
        raise InputError(f"s must lie in [0, 1], got {s_value}")
    coeffs = SustainabilityCoefficients.for_groups(
        hierarchy, groups, s_value, criterion_ids=matrix.criterion_ids
    )
    return evaluate(matrix, weights, coeffs)
