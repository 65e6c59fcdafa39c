"""Compensation-reduction sweeps over criteria-group subsets.

A sweep evaluates the decision problem for every combination of (dimension
subset, coefficient value) on a grid, tracking how each alternative's rank
evolves as compensation is progressively reduced inside the selected
groups. The matrix is normalized once; because each utility is affine in
the coefficient, the whole sweep follows from one penalty per (subset,
alternative). Results are held as dense ``utilities`` and ``ranks`` arrays
shaped [subset, s, alternative], so serialized output is byte-stable
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CriteriaHierarchy, DecisionMatrix, WeightVector, normalize_minmax
from .correlation import pearson, rank_from_scores, weighted_spearman
from .errors import InputError, SspahpError
from .evaluation import SustainabilityCoefficients

DEFAULT_STEP = 0.05


def default_s_grid(step: float = DEFAULT_STEP) -> np.ndarray:
    """Evenly spaced grid over [0, 1] starting at 0 with the given step.

    When the step divides 1 the grid ends exactly at 1 (21 points for the
    default 0.05); otherwise it stops at the last multiple below 1.
    """
    if not 0.0 < step <= 1.0:
        raise InputError(f"step must lie in (0, 1], got {step}")
    n_steps = round(1.0 / step)
    if abs(n_steps * step - 1.0) < 1e-9:
        return np.linspace(0.0, 1.0, n_steps + 1)
    count = int(np.floor(1.0 / step + 1e-9)) + 1
    return np.round(np.arange(count) * step, 12)


def enumerate_group_subsets(dimension_ids) -> tuple[tuple[str, ...], ...]:
    """All subsets of the dimensions in binary-counter order.

    The first dimension acts as the most significant bit, so for (G1..G5)
    the order runs (), (G5,), (G4,), (G4, G5), (G3,), ... up to the full
    set. Members of each subset keep the hierarchy order.
    """
    ids = tuple(dimension_ids)
    k = len(ids)
    out = []
    for mask in range(2**k):
        out.append(tuple(ids[i] for i in range(k) if mask >> (k - 1 - i) & 1))
    return tuple(out)


def subset_label(subset) -> str:
    """Stable text key for a subset; the empty subset is the empty string."""
    return "+".join(subset)


@dataclass(frozen=True)
class SweepSpec:
    """Everything a sweep needs: data bindings, grid, and subset list."""

    matrix: DecisionMatrix
    hierarchy: CriteriaHierarchy
    weights: WeightVector
    s_grid: np.ndarray = None
    group_subsets: tuple[tuple[str, ...], ...] = None

    def __post_init__(self):
        grid = self.s_grid
        if grid is None:
            grid = default_s_grid()
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise InputError("s grid must be a non-empty vector")
        if grid.min() < 0.0 or grid.max() > 1.0:
            raise InputError("s grid values must lie in [0, 1]")
        if (np.diff(grid) <= 0).any():
            raise InputError("s grid must increase strictly")
        grid.setflags(write=False)
        object.__setattr__(self, "s_grid", grid)

        subsets = self.group_subsets
        if subsets is None:
            subsets = enumerate_group_subsets(self.hierarchy.dimension_ids())
        subsets = tuple(tuple(s) for s in subsets)
        if not subsets:
            raise InputError("need at least one group subset")
        if len(set(subsets)) != len(subsets):
            raise InputError("group subsets must be unique")
        object.__setattr__(self, "group_subsets", subsets)


@dataclass(frozen=True)
class SweepResult:
    """Utilities and ranks for every (subset, s) cell of a sweep.

    Both arrays are shaped [subset, s, alternative], in the order of
    ``subsets``, ``s_grid`` and ``alternative_ids``.
    """

    alternative_ids: tuple[str, ...]
    subsets: tuple[tuple[str, ...], ...]
    s_grid: np.ndarray
    utilities: np.ndarray
    ranks: np.ndarray

    def final_rankings(self) -> dict[tuple[str, ...], np.ndarray]:
        """Per subset, the ranking at the last (deepest) grid point."""
        return {sub: self.ranks[i, -1] for i, sub in enumerate(self.subsets)}

    def rank_trajectory(self, alternative_id: str, subset) -> np.ndarray:
        """Rank of one alternative along the grid for one subset."""
        subset = tuple(subset)
        try:
            si = self.subsets.index(subset)
        except ValueError:
            raise InputError(f"subset {subset_label(subset) or '()'} not in sweep")
        return self.ranks[si, :, self.alternative_ids.index(alternative_id)]

    def to_records(self) -> list[dict]:
        """Long-format rows: subset, s, alternative, utility, rank."""
        grid, utilities, ranks = self.s_grid.tolist(), self.utilities.tolist(), self.ranks.tolist()
        return [
            {"subset": subset_label(sub), "s": s, "alternative": alt, "utility": u, "rank": r}
            for sub, u_rows, r_rows in zip(self.subsets, utilities, ranks)
            for s, u_row, r_row in zip(grid, u_rows, r_rows)
            for alt, u, r in zip(self.alternative_ids, u_row, r_row)
        ]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every (subset, s) cell of the spec in one pass.

    For a fixed subset S every utility is affine in s:
    U[S, s] = r.w - s * P[S], where r is the normalized matrix and P[S]
    sums the weighted deviations |mean(r) - r| * w over the criteria of the
    dimensions in S. Matrix and weight errors name the first cell; an
    unknown group id names its own subset.
    """
    matrix, grid, subsets = spec.matrix, spec.s_grid, spec.group_subsets
    subset = subsets[0]
    try:
        w = spec.weights.aligned(matrix.criterion_ids)
        r = normalize_minmax(matrix).values
        membership = []
        for subset in subsets:
            membership.append(
                SustainabilityCoefficients.for_groups(
                    spec.hierarchy, subset, 1.0, criterion_ids=matrix.criterion_ids
                ).s
            )
    except SspahpError as exc:
        raise type(exc)(
            f"sweep cell (subset={subset_label(subset) or '()'}, s={grid[0]:g}): {exc}"
        ) from exc

    penalty = np.array(membership) @ (np.abs(r.mean(axis=0) - r) * w).T  # [subset, alternative]
    utilities = (r @ w) - grid[None, :, None] * penalty[:, None, :]
    ranks = np.apply_along_axis(rank_from_scores, 2, utilities).astype(int)
    utilities.setflags(write=False)
    ranks.setflags(write=False)
    return SweepResult(
        alternative_ids=matrix.alternative_ids,
        subsets=subsets,
        s_grid=grid,
        utilities=utilities,
        ranks=ranks,
    )


def _as_subset_rankings(result) -> dict[tuple[str, ...], np.ndarray]:
    if isinstance(result, SweepResult):
        return result.final_rankings()
    return {tuple(k): np.asarray(v) for k, v in dict(result).items()}


def compare_rankings(result_a, result_b) -> dict[tuple[str, ...], tuple[float, float]]:
    """Per-subset (weighted Spearman, Pearson) between two sweeps' rankings.

    Accepts SweepResult objects (their full-reduction rankings are compared)
    or plain mappings of subset -> ranking vector. Subset lists must match.
    """
    a = _as_subset_rankings(result_a)
    b = _as_subset_rankings(result_b)
    if list(a) != list(b):
        raise InputError("subset lists differ between the two results")
    out = {}
    for subset in a:
        x, y = a[subset], b[subset]
        if x.shape != y.shape:
            raise InputError(
                f"ranking lengths differ for subset {subset_label(subset) or '()'}"
            )
        out[subset] = (weighted_spearman(x, y), pearson(x, y))
    return out


def stability_report(result: SweepResult) -> dict[str, dict]:
    """Summary of each alternative's rank movement across the whole sweep.

    span is the max minus min rank over every cell; alternatives with
    span <= 1 are flagged stable. The direction label classifies the rank
    trajectory along the grid for the last (most inclusive) subset:
    improving ranks move toward 1, declining away, flat never moves, mixed
    does both.
    """
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
