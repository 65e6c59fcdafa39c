"""Compensation-reduction sweeps over criteria-group subsets.

A sweep evaluates the decision problem for every combination of (dimension
subset, coefficient value) on a grid, tracking how each alternative's rank
evolves as compensation is progressively reduced inside the selected
groups. The matrix is normalized once; because each utility is affine in
the coefficient, the whole sweep follows from one penalty per (subset,
alternative). The hierarchy is flattened once into a boolean
[subset, criterion] membership table, so all penalties come from one
matrix product. Results are held as dense ``utilities`` and integer
``ranks`` arrays shaped [subset, s, alternative], so serialized output is
byte-stable across runs.

The summaries work on whole arrays too: ``stability_report`` reduces the
ranks of all alternatives at once, and ``compare_rankings`` stacks the
per-subset rankings and computes both coefficients row-wise with the same
kernels that ``weighted_spearman`` and ``pearson`` run on a single row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CriteriaHierarchy, DecisionMatrix, WeightVector, _fields_equal, _frozen_array, _membership, _normalized, _Ranked
from .correlation import _checked_rows, _ordinal_ranks, _pearson_rows, _weighted_spearman_rows
from .errors import InputError, SspahpError

DEFAULT_STEP = 0.05

#: largest dimension count a subset enumeration accepts (2^20 subsets)
MAX_DIMENSIONS = 20

#: largest subsets x grid points x alternatives a sweep accepts; each cell
#: holds a float64 utility and an int64 rank, 512 MiB at the limit
MAX_SWEEP_CELLS = 2**25
_CELL_BYTES = np.dtype(float).itemsize + np.dtype(int).itemsize


def default_s_grid(step: float = DEFAULT_STEP) -> np.ndarray:
    """Evenly spaced grid over [0, 1] starting at 0 with the given step.

    When the step divides 1 the grid ends exactly at 1 (21 points for the
    default 0.05); otherwise it stops at the last multiple below 1. Points
    are counted first: a grid too long for one subset of two alternatives
    within ``MAX_SWEEP_CELLS`` raises InputError before any is built.
    """
    if not 0.0 < step <= 1.0:
        raise InputError(f"step must lie in (0, 1], got {step}")
    span = 1.0 / step  # inf for a subnormal step, so the count is a float
    exact = abs(np.round(span) * step - 1.0) < 1e-9
    count = np.round(span) + 1 if exact else np.floor(span + 1e-9) + 1
    if count > MAX_SWEEP_CELLS // 2:
        raise InputError(f"step {step} gives {count:,.0f} grid points; a sweep holds at most {MAX_SWEEP_CELLS // 2:,}")
    if exact:
        return np.linspace(0.0, 1.0, int(count))
    return np.round(np.arange(int(count)) * step, 12)


def enumerate_group_subsets(dimension_ids) -> tuple[tuple[str, ...], ...]:
    """All subsets of the dimensions in binary-counter order.

    The first dimension acts as the most significant bit, so for (G1..G5)
    the order runs (), (G5,), (G4,), (G4, G5), (G3,), ... up to the full
    set. Members of each subset keep the hierarchy order. More than
    ``MAX_DIMENSIONS`` dimensions raise InputError, since the subset count
    doubles with each one.
    """
    ids = tuple(dimension_ids)
    if len(ids) > MAX_DIMENSIONS:
        raise InputError(
            f"{len(ids)} dimensions give {2 ** len(ids):,} subsets; "
            f"at most {MAX_DIMENSIONS} dimensions are supported"
        )
    # each earlier dimension is the next more significant bit
    out = [()]
    for dim in reversed(ids):
        out += [(dim,) + subset for subset in out]
    return tuple(out)


def _check_sweep_size(n_subsets: int, n_grid: int, m: int) -> None:
    cells = n_subsets * n_grid * m
    if cells > MAX_SWEEP_CELLS:
        raise InputError(
            f"a sweep of {n_subsets:,} subsets x {n_grid} grid points x {m} alternatives "
            f"needs {cells * _CELL_BYTES:,} bytes for {cells:,} cells; "
            f"at most {MAX_SWEEP_CELLS:,} cells are supported"
        )


def subset_label(subset) -> str:
    """Stable text key for a subset; the empty subset is the empty string."""
    return "+".join(subset)


@dataclass(frozen=True)
class SweepSpec:
    """Everything a sweep needs: data bindings, grid, and subset list.

    More than ``MAX_SWEEP_CELLS`` subsets x grid points x alternatives
    raise InputError before any subset list or result array is built.
    """

    matrix: DecisionMatrix
    hierarchy: CriteriaHierarchy
    weights: WeightVector
    s_grid: np.ndarray = None
    group_subsets: tuple[tuple[str, ...], ...] = None

    __eq__ = _fields_equal

    def __post_init__(self):
        grid = self.s_grid
        if grid is None:
            grid = default_s_grid()
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise InputError("s grid must be a non-empty vector")
        if not ((grid >= 0.0) & (grid <= 1.0)).all():  # NaN fails both
            raise InputError("s grid values must lie in [0, 1]")
        if (np.diff(grid) <= 0).any():
            raise InputError("s grid must increase strictly")
        _frozen_array(self, "s_grid", grid)

        subsets = self.group_subsets
        if subsets is None:
            dimension_ids = self.hierarchy.dimension_ids()
            if len(dimension_ids) <= MAX_DIMENSIONS:  # past it the enumeration names the cap
                _check_sweep_size(2 ** len(dimension_ids), grid.size, self.matrix.m)
            subsets = enumerate_group_subsets(dimension_ids)
        subsets = tuple(tuple(s) for s in subsets)
        if not subsets:
            raise InputError("need at least one group subset")
        if len(set(subsets)) != len(subsets):
            raise InputError("group subsets must be unique")
        _check_sweep_size(len(subsets), grid.size, self.matrix.m)
        object.__setattr__(self, "group_subsets", subsets)


@dataclass(frozen=True, eq=False)
class SweepResult(_Ranked):
    """Utilities and ranks for every (subset, s) cell of a sweep.

    Both arrays are shaped [subset, s, alternative], in the order of
    ``subsets``, ``s_grid`` and ``alternative_ids``. ``subsets`` is held as
    a tuple of tuples, and ``s_grid`` as a read-only float vector under the
    same freeze rule as the two arrays.
    """

    alternative_ids: tuple[str, ...]
    subsets: tuple[tuple[str, ...], ...]
    s_grid: np.ndarray
    utilities: np.ndarray
    ranks: np.ndarray

    _ARRAYS = {"utilities": float, "ranks": int}

    def __post_init__(self, _owned):
        object.__setattr__(self, "subsets", tuple(map(tuple, self.subsets)))
        grid = (np.asarray if _owned else np.array)(self.s_grid, dtype=float)
        grid.setflags(write=False)
        object.__setattr__(self, "s_grid", grid)
        super().__post_init__(_owned)

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
        return self.ranks[si, :, self._position(alternative_id)]

    def to_records(self) -> list[dict]:
        """Long-format rows: subset, s, alternative, utility, rank."""
        grid, utilities, ranks = self.s_grid.tolist(), self.utilities.tolist(), self.ranks.tolist()
        labels = [subset_label(sub) for sub in self.subsets]
        return [
            {"subset": label, "s": s, "alternative": alt, "utility": u, "rank": r}
            for label, u_rows, r_rows in zip(labels, utilities, ranks)
            for s, u_row, r_row in zip(grid, u_rows, r_rows)
            for alt, u, r in zip(self.alternative_ids, u_row, r_row)
        ]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every (subset, s) cell of the spec in one pass.

    For a fixed subset S every utility is affine in s:
    U[S, s] = r.w - s * P[S], where r is the normalized matrix and P[S]
    sums the weighted deviations |mean(r) - r| * w over the criteria of the
    dimensions in S. One boolean [subset, criterion] membership table gives
    every P[S] in a single product, and the ranks come as integers from one
    stable argsort of all cells. Matrix and weight errors name the first
    cell; an unknown group id names its own subset.
    """
    matrix, grid, subsets = spec.matrix, spec.s_grid, spec.group_subsets
    try:
        w = spec.weights.aligned(matrix.criterion_ids)
        r = _normalized(matrix).values
        membership = _membership(spec.hierarchy, subsets, matrix.criterion_ids)
    except SspahpError as exc:
        subset = getattr(exc, "subset", subsets[0])
        raise type(exc)(
            f"sweep cell (subset={subset_label(subset) or '()'}, s={grid[0]:g}): {exc}"
        ) from exc

    penalty = membership.astype(float) @ (np.abs(r.mean(axis=0) - r) * w).T  # [subset, alternative]
    utilities = (r @ w) - grid[None, :, None] * penalty[:, None, :]
    return SweepResult(
        alternative_ids=matrix.alternative_ids,
        subsets=subsets,
        s_grid=grid,
        utilities=utilities,
        ranks=_ordinal_ranks(-utilities),
        _owned=True,
    )


def _subset_rankings(result):
    """Subsets and their rankings: a [subset, N] array for a sweep, a list otherwise."""
    if isinstance(result, SweepResult):
        return result.subsets, result.ranks[:, -1]
    rankings = {tuple(k): np.asarray(v) for k, v in dict(result).items()}
    return tuple(rankings), list(rankings.values())


def _same_shape_rows(subsets, a, b):
    """(indices, stacked a rows, stacked b rows) for each ranking shape, in first-seen order."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.shape == b.shape:
        return [(np.arange(len(subsets)), a, b)]
    groups = {}
    for i, (subset, x, y) in enumerate(zip(subsets, a, b)):
        if x.shape != y.shape:
            raise InputError(f"ranking lengths differ for subset {subset_label(subset) or '()'}")
        groups.setdefault(x.shape, []).append(i)
    return [
        (np.array(idx), np.stack([a[i] for i in idx]), np.stack([b[i] for i in idx]))
        for idx in groups.values()
    ]


def compare_rankings(result_a, result_b) -> dict[tuple[str, ...], tuple[float, float]]:
    """Per-subset (weighted Spearman, Pearson) between two sweeps' rankings.

    Accepts SweepResult objects (their full-reduction rankings are compared)
    or plain mappings of subset -> ranking vector. Subset lists must match.
    The rankings of each length are stacked and both coefficients computed
    row-wise; an invalid ranking raises with its subset named.
    """
    subsets, a = _subset_rankings(result_a)
    others, b = _subset_rankings(result_b)
    if subsets != others:
        raise InputError("subset lists differ between the two results")
    values = np.empty((len(subsets), 2))
    for idx, x, y in _same_shape_rows(subsets, a, b):
        try:
            x, y = _checked_rows(x, y)
            values[idx, 0] = _weighted_spearman_rows(x, y)
            values[idx, 1] = _pearson_rows(x, y)
        except SspahpError as exc:
            subset = subsets[idx[getattr(exc, "row", 0)]]
            raise type(exc)(f"subset {subset_label(subset) or '()'}: {exc}") from exc
    return dict(zip(subsets, map(tuple, values.tolist())))


_DIRECTIONS = ("flat", "improving", "declining", "mixed")


def stability_report(result: SweepResult) -> dict[str, dict]:
    """Summary of each alternative's rank movement across the whole sweep.

    span is the max minus min rank over every cell; alternatives with
    span <= 1 are flagged stable. The direction label classifies the rank
    trajectory along the grid for the last (most inclusive) subset:
    improving ranks move toward 1, declining away, flat never moves, mixed
    does both. All alternatives are summarized with array reductions.
    """
    lowest = result.ranks.min(axis=(0, 1))
    highest = result.ranks.max(axis=(0, 1))
    deltas = np.diff(result.ranks[-1], axis=0)  # [step, alternative]
    direction = np.select(
        [(deltas == 0).all(axis=0), (deltas <= 0).all(axis=0), (deltas >= 0).all(axis=0)], [0, 1, 2], 3
    )
    return {
        alt: {
            "min_rank": lo,
            "max_rank": hi,
            "span": hi - lo,
            "stable": hi - lo <= 1,
            "monotone_direction": _DIRECTIONS[d],
        }
        for alt, lo, hi, d in zip(result.alternative_ids, lowest.tolist(), highest.tolist(), direction.tolist())
    }
