"""Compensation-reduction sweeps over criteria-group subsets.

A sweep evaluates the decision problem for every combination of (dimension
subset, coefficient value) on a grid, tracking how each alternative's rank
evolves as compensation is progressively reduced inside the selected
groups. Each utility is affine in the coefficient, so the whole sweep
follows from the base utility ``r.w`` of each alternative and one penalty
per (subset, alternative), both from ``core._penalties``, as in ``evaluate``,
or, for a default sweep over canonical columns, each subset's penalty from
its parent's by ``_penalties_by_parent``, to the same bits. A result keeps
those factors and the grid, with int32 ``ranks`` shaped
[subset, s, alternative]. Utilities are rebuilt from the factors by the
same expression on each access, so serialized output is byte-stable across
runs. ``write_csv`` and ``write_json`` stream the long export straight from
the factors, one subset's text at a time, with the bytes that the record
writers of ``sspahp.io`` give for ``to_records``.

The summaries work on whole arrays too: ``stability_report`` reduces the
ranks of all alternatives at once, and ``compare_rankings`` stacks the
per-subset rankings and computes both coefficients row-wise with the same
kernels that ``weighted_spearman`` and ``pearson`` run on a single row.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_STEP, CriteriaHierarchy, DecisionMatrix, WeightVector, _deviations, _fields_equal, _frozen_array, _membership, _penalties, _Ranked, _real, _subset
from .correlation import _BLOCK_BYTES, _checked_rows, _pearson_rows, _ranks_in_blocks, _weighted_spearman_rows
from .errors import InputError, SspahpError

#: largest dimension count a subset enumeration accepts (2^20 subsets)
MAX_DIMENSIONS = 20

#: bytes a sweep may take: an int32 rank for each cell, a float64 penalty for
#: each (subset, alternative), and ``_BLOCK_BYTES`` for ranking one block
MAX_SWEEP_BYTES = 512 * 2**20
_CELL_BYTES = np.dtype(np.int32).itemsize
_PENALTY_BYTES = np.dtype(float).itemsize


def _sweep_bytes(n_subsets: int, n_grid: int, m: int) -> tuple[int, int, int]:
    """Bytes of a sweep's ranks, of its penalty and of ranking one block."""
    return n_subsets * n_grid * m * _CELL_BYTES, n_subsets * m * _PENALTY_BYTES, _BLOCK_BYTES


#: most grid points one subset of two alternatives can hold within ``MAX_SWEEP_BYTES``
MAX_GRID_POINTS = (MAX_SWEEP_BYTES - sum(_sweep_bytes(1, 0, 2))) // (2 * _CELL_BYTES)


def default_s_grid(step: float = DEFAULT_STEP) -> np.ndarray:
    """Evenly spaced grid over [0, 1] starting at 0 with the given step.

    When the step divides 1 the grid ends exactly at 1 (21 points for the
    default 0.05); otherwise it stops at the last multiple below 1. A step
    that is not one real number in (0, 1] raises InputError. Points are
    counted first: more than ``MAX_GRID_POINTS`` raise InputError before
    any is built.
    """
    if _real(step, "step").ndim or not 0.0 < step <= 1.0:
        raise InputError(f"step must lie in (0, 1], got {step}")
    span = 1.0 / step  # inf for a subnormal step, so the count is a float
    exact = abs(np.round(span) * step - 1.0) < 1e-9
    count = np.round(span) + 1 if exact else np.floor(span + 1e-9) + 1
    if count > MAX_GRID_POINTS:
        raise InputError(f"step {step} gives {count:,.0f} grid points; a sweep holds at most {MAX_GRID_POINTS:,}")
    if exact:
        return np.linspace(0.0, 1.0, int(count))
    return np.round(np.arange(int(count)) * step, 12)


def enumerate_group_subsets(dimension_ids) -> tuple[tuple[str, ...], ...]:
    """All subsets of the dimensions in binary-counter order.

    The first dimension acts as the most significant bit, so for (G1..G5)
    the order runs (), (G5,), (G4,), (G4, G5), (G3,), ... up to the full
    set. Members of each subset keep the hierarchy order. More than
    ``MAX_DIMENSIONS`` dimensions raise InputError, since the subset count
    doubles with each one. A string of ids raises InputError.
    """
    ids = _subset(dimension_ids, "dimension ids")
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


def _penalties_by_parent(hierarchy: CriteriaHierarchy, deviation: np.ndarray) -> np.ndarray:
    """[subset, alternative] penalties of ``enumerate_group_subsets(hierarchy.dimension_ids())``.

    ``deviation`` holds the [criterion, alternative] weighted deviations in
    the hierarchy's canonical criterion order. Row 0, the empty subset, is
    zeros. The rows whose last dimension is d are the slice
    ``2^(k-1-d)::2^(k-d)``, and their parents, the same subsets without d,
    the slice ``::2^(k-d)``, built before d. Each row is its parent plus
    d's deviations, added one criterion at a time in column order: the
    additions of ``core._penalties`` in its order, so the bits are the same.
    """
    k = len(hierarchy.dimensions)
    penalty = np.zeros((2**k, deviation.shape[1]))
    rows = iter(deviation)
    for d, dim in enumerate(hierarchy.dimensions):
        step = 2 ** (k - d)
        block = penalty[step // 2 :: step]
        block[...] = penalty[::step]
        for _ in range(sum(len(sub.criterion_ids) for sub in dim.sub_dimensions)):
            block += next(rows)
    return penalty


def _check_sweep_size(n_subsets: int, n_grid: int, m: int) -> None:
    ranks, penalty, block = _sweep_bytes(n_subsets, n_grid, m)
    if ranks + penalty + block > MAX_SWEEP_BYTES:
        raise InputError(
            f"a sweep of {n_subsets:,} subsets x {n_grid} grid points x {m} alternatives "
            f"needs {ranks + penalty + block:,} bytes ({ranks:,} for ranks, {penalty:,} for penalties, "
            f"{block:,} for ranking); at most {MAX_SWEEP_BYTES:,} bytes are supported"
        )


def subset_label(subset) -> str:
    """Stable text key for a subset; the empty subset is the empty string."""
    return "+".join(subset)


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """Everything a sweep needs: data bindings, grid, and subset list.

    A sweep that would take more than ``MAX_SWEEP_BYTES`` for its ranks,
    penalties and ranking temporaries raises InputError before any subset
    list or result array is built. Two subsets that name the same
    dimensions, in any order, raise InputError, as does a subset given as
    a string rather than a tuple of dimension ids.
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
        grid = _real(grid, "s grid")
        if grid.ndim != 1 or grid.size == 0:
            raise InputError("s grid must be a non-empty vector")
        if not ((grid >= 0.0) & (grid <= 1.0)).all():  # NaN fails both
            raise InputError("s grid values must lie in [0, 1]")
        if (np.diff(grid) <= 0).any():
            raise InputError("s grid must increase strictly")
        _frozen_array(self, "s_grid", grid)

        subsets = self.group_subsets
        enumerated = subsets is None
        if enumerated:  # 2^k distinct subsets, counted before any is built
            dimension_ids = self.hierarchy.dimension_ids()
            if len(dimension_ids) <= MAX_DIMENSIONS:  # past it the enumeration names the cap
                _check_sweep_size(2 ** len(dimension_ids), grid.size, self.matrix.m)
            subsets = enumerate_group_subsets(dimension_ids)
        else:
            subsets = tuple(_subset(s, "group subset") for s in subsets)  # any iterable, read once
            if not subsets:
                raise InputError("need at least one group subset")
            if len(set(map(frozenset, subsets))) != len(subsets):  # the same dimensions in any order
                raise InputError("group subsets must be unique")
            _check_sweep_size(len(subsets), grid.size, self.matrix.m)
        object.__setattr__(self, "group_subsets", subsets)
        # whether run_sweep may build the penalties by parent, kept outside the fields
        object.__setattr__(self, "_enumerated", enumerated)


@dataclass(frozen=True, eq=False)
class SweepResult(_Ranked):
    """What a sweep is made of, and the ranks of every (subset, s) cell.

    ``base`` [alternative] holds each utility r.w before any reduction,
    ``penalty`` [subset, alternative] what the subset's dimensions take off
    per unit of s, and ``ranks`` the int32 rank of every cell, shaped
    [subset, s, alternative] in the order of ``subsets``, ``s_grid`` and
    ``alternative_ids``. ``subsets`` is held as a tuple of tuples; the grid
    and the three arrays are read-only under the freeze rule of the result
    types. ``utilities`` is derived from the factors on each access.
    """

    alternative_ids: tuple[str, ...]
    subsets: tuple[tuple[str, ...], ...]
    s_grid: np.ndarray
    base: np.ndarray
    penalty: np.ndarray
    ranks: np.ndarray

    _ARRAYS = {"s_grid": float, "base": float, "penalty": float, "ranks": np.int32}

    def __post_init__(self, _owned):
        if not _owned:  # an owned result holds its spec's checked subsets
            object.__setattr__(self, "subsets", tuple(_subset(s, "subset") for s in self.subsets))
        super().__post_init__(_owned)

    @property
    def utilities(self) -> np.ndarray:
        """Read-only utility of every cell, ``base - s * penalty``, shaped like ``ranks``.

        The array is rebuilt on every access and not cached, so read it
        once outside a loop. It is built in place, so no second array of its
        size is held on the way.
        """
        utilities = np.multiply(self.s_grid[None, :, None], self.penalty[:, None, :])
        np.subtract(self.base, utilities, out=utilities)
        utilities.setflags(write=False)
        return utilities

    def final_rankings(self) -> dict[tuple[str, ...], np.ndarray]:
        """Per subset, the ranking at the last (deepest) grid point."""
        return {sub: self.ranks[i, -1] for i, sub in enumerate(self.subsets)}

    def rank_trajectory(self, alternative_id: str, subset) -> np.ndarray:
        """Rank of one alternative along the grid for one subset, its dimensions named in any order."""
        subset = _subset(subset, "subset")
        si = next((i for i, s in enumerate(self.subsets) if set(s) == set(subset)), None)  # in any order
        if si is None:
            raise InputError(f"subset {subset_label(subset) or '()'} not in sweep")
        return self.ranks[si, :, self._position(alternative_id)]

    def to_records(self) -> list[dict]:
        """Long-format rows: subset, s, alternative, utility, rank.

        Utilities are rebuilt one subset at a time, by the expression of
        ``utilities``.
        """
        grid, column = self.s_grid.tolist(), self.s_grid[:, None]
        return [
            {"subset": label, "s": s, "alternative": alt, "utility": u, "rank": r}
            for label, p_row, r_rows in zip(map(subset_label, self.subsets), self.penalty, self.ranks)
            for s, u_row, r_row in zip(grid, (self.base - column * p_row).tolist(), r_rows.tolist())
            for alt, u, r in zip(self.alternative_ids, u_row, r_row)
        ]

    def _cell_texts(self, label_text, s_texts, alternatives, ranks) -> Iterator[str]:
        """The text of each subset's cells, one string a subset, each built when it is reached.

        A cell's text joins ``label_text(label)`` of its subset, its grid
        point's entry in ``s_texts``, its alternative's entry in
        ``alternatives``, the ``repr`` of its utility, rebuilt by the
        expression of ``utilities``, and ``ranks[rank]``.
        """
        m, column = len(self.alternative_ids), self.s_grid[:, None]
        alternatives = list(alternatives) * len(s_texts)
        parts = [None] * (4 * len(alternatives))
        for label, p_row, r_rows in zip(map(subset_label, self.subsets), self.penalty, self.ranks):
            label = label_text(label)
            heads = [label + s for s in s_texts]
            parts[0::4] = [head for head in heads for _ in range(m)]
            parts[1::4] = alternatives
            parts[2::4] = map(float.__repr__, (self.base - column * p_row).ravel().tolist())
            parts[3::4] = map(ranks.__getitem__, r_rows.ravel().tolist())
            yield "".join(parts)

    def write_csv(self, fh) -> None:
        """Write the text of ``records_to_csv(self.to_records(), FIELDS)`` to ``fh``, a subset at a time.

        ``FIELDS`` is ``["subset", "s", "alternative", "utility", "rank"]``.
        No record is built: each label, grid value, alternative and rank is
        rendered once, as ``csv.writer`` writes it, and each utility by
        ``float.__repr__``. Each subset's rows are written to the text
        handle ``fh`` before the next subset's are built.
        """
        from .io import _csv_texts

        fh.write("subset,s,alternative,utility,rank\n")
        for text in self._cell_texts(
            lambda label: _csv_texts([label], lone=False)[0],
            [f",{s!r}," for s in self.s_grid.tolist()],
            [alt + "," for alt in _csv_texts(self.alternative_ids, lone=False)],
            [f",{r}\n" for r in range(len(self.alternative_ids) + 1)],
        ):
            fh.write(text)

    def write_json(self, fh) -> None:
        """Write the text of ``records_to_json`` of the grid, subsets and records to ``fh``, a subset at a time.

        The payload is ``{"s_grid": ..., "subsets": ..., "records":
        self.to_records()}``, written as ``json.dumps(payload, indent=2)``
        and a newline. No record is built: each label, grid value,
        alternative and rank is rendered once, and each utility by
        ``float.__repr__``, json's text for a finite float. Each subset's
        records are written to the text handle ``fh`` before the next
        subset's are built.
        """
        import json

        grid = self.s_grid.tolist()
        text = json.dumps({"s_grid": grid, "subsets": [list(sub) for sub in self.subsets], "records": []}, indent=2)
        blocks = self._cell_texts(
            # every record starts with the comma that ends the one before; the first drops it
            lambda label: f',\n    {{\n      "subset": {json.dumps(label)}',
            [f',\n      "s": {s!r},\n      "alternative": ' for s in grid],
            [f'{json.dumps(alt)},\n      "utility": ' for alt in self.alternative_ids],
            [f',\n      "rank": {r}\n    }}' for r in range(len(self.alternative_ids) + 1)],
        )
        first = next(blocks, "")
        if not first:  # no cells: json's empty list
            fh.write(text + "\n")
            return
        fh.write(text[: -len("]\n}")])
        fh.write(first[1:])
        for block in blocks:
            fh.write(block)
        fh.write("\n  ]\n}\n")


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every (subset, s) cell of the spec.

    For a fixed subset S every utility is affine in s: U[S, s] =
    r.w - s * P[S], with r.w and P from ``core._penalties`` given each
    subset's criteria, so each cell equals ``evaluate_with_group_s`` bit
    for bit. A spec that enumerated its own subsets, over a matrix whose
    columns are in the hierarchy's canonical order (every loaded or sample
    matrix), has P built by ``_penalties_by_parent`` instead, to the same
    bits. The cells are ranked in blocks of rows, each from the key
    s * P[S] - r.w: the negated utility, which sorts the same way, ties
    included. Only the factors and the int32 ranks are kept. Matrix and
    weight errors name the first cell; an unknown group id names its own
    subset.
    """
    matrix, grid, subsets = spec.matrix, spec.s_grid, spec.group_subsets
    try:
        if spec._enumerated and matrix.criterion_ids == spec.hierarchy.criterion_ids():
            base, deviation = _deviations(matrix, spec.weights)
            penalty = _penalties_by_parent(spec.hierarchy, deviation)
        else:
            base, penalty = _penalties(matrix, spec.weights, _membership(spec.hierarchy, subsets, matrix.criterion_ids))
    except SspahpError as exc:
        subset = getattr(exc, "subset", subsets[0])
        raise type(exc)(
            f"sweep cell (subset={subset_label(subset) or '()'}, s={grid[0]:g}): {exc}"
        ) from exc

    def key_rows(lo, hi):
        """s * P - base for the flat (subset, s) rows lo..hi, in one buffer."""
        rows = np.arange(lo, hi)
        key = penalty[rows // grid.size]
        key *= grid[rows % grid.size, None]
        key -= base
        return key

    return SweepResult(
        alternative_ids=matrix.alternative_ids,
        subsets=subsets,
        s_grid=grid,
        base=base,
        penalty=penalty,
        ranks=_ranks_in_blocks((len(subsets), grid.size, matrix.m), key_rows, np.int32)[0],
        _owned=True,
    )


def _subset_rankings(result):
    """Subsets and their rankings: a [subset, N] array for a sweep, a list otherwise."""
    if isinstance(result, SweepResult):
        return result.subsets, result.ranks[:, -1]
    rankings = {_subset(k, "subset key"): _real(v, "rankings") for k, v in dict(result).items()}
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
    or plain mappings of subset -> ranking vector, each subset a tuple of
    dimension ids (a string key raises InputError). Subset lists must match
    by position, each subset's dimensions in any order; the result is keyed
    by the first argument's subsets.
    Two sweeps are paired by alternative id; ids found in only one raise
    InputError naming them. The rankings of each length are stacked and
    both coefficients computed row-wise; an invalid ranking raises with its
    subset named.
    """
    subsets, a = _subset_rankings(result_a)
    others, b = _subset_rankings(result_b)
    if list(map(frozenset, subsets)) != list(map(frozenset, others)):
        raise InputError("subset lists differ between the two results")
    swept = isinstance(result_a, SweepResult) and isinstance(result_b, SweepResult)
    if swept and result_a.alternative_ids != result_b.alternative_ids:
        position = {alt: i for i, alt in enumerate(result_b.alternative_ids)}
        only = set(result_a.alternative_ids).symmetric_difference(position)
        if only:
            raise InputError(f"alternative ids differ between the two results; in only one: {', '.join(sorted(only))}")
        b = b[:, [position[alt] for alt in result_a.alternative_ids]]
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
    trajectory along the grid for the last subset of the sweep (every
    dimension, under the default enumeration): improving ranks move toward
    1, declining away, flat never moves, mixed does both. All alternatives
    are summarized with array reductions.
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
