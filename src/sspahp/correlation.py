"""Ranking-similarity coefficients and score-to-rank conversion."""

from __future__ import annotations

import numpy as np

from .errors import InputError, NumericalError

INPUT_ORDER = "input-order"
AVERAGE = "average"


def _pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Two flat vectors as the single rows of two [1, N] tables."""
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise InputError("expected flat vectors")
    if a.shape[0] != b.shape[0]:
        raise InputError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    return _checked_rows(a[None], b[None])


def _checked_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check two equally shaped [row, N] tables of paired vectors, as floats.

    An error found in one row carries that row's index as its ``row``
    attribute; the first offending row is reported.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise InputError("expected flat vectors")
    if a.shape[1] < 2:
        raise InputError(f"need at least 2 entries, got {a.shape[1]}")
    _reject_rows(~(np.isfinite(a).all(axis=1) & np.isfinite(b).all(axis=1)), InputError("vectors must be finite"))
    return a, b


def _reject_rows(bad: np.ndarray, error: Exception) -> None:
    """Raise ``error`` for the first True entry of ``bad``, its index kept as ``error.row``."""
    if bad.any():
        error.row = int(np.argmax(bad))
        raise error


def weighted_spearman(x, y) -> float:
    """Rank agreement that weighs disagreements at the top more heavily.

    r_w = 1 - 6 * sum((x_i - y_i)^2 * ((N - x_i + 1) + (N - y_i + 1)))
              / (N^4 + N^3 - N^2 - N)

    Inputs are two rankings of the same N items, ranks in 1..N (fractional
    average ranks are fine). Identical rankings give exactly 1. The raw
    value is reported without clamping.
    """
    return float(_weighted_spearman_rows(*_pair(x, y))[0])


def _weighted_spearman_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`weighted_spearman` of each row pair of two checked [row, N] tables."""
    n = a.shape[1]
    for name, v in (("first", a), ("second", b)):
        outside = (v.min(axis=1) < 1 - 1e-9) | (v.max(axis=1) > n + 1e-9)
        _reject_rows(outside, InputError(f"{name} ranking has ranks outside 1..{n}"))
    num = 6.0 * np.sum((a - b) ** 2 * ((n - a + 1) + (n - b + 1)), axis=1)
    den = float(n**4 + n**3 - n**2 - n)
    return 1.0 - num / den


def pearson(x, y) -> float:
    """Product-moment correlation of two equally long real vectors.

    r = (N * sum(x y) - sum(x) sum(y))
        / (sqrt(N sum(x^2) - sum(x)^2) * sqrt(N sum(y^2) - sum(y)^2))

    A constant vector makes the coefficient undefined and raises
    NumericalError.
    """
    return float(_pearson_rows(*_pair(x, y))[0])


def _pearson_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`pearson` of each row pair of two checked [row, N] tables."""
    n = a.shape[1]
    sx = a.sum(axis=1)
    sy = b.sum(axis=1)
    vx = n * (a**2).sum(axis=1) - sx * sx
    vy = n * (b**2).sum(axis=1) - sy * sy
    _reject_rows((vx <= 0) | (vy <= 0), NumericalError("correlation undefined for a constant vector"))
    num = n * (a * b).sum(axis=1) - sx * sy
    # single sqrt of the product keeps the result exactly +-1 for rank vectors
    return num / np.sqrt(vx * vy)


#: rows are ranked in blocks of about this many cells, so a block's temporaries stay small
_BLOCK_CELLS = 2**17

#: bytes ranking one block may take: the float key, sort order, sorted keys
#: and a stable re-sort of every row peak at 42 bytes a cell when all rows tie
_BLOCK_BYTES = _BLOCK_CELLS * 48


def _ordinal_ranks(key: np.ndarray) -> tuple[np.ndarray, bool]:
    """Integer ranks 1..N along the last axis, smallest key first, ties in input order.

    The flag tells whether any row holds equal keys.
    """
    rows = np.ascontiguousarray(key).reshape(-1, key.shape[-1]) if key.size else None
    return _ranks_in_blocks(key.shape, lambda lo, hi: rows[lo:hi], int)


def _ranks_in_blocks(shape, key_rows, dtype) -> tuple[np.ndarray, bool]:
    """Ranks along the last axis of ``shape``, each block of flat rows ranked from ``key_rows(lo, hi)``.

    A block holds about ``_BLOCK_CELLS`` cells and at least one row, so only
    the ranks are kept whole. The flag tells whether any row holds equal keys.
    """
    ranks = np.empty(shape, dtype=dtype)
    tied = False
    if ranks.size:  # an empty shape has no rows to rank
        n = shape[-1]
        flat = ranks.reshape(-1, n)
        step = max(1, _BLOCK_CELLS // n)
        for lo in range(0, len(flat), step):
            hi = min(lo + step, len(flat))
            tied |= _rank_rows(key_rows(lo, hi), flat[lo:hi])
    return ranks, tied


def _rank_rows(key: np.ndarray, out: np.ndarray) -> bool:
    """Write the ranks of each row of a C-ordered [row, n] key into ``out``, ties in input order.

    Numpy's default argsort is faster than the stable one but may put equal
    keys in any order. So the sorted keys are gathered through one flat
    index, and only rows with equal neighbours (``-0.0 == 0.0`` among them)
    are sorted again stably. Keys must be finite: NaNs never compare equal,
    so their ties would go unseen. The sort order of each row is offset to
    flat positions, so the ranks go in with one scatter into ``out``, which
    must be C-ordered too. Returns whether any row holds equal keys.
    """
    n = key.shape[1]
    order = np.argsort(key, axis=-1)
    offsets = np.arange(0, key.size, n)[:, None]
    order += offsets
    ordered = key.reshape(-1)[order]
    tied = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    if tied.size:
        order[tied] = np.argsort(key[tied], axis=-1, kind="stable") + offsets[tied]
    out.reshape(-1)[order] = np.arange(1, n + 1)
    return bool(tied.size)


def _tie_sums(key: np.ndarray, out: np.ndarray) -> None:
    """Write ``start + 1 + end`` of each cell's tie group along the last axis of ``key`` into ``out``.

    A group of equal keys (``-0.0 == 0.0`` among them) spans sorted
    positions ``[start, end)``, so the value is twice the cell's average
    rank, an exact integer. The order inside a group changes no sum, so the
    default argsort serves. ``out`` is an integer array shaped like ``key``
    in any layout, a transposed view included.
    """
    m = key.shape[-1]
    order = np.argsort(key, axis=-1)
    ordered = np.take_along_axis(key, order, axis=-1)
    differs = ordered[..., 1:] != ordered[..., :-1]
    del ordered  # with ``out`` already held, free what start and end no longer need
    pos = np.arange(1, m)
    start = np.zeros(key.shape, dtype=np.intp)
    np.multiply(differs, pos, out=start[..., 1:])
    np.maximum.accumulate(start, axis=-1, out=start)
    end = np.full(key.shape, m + 1, dtype=np.intp)  # end + 1
    np.copyto(end[..., :-1], pos + 1, where=differs)
    del differs
    backwards = end[..., ::-1]
    np.minimum.accumulate(backwards, axis=-1, out=backwards)
    start += end
    np.put_along_axis(out, order, start, axis=-1)


def _finite_key(scores: np.ndarray, higher_better: bool = True) -> np.ndarray:
    """The sort key that puts the best score first; a NaN or infinite score raises."""
    if not np.isfinite(scores).all():
        raise InputError("scores must be finite")
    return -scores if higher_better else scores


def rank_from_scores(values, higher_better: bool = True, ties: str = INPUT_ORDER):
    """Convert scores to ranks 1..N (1 = best under the given orientation).

    ``ties`` selects the tie rule: ``input-order`` gives the earlier item
    the better rank (deterministic display rule), ``average`` assigns each
    tied group the mean of the ranks it spans (the convention correlation
    coefficients expect). Under ``input-order`` an array with more than one
    axis is ranked along its last axis; ``average`` takes a flat vector.

    Both rules take numpy's default argsort. ``input-order`` ranks as a
    sweep does: only a vector with equal scores is sorted again, stably.
    Under ``average`` a tie group at sorted positions ``[start, end)`` gets
    rank ``(start + 1 + end) / 2``, whatever the order inside it.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 0 or (v.ndim > 1 and ties == AVERAGE):
        raise InputError("expected a flat score vector")
    key = _finite_key(v, higher_better)
    if ties == INPUT_ORDER:
        return _ordinal_ranks(key)[0].astype(float)
    if ties != AVERAGE:
        raise InputError(f"unknown tie rule '{ties}'")
    twice = np.empty(v.shape, dtype=np.intp)
    _tie_sums(key, twice)
    return twice / 2
