"""Ranking-similarity coefficients and score-to-rank conversion."""

from __future__ import annotations

import numpy as np

from .errors import InputError, NumericalError

INPUT_ORDER = "input-order"
AVERAGE = "average"


def _pair(x, y, minimum: int = 2) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise InputError("expected flat vectors")
    if a.shape[0] != b.shape[0]:
        raise InputError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] < minimum:
        raise InputError(f"need at least {minimum} entries, got {a.shape[0]}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InputError("vectors must be finite")
    return a, b


def _tie_groups(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end (exclusive) of each position's tie group along the last axis.

    ``ordered`` holds keys already sorted along its last axis. Neighbours
    that compare equal (``-0.0 == 0.0`` included) share a group, and every
    position of a group spanning ``[start, end)`` gets that start and end.
    """
    m = ordered.shape[-1]
    pos = np.arange(1, m)
    differs = ordered[..., 1:] != ordered[..., :-1]
    start = np.zeros(ordered.shape, dtype=np.intp)
    np.multiply(differs, pos, out=start[..., 1:])
    np.maximum.accumulate(start, axis=-1, out=start)
    end = np.full(ordered.shape, m, dtype=np.intp)
    np.copyto(end[..., :-1], pos, where=differs)
    backwards = end[..., ::-1]
    np.minimum.accumulate(backwards, axis=-1, out=backwards)
    return start, end


def weighted_spearman(x, y) -> float:
    """Rank agreement that weighs disagreements at the top more heavily.

    r_w = 1 - 6 * sum((x_i - y_i)^2 * ((N - x_i + 1) + (N - y_i + 1)))
              / (N^4 + N^3 - N^2 - N)

    Inputs are two rankings of the same N items, ranks in 1..N (fractional
    average ranks are fine). Identical rankings give exactly 1. The raw
    value is reported without clamping.
    """
    a, b = _pair(x, y)
    n = a.shape[0]
    for name, v in (("first", a), ("second", b)):
        if v.min() < 1 - 1e-9 or v.max() > n + 1e-9:
            raise InputError(f"{name} ranking has ranks outside 1..{n}")
    num = 6.0 * float(np.sum((a - b) ** 2 * ((n - a + 1) + (n - b + 1))))
    den = float(n**4 + n**3 - n**2 - n)
    return 1.0 - num / den


def pearson(x, y) -> float:
    """Product-moment correlation of two equally long real vectors.

    r = (N * sum(x y) - sum(x) sum(y))
        / (sqrt(N sum(x^2) - sum(x)^2) * sqrt(N sum(y^2) - sum(y)^2))

    A constant vector makes the coefficient undefined and raises
    NumericalError.
    """
    a, b = _pair(x, y)
    n = a.shape[0]
    sx = float(a.sum())
    sy = float(b.sum())
    vx = n * float((a**2).sum()) - sx**2
    vy = n * float((b**2).sum()) - sy**2
    if vx <= 0 or vy <= 0:
        raise NumericalError("correlation undefined for a constant vector")
    num = n * float((a * b).sum()) - sx * sy
    # single sqrt of the product keeps the result exactly +-1 for rank vectors
    return num / float(np.sqrt(vx * vy))


def rank_from_scores(values, higher_better: bool = True, ties: str = INPUT_ORDER):
    """Convert scores to ranks 1..N (1 = best under the given orientation).

    ``ties`` selects the tie rule: ``input-order`` gives the earlier item
    the better rank (deterministic display rule), ``average`` assigns each
    tied group the mean of the ranks it spans (the convention correlation
    coefficients expect). Under ``input-order`` an array with more than one
    axis is ranked along its last axis; ``average`` takes a flat vector.

    Both rules take one stable argsort; under ``average`` a tie group at
    sorted positions ``[start, end)`` gets rank ``(start + 1 + end) / 2``.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 0 or (v.ndim > 1 and ties == AVERAGE):
        raise InputError("expected a flat score vector")
    if not np.isfinite(v).all():
        raise InputError("scores must be finite")
    key = -v if higher_better else v
    order = np.argsort(key, axis=-1, kind="stable")
    n = v.shape[-1]
    ranks = np.empty(v.shape, dtype=float)

    if ties == INPUT_ORDER:
        np.put_along_axis(ranks, order, np.arange(1, n + 1, dtype=float), axis=-1)
    elif ties == AVERAGE:
        start, end = _tie_groups(key[order])
        ranks[order] = (start + 1 + end) / 2
    else:
        raise InputError(f"unknown tie rule '{ties}'")
    return ranks
