"""Reference MCDA methods used for cross-validation of rankings.

Five widely used methods in their standard formulations: TOPSIS (vector
normalization), MABAC (min-max normalization, geometric-mean border), CODAS
(linear normalization, Euclidean plus threshold-gated taxicab assessment),
SPOTIS (distance to the ideal point spanned by per-criterion bounds), and
PROMETHEE II (usual preference function, net outranking flows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TAU, MAX, DecisionMatrix, WeightVector, _normalized, _Ranked
from .correlation import _tie_sums
from .errors import InputError, NumericalError

TOPSIS = "topsis"
MABAC = "mabac"
CODAS = "codas"
SPOTIS = "spotis"
PROMETHEE2 = "promethee2"

METHODS = (TOPSIS, MABAC, CODAS, SPOTIS, PROMETHEE2)

#: CODAS compares a block of rows with every alternative, this many differences at a time
_CODAS_CELLS = 2**15


@dataclass(frozen=True, eq=False)
class BenchmarkScore(_Ranked):
    """Per-alternative scores of one method and the ranking they induce.

    ``higher_better`` records the score orientation: True for all methods
    except SPOTIS, whose preference is a distance (smaller wins).
    """

    method: str
    values: np.ndarray
    ranking: np.ndarray
    alternative_ids: tuple[str, ...]
    higher_better: bool = True

    _ARRAYS = {"values": float, "ranking": int}


def _prepare(matrix: DecisionMatrix, weights: WeightVector):
    w = weights.aligned(matrix.criterion_ids)
    profit = np.array([obj == MAX for obj in matrix.objectives])
    return matrix.values, w, profit


def topsis(matrix: DecisionMatrix, weights: WeightVector) -> BenchmarkScore:
    """Closeness to the ideal solution in the vector-normalized space.

    Columns are scaled by their Euclidean norm, weighted, and compared
    against the ideal and anti-ideal points taken from the column extremes;
    closeness = d-/(d+ + d-) in [0, 1], larger is better.
    """
    x, w, profit = _prepare(matrix, weights)
    norms = np.sqrt((x**2).sum(axis=0))
    zero = np.nonzero(norms == 0)[0]
    if zero.size:
        bad = ", ".join(matrix.criterion_ids[j] for j in zero)
        raise NumericalError(f"zero-norm criteria break vector normalization: {bad}")
    v = (x / norms) * w
    ideal = np.where(profit, v.max(axis=0), v.min(axis=0))
    anti = np.where(profit, v.min(axis=0), v.max(axis=0))
    d_plus = np.sqrt(((v - ideal) ** 2).sum(axis=1))
    d_minus = np.sqrt(((v - anti) ** 2).sum(axis=1))
    denom = d_plus + d_minus
    # all-identical alternatives leave both distances at 0; call that neutral
    closeness = np.where(denom > 0, d_minus / np.where(denom > 0, denom, 1.0), 0.5)
    return BenchmarkScore._from_scores(closeness, matrix.alternative_ids, method=TOPSIS)


def mabac(matrix: DecisionMatrix, weights: WeightVector) -> BenchmarkScore:
    """Distance from the border approximation area.

    Min-max normalized values are shifted and weighted, v = w * (r + 1); the
    border for each criterion is the geometric mean of its column, and the
    score is the row sum of distances from that border. Scores land in
    [-1, 1], larger is better.
    """
    r = _normalized(matrix).values
    w = weights.aligned(matrix.criterion_ids)
    v = w * (r + 1.0)
    # w_j = 0 zeroes the whole column; its border is 0 as well
    safe = np.where(v > 0, v, 1.0)
    g = np.where(w > 0, np.exp(np.log(safe).mean(axis=0)), 0.0)
    scores = (v - g).sum(axis=1)
    return BenchmarkScore._from_scores(scores, matrix.alternative_ids, method=MABAC)


def codas(
    matrix: DecisionMatrix, weights: WeightVector, tau: float = DEFAULT_TAU
) -> BenchmarkScore:
    """Combined Euclidean and taxicab assessment against the anti-ideal.

    Works on the linearly normalized weighted matrix (x/max for profit,
    min/x for cost). Alternatives are compared pairwise: the Euclidean
    difference always counts, and the taxicab difference joins whenever the
    pair's Euclidean separation reaches ``tau``, which lets taxicab
    distances settle near-ties through comparisons with the rest of the
    set. Larger aggregate assessment is better.

    The pairwise differences are built for blocks of rows, about
    ``_CODAS_CELLS`` differences at a time (at least one row), so each
    temporary stays in cache and memory is O(m) rather than m x m. Each
    row's sum still runs over the same m contiguous differences in the same
    order, so the scores do not depend on the block size.

    tau defaults to 0.02; values in [0.01, 0.05] are the usual guidance.
    """
    if not 0.0 < tau <= 1.0:
        raise InputError(f"tau must lie in (0, 1], got {tau}")
    x, w, profit = _prepare(matrix, weights)

    hi = x.max(axis=0)
    lo = x.min(axis=0)
    n_profit_bad = np.nonzero(profit & (hi <= 0))[0]
    n_cost_bad = np.nonzero(~profit & (lo <= 0))[0]
    if n_profit_bad.size or n_cost_bad.size:
        bad = [matrix.criterion_ids[j] for j in np.concatenate([n_profit_bad, n_cost_bad])]
        raise NumericalError(
            "linear normalization needs positive column extremes; offending "
            f"criteria: {', '.join(sorted(bad))}"
        )
    # the unselected branch of each where() may divide by zero; it is discarded
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.where(profit, x / hi, lo / x)
    v = norm * w

    anti = v.min(axis=0)
    e = np.sqrt(((v - anti) ** 2).sum(axis=1))
    t = np.abs(v - anti).sum(axis=1)

    scores = np.empty(e.shape)
    block = max(1, _CODAS_CELLS // e.shape[0])
    for i in range(0, e.shape[0], block):
        rows = slice(i, i + block)
        de = e[rows, None] - e
        dt = t[rows, None] - t
        dt *= np.abs(de) >= tau  # else +-0.0, which leaves de unchanged: e >= +0.0, so de is never -0.0
        de += dt
        scores[rows] = de.sum(axis=1)
    return BenchmarkScore._from_scores(scores, matrix.alternative_ids, method=CODAS)


def spotis(
    matrix: DecisionMatrix, weights: WeightVector, bounds=None
) -> BenchmarkScore:
    """Weighted normalized distance to the ideal point of the bounded space.

    ``bounds`` is an (n, 2) array of [min, max] per criterion and defaults
    to the column extremes. The ideal point takes the best bound under each
    objective; the preference sums w_j * |x_ij - ideal_j| / (max_j - min_j)
    and lies in [0, 1]. Smaller is better.
    """
    x, w, profit = _prepare(matrix, weights)
    if bounds is None:
        b = np.column_stack([x.min(axis=0), x.max(axis=0)])
    else:
        b = np.asarray(bounds, dtype=float)
        if b.shape != (x.shape[1], 2):
            raise InputError(
                f"bounds must be shaped ({x.shape[1]}, 2), got {b.shape}"
            )
    infinite = [cid for cid, ok in zip(matrix.criterion_ids, np.isfinite(b).all(axis=1)) if not ok]
    if infinite:
        raise InputError(f"bounds must be finite; offending criteria: {', '.join(infinite)}")
    span = b[:, 1] - b[:, 0]
    degenerate = np.nonzero(span <= 0)[0]
    if degenerate.size:
        bad = ", ".join(matrix.criterion_ids[j] for j in degenerate)
        raise InputError(
            f"bounds must satisfy min < max; offending criteria: {bad}"
            + ("" if bounds is not None else " (constant columns need explicit bounds)")
        )
    outside = (x < b[:, 0] - 1e-12) | (x > b[:, 1] + 1e-12)
    if outside.any():
        i, j = np.argwhere(outside)[0]
        raise InputError(
            f"value {x[i, j]:g} of alternative '{matrix.alternative_ids[i]}' "
            f"falls outside the bounds of criterion '{matrix.criterion_ids[j]}'"
        )
    ideal = np.where(profit, b[:, 1], b[:, 0])
    d = np.abs(x - ideal) / span
    preference = d @ w
    return BenchmarkScore._from_scores(preference, matrix.alternative_ids, method=SPOTIS, higher_better=False)


def promethee2(matrix: DecisionMatrix, weights: WeightVector) -> BenchmarkScore:
    """Net outranking flow under the usual preference function.

    For each ordered pair, criterion j votes 1 when the first alternative is
    strictly better on j (given its direction) and 0 otherwise; votes are
    weight-aggregated and averaged over the m - 1 opponents. The net flow
    (leaving minus entering) lies in [-1, 1], sums to 0 over alternatives,
    and larger is better.

    No m x m table is built: the leaving flow of a is sum_j w_j worse_j(a)
    and its entering flow sum_j w_j better_j(a), where worse_j(a) and
    better_j(a) count the alternatives strictly worse and strictly better
    than a on j. One argsort of all columns gives them: in a column sorted
    ascending, a cell whose tie group spans positions [start, end) has
    start values below it and m - end above: a lead of start + 1 + end less
    m + 1. The integer lead is written through its transpose, so it stays
    C-ordered. O(mn log m) time, O(mn) memory.
    """
    x, w, profit = _prepare(matrix, weights)
    m = x.shape[0]
    lead = np.empty(x.shape, dtype=np.intp)
    _tie_sums(x.T, lead.T)  # lead stays C-ordered for lead @ w, with no transposing copy
    lead -= m + 1
    np.negative(lead, out=lead, where=~profit)  # on a cost criterion lower wins
    phi = (lead @ w) / (m - 1)
    return BenchmarkScore._from_scores(phi, matrix.alternative_ids, method=PROMETHEE2)


def run_all(
    matrix: DecisionMatrix,
    weights: WeightVector,
    tau: float = DEFAULT_TAU,
    bounds=None,
) -> dict[str, BenchmarkScore]:
    """Run every reference method on the same inputs."""
    return {
        TOPSIS: topsis(matrix, weights),
        MABAC: mabac(matrix, weights),
        CODAS: codas(matrix, weights, tau=tau),
        SPOTIS: spotis(matrix, weights, bounds=bounds),
        PROMETHEE2: promethee2(matrix, weights),
    }
