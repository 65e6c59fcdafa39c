"""Straightforward reference results for checking what the library returns.

Every formula here is written out from its definition in the plainest form,
with loops where the library vectorizes, and is computed once per workload
and seed outside the timed region. Ranks must match exactly; utilities and
scores within UTIL_TOL, or SPOTIS_TOL for SPOTIS.
"""

from __future__ import annotations

import numpy as np

UTIL_TOL = 1e-12
SPOTIS_TOL = 1e-9

CODAS_TAU = 0.02
GRID_POINTS = 21  # the library's default 5 % grid over [0, 1]


# --- scaling, evaluation and ranking -----------------------------------------


def minmax(values: np.ndarray, profit: np.ndarray) -> np.ndarray:
    """Direction-aware min-max scaling; a constant column becomes 0.5."""
    out = np.empty_like(values)
    for j in range(values.shape[1]):
        col = values[:, j]
        lo, hi = col.min(), col.max()
        if hi == lo:
            out[:, j] = 0.5
        elif profit[j]:
            out[:, j] = (col - lo) / (hi - lo)
        else:
            out[:, j] = (hi - col) / (hi - lo)
    return out


def utilities(r: np.ndarray, w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """U_i = sum_j (r_ij - |mean_j - r_ij| * s_j) * w_j."""
    return (r - np.abs(r.mean(axis=0) - r) * s) @ w


def input_order_ranks(scores: np.ndarray, higher_better: bool = True) -> np.ndarray:
    """Rank 1 is best; equal scores go to the earlier item first."""
    key = -scores if higher_better else scores
    better = key[None, :] < key[:, None]
    earlier_tie = (key[None, :] == key[:, None]) & np.tri(len(key), k=-1, dtype=bool)
    return 1 + better.sum(axis=1) + earlier_tie.sum(axis=1)


def average_ranks(scores: np.ndarray, higher_better: bool = True) -> np.ndarray:
    """Tied items share the mean of the ranks they span."""
    key = -scores if higher_better else scores
    better = (key[None, :] < key[:, None]).sum(axis=1)
    tied = (key[None, :] == key[:, None]).sum(axis=1)
    return better + (tied + 1) / 2.0


def weighted_spearman(x: np.ndarray, y: np.ndarray) -> float:
    n = len(x)
    num = 6.0 * np.sum((x - y) ** 2 * ((n - x + 1) + (n - y + 1)))
    return 1.0 - num / (n**4 + n**3 - n**2 - n)


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    dx, dy = x - x.mean(), y - y.mean()
    return float(np.sum(dx * dy) / np.sqrt(np.sum(dx * dx) * np.sum(dy * dy)))


# --- weights -------------------------------------------------------------------


def entropy_weights(values: np.ndarray) -> np.ndarray:
    m = values.shape[0]
    p = values / values.sum(axis=0)
    h = -(p * np.log(p)).sum(axis=0) / np.log(m)
    info = 1.0 - h
    info[np.abs(info) < 1e-12] = 0.0
    return info / info.sum()


def critic_weights(values: np.ndarray, profit: np.ndarray) -> np.ndarray:
    r = minmax(values, profit)
    sigma = r.std(axis=0, ddof=1)
    rho = np.corrcoef(r, rowvar=False)
    c = sigma * (1.0 - rho).sum(axis=1)
    return c / c.sum()


def ahp_weights(judgments: list[np.ndarray]) -> np.ndarray:
    """Power iteration on the geometric-mean consensus of the judgment matrices."""
    consensus = np.exp(np.log(np.stack(judgments)).mean(axis=0))
    n = consensus.shape[0]
    w = np.full(n, 1.0 / n)
    for _ in range(1000):
        y = consensus @ w
        nxt = y / y.sum()
        if np.abs(nxt - w).max() < 1e-10:
            return nxt
        w = nxt
    raise ArithmeticError("power iteration did not converge")


def distribute(dim_weights: np.ndarray, structure: list[list[list[str]]]) -> np.ndarray:
    """Equal split of each dimension's weight over sub-dimensions, then criteria."""
    out = []
    for wd, subs in zip(dim_weights, structure):
        for crits in subs:
            out.extend([wd / len(subs) / len(crits)] * len(crits))
    return np.array(out)


# --- reference methods ---------------------------------------------------------


def topsis(x, w, profit):
    v = x / np.sqrt((x**2).sum(axis=0)) * w
    ideal = np.where(profit, v.max(axis=0), v.min(axis=0))
    anti = np.where(profit, v.min(axis=0), v.max(axis=0))
    d_plus = np.sqrt(((v - ideal) ** 2).sum(axis=1))
    d_minus = np.sqrt(((v - anti) ** 2).sum(axis=1))
    return d_minus / (d_plus + d_minus)


def mabac(x, w, profit):
    v = w * (minmax(x, profit) + 1.0)
    border = np.exp(np.log(v).mean(axis=0))
    return (v - border).sum(axis=1)


def codas(x, w, profit, tau=CODAS_TAU):
    norm = np.where(profit, x / x.max(axis=0), x.min(axis=0) / x)
    v = norm * w
    anti = v.min(axis=0)
    e = np.sqrt(((v - anti) ** 2).sum(axis=1))
    t = np.abs(v - anti).sum(axis=1)
    scores = np.zeros(len(e))
    for i in range(len(e)):
        de = e[i] - e
        scores[i] = (de + (np.abs(de) >= tau) * (t[i] - t)).sum()
    return scores


def spotis(x, w, profit):
    lo, hi = x.min(axis=0), x.max(axis=0)
    ideal = np.where(profit, hi, lo)
    return (np.abs(x - ideal) / (hi - lo)) @ w


def promethee2(x, w, profit):
    m = x.shape[0]
    pi = np.zeros((m, m))
    for j in range(x.shape[1]):
        diff = x[:, j][:, None] - x[:, j][None, :]
        pi += w[j] * ((diff > 0) if profit[j] else (diff < 0))
    return (pi.sum(axis=1) - pi.sum(axis=0)) / (m - 1)


#: method name -> (formula, higher_better, tolerance)
METHODS = {
    "topsis": (topsis, True, UTIL_TOL),
    "mabac": (mabac, True, UTIL_TOL),
    "codas": (codas, True, UTIL_TOL),
    "spotis": (spotis, False, SPOTIS_TOL),
    "promethee2": (promethee2, True, UTIL_TOL),
}


def reference_methods(x, w, profit) -> dict[str, dict]:
    out = {}
    for name, (fn, higher_better, tol) in METHODS.items():
        values = fn(x, w, profit)
        out[name] = {
            "values": values,
            "ranking": input_order_ranks(values, higher_better),
            "average": average_ranks(values, higher_better),
            "tol": tol,
        }
    return out


# --- sweeps --------------------------------------------------------------------


def subsets(dimension_ids: list[str]) -> list[tuple[str, ...]]:
    """Every subset, first dimension as the most significant bit of a counter."""
    k = len(dimension_ids)
    return [
        tuple(d for i, d in enumerate(dimension_ids) if mask >> (k - 1 - i) & 1)
        for mask in range(2**k)
    ]


def sweep(r, w, dim_of: list[str], dimension_ids: list[str]) -> dict:
    """Utilities and ranks for every (subset, s) cell, shaped [subset, s, alternative]."""
    grid = np.array([i / (GRID_POINTS - 1) for i in range(GRID_POINTS)])
    subs = subsets(dimension_ids)
    m = r.shape[0]
    u = np.empty((len(subs), len(grid), m))
    ranks = np.empty((len(subs), len(grid), m), dtype=int)
    for si, sub in enumerate(subs):
        member = np.array([d in sub for d in dim_of], dtype=float)
        for gi, s in enumerate(grid):
            u[si, gi] = utilities(r, w, member * s)
            ranks[si, gi] = input_order_ranks(u[si, gi])
    return {"subsets": subs, "grid": grid, "utilities": u, "ranks": ranks}


def stability(sw: dict, alternative_ids) -> dict[str, dict]:
    out = {}
    for ai, alt in enumerate(alternative_ids):
        every = sw["ranks"][:, :, ai]
        deltas = np.diff(sw["ranks"][-1, :, ai])
        if (deltas == 0).all():
            direction = "flat"
        elif (deltas <= 0).all():
            direction = "improving"
        elif (deltas >= 0).all():
            direction = "declining"
        else:
            direction = "mixed"
        span = int(every.max() - every.min())
        out[alt] = {
            "min_rank": int(every.min()),
            "max_rank": int(every.max()),
            "span": span,
            "stable": span <= 1,
            "monotone_direction": direction,
        }
    return out


def compare(sw_a: dict, sw_b: dict) -> dict[tuple[str, ...], tuple[float, float]]:
    out = {}
    for si, sub in enumerate(sw_a["subsets"]):
        x = sw_a["ranks"][si, -1].astype(float)
        y = sw_b["ranks"][si, -1].astype(float)
        out[sub] = (weighted_spearman(x, y), pearson(x, y))
    return out


# --- comparison helpers ----------------------------------------------------------


def close(label: str, got, want, tol: float, problems: list[str]) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{label}: shape {got.shape}, expected {want.shape}")
        return
    err = np.abs(got - want)
    if not (err <= tol).all():
        idx = np.unravel_index(np.argmax(np.where(np.isnan(err), np.inf, err)), err.shape)
        problems.append(
            f"{label}: {float(got[idx])!r} at {tuple(int(i) for i in idx)}, expected {float(want[idx])!r}"
        )


def same(label: str, got, want, problems: list[str]) -> None:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape or not (got == want).all():
        problems.append(f"{label}: differs from the oracle")
