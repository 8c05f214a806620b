"""Independent oracles: routines that check package results by a different road.

Nothing here imports the code paths it verifies beyond plain data types.
"""
from __future__ import annotations

import numpy as np


def sympy_cg(j1, m1, j2, m2, j, m) -> float:
    """Clebsch-Gordan coefficient via sympy's symbolic engine."""
    from sympy import Rational, N
    from sympy.physics.quantum.cg import CG

    def r(x):
        return Rational(round(2 * x), 2)

    return float(N(CG(r(j1), r(m1), r(j2), r(m2), r(j), r(m)).doit(), 30))


def chain_counts_by_value_iteration(
    rates: np.ndarray, decay_probs: np.ndarray, max_iter: int = 200_000, tol: float = 1e-13
) -> np.ndarray:
    """Expected blue-photon counts of the classical chain by fixed-point iteration.

    ``rates`` is the (6, 2) excitation-rate table, ``decay_probs`` the (2, 6)
    decay branching.  Avoids the package's linear solve entirely.
    """
    tot = rates.sum(axis=1)
    phot = decay_probs[:, 0:2].sum(axis=1)
    n = np.zeros(6)
    for _ in range(max_iter):
        new = np.zeros(6)
        for g in range(6):
            if tot[g] <= 0:
                continue
            pe = rates[g] / tot[g]
            new[g] = pe @ (phot + decay_probs @ n)
        if np.abs(new - n).max() < tol:
            return new
        n = new
    raise RuntimeError("value iteration did not converge")


def chain_count_law_by_steps(
    rates: np.ndarray, decay_probs: np.ndarray, max_steps: int = 100_000, tol: float = 1e-18
) -> np.ndarray:
    """Photon-count law (6, n) of the classical chain by dynamic programming over steps.

    Entry (g, k) is the probability that a walk from level g ends dark with
    k blue photons.  The joint law of (level, count) among the walks still
    bright advances one excite-and-decay step at a time; mass that lands on
    a dark level is banked under its count.  Stops once less than ``tol`` of
    the mass is still bright.  Avoids the package's linear solves and its
    recursion over photon counts.
    """
    tot = rates.sum(axis=1)
    bright = tot > 0
    pe = np.zeros_like(rates)
    pe[bright] = rates[bright] / tot[bright, None]
    step = pe @ decay_probs  # (6, 6) one step; rows of dark levels are zero
    live = np.zeros((6, 1, 6))  # (start, count, level) mass still bright
    live[bright, 0, bright] = 1.0
    law = np.zeros((6, 1))
    law[~bright, 0] = 1.0
    for _ in range(max_steps):
        if live.sum() < tol:
            return law
        moved = live @ step
        nxt = np.zeros((6, moved.shape[1] + 1, 6))
        nxt[:, :-1, 2:] = moved[:, :, 2:]  # no photon: lands in D
        nxt[:, 1:, :2] = moved[:, :, :2]  # blue photon: lands in S
        law = np.pad(law, ((0, 0), (0, 1))) + nxt[:, :, ~bright].sum(axis=2)
        live = nxt * bright
    raise RuntimeError("the chain did not pump dark within max_steps")


def _simplex_grid(k: int) -> np.ndarray:
    """All length-4 compositions of k, as fractions of k (the k-step simplex grid)."""
    pts = []
    for i in range(k + 1):
        for j in range(k + 1 - i):
            l = np.arange(0, k + 1 - i - j)
            m = k - i - j - l
            block = np.empty((l.size, 4))
            block[:, 0] = i
            block[:, 1] = j
            block[:, 2] = l
            block[:, 3] = m
            pts.append(block)
    return np.concatenate(pts) / k


def _profiled_objective(
    d_grid: np.ndarray, counts: np.ndarray, m: np.ndarray, efficiency: float, w: np.ndarray
) -> np.ndarray:
    """Weighted objective at each grid point with the background minimized out.

    For fixed populations the optimal background is a nonnegative scalar with
    a closed form, so the search only has to walk the population simplex.
    """
    pred = efficiency * (d_grid @ m.T)  # (P, 5)
    resid0 = counts[None, :] - pred
    denom = efficiency**2 * w.sum()
    cb = np.clip((resid0 * w[None, :]).sum(axis=1) * efficiency / denom, 0.0, None)
    r = resid0 - efficiency * cb[:, None]
    return (w[None, :] * r**2).sum(axis=1)


def simplex_grid_search(
    counts: np.ndarray,
    m: np.ndarray,
    efficiency: float,
    weights: np.ndarray,
    step: float = 1e-3,
    coarse: float = 2e-2,
) -> tuple[np.ndarray, float]:
    """Brute-force minimum of the constrained objective over the simplex grid.

    Two stages: a full sweep at ``coarse`` resolution, then exhaustive
    enumeration of the fine grid inside a box around the coarse minimizer
    (the objective is convex, so the basin is localized).  Returns the best
    grid point and its objective value.
    """
    w = np.asarray(weights, dtype=float)
    kc = round(1.0 / coarse)
    grid = _simplex_grid(kc)
    obj = _profiled_objective(grid, counts, m, efficiency, w)
    d0 = grid[int(np.argmin(obj))]

    kf = round(1.0 / step)
    center = np.rint(d0 * kf).astype(int)
    radius = int(3 * kc_to_fine(kc, kf))
    lo = np.maximum(center[:3] - radius, 0)
    hi = np.minimum(center[:3] + radius, kf)
    ii, jj, ll = np.meshgrid(
        np.arange(lo[0], hi[0] + 1),
        np.arange(lo[1], hi[1] + 1),
        np.arange(lo[2], hi[2] + 1),
        indexing="ij",
    )
    ii, jj, ll = ii.ravel(), jj.ravel(), ll.ravel()
    mm = kf - ii - jj - ll
    ok = mm >= 0
    fine = np.stack([ii[ok], jj[ok], ll[ok], mm[ok]], axis=1) / kf
    obj_f = _profiled_objective(fine, counts, m, efficiency, w)
    best = int(np.argmin(obj_f))
    return fine[best], float(obj_f[best])


def kc_to_fine(kc: int, kf: int) -> int:
    return max(kf // kc, 1)
