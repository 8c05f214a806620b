"""Population reconstruction from polarization-tagged photon counts.

The forward model maps quartet populations d (plus a per-trial background
C_b and a detection efficiency E_d) to mean counts per polarization setting:
n = E_d (M d + C_b).  Three inverse routes are provided: the trivial
two-state ratio estimator for the S doublet, a direct six-unknown linear
solve that treats E_d as unknown, and a bounded constrained least-squares
solve on the population simplex with Hessian error bars.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import sqrt
from typing import Optional, Sequence, Union

import numpy as np

from .rng import substream
from .scatter import DetectionMatrix

__all__ = [
    "CountsVector",
    "PopulationEstimate",
    "UndefinedStateError",
    "SingularSystemError",
    "solve_s",
    "synth_counts",
    "solve_direct",
    "solve_constrained",
]


class UndefinedStateError(ValueError):
    """Raised when counts carry no state information (all zero)."""


class SingularSystemError(np.linalg.LinAlgError):
    """Raised when the direct linear system is rank-deficient."""

    def __init__(self, message: str, deficient_rows: tuple[int, ...]):
        super().__init__(message)
        self.deficient_rows = deficient_rows


@dataclass
class CountsVector:
    """Mean photon counts per polarization setting.

    ``values`` follows the detection-matrix row order
    (sigma+, sigma-, pi, sigma+&pi, sigma-&pi) for the quartet.  ``raw``
    optionally holds the per-trial integer counts, shape (n_settings, trials).
    """

    values: np.ndarray
    trials: int
    raw: Optional[np.ndarray] = None
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("counts must be a 1-D vector")
        if (self.values < 0).any():
            raise ValueError("mean counts must be nonnegative")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.raw is not None:
            self.raw = np.asarray(self.raw)
            if self.raw.shape != (self.values.size, self.trials):
                raise ValueError("raw counts must have shape (n_settings, trials)")

    def mean_variances(self) -> np.ndarray:
        """Variance of each mean count: sample-based if raw data exist, else Poisson."""
        if self.raw is not None and self.trials > 1:
            return self.raw.var(axis=1, ddof=1) / self.trials
        # Poisson: Var(mean) ~= mean/trials, floored to keep weights finite
        return np.maximum(self.values, 1.0) / self.trials


@dataclass
class PopulationEstimate:
    """Reconstructed populations with background, efficiency and error bars.

    The constrained method reports a 4x4 population covariance; the direct
    method a 6x6 covariance over (d0..d3, C_b, E_d).  ``out_of_bounds`` lists
    populations outside [0, 1] (direct method only; never clamped);
    ``active_constraints`` names bounds pinned at the constrained solution.
    """

    populations: np.ndarray
    background: float
    efficiency: float
    covariance: np.ndarray
    method: str
    out_of_bounds: tuple[int, ...] = ()
    active_constraints: tuple[str, ...] = ()
    background_scaled_by_efficiency: bool = True
    residual_norm: float = 0.0


def solve_s(n_plus: float, n_minus: float) -> tuple[float, float]:
    """Two-state estimator from the sigma+ and sigma- trial means.

    Returns (s0, s1) = (n_-, n_+) / (n_+ + n_-).  Index 0 is the population
    of the level dark under the sigma+ probe (m_J = +1/2) and index 1 the
    level dark under sigma- (m_J = -1/2): a pure bright-under-sigma+ ion,
    counts (2.8, 0), gives (0, 1).
    """
    if n_plus < 0 or n_minus < 0:
        raise ValueError("counts must be nonnegative")
    total = n_plus + n_minus
    if total <= 0:
        raise UndefinedStateError("both counts are zero: state undetermined")
    return (n_minus / total, n_plus / total)


def _matrix_of(m: Union[DetectionMatrix, np.ndarray]) -> np.ndarray:
    arr = m.means if isinstance(m, DetectionMatrix) else np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise ValueError("detection matrix must be 2-D")
    return arr


def synth_counts(
    d: Sequence[float],
    efficiency: float,
    background: float,
    matrix: Union[DetectionMatrix, np.ndarray],
    trials: int,
    seed: int,
    scaled_background: bool = True,
    keep_raw: bool = False,
) -> CountsVector:
    """Synthetic per-setting mean counts from the Poisson forward model.

    Per-trial counts are Poisson with mean E_d (M d + C_b) per setting (or
    E_d M d + C_b when ``scaled_background`` is False); the returned values
    are the empirical means over ``trials``.
    """
    d = np.asarray(d, dtype=float)
    m = _matrix_of(matrix)
    if d.shape != (m.shape[1],):
        raise ValueError(f"populations must have length {m.shape[1]}")
    if (d < -1e-12).any() or abs(d.sum() - 1.0) > 1e-9:
        raise ValueError("populations must lie on the simplex")
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must lie in (0, 1]")
    if background < 0:
        raise ValueError("background must be nonnegative")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    if scaled_background:
        mu = efficiency * (m @ np.clip(d, 0.0, None) + background)
    else:
        mu = efficiency * (m @ np.clip(d, 0.0, None)) + background
    rng = substream(seed, "synth-counts")
    raw = rng.poisson(lam=np.broadcast_to(mu[:, None], (mu.size, trials)))
    labels = tuple(matrix.row_labels) if isinstance(matrix, DetectionMatrix) else ()
    return CountsVector(
        values=raw.mean(axis=1),
        trials=trials,
        raw=raw if keep_raw else None,
        labels=labels,
    )


def solve_direct(
    counts: CountsVector,
    matrix: Union[DetectionMatrix, np.ndarray],
    scaled_background: bool = True,
) -> PopulationEstimate:
    """Direct linear solve treating the efficiency as a sixth unknown.

    Linearized in the products x_i = E_d d_i and b = E_d C_b, the five count
    equations plus the unit-sum condition Sum d_i = 1 (written Sum x_i = E_d)
    form a square six-unknown system.  Populations outside [0, 1] are
    reported, not clamped.
    """
    n = np.asarray(counts.values, dtype=float)
    m = _matrix_of(matrix)
    if n.shape[0] != 5 or m.shape != (5, 4):
        raise ValueError("direct solve expects five settings and a 5x4 matrix")

    # unknowns z = (x0, x1, x2, x3, b, E_d)
    a = np.zeros((6, 6))
    rhs = np.zeros(6)
    a[:5, :4] = m
    a[:5, 4] = 1.0
    rhs[:5] = n
    a[5, :4] = 1.0
    a[5, 5] = -1.0

    u, s, vt = np.linalg.svd(a)
    if s[-1] < 1e-10 * s[0]:
        weights = np.abs(u[:, -1])
        rows = tuple(int(i) for i in np.nonzero(weights[:5] > 0.1 * weights.max())[0])
        raise SingularSystemError(
            f"detection system is rank-deficient; dependent count rows: {rows}", rows
        )
    z = vt.T @ ((u.T @ rhs) / s)
    x, b, e_d = z[:4], z[4], z[5]
    if abs(e_d) < 1e-12:
        raise SingularSystemError("recovered efficiency is zero; populations undefined", ())
    d = x / e_d
    c_b = b / e_d
    if not scaled_background:
        c_b = b  # background entered unscaled; b already is C_b

    # covariance: propagate per-setting count variance through the linear solve,
    # then the delta method onto (d, C_b, E_d)
    var_n = counts.mean_variances()
    a_inv = vt.T @ np.diag(1.0 / s) @ u.T
    cov_z = a_inv[:, :5] @ np.diag(var_n) @ a_inv[:, :5].T
    jac = np.zeros((6, 6))  # (d0..d3, C_b, E_d) wrt (x0..x3, b, E_d)
    jac[:4, :4] = np.eye(4) / e_d
    jac[:4, 5] = -x / e_d**2
    if scaled_background:
        jac[4, 4] = 1.0 / e_d
        jac[4, 5] = -b / e_d**2
    else:
        jac[4, 4] = 1.0
    jac[5, 5] = 1.0
    cov = jac @ cov_z @ jac.T

    oob = tuple(int(i) for i in np.nonzero((d < -1e-9) | (d > 1.0 + 1e-9))[0])
    return PopulationEstimate(
        populations=d,
        background=float(c_b),
        efficiency=float(e_d),
        covariance=cov,
        method="direct",
        out_of_bounds=oob,
        background_scaled_by_efficiency=scaled_background,
        residual_norm=float(np.linalg.norm(a @ z - rhs)),
    )


def _face_basis(free_d: list[int], cb_free: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(z0, T)`` with ``z = z0 + T y`` spanning the face: unit-sum populations on
    ``free_d`` (the last one dependent) and the background if ``cb_free``."""
    dep, red = free_d[-1], free_d[:-1]
    z0 = np.zeros(5)
    z0[dep] = 1.0
    t = np.zeros((5, len(red) + int(cb_free)))
    for ci, i in enumerate(red):
        t[i, ci] = 1.0
        t[dep, ci] = -1.0
    if cb_free:
        t[4, -1] = 1.0
    return z0, t


def _face_solution(
    aw: np.ndarray, nw: np.ndarray, pinned: tuple[int, ...]
) -> Optional[np.ndarray]:
    """Minimize |aw z - nw| over z with z[pinned] = 0 and sum(z[:4]) = 1.

    The unit-sum equality eliminates the last free population; returns the
    full 5-vector (d0..d3, cb) or None when the face is empty.
    """
    free_d = [i for i in range(4) if i not in pinned]
    if not free_d:
        return None
    z0, t = _face_basis(free_d, 4 not in pinned)
    if t.shape[1] == 0:
        return z0
    y, *_ = np.linalg.lstsq(aw @ t, nw - aw @ z0, rcond=None)
    return z0 + t @ y


def solve_constrained(
    counts: CountsVector,
    matrix: Union[DetectionMatrix, np.ndarray],
    efficiency: float,
    scaled_background: bool = True,
) -> PopulationEstimate:
    """Bounded least squares on the simplex with a known efficiency.

    Minimizes the weighted squared residual of the five count equations over
    populations on the simplex and background >= 0.  The optimum is found
    exactly by enumerating the active-set faces of the feasible polytope
    (the problem has five unknowns, so there are at most 2^5 faces); no
    iterative tolerance enters.  Error bars come from the Gauss-Newton
    Hessian at the solution, restricted to the unpinned directions.  The
    weights are the inverse variances of the mean counts.
    """
    n = np.asarray(counts.values, dtype=float)
    if (n < 0).any():
        raise ValueError("counts must be nonnegative")
    m = _matrix_of(matrix)
    if n.shape[0] != m.shape[0] or m.shape[1] != 4:
        raise ValueError("counts length must match the matrix rows (4 populations)")
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must lie in (0, 1]")

    w_sqrt = np.sqrt(1.0 / counts.mean_variances())

    a = np.zeros((m.shape[0], 5))
    a[:, :4] = efficiency * m
    a[:, 4] = efficiency if scaled_background else 1.0
    aw = w_sqrt[:, None] * a
    nw = w_sqrt * n

    best_z, best_obj, best_pinned = None, np.inf, ()
    for k in range(0, 5):
        for pinned in combinations(range(5), k):
            z = _face_solution(aw, nw, pinned)
            if z is None:
                continue
            if (z < -1e-10).any():
                continue
            obj = float(np.sum((aw @ z - nw) ** 2))
            if obj < best_obj - 1e-15:
                best_z, best_obj, best_pinned = z, obj, pinned
    assert best_z is not None  # the vertex faces are always feasible
    z = np.clip(best_z, 0.0, None)
    z[:4] = z[:4] / z[:4].sum()  # remove roundoff drift off the simplex

    names = [f"d{i}>=0" for i in range(4)] + ["background>=0"]
    active = tuple(names[i] for i in range(5) if z[i] <= 1e-10)

    # Gauss-Newton covariance on the tangent space of the active face
    free_d = [i for i in range(4) if z[i] > 1e-10]
    cb_free = z[4] > 1e-10
    cov = np.zeros((5, 5))
    if free_d:
        _, t = _face_basis(free_d, cb_free)
        if t.shape[1]:
            j = aw @ t
            try:
                cov_red = np.linalg.inv(j.T @ j)
                cov = t @ cov_red @ t.T
            except np.linalg.LinAlgError:
                cov = np.full((5, 5), np.nan)

    return PopulationEstimate(
        populations=z[:4],
        background=float(z[4]),
        efficiency=float(efficiency),
        covariance=cov[:4, :4],
        method="constrained",
        out_of_bounds=(),
        active_constraints=active,
        background_scaled_by_efficiency=scaled_background,
        residual_norm=sqrt(best_obj),
    )
