"""Coherent dynamics in the D quartet.

Effective two-photon drives couple either adjacent Zeeman levels
(Delta m = +-1, a spin-3/2 x-rotation up to scale) or next-nearest levels
(Delta m = +-2, two decoupled two-level pairs).  On top of that: synthetic
magnetically insensitive qubit states built from superpositions across the
two pair submanifolds, their preparation by rotation or by adiabatic passage
through the P level, projection-based readout, and least-squares fitting of
measured population trajectories.  The Rabi fit evaluates a closed-form model
(one eigendecomposition of the unit drive per fit) with analytic derivatives
in a bounded Levenberg-Marquardt search, written in numpy alone.  Its
frequency is bounded at the fold point of the time grid, above which a
uniformly sampled trace repeats exactly.

Quartet basis order everywhere: (d-3/2, d-1/2, d+1/2, d+3/2).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .atom import BA138, AtomConstants, JZ_QUARTET
from .linalg import expm

__all__ = [
    "EffectiveDrive",
    "DecayModel",
    "SynthStates",
    "PulseSchedule",
    "EvolveResult",
    "StirapResult",
    "ProjectionResult",
    "RabiFit",
    "FitFailureError",
    "drive_hamiltonian",
    "evolve",
    "wigner_populations",
    "make_synth_states",
    "prepare_d1_by_rotation",
    "prepare_d2_by_rotation",
    "stirap_prepare",
    "project_synth",
    "fit_rabi",
]

# Delta m = +-1 couplings between adjacent quartet levels; the ladder is
# proportional to the spin-3/2 J_x matrix with overall scale Omega/sqrt(18).
_ADJACENT_WEIGHTS = (math.sqrt(3.0 / 18.0), math.sqrt(4.0 / 18.0), math.sqrt(3.0 / 18.0))


class FitFailureError(RuntimeError):
    """Raised when a nonlinear fit cannot converge on usable parameters."""


@dataclass(frozen=True)
class EffectiveDrive:
    """Effective rotation drive inside the quartet.

    kind "dm1" couples adjacent levels, "dm2" couples the two level pairs
    (d-3/2, d+1/2) and (d-1/2, d+3/2).  The drive is resonant by default;
    ``detuning_rad_s`` adds the rotating-frame offset term.
    """

    kind: str
    rabi_rad_s: float
    phase_rad: float = 0.0
    detuning_rad_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("dm1", "dm2"):
            raise ValueError(f"drive kind must be 'dm1' or 'dm2', got {self.kind!r}")
        if not self.rabi_rad_s > 0:
            raise ValueError("Rabi frequency must be positive")


@dataclass(frozen=True)
class DecayModel:
    """Depolarization toward the uniform quartet mixture with time constant tau."""

    tau_s: float = math.inf

    def __post_init__(self) -> None:
        if not self.tau_s > 0:
            raise ValueError("decay time must be positive (math.inf for decay-free)")

    @property
    def decay_free(self) -> bool:
        return math.isinf(self.tau_s)


NO_DECAY = DecayModel()

_STIRAP_BLOCK = 4096  # STIRAP steps exponentiated per expm call; bounds memory for large step counts


def drive_hamiltonian(drive: EffectiveDrive) -> np.ndarray:
    """4x4 Hermitian interaction Hamiltonian of the drive, rad/s.

    The raising part (increasing m_J) carries e^{+i phase}; at zero phase the
    matrix is real symmetric with couplings sqrt(3/18), sqrt(4/18), sqrt(3/18)
    times Omega/2 on the adjacent lines, or Omega/2 on the two pair lines.
    """
    h = np.zeros((4, 4), complex)
    half = 0.5 * drive.rabi_rad_s
    up = np.exp(1j * drive.phase_rad)
    if drive.kind == "dm1":
        for i, w in enumerate(_ADJACENT_WEIGHTS):
            h[i + 1, i] = w * half * up  # |m+1><m|
    else:
        h[2, 0] = half * up
        h[3, 1] = half * up
    h = h + h.conj().T
    if drive.detuning_rad_s:
        h -= drive.detuning_rad_s * JZ_QUARTET
    return h


def _as_state(initial) -> tuple[np.ndarray, bool]:
    """Normalize input to (vector, False) or (density, True)."""
    arr = np.asarray(initial, dtype=complex)
    if arr.shape == (4,):
        norm = np.linalg.norm(arr)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("state vector must be unit norm to 1e-9")
        return arr, False
    if arr.shape == (4, 4):
        if np.abs(arr - arr.conj().T).max() > 1e-12:
            raise ValueError("density matrix must be Hermitian to 1e-12")
        if abs(np.trace(arr).real - 1.0) > 1e-9:
            raise ValueError("density matrix trace must be 1 to 1e-9")
        if np.linalg.eigvalsh(arr).min() < -1e-10:
            raise ValueError("density matrix must be positive semidefinite")
        return arr, True
    raise ValueError("state must be a length-4 vector or a 4x4 density matrix")


@dataclass
class EvolveResult:
    """Populations over time plus the propagated state at each sample."""

    times_s: np.ndarray
    populations: np.ndarray  # (n_times, 4)
    states: np.ndarray  # (n_times, 4) vectors or (n_times, 4, 4) densities
    density_form: bool


def evolve(
    initial,
    drive: EffectiveDrive,
    decay: DecayModel = NO_DECAY,
    times_s: Sequence[float] = (),
) -> EvolveResult:
    """Propagate under the drive with optional depolarization.

    Decay-free vectors evolve unitarily via the exact eigendecomposition
    propagator.  With finite tau the density operator evolves as
    rho(t) = e^{-t/tau} U rho U^dag + (1 - e^{-t/tau}) I/4, which is the
    exact solution because uniform depolarization commutes with any unitary
    generator.
    """
    times = np.asarray(times_s, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-D sequence")
    if (times < 0).any() or (np.diff(times) < 0).any():
        raise ValueError("times must be nonnegative and ascending")

    h = drive_hamiltonian(drive)
    evals, vecs = np.linalg.eigh(h)
    state, density = _as_state(initial)
    if not decay.decay_free:
        density = True
        if state.ndim == 1:
            state = np.outer(state, state.conj())

    phases = np.exp(-1j * np.outer(times, evals))  # (T, 4)
    if density:
        u = vecs * phases[:, None, :]  # (T, 4, 4): vecs @ diag(phases) per time
        states = u @ (vecs.conj().T @ state @ vecs) @ u.conj().transpose(0, 2, 1)
        if not decay.decay_free:
            w = np.exp(-times / decay.tau_s)[:, None, None]
            states = w * states + (1.0 - w) * np.eye(4) / 4.0
        pops = np.diagonal(states, axis1=1, axis2=2).real.copy()
    else:
        amp0 = vecs.conj().T @ state
        amps = phases * amp0  # (T, 4) in eigenbasis
        states = amps @ vecs.T  # back to quartet basis
        pops = np.abs(states) ** 2
    return EvolveResult(times_s=times, populations=pops, states=states, density_form=density)


def wigner_populations(theta: float, initial_two_mj: int) -> np.ndarray:
    """Closed-form spin-3/2 rotation populations |d^{3/2}_{m',m}(theta)|^2.

    Independent of the propagator path: evaluated directly from the factorial
    sum for the small-d rotation matrix.  Basis order ascending m_J.
    """
    if initial_two_mj not in (-3, -1, 1, 3):
        raise ValueError("initial_two_mj must be one of -3, -1, 1, 3")
    j = 1.5
    m = initial_two_mj / 2.0
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    out = np.empty(4)
    for idx, two_mp in enumerate((-3, -1, 1, 3)):
        mp = two_mp / 2.0
        total = 0.0
        for k in range(0, 4):
            a = round(j + m - k)
            b = round(k + mp - m)
            cc = round(j - mp - k)
            if a < 0 or b < 0 or cc < 0:
                continue
            num = math.sqrt(
                math.factorial(round(j + m))
                * math.factorial(round(j - m))
                * math.factorial(round(j + mp))
                * math.factorial(round(j - mp))
            )
            den = (
                math.factorial(a) * math.factorial(b) * math.factorial(cc) * math.factorial(k)
            )
            total += (-1) ** b * (num / den) * c ** (2 * j + m - mp - 2 * k) * s ** (2 * k + mp - m)
        out[idx] = total**2
    return out


@dataclass(frozen=True)
class SynthStates:
    """Synthetic qubit basis: two field-insensitive states and their bright partners."""

    d1: np.ndarray
    d2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray


def make_synth_states(phi: float = math.pi) -> SynthStates:
    """Synthetic qubit states at relative phase phi.

    d1 mixes (d+3/2, d-1/2) with weights (1/2, sqrt(3)/2 e^{i phi}); d2 is the
    same construction on the other pair submanifold.  b1/b2 are the orthogonal
    bright partners.  All four have zero or unit |<J_z>| pattern: the d states
    sit at exactly zero first-order field sensitivity.
    """
    e = np.exp(1j * phi)
    d1 = np.array([0.0, math.sqrt(3) / 2 * e, 0.0, 0.5], complex)
    d2 = np.array([0.5, 0.0, math.sqrt(3) / 2 * e, 0.0], complex)
    b1 = np.array([0.0, -0.5 * e, 0.0, math.sqrt(3) / 2], complex)
    b2 = np.array([math.sqrt(3) / 2, 0.0, -0.5 * e, 0.0], complex)
    return SynthStates(d1=d1, d2=d2, b1=b1, b2=b2)


@dataclass(frozen=True)
class PulseSchedule:
    """One constant-drive pulse."""

    drive: EffectiveDrive
    duration_s: float


def _prepare_by_rotation(
    omega: float, drive_phase: float, start_idx: int
) -> tuple[PulseSchedule, np.ndarray]:
    drive = EffectiveDrive(kind="dm2", rabi_rad_s=omega, phase_rad=drive_phase)
    duration = (2.0 / 3.0) * math.pi / omega
    schedule = PulseSchedule(drive=drive, duration_s=duration)
    start = np.zeros(4, complex)
    start[start_idx] = 1.0
    res = evolve(start, drive, NO_DECAY, [duration])
    return schedule, res.states[-1]


def prepare_d1_by_rotation(omega_rad_s: float, phi: float = math.pi) -> tuple[PulseSchedule, np.ndarray]:
    """Pair-drive pulse taking d+3/2 to the first insensitive state.

    Full transfer to d-1/2 takes Omega*T = pi; stopping at 2T/3 leaves the
    (1/2, sqrt(3)/2) superposition.  The drive phase is chosen so the -i
    picked up by the rotation lands exactly on the target's e^{i phi}.
    """
    if not omega_rad_s > 0:
        raise ValueError("Rabi frequency must be positive")
    return _prepare_by_rotation(omega_rad_s, -(phi + math.pi / 2), start_idx=3)


def prepare_d2_by_rotation(omega_rad_s: float, phi: float = math.pi) -> tuple[PulseSchedule, np.ndarray]:
    """Analogous pulse from d-3/2 to the second insensitive state.

    Starting from the bottom of its pair, the rotation deposits +i e^{i phase}
    on the partner, so the drive phase is the mirror of the d1 case.
    """
    if not omega_rad_s > 0:
        raise ValueError("Rabi frequency must be positive")
    return _prepare_by_rotation(omega_rad_s, phi + math.pi / 2, start_idx=0)


@dataclass
class StirapResult:
    """Outcome of the three-level adiabatic-passage preparation."""

    fidelity: float
    peak_p_population: float
    final_populations: np.ndarray  # (start, excited, target)
    loss: float
    counterintuitive: bool


def stirap_prepare(
    peak_pump_rad_s: float,
    peak_stokes_rad_s: float,
    pulse_width_s: float,
    pulse_delay_s: float,
    total_s: float,
    steps: int = 4000,
    constants: AtomConstants = BA138,
) -> StirapResult:
    """Adiabatic transfer d+3/2 -> d-1/2 through the lossy P level.

    Gaussian pulse envelopes on the two red legs; the intermediate level
    decays at its natural linewidth (treated as pure loss, re-feeding into
    the quartet is ignored at this level).  ``pulse_delay_s`` > 0 puts the
    Stokes (target-side) pulse before the pump, the counterintuitive order
    that keeps the lossy level unpopulated.
    """
    if peak_pump_rad_s < 0 or peak_stokes_rad_s < 0:
        raise ValueError("peak Rabi frequencies must be nonnegative")
    if pulse_width_s <= 0 or total_s <= 0:
        raise ValueError("pulse width and total duration must be positive")
    counterintuitive = pulse_delay_s > 0
    if not counterintuitive:
        warnings.warn(
            "pump precedes Stokes (intuitive ordering): transfer will populate "
            "the lossy intermediate level",
            stacklevel=2,
        )

    gamma = 1.0 / constants.p_lifetime_s  # rad/s loss rate of the P level
    t_mid = total_s / 2.0
    t_pump = t_mid + pulse_delay_s / 2.0
    t_stokes = t_mid - pulse_delay_s / 2.0

    dt = total_s / steps  # the spacing of np.linspace(0, total_s, steps + 1)
    width2 = 2 * pulse_width_s**2
    psi = np.array([1.0, 0.0, 0.0], complex)  # (start, excited, target)
    peak_p = 0.0
    for lo in range(0, steps, _STIRAP_BLOCK):
        hi = min(lo + _STIRAP_BLOCK, steps)
        t = np.arange(lo, hi) * dt + dt / 2.0  # step midpoints
        h = np.zeros((hi - lo, 3, 3), complex)
        h[:, 0, 1] = h[:, 1, 0] = peak_pump_rad_s * np.exp(-((t - t_pump) ** 2) / width2) / 2.0
        h[:, 1, 2] = h[:, 2, 1] = peak_stokes_rad_s * np.exp(-((t - t_stokes) ** 2) / width2) / 2.0
        h[:, 1, 1] = -0.5j * gamma
        excited = np.empty(hi - lo, complex)
        for i, u in enumerate(expm(-1j * h * dt)):
            psi = u @ psi
            excited[i] = psi[1]
        peak_p = np.maximum(peak_p, (np.abs(excited) ** 2).max())
    final = np.abs(psi) ** 2
    return StirapResult(
        fidelity=float(final[2]),
        peak_p_population=float(peak_p),
        final_populations=final,
        loss=float(max(0.0, 1.0 - final.sum())),
        counterintuitive=counterintuitive,
    )


@dataclass
class ProjectionResult:
    """Projection of a quartet state onto the synthetic qubit subspace."""

    p_d1: float
    p_d2: float
    leakage: Optional[float]
    population_rule: bool  # True when inferred from populations alone


def project_synth(state_or_populations, phi: float = math.pi) -> ProjectionResult:
    """Populations of the two synthetic qubit states.

    A full state (vector or density) gives exact overlaps and the leakage
    out of the subspace.  A bare 4-vector of populations uses the
    disjoint-support rule p_d1 = p(d+3/2) + p(d-1/2), p_d2 = the mirror sum;
    that rule assumes the state lies inside the synthetic subspace, so such
    results are flagged ``population_rule=True`` and carry no leakage.
    """
    arr = np.asarray(state_or_populations)
    synth = make_synth_states(phi)
    if arr.shape == (4,) and not np.iscomplexobj(arr) and arr.min() >= 0 and abs(arr.sum() - 1) < 1e-6:
        p1 = float(arr[3] + arr[1])
        p2 = float(arr[0] + arr[2])
        return ProjectionResult(p_d1=p1, p_d2=p2, leakage=None, population_rule=True)
    state, density = _as_state(arr)
    if density:
        p1 = float((synth.d1.conj() @ state @ synth.d1).real)
        p2 = float((synth.d2.conj() @ state @ synth.d2).real)
    else:
        p1 = float(abs(synth.d1.conj() @ state) ** 2)
        p2 = float(abs(synth.d2.conj() @ state) ** 2)
    return ProjectionResult(
        p_d1=p1, p_d2=p2, leakage=float(max(0.0, 1.0 - p1 - p2)), population_rule=False
    )


@dataclass(frozen=True)
class _LeastSquaresFit:
    """Best start of a multi-start least-squares fit, in numpy and Python values."""

    x: np.ndarray
    cov: np.ndarray  # 2 cost / dof (J^T J)^-1, NaN where J^T J is singular
    cost: float  # half the sum of squared residuals
    nfev: int
    start: int  # index of the winning start, counted across all groups


def _covariance(jac: np.ndarray, cost: float) -> np.ndarray:
    """2 cost / dof (J^T J)^-1 with dof = max(n_resid - n_params, 1); NaN where J^T J is singular."""
    n, k = jac.shape
    try:
        return 2 * cost / max(n - k, 1) * np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        return np.full((k, k), np.nan)


def _levenberg_marquardt(fun, x0, lo, hi, tol: float = 1e-14):
    """Bounded Levenberg-Marquardt from one start; returns (x, cost, jac, nfev).

    ``fun(x)`` returns the residual vector and its Jacobian.  Steps solve
    (J^T J + mu diag(J^T J)) dx = -J^T r (Marquardt's scaling) with Nielsen's
    damping update.  A variable at a bound whose gradient points out of the
    box is held for the step, and every trial point is clipped into the box.
    Stops when a step would move no variable by more than ``tol`` relative,
    when two accepted steps in a row each lower the cost by at most ``tol``
    relative (one such step can still leave the parameters far from
    converged), or after 100 evaluations per variable.  Raises ValueError for a start outside
    the bounds or with non-finite residuals.
    """
    x = np.array(x0, dtype=float)
    if not ((lo <= x) & (x <= hi)).all():
        raise ValueError("start lies outside the bounds")
    r, jac = fun(x)
    if not np.isfinite(r).all():
        raise ValueError("residuals are not finite at the start")
    cost = 0.5 * (r @ r)
    nfev, mu, nu, stalled = 1, 1e-3, 2.0, 0
    while nfev < 100 * x.size and cost > 0:
        grad = jac.T @ r
        jtj = jac.T @ jac
        free = ~(((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0)))
        diag = jtj.diagonal()
        lhs = jtj + mu * np.diag(np.where(diag > 0, diag, 1.0))
        step = np.zeros_like(x)
        step[free] = -np.linalg.solve(lhs[free][:, free], grad[free])
        trial = np.clip(x + step, lo, hi)
        s = trial - x
        if (np.abs(s) <= tol * (tol + np.abs(x))).all():
            break
        r_new, jac_new = fun(trial)
        nfev += 1
        # the cost change as a sum of products of differences keeps the digits
        # that cost - cost_new would cancel when the cost cannot reach zero
        gain = 0.5 * ((r - r_new) @ (r + r_new)) if np.isfinite(r_new).all() else -math.inf
        js = jac @ s
        predicted = -(grad @ s + 0.5 * (js @ js))
        if gain > 0:
            rho = gain / predicted if predicted > 0 else 0.0
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
            stalled = stalled + 1 if gain <= tol * cost else 0
            x, r, jac, cost = trial, r_new, jac_new, 0.5 * (r_new @ r_new)
            if stalled == 2:
                break
        else:
            mu *= nu
            nu *= 2.0
    return x, cost, jac, nfev


def _fit_least_squares(fun, start_groups, bounds, name: str, stop_cost: float = 0.0) -> _LeastSquaresFit:
    """Bounded least squares from each start in turn, keeping the strictly lowest finite cost.

    ``fun(x)`` returns ``(residuals, jacobian)``.  Starts come in groups;
    after a whole group the search stops early once the best cost is below
    ``stop_cost``.  A start whose solve raises ValueError (an infeasible or
    non-finite start, or a LinAlgError) is skipped; any other exception
    propagates.  Raises FitFailureError when no start returns a finite cost.
    """
    lo, hi = (np.asarray(b, dtype=float) for b in bounds)
    best, best_start, tried = None, -1, 0
    for group in start_groups:
        for x0 in group:
            tried += 1
            try:
                sol = _levenberg_marquardt(fun, x0, lo, hi)  # (x, cost, jac, nfev)
            except ValueError:
                continue
            if np.isfinite(sol[1]) and (best is None or sol[1] < best[1]):
                best, best_start = sol, tried - 1
        if best is not None and best[1] < stop_cost:
            break
    if best is None:
        raise FitFailureError(f"{name} did not converge: no finite cost from {tried} seeded starts")
    x, cost, jac, nfev = best
    return _LeastSquaresFit(x=x, cov=_covariance(jac, cost), cost=float(cost), nfev=nfev, start=best_start)


@dataclass
class RabiFit:
    """Fitted drive parameters of a population time series."""

    omega_rad_s: float
    omega_err: float
    tau_s: float
    tau_err: float
    covariance: np.ndarray  # 2x2 over (omega, 1/tau)
    residual_rms: float
    decay_free_bound: bool


def _rabi_closed_form(times: np.ndarray, kind: str, initial):
    """Closed-form populations of a drive of unknown frequency and decay rate.

    With the unit drive H1 = V diag(lam) V^dag and rho0 the initial density,
    the populations at Rabi frequency omega and decay rate gamma are
    p_m(t) = e^{-gamma t} Re sum_jk M_mjk e^{-i (lam_j - lam_k) omega t}
    + (1 - e^{-gamma t}) / 4 with M_mjk = V_mj (V^dag rho0 V)_jk V*_mk, the
    populations ``evolve`` returns.  Returns ``(model, base)``:
    ``model(omega, gamma)`` gives the (n_times, 4) populations and their
    derivatives in omega and gamma, and ``base`` is the smallest nonzero
    eigenvalue gap of H1, of which every other gap is an integer multiple.
    """
    evals, vecs = np.linalg.eigh(drive_hamiltonian(EffectiveDrive(kind=kind, rabi_rad_s=1.0)))
    state, density = _as_state(initial)
    rho = state if density else np.outer(state, state.conj())
    terms = np.einsum("mj,jk,mk->jkm", vecs, vecs.conj().T @ rho @ vecs, vecs.conj()).reshape(16, 4)
    gaps = (evals[:, None] - evals[None, :]).ravel()
    base = float(gaps[gaps > 1e-9 * gaps.max()].min())
    # terms of equal gap add up: one weight per harmonic -top..top of base * omega
    orders = np.rint(gaps / base).astype(int)
    top = int(orders.max())
    weights = np.zeros((2 * top + 1, 4), complex)
    np.add.at(weights, orders + top, terms)
    rates = np.outer(times, base * np.arange(-top, top + 1))  # d(phase) / d(omega) per harmonic

    def model(omega: float, gamma: float):
        phases = np.exp(-1j * omega * rates)
        coherent = (phases @ weights).real
        d_coherent = ((-1j * rates * phases) @ weights).real
        decay = np.exp(-gamma * times)[:, None]
        pops = decay * coherent + (1.0 - decay) / 4.0
        return pops, decay * d_coherent, -times[:, None] * decay * (coherent - 0.25)

    return model, base


def fit_rabi(
    times_s: Sequence[float],
    populations: np.ndarray,
    kind: str,
    initial=None,
) -> RabiFit:
    """Least-squares fit of (Rabi frequency, decay time) to population data.

    ``populations`` is (n_times, 4).  The initial state defaults to the
    diagonal density built from the first sample.  Candidate frequencies are
    seeded from the discrete spectrum of the dominant population trace, so the
    fit is deterministic for fixed data.  The frequency is bounded at the fold
    point pi / (base dt_min) of the time grid (``base`` as in
    ``_rabi_closed_form``, dt_min its shortest step), and seeds above it are
    clipped to it.  Both decay seeds of a frequency seed run before the search
    stops early on an exact fit.
    """
    times = np.asarray(times_s, dtype=float)
    pops = np.asarray(populations, dtype=float)
    if times.ndim != 1 or times.size < 8:
        raise ValueError("need at least 8 time points to fit")
    if pops.shape != (times.size, 4):
        raise ValueError("populations must have shape (n_times, 4)")
    if kind not in ("dm1", "dm2"):
        raise ValueError("drive kind must be 'dm1' or 'dm2'")
    steps = np.diff(times)
    if times[0] < 0 or (steps < 0).any() or not times[-1] > times[0]:
        raise ValueError("times must be nonnegative, ascending and span a positive interval")
    span = times[-1] - times[0]

    if initial is None:
        p0 = np.clip(pops[0], 0.0, None)
        p0 = p0 / p0.sum()
        initial = np.diag(p0).astype(complex)

    spread = pops.std(axis=0).max()
    if spread < 1e-3:
        raise FitFailureError(
            "population traces are constant; Rabi frequency is unidentifiable "
            "(drive is effectively off)"
        )
    model, base = _rabi_closed_form(times, kind, initial)
    # every frequency of the model is an integer multiple of base * omega, so on a
    # uniform grid omega and 2 pi / (base dt) - omega give the same samples
    omega_max = math.pi / (base * steps[steps > 0].min())

    # frequency seeds from the dominant trace's spectrum
    trace = pops[:, int(np.argmax(pops.std(axis=0)))]
    uniform = np.linspace(times[0], times[-1], max(64, 4 * times.size))
    resampled = np.interp(uniform, times, trace)
    spec = np.abs(np.fft.rfft(resampled - resampled.mean()))
    freqs = np.fft.rfftfreq(uniform.size, uniform[1] - uniform[0])
    f_peak = freqs[1:][int(np.argmax(spec[1:]))]
    w_peak = 2 * math.pi * max(f_peak, 1.0 / span)
    omega_seeds = [min(w_peak * m / base, omega_max) for m in (1.0, 0.5, 2.0, 1.0 / 3.0)]
    gamma_seeds = [0.0, 1.0 / span]
    bounds = ([1e-6 / span, 0.0], [omega_max, 1e4 / span])

    def resid(p):
        fitted, d_omega, d_gamma = model(p[0], p[1])
        return (fitted - pops).ravel(), np.stack([d_omega.ravel(), d_gamma.ravel()], axis=1)

    starts = [[[og, gg] for gg in gamma_seeds] for og in omega_seeds]
    best = _fit_least_squares(resid, starts, bounds, "Rabi fit", stop_cost=1e-18)
    omega, gamma = best.x
    # decay below 0.01% over the whole window is indistinguishable from none
    gamma_tiny = gamma <= bounds[0][1] + 1e-12 or gamma * span < 1e-4
    tau = math.inf if gamma_tiny else 1.0 / gamma
    tau_err = math.nan if gamma_tiny else math.sqrt(max(best.cov[1, 1], 0.0)) / gamma**2
    return RabiFit(
        omega_rad_s=float(omega),
        omega_err=float(math.sqrt(max(best.cov[0, 0], 0.0))),
        tau_s=tau,
        tau_err=tau_err,
        covariance=best.cov,
        residual_rms=float(math.sqrt(2 * best.cost / pops.size)),
        decay_free_bound=bool(gamma_tiny),
    )
