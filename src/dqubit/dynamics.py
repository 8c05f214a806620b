"""Coherent dynamics in the D quartet.

Effective two-photon drives couple either adjacent Zeeman levels
(Delta m = +-1, a spin-3/2 x-rotation up to scale) or next-nearest levels
(Delta m = +-2, two decoupled two-level pairs).  On top of that: synthetic
magnetically insensitive qubit states built from superpositions across the
two pair submanifolds, their preparation by rotation or by adiabatic passage
through the P level, projection-based readout, and least-squares fitting of
measured population trajectories.  ``scipy.optimize`` loads at the first fit,
so processes that never fit do not pay for its import.

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
    times_s: np.ndarray
    populations: np.ndarray  # (T, 3)


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

    times = np.linspace(0.0, total_s, steps + 1)
    dt = times[1] - times[0]
    t = times[:-1] + dt / 2.0
    op = peak_pump_rad_s * np.exp(-((t - t_pump) ** 2) / (2 * pulse_width_s**2))
    os_ = peak_stokes_rad_s * np.exp(-((t - t_stokes) ** 2) / (2 * pulse_width_s**2))
    psi = np.array([1.0, 0.0, 0.0], complex)  # (start, excited, target)
    pops = np.empty((steps + 1, 3))
    pops[0] = np.abs(psi) ** 2
    for lo in range(0, steps, _STIRAP_BLOCK):
        hi = min(lo + _STIRAP_BLOCK, steps)
        h = np.zeros((hi - lo, 3, 3), complex)
        h[:, 0, 1] = h[:, 1, 0] = op[lo:hi] / 2.0
        h[:, 1, 2] = h[:, 2, 1] = os_[lo:hi] / 2.0
        h[:, 1, 1] = -0.5j * gamma
        for i, u in enumerate(expm(-1j * h * dt), start=lo):
            psi = u @ psi
            pops[i + 1] = np.abs(psi) ** 2
    final = np.abs(psi) ** 2
    return StirapResult(
        fidelity=float(final[2]),
        peak_p_population=float(pops[:, 1].max()),
        final_populations=final,
        loss=float(max(0.0, 1.0 - final.sum())),
        counterintuitive=counterintuitive,
        times_s=times,
        populations=pops,
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


def _fit_least_squares(resid, start_groups, bounds, name: str, stop_cost: float = 0.0) -> _LeastSquaresFit:
    """Bounded least squares from each start in turn, keeping the strictly lowest finite cost.

    Starts come in groups; after a whole group the search stops early once the
    best cost is below ``stop_cost``.  A start whose solve raises ValueError
    (an infeasible or non-finite start, or a LinAlgError) is skipped; any
    other exception propagates.  Raises FitFailureError when no start returns
    a finite cost.
    """
    from scipy.optimize import least_squares

    best, best_start, tried = None, -1, 0
    for group in start_groups:
        for x0 in group:
            tried += 1
            try:
                sol = least_squares(resid, x0=x0, bounds=bounds, xtol=1e-14, ftol=1e-14)
            except ValueError:
                continue
            if np.isfinite(sol.cost) and (best is None or sol.cost < best.cost):
                best, best_start = sol, tried - 1
        if best is not None and best.cost < stop_cost:
            break
    if best is None:
        raise FitFailureError(f"{name} did not converge: no finite cost from {tried} seeded starts")
    dof = max(best.fun.size - best.x.size, 1)
    try:
        cov = 2 * best.cost / dof * np.linalg.inv(best.jac.T @ best.jac)
    except np.linalg.LinAlgError:
        cov = np.full((best.x.size, best.x.size), np.nan)
    return _LeastSquaresFit(x=best.x, cov=cov, cost=float(best.cost), nfev=int(best.nfev), start=best_start)


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


def _rabi_model(times: np.ndarray, omega: float, gamma: float, kind: str, initial) -> np.ndarray:
    drive = EffectiveDrive(kind=kind, rabi_rad_s=omega)
    decay = DecayModel(tau_s=math.inf if gamma <= 0 else 1.0 / gamma)
    return evolve(initial, drive, decay, times).populations


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
    fit is deterministic for fixed data.  Both decay seeds of a frequency seed
    run before the search stops early on an exact fit.
    """
    times = np.asarray(times_s, dtype=float)
    pops = np.asarray(populations, dtype=float)
    if times.ndim != 1 or times.size < 8:
        raise ValueError("need at least 8 time points to fit")
    if pops.shape != (times.size, 4):
        raise ValueError("populations must have shape (n_times, 4)")
    if kind not in ("dm1", "dm2"):
        raise ValueError("drive kind must be 'dm1' or 'dm2'")

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

    # frequency seeds from the dominant trace's spectrum
    trace = pops[:, int(np.argmax(pops.std(axis=0)))]
    uniform = np.linspace(times[0], times[-1], max(64, 4 * times.size))
    resampled = np.interp(uniform, times, trace)
    spec = np.abs(np.fft.rfft(resampled - resampled.mean()))
    freqs = np.fft.rfftfreq(uniform.size, uniform[1] - uniform[0])
    f_peak = freqs[1:][int(np.argmax(spec[1:]))]
    w_peak = 2 * math.pi * max(f_peak, 1.0 / (times[-1] - times[0]))
    scale = math.sqrt(18.0) if kind == "dm1" else 1.0
    omega_seeds = [scale * w_peak * m for m in (1.0, 0.5, 2.0, 1.0 / 3.0)]
    gamma_seeds = [0.0, 1.0 / (times[-1] - times[0])]

    span = times[-1] - times[0]
    bounds = ([1e-6 / span, 0.0], [np.inf, 1e4 / span])

    def resid(p):
        return (_rabi_model(times, p[0], p[1], kind, initial) - pops).ravel()

    starts = [[[og, max(gg, 0.0)] for gg in gamma_seeds] for og in omega_seeds]
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
