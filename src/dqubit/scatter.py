"""Stochastic optical pumping in the eight-level ion, counted in blue photons.

The model keeps the six long-lived levels (two S, four D) explicitly and
adiabatically eliminates the fast P doublet: weak driving excites a small
P amplitude that immediately decays, so scattering becomes a sequence of
quantum jumps on the ground+metastable manifold.  Two simulation methods:

* ``jump``  - quantum-jump trajectories over the six-level state vector.
  Coherent dark superpositions, their Zeeman/detuning-induced brightening
  and post-decay coherences are all retained.  This is the default.
  Trajectories use the waiting-time form of the Monte Carlo wave function
  method (Dalibard, Castin & Molmer, PRL 68, 580 (1992)): a jump happens
  when the no-jump norm falls to a uniform draw.  When the no-jump
  generator is periodic in a whole number of time steps, as it is for all
  standard settings, each trajectory advances a power-of-two stride of
  steps per iteration from its own phase through precomputed products, and
  only trajectories whose norm crossed their draw bisect back to the
  crossing step.  Otherwise all trajectories step through the grid in
  lockstep, one propagator per step.  The two paths differ only in
  floating-point rounding.
* ``chain`` - the classical embedded Markov chain over basis states
  (excitation branching by line strength, decay branching by the 3:1 rule).
  Exact for single-polarization settings, where no coherences form.

The observable is the number of blue photons (P -> S decays) emitted until
the ion is pumped dark.  Each trajectory keeps an integer photon count; a
cell's mean and standard error come from the counts of all its trajectories.

The ion is Ba-138 (``atom.BA138``): its line amplitudes (``_coupling``), decay
channels and 3:1 branching (``_DECAY``, ``_DECAY_PROBS``) and P linewidth
(``_GAMMA``) are fixed at import.  A ``PumpModel`` holds what the field and the
beams set: Zeeman shifts, excitation amplitudes and the chain's rates.
"""
from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from math import sqrt
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .atom import (
    BA138,
    Manifold,
    Polarization,
    ZeemanState,
    cg_coefficient,
    zeeman_shift,
    zeeman_splitting,
)
from .linalg import expm
from .rng import uniform_table

__all__ = [
    "BeamColor",
    "BeamConfig",
    "PumpModel",
    "PumpResult",
    "DetectionMatrix",
    "DarkState",
    "NonTerminatingError",
    "GROUND_STATES",
    "build_model",
    "standard_beam",
    "s_detection_beams",
    "d_detection_beams",
    "simulate_pumping",
    "chain_expected_counts",
    "detection_matrix_s",
    "detection_matrix_d",
    "chain_detection_matrix_d",
    "find_dark_states",
]

# Ground+metastable levels in fixed order; the P doublet is eliminated.
GROUND_STATES = (
    ZeemanState(Manifold.S_HALF, -1),
    ZeemanState(Manifold.S_HALF, 1),
    ZeemanState(Manifold.D_THREE_HALF, -3),
    ZeemanState(Manifold.D_THREE_HALF, -1),
    ZeemanState(Manifold.D_THREE_HALF, 1),
    ZeemanState(Manifold.D_THREE_HALF, 3),
)
EXCITED_STATES = (ZeemanState(Manifold.P_HALF, -1), ZeemanState(Manifold.P_HALF, 1))
_GROUND_INDEX = {s: i for i, s in enumerate(GROUND_STATES)}

_POLS = (Polarization.SIGMA_PLUS, Polarization.SIGMA_MINUS, Polarization.PI)


def _coupling(manifold: Manifold, pol: Polarization) -> np.ndarray:
    """(2 excited, 6 ground) signed CG amplitudes of one polarization from one lower manifold."""
    c = np.zeros((2, 6))
    for gi, g in enumerate(GROUND_STATES):
        if g.manifold is manifold:
            for ei, e in enumerate(EXCITED_STATES):
                c[ei, gi] = cg_coefficient(g, e, pol)
    return c


# decay jump channels: (manifold, emitted polarization) pairs, S channels first
_CHANNEL_DEFS = [(m, q) for m in (Manifold.S_HALF, Manifold.D_THREE_HALF) for q in _POLS]
_CHANNEL_IS_S = np.array([man is Manifold.S_HALF for man, _ in _CHANNEL_DEFS])
# (6 channels, 6 ground, 2 excited) decay amplitude operators; the square-rooted
# manifold branching makes them resolve the P identity: sum_mu D_mu^T D_mu = I
_DECAY = np.array([
    sqrt(BA138.branching_to_s if man is Manifold.S_HALF else BA138.branching_to_d) * _coupling(man, pol).T
    for man, pol in _CHANNEL_DEFS
])
# (2 excited, 6 ground) decay branching; C order, because chain_expected_counts'
# products round differently on a transposed view
_DECAY_PROBS = np.ascontiguousarray((_DECAY**2).sum(axis=0).T)
_GAMMA = 1.0 / (BA138.p_lifetime_s * 1e6)  # P linewidth, 1/us


class NonTerminatingError(RuntimeError):
    """Raised when too many trajectories fail to pump dark within the caps."""


class BeamColor(enum.Enum):
    BLUE_493 = "blue_493"
    RED_650 = "red_650"

    @property
    def lower_manifold(self) -> Manifold:
        return Manifold.S_HALF if self is BeamColor.BLUE_493 else Manifold.D_THREE_HALF


@dataclass(frozen=True)
class BeamConfig:
    """One applied color: per-polarization saturation intensities and detunings.

    ``intensity`` maps polarization -> saturation-relative intensity (>= 0,
    at least one positive).  ``detuning_hz`` maps polarization -> offset of
    that component's frequency from the zero-field line center.
    """

    color: BeamColor
    intensity: Mapping[Polarization, float]
    detuning_hz: Mapping[Polarization, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        vals = [self.intensity.get(p, 0.0) for p in _POLS]
        if any(not np.isfinite(v) or v < 0 for v in vals):
            raise ValueError("beam intensities must be finite and nonnegative")
        if not any(v > 0 for v in vals):
            raise ValueError(f"{self.color.value} beam has no positive-intensity component")

    def components(self) -> list[tuple[Polarization, float, float]]:
        """Active (polarization, intensity, detuning_hz) triples."""
        return [
            (p, self.intensity[p], self.detuning_hz.get(p, 0.0))
            for p in _POLS
            if self.intensity.get(p, 0.0) > 0
        ]


DEFAULT_INTENSITY = 0.05  # saturation-relative, keeps scattering slow vs Zeeman beats


def standard_beam(
    color: BeamColor,
    pols: Iterable[Polarization],
    b_gauss: float,
    intensity: float = DEFAULT_INTENSITY,
) -> BeamConfig:
    """Beam with equal intensities and the package's default detunings.

    pi sits on the zero-field line center; sigma+- are offset by -+ one
    Zeeman splitting of the color's lower manifold.  The signs avoid the
    two-photon (Raman) resonance between adjacent m_J levels that would
    otherwise make a coherent dark superposition stationary.
    """
    wz = zeeman_splitting(color.lower_manifold, b_gauss)
    det = {
        Polarization.SIGMA_PLUS: -wz,
        Polarization.SIGMA_MINUS: +wz,
        Polarization.PI: 0.0,
    }
    pols = tuple(pols)
    return BeamConfig(
        color=color,
        intensity={p: intensity for p in pols},
        detuning_hz={p: det[p] for p in pols},
    )


def s_detection_beams(
    probe: Polarization,
    b_gauss: float,
    intensity: float = DEFAULT_INTENSITY,
) -> tuple[BeamConfig, BeamConfig]:
    """Probe polarization on the blue transition plus an all-polarization red repump."""
    if probe is Polarization.PI:
        raise ValueError("the S-manifold probe must be sigma+ or sigma-")
    blue = BeamConfig(BeamColor.BLUE_493, {probe: intensity}, {probe: 0.0})
    red = standard_beam(BeamColor.RED_650, _POLS, b_gauss, intensity)
    return blue, red


def d_detection_beams(
    pols: Iterable[Polarization],
    b_gauss: float,
    intensity: float = DEFAULT_INTENSITY,
) -> tuple[BeamConfig, BeamConfig]:
    """Red beam with the given polarizations plus an all-polarization blue repump."""
    red = standard_beam(BeamColor.RED_650, pols, b_gauss, intensity)
    blue = standard_beam(BeamColor.BLUE_493, _POLS, b_gauss, intensity)
    return red, blue


@dataclass(frozen=True)
class PumpModel:
    """Assembled excitation model for one field and beam set.

    The Ba-138 decay branching ``_decay_probs`` is a class constant.  Immutable
    after build.  The quantum-jump engine, with its fixed-size propagator
    tables, is built on first use and shared by every run on the model.
    """

    b_gauss: float
    beams: tuple[BeamConfig, ...]
    degenerate_zeeman: bool
    # internals (units: us and rad/us)
    _zg: np.ndarray = field(repr=False, compare=False, default=None)
    _colors: tuple = field(repr=False, compare=False, default=())
    _chain_rates: np.ndarray = field(repr=False, compare=False, default=None)  # (6, 2)
    _decay_probs = _DECAY_PROBS  # (2, 6)

    @cached_property
    def _jump_engine(self) -> "_JumpEngine":
        return _JumpEngine(self)

    def excitation_rate_of(self, state: ZeemanState) -> float:
        """Total excitation rate out of a basis state, 1/us."""
        return float(self._chain_rates[_GROUND_INDEX[state]].sum())

    def describe(self) -> str:
        parts = [f"B={self.b_gauss}G"]
        for b in self.beams:
            comps = ",".join(
                f"{p.value}(I={i:g},det={d:g}Hz)" for p, i, d in b.components()
            )
            parts.append(f"{b.color.value}[{comps}]")
        return " ".join(parts)


def build_model(b_gauss: float, beams: Sequence[BeamConfig]) -> PumpModel:
    """Assemble excitation amplitudes for a beam set.

    Excitation amplitudes scale as sqrt(intensity) times the signed line
    amplitude, with a complex Lorentzian denominator evaluated at each
    component's detuning from the Zeeman-shifted transition.  Decay uses the
    module tables: 3:1 S:D branching and line strengths within each manifold.
    """
    if b_gauss < 0:
        raise ValueError("magnetic field must be nonnegative")
    beams = tuple(beams)
    if not beams:
        raise ValueError("at least one beam must be supplied")
    degenerate = b_gauss == 0.0
    if degenerate:
        warnings.warn(
            "zero magnetic field: dark superpositions exist for any polarization "
            "combination and optical pumping may trap coherent dark states",
            stacklevel=2,
        )

    ang = 2e-6 * np.pi  # Hz -> rad/us
    zg = np.array([zeeman_shift(s, b_gauss) * ang for s in GROUND_STATES])
    ze = np.array([zeeman_shift(s, b_gauss) * ang for s in EXCITED_STATES])

    per_color: dict[BeamColor, list] = {}
    for beam in beams:
        per_color.setdefault(beam.color, []).extend(beam.components())

    colors = []
    chain_rates = np.zeros((6, 2))
    for color, comps in sorted(per_color.items(), key=lambda kv: kv[0].value):
        pols, intensities, detunings_hz = zip(*comps)
        cg = np.array([_coupling(color.lower_manifold, pol) for pol in pols])  # (k, 2, 6)
        omega = _GAMMA * np.sqrt(np.array(intensities) / 2.0)  # Rabi from saturation intensity
        deltas = np.array(detunings_hz) * ang
        Vks = (0.5 * omega[:, None, None] * cg).astype(complex)
        mismatch = deltas[:, None, None] - (ze[:, None] - zg[None, :])
        Bks = np.where(cg != 0.0, Vks / (mismatch + 0.5j * _GAMMA), 0.0)
        # scalar abs and ** round as libm's hypot and pow do; numpy's array
        # forms differ in the last bit, which the chain's outputs would show
        for k, ei, gi in zip(*np.nonzero(cg)):
            chain_rates[gi, ei] += _GAMMA * abs(Bks[k, ei, gi]) ** 2
        colors.append((Bks, Vks, deltas))

    return PumpModel(
        b_gauss=b_gauss,
        beams=beams,
        degenerate_zeeman=degenerate,
        _zg=zg,
        _colors=tuple(colors),
        _chain_rates=chain_rates,
    )


@dataclass
class PumpResult:
    """Mean and standard error of emitted blue photons until dark."""

    mean: float
    sem: float
    trials: int
    capped_fraction: float
    counts: np.ndarray  # per-trajectory photon counts, in trial order


def chain_expected_counts(model: PumpModel, initial: ZeemanState) -> float:
    """Exact expected blue-photon count of the classical pumping chain.

    Solves the absorbing-chain first-step equations; the answer depends only
    on excitation and decay branching ratios, not on the overall rate scale.
    """
    lam = model._chain_rates
    tot = lam.sum(axis=1)
    pdec = model._decay_probs
    phot = model._decay_probs[:, 0:2].sum(axis=1)  # P(decay lands in S) = blue photon
    A = np.eye(6)
    b = np.zeros(6)
    for gi in range(6):
        if tot[gi] <= 0:
            continue
        pe = lam[gi] / tot[gi]
        b[gi] = pe @ phot
        A[gi] -= pe @ pdec
    n = np.linalg.solve(A, b)
    return float(n[_GROUND_INDEX[initial]])


_CHAIN_WINDOW = 16  # chain steps of draws fetched per live trajectory at a time


def _chain_sample_block(
    model: PumpModel, initial_idx: int, seed: int, first_trial: int, n: int, max_jumps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Classical-chain sampling of n trajectories; returns (counts, capped).

    Step k of a trajectory uses draws 2k and 2k+1 of its stream; they are
    fetched ``_CHAIN_WINDOW`` steps at a time for the trajectories still alive.
    """
    lam = model._chain_rates
    tot = lam.sum(axis=1)
    exc_cum = np.cumsum(np.where(tot[:, None] > 0, lam / np.maximum(tot, 1e-300)[:, None], 0.5), axis=1)
    dec_cum = np.cumsum(model._decay_probs, axis=1)
    state = np.full(n, initial_idx, dtype=np.int64)
    counts = np.zeros(n, dtype=np.int64)
    capped = np.zeros(n, dtype=bool)
    live = np.nonzero(tot[state] > 0)[0]
    step = 0
    while live.size:
        if step >= max_jumps:
            capped[live] = True
            break
        width = min(_CHAIN_WINDOW, max_jumps - step)
        u = uniform_table(seed, first_trial, live.size, 2 * width, 2 * step, live)
        pos = np.arange(live.size)  # rows of u still alive
        for k in range(width):
            idx = live[pos]
            e = (u[pos, 2 * k, None] > exc_cum[state[idx]]).sum(axis=1)
            g = (u[pos, 2 * k + 1, None] > dec_cum[e]).sum(axis=1)
            counts[idx] += (g < 2).astype(np.int64)
            state[idx] = g
            pos = pos[tot[g] > 0]
        live = live[pos]
        step += width
    return counts, capped


_JUMP_WINDOW = 64  # jumps of threshold and channel draws fetched per trajectory at a time
DARK_RATE_FRACTION = 1e-6  # dark: time-averaged rate below this share of the largest basis-state rate
_DARK_CHECK_EVERY = 16  # fine steps between dark-termination checks
_PERIOD_TOL = 1e-9  # cycles a generator frequency may miss a whole number by per period
_MAX_PERIOD = 2048  # steps; a generator without a period this short is fine-stepped
_MIN_STRIDE_LOG2 = 5  # a period advance covers at least 32 steps


def _generator_period(freqs: np.ndarray, dt: float) -> Optional[int]:
    """Smallest step count N with every exp(-i w N dt) = 1 within rounding, or None."""
    x = np.arange(1, _MAX_PERIOD + 1)[:, None] * (freqs * dt / (2 * np.pi))
    whole = np.nonzero((np.abs(x - np.round(x)) <= _PERIOD_TOL).all(axis=1))[0]
    return int(whole[0]) + 1 if whole.size else None


class _JumpEngine:
    """Precompiled matrices of one model over the fixed time grid ``dt``.

    The no-jump generator ``G(t) = sum_m exp(-i w_m t) C_m`` is usually periodic
    in a whole number ``period`` of steps.  Then ``lift[k, p]`` is the product of
    ``2**k`` step propagators starting at phase ``p`` (step ``p`` mod ``period``),
    up to ``2**k = stride``, the first power of two >= max(``period``, 32): one
    exponential call and ``log2(stride)`` batched products per model, and a
    size fixed by the model, not by how long trajectories run.  Without such
    a period (incommensurate detunings) ``period`` is None, there are no
    tables, and trajectories are fine-stepped through ``step_propagators``
    chunks that live only as long as one block needs them.
    """

    PROP_CHUNK = 4096

    def __init__(self, model: PumpModel):
        self.colors = model._colors
        # decay amplitudes (excited, channel * ground): one jump's post-jump states per channel
        self.decay = _DECAY.transpose(2, 0, 1).reshape(2, -1)

        # termination: rate survives time-averaging iff any single-frequency
        # amplitude group is nonzero; group terms by (color, excited, delta+z_g)
        rows: dict[tuple, np.ndarray] = {}
        for ci, (Bks, _, deltas) in enumerate(self.colors):
            for k, gi, ei in zip(*np.nonzero(Bks.transpose(0, 2, 1))):
                key = (ci, ei, round(deltas[k] + model._zg[gi], 9))
                rows.setdefault(key, np.zeros(6, complex))[gi] += Bks[k, ei, gi]
        self.term_map = (
            np.array(list(rows.values())) if rows else np.zeros((1, 6), complex)
        )
        self.rate_ref = _GAMMA * (np.abs(self.term_map) ** 2).sum(axis=0).max()

        # the no-jump generator is a finite Fourier sum of constant matrices:
        # G(t) = sum_m exp(-i w_m t) C_m over component detuning differences
        gterms: dict[float, np.ndarray] = {0.0: -1j * np.diag(model._zg).astype(complex)}
        for Bks, Vks, deltas in self.colors:
            for k in range(len(deltas)):
                for k2 in range(len(deltas)):
                    w = round(deltas[k2] - deltas[k], 12)
                    c = (
                        -0.5j * (Vks[k].conj().T @ Bks[k2] + Bks[k].conj().T @ Vks[k2])
                        - 0.5 * _GAMMA * (Bks[k].conj().T @ Bks[k2])
                    )
                    gterms[w] = gterms.get(w, 0.0) + c
        self._gfreqs = np.array(sorted(gterms))
        self._gmats = np.array([gterms[w] for w in sorted(gterms)])

        # 28 steps per period of the fastest beat in the generator
        freqs = [0.0]
        for _, _, deltas in self.colors:
            freqs.extend(deltas.tolist())
        freqs.extend(model._zg.tolist())
        span = max(freqs) - min(freqs)
        beat = max(abs(f) for f in freqs)
        wmax = max(span, 2 * beat, 1e-12)
        self.dt = min((2 * np.pi / wmax) / 28.0, 0.05)

        self.period = _generator_period(self._gfreqs, self.dt)
        self.lift: Optional[np.ndarray] = None
        if self.period is not None:
            n = self.period
            levels = max((n - 1).bit_length(), _MIN_STRIDE_LOG2)
            lift = np.empty((levels + 1, n, 6, 6), complex)
            lift[0] = self.step_propagators(0, n)
            for k in range(levels):
                lift[k + 1] = lift[k][(np.arange(n) + (1 << k)) % n] @ lift[k]
            self.lift = lift

    def step_propagators(self, first: int, count: int) -> np.ndarray:
        """No-jump propagators of steps ``first .. first+count-1``, midpoint generator."""
        t_mid = (first + 0.5 + np.arange(count)) * self.dt
        ph = np.exp(-1j * np.outer(t_mid, self._gfreqs))
        return expm(np.einsum("nm,mij->nij", ph, self._gmats) * self.dt)

    def excitation_amplitudes(self, psi: np.ndarray, t: np.ndarray) -> list[np.ndarray]:
        """Per-color excited amplitudes of states (n, 6) at times (n,) -> [(n, 2)]."""
        out = []
        for Bks, _, deltas in self.colors:
            ph = np.exp(-1j * np.outer(t, deltas))
            amp = (psi @ Bks.reshape(-1, 6).T).reshape(len(psi), len(deltas), 2)
            out.append(np.einsum("nk,nke->ne", ph, amp))
        return out

    def secular_rates(self, psi_normed: np.ndarray) -> np.ndarray:
        """Time-averaged scattering rate of normalized states; zero iff permanently dark."""
        amp = psi_normed @ self.term_map.T
        return _GAMMA * (np.abs(amp) ** 2).sum(axis=1)


def _norms(psi: np.ndarray) -> np.ndarray:
    return (psi.real**2 + psi.imag**2).sum(axis=1)


def _apply(mats: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Row-wise products ``mats[i] @ psi[i]`` for (n, 6, 6) and (n, 6)."""
    return np.einsum("nij,nj->ni", mats, psi)


class _Trajectories:
    """State, random draws and jump/dark bookkeeping of one block of trajectories.

    Shared by both stepping loops; rows are indexed by their position in the block.
    """

    def __init__(
        self, eng: _JumpEngine, initial_idx: int, seed: int, first_trial: int, n: int, max_jumps: int
    ):
        self.eng = eng
        self.seed, self.first_trial = seed, first_trial
        self.max_jumps = max_jumps
        self.counts = np.zeros(n, np.int64)
        self.jumps = np.zeros(n, np.int64)
        self.capped = np.zeros(n, bool)
        self.done = np.zeros(n, bool)
        psi = np.zeros((n, 6), complex)
        psi[:, initial_idx] = 1.0
        # dark initial states terminate immediately
        self.dark(np.arange(n), psi)
        self.active = np.nonzero(~self.done)[0]
        self.psi = psi[self.active]  # initial states of the active rows
        # per row, the threshold and channel draws of _JUMP_WINDOW jumps;
        # col is the window column of the row's current jump
        self.u_thresh = np.zeros((n, _JUMP_WINDOW))
        self.u_chan = np.zeros((n, _JUMP_WINDOW))
        self.col = np.zeros(n, np.int64)
        if self.active.size:
            self._fetch(self.active)
        self.thresh = self.u_thresh[:, 0].copy()

    def _fetch(self, rows: np.ndarray) -> None:
        """Refill the rows' draw windows from their current jump on (column 0).

        One table holds both streams: the rows' thresholds from column
        ``jumps``, then the same rows' channels from column ``max_jumps + 1 + jumps``.
        A window may run past its stream's last column; those draws are never read.
        """
        first = self.jumps[rows]
        m = rows.size
        u = uniform_table(
            self.seed,
            self.first_trial,
            2 * m,
            _JUMP_WINDOW,
            np.concatenate([first, first + self.max_jumps + 1]),
            np.concatenate([rows, rows]),
        )
        self.u_thresh[rows], self.u_chan[rows] = u[:m], u[m:]
        self.col[rows] = 0

    def jump(self, rows: np.ndarray, psi: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Jump rows whose no-jump norm fell to their threshold at ``steps``.

        Rows that already made ``max_jumps`` jumps are capped instead.  Returns
        the rows' states afterwards (normalized where they jumped).
        """
        over = self.jumps[rows] >= self.max_jumps
        self.capped[rows[over]] = True
        self.done[rows[over]] = True
        go = np.nonzero(~over)[0]
        if not go.size:
            return psi
        glob = rows[go]
        amps = self.eng.excitation_amplitudes(psi[go], steps[go] * self.eng.dt)
        posts = np.concatenate(
            [(a @ self.eng.decay).reshape(-1, 6, 6) for a in amps], axis=1
        )  # (m, colors*6, 6)
        rates = (posts.real**2 + posts.imag**2).sum(axis=2)
        cum = np.cumsum(rates, axis=1)
        col = self.col[glob]
        pick = (self.u_chan[glob, col, None] * cum[:, -1:] > cum).sum(axis=1)
        pick = np.minimum(pick, rates.shape[1] - 1)
        new_psi = posts[np.arange(go.size), pick]
        psi = psi.copy()
        psi[go] = new_psi / np.linalg.norm(new_psi, axis=1)[:, None]
        self.counts[glob] += _CHANNEL_IS_S[pick % 6]
        self.jumps[glob] += 1
        col += 1
        self.col[glob] = col
        spent = col == _JUMP_WINDOW
        if spent.any():
            self._fetch(glob[spent])
            col[spent] = 0
        self.thresh[glob] = self.u_thresh[glob, col]
        return psi

    def dark(self, rows: np.ndarray, psi: np.ndarray) -> None:
        """Mark done the rows whose time-averaged rate is below ``DARK_RATE_FRACTION`` of the reference."""
        rsec = self.eng.secular_rates(psi / np.sqrt(_norms(psi))[:, None])
        self.done[rows[rsec < DARK_RATE_FRACTION * self.eng.rate_ref]] = True


def _period_steps(run: _Trajectories, max_steps: int) -> None:
    """Advance each row ``stride`` steps per iteration from its own phase; bisect to jumps.

    No-jump evolution never raises the norm (G + G^dagger <= 0), so a row whose
    norm is still above its threshold after the advance made no jump in it.
    For the others, binary lifting over ``lift`` finds the last step above the
    threshold; one more step reaches the crossing, where the row jumps.
    """
    eng = run.eng
    lift, n = eng.lift, eng.period
    levels = len(lift) - 1
    stride = 1 << levels
    rows, psi = run.active, run.psi
    step = np.zeros(rows.size, np.int64)
    while True:
        cap = step >= max_steps
        if cap.any():
            run.capped[rows[cap]] = True
            rows, psi, step = rows[~cap], psi[~cap], step[~cap]
        if not rows.size:
            return
        limit = np.minimum(stride, max_steps - step)
        thresh = run.thresh[rows]
        clear = np.zeros(rows.size, bool)
        full = np.nonzero(limit == stride)[0]
        if full.size:
            adv = _apply(lift[levels, step[full] % n], psi[full])
            ok = _norms(adv) > thresh[full]
            psi[full[ok]] = adv[ok]
            step[full[ok]] += stride
            clear[full[ok]] = True
        # bisect rows that crossed their threshold or have less than a stride left
        sub = np.nonzero(~clear)[0]
        if sub.size:
            sub_psi, taken = psi[sub], np.zeros(sub.size, np.int64)
            for k in range(levels - 1, -1, -1):
                g = np.nonzero(taken + (1 << k) <= limit[sub])[0]
                cand = _apply(lift[k, (step[sub[g]] + taken[g]) % n], sub_psi[g])
                ok = _norms(cand) > thresh[sub[g]]
                sub_psi[g[ok]] = cand[ok]
                taken[g[ok]] += 1 << k
            # a row that stopped short of its limit crosses on the next step
            hit = np.nonzero(taken < limit[sub])[0]
            sub_psi[hit] = _apply(lift[0, (step[sub[hit]] + taken[hit]) % n], sub_psi[hit])
            taken[hit] += 1
            step[sub] += taken
            jumped = sub[hit]
            sub_psi[hit] = run.jump(rows[jumped], sub_psi[hit], step[jumped])
            psi[sub] = sub_psi
        run.dark(rows, psi)
        keep = ~run.done[rows]
        rows, psi, step = rows[keep], psi[keep], step[keep]


def _fine_steps(run: _Trajectories, max_steps: int) -> None:
    """Step all rows in lockstep, one propagator per step, for generators without a period."""
    eng = run.eng
    rows, psi = run.active, run.psi
    step = 0
    props, props_lo = np.empty((0, 6, 6), complex), 0
    while rows.size and step < max_steps:
        for _ in range(min(_DARK_CHECK_EVERY, max_steps - step)):
            if step - props_lo >= len(props):
                props = eng.step_propagators(step, min(eng.PROP_CHUNK, max_steps - step))
                props_lo = step
            psi = psi @ props[step - props_lo].T
            step += 1
            hit = np.nonzero(_norms(psi) <= run.thresh[rows])[0]
            if hit.size:
                psi[hit] = run.jump(rows[hit], psi[hit], np.full(hit.size, step))
                keep = ~run.done[rows]
                rows, psi = rows[keep], psi[keep]
                if not rows.size:
                    return
        run.dark(rows, psi)
        keep = ~run.done[rows]
        rows, psi = rows[keep], psi[keep]
    run.capped[rows] = True


def _jump_sample_block(
    eng: _JumpEngine,
    initial_idx: int,
    seed: int,
    first_trial: int,
    n: int,
    max_jumps: int,
    max_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Quantum-jump sampling of n trajectories; returns (counts, capped)."""
    run = _Trajectories(eng, initial_idx, seed, first_trial, n, max_jumps)
    if eng.period is None:
        _fine_steps(run, max_steps)
    else:
        _period_steps(run, max_steps)
    return run.counts, run.capped


def simulate_pumping(
    model: PumpModel,
    initial: ZeemanState,
    trials: int,
    seed: int,
    method: str = "jump",
    max_jumps: int = 400,
    max_steps: int = 400_000,
    block: int = 8192,
) -> PumpResult:
    """Mean and standard error of emitted blue photons until the ion is dark.

    Deterministic for fixed (seed, trials) regardless of ``block``: trial t
    always draws from the substream keyed (seed, t).  A trajectory ends when
    its time-averaged excitation rate falls below ``DARK_RATE_FRACTION`` times
    the largest basis-state rate (a state with zero time-averaged rate can
    never brighten), or when it exceeds the jump/step caps.

    Raises NonTerminatingError if more than 1% of trajectories hit a cap.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if initial not in _GROUND_INDEX:
        raise ValueError(f"initial state {initial} is not a ground/metastable level")
    if method not in ("jump", "chain"):
        raise ValueError(f"unknown method {method!r}")
    idx = _GROUND_INDEX[initial]

    all_counts = []
    capped_total = 0
    for lo in range(0, trials, block):
        n = min(block, trials - lo)
        if method == "chain":
            counts, capped = _chain_sample_block(model, idx, seed, lo, n, max_jumps)
        else:
            counts, capped = _jump_sample_block(
                model._jump_engine, idx, seed, lo, n, max_jumps, max_steps
            )
        capped_total += int(capped.sum())
        all_counts.append(counts)

    frac = capped_total / trials
    if frac > 0.01:
        raise NonTerminatingError(
            f"{capped_total}/{trials} trajectories failed to pump dark for "
            f"configuration: {model.describe()}"
        )
    counts = np.concatenate(all_counts)
    x = counts.astype(float)
    total = x.sum()
    sem = 0.0
    if trials > 1:
        sem = sqrt(max(0.0, (x @ x - total**2 / trials) / (trials - 1)) / trials)
    return PumpResult(
        mean=total / trials, sem=sem, trials=trials, capped_fraction=frac, counts=counts
    )


@dataclass(frozen=True)
class DetectionMatrix:
    """Expected mean blue-photon counts per (polarization setting x initial state)."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    means: np.ndarray
    sems: np.ndarray
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.means.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValueError("matrix shape does not match labels")
        if not (np.isfinite(self.means).all() and np.isfinite(self.sems).all()):
            raise ValueError("photon-count means and SEMs must be finite")
        if (self.means < 0).any():
            raise ValueError("photon-count means must be nonnegative")


_S_STATES = (GROUND_STATES[0], GROUND_STATES[1])  # ascending m: s-1/2, s+1/2
_D_STATES = GROUND_STATES[2:6]

D_SETTINGS: tuple[tuple[str, tuple[Polarization, ...]], ...] = (
    ("sigma+", (Polarization.SIGMA_PLUS,)),
    ("sigma-", (Polarization.SIGMA_MINUS,)),
    ("pi", (Polarization.PI,)),
    ("sigma+pi", (Polarization.SIGMA_PLUS, Polarization.PI)),
    ("sigma-pi", (Polarization.SIGMA_MINUS, Polarization.PI)),
)


def _detection_matrix(
    b_gauss: float,
    rows: Sequence[tuple[str, Sequence[BeamConfig]]],
    states: Sequence[ZeemanState],
    cell: Callable[[PumpModel, ZeemanState, int], tuple[float, float]],
    trials: int,
    seed: int,
) -> DetectionMatrix:
    """One cell per (setting row, initial-state column), seeded seed + 1000*row + col.

    ``cell(model, state, cell_seed)`` returns the cell's (mean, sem).  Each
    row's model is built just before its cells run, so one model's
    propagator tables are alive at a time.
    """
    means = np.zeros((len(rows), len(states)))
    sems = np.zeros_like(means)
    for ri, (_, beams) in enumerate(rows):
        model = build_model(b_gauss, beams)
        for ci, state in enumerate(states):
            means[ri, ci], sems[ri, ci] = cell(model, state, seed + 1000 * ri + ci)
    return DetectionMatrix(
        row_labels=tuple(label for label, _ in rows),
        col_labels=tuple(str(s) for s in states),
        means=means,
        sems=sems,
        trials=trials,
        seed=seed,
    )


def _sampled_cell(trials: int, method: str):
    def cell(model: PumpModel, state: ZeemanState, cell_seed: int) -> tuple[float, float]:
        res = simulate_pumping(model, state, trials, cell_seed, method=method)
        return res.mean, res.sem

    return cell


def detection_matrix_s(
    b_gauss: float = 2.2,
    trials: int = 2000,
    seed: int = 0,
    intensity: float = DEFAULT_INTENSITY,
    method: str = "jump",
) -> DetectionMatrix:
    """2x2 detection matrix of the S doublet under sigma+- probe settings.

    Columns are ordered by ascending m_J (s-1/2, s+1/2); with symmetric
    intensities the result is diagonal with entries near 2.8.
    """
    rows = [
        (label, s_detection_beams(probe, b_gauss, intensity))
        for label, probe in (("sigma+", Polarization.SIGMA_PLUS), ("sigma-", Polarization.SIGMA_MINUS))
    ]
    cell = _sampled_cell(trials, method)
    return _detection_matrix(b_gauss, rows, _S_STATES, cell, trials, seed)


def detection_matrix_d(
    b_gauss: float = 2.2,
    trials: int = 1500,
    seed: int = 0,
    intensity: float = DEFAULT_INTENSITY,
    method: str = "jump",
) -> DetectionMatrix:
    """5x4 detection matrix of the D quartet over the five polarization settings.

    Rows: sigma+, sigma-, pi, sigma+&pi, sigma-&pi on the red transition with
    an all-polarization blue repump; columns: the four Zeeman states by
    ascending m_J.  Combination rows must give the pi and sigma components
    distinct detunings; equal detunings draw a warning because the second
    dark state is then tagged stationary and the row loses rank.
    """
    rows = []
    for label, pols in D_SETTINGS:
        red, blue = d_detection_beams(pols, b_gauss, intensity)
        if len(pols) > 1:
            dets = [red.detuning_hz.get(p, 0.0) for p in pols]
            if max(dets) - min(dets) == 0.0:
                warnings.warn(
                    f"setting {label}: equal detunings make the second dark state "
                    "stationary and the row loses rank",
                    stacklevel=2,
                )
        rows.append((label, (red, blue)))
    cell = _sampled_cell(trials, method)
    return _detection_matrix(b_gauss, rows, _D_STATES, cell, trials, seed)


def chain_detection_matrix_d(
    b_gauss: float = 2.2,
    intensity: float = DEFAULT_INTENSITY,
    seed: int = 0,
) -> DetectionMatrix:
    """Exact classical-chain expectation of the ``detection_matrix_d`` matrix.

    Nothing is sampled: the SEMs are zero, ``trials`` is 0 and ``seed`` is only recorded.
    """

    def cell(model: PumpModel, state: ZeemanState, _: int) -> tuple[float, float]:
        return chain_expected_counts(model, state), 0.0

    rows = [(label, d_detection_beams(pols, b_gauss, intensity)) for label, pols in D_SETTINGS]
    return _detection_matrix(b_gauss, rows, _D_STATES, cell, 0, seed)


@dataclass(frozen=True)
class DarkState:
    """One zero-coupling D-manifold state with its stationarity tag."""

    amplitudes: np.ndarray  # over (d-3/2, d-1/2, d+1/2, d+3/2)
    stationary: bool

    @property
    def is_basis_state(self) -> bool:
        return np.count_nonzero(np.abs(self.amplitudes) > 1e-12) == 1


def find_dark_states(
    pols: Iterable[Polarization],
    b_gauss: float,
    detunings_hz: Optional[Mapping[Polarization, float]] = None,
) -> list[DarkState]:
    """Dark states of the red transition for one polarization set.

    The dark space is the null space of the 2x4 coupling map from the D
    quartet into the P doublet.  A dark state is tagged stationary when it is
    a Zeeman eigenstate, when the field is zero, or when all applied
    components share one detuning (so no relative beat can brighten it).
    """
    pols = tuple(dict.fromkeys(pols))
    if not pols:
        raise ValueError("polarization set must be nonempty")
    C = sum(_coupling(Manifold.D_THREE_HALF, q) for q in pols)[:, 2:]

    # basis states entirely dark come first, then superposition dark states
    basis_dark = [i for i in range(4) if np.allclose(C[:, i], 0.0, atol=1e-14)]
    _, s, vh = np.linalg.svd(C)
    tol = max(C.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)
    rank = int((s > tol).sum())
    null = vh[rank:].conj()  # rows span the dark space

    if detunings_hz is None:
        common_detuning = True
    else:
        vals = [detunings_hz.get(q, 0.0) for q in pols]
        common_detuning = max(vals) - min(vals) == 0.0

    out = []
    for i in basis_dark:
        vec = np.zeros(4)
        vec[i] = 1.0
        out.append(DarkState(amplitudes=vec, stationary=True))
    # remaining dark directions orthogonal to the basis-dark ones
    if len(basis_dark) < null.shape[0]:
        P = np.eye(4)
        for i in basis_dark:
            P[i, i] = 0.0
        rest = null @ P
        q, r = np.linalg.qr(rest.T)
        keep = np.abs(np.diag(r)) > 1e-10
        for vec in q.T[keep]:
            lead = np.argmax(np.abs(vec))
            vec = vec * np.sign(vec[lead].real)  # deterministic sign
            stationary = b_gauss == 0.0 or common_detuning
            out.append(DarkState(amplitudes=vec, stationary=bool(stationary)))
    return out
