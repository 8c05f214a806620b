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
  when the no-jump norm falls to a uniform draw.  The no-jump generator
  beats at detuning differences; the time grid splits their common period
  into a whole number of steps.  Trajectories run in blocks that may mix
  the cells of several models: the models' step propagators are stacked on
  one phase axis, and every trajectory advances up to the same power-of-two
  stride of steps per iteration from its own phase, binary lifting through
  precomputed products to the step where its norm crosses its draw.  A
  detection matrix steps all its bright cells in one block while the
  stacked tables fit the budget of one ``_MAX_PERIOD``-step model;
  ``simulate_pumping`` is a block of one cell.  Detunings without a
  common period, or a period longer than ``_MAX_PERIOD`` steps (fields below
  about 0.0044 G with the standard beams), raise ValueError.
* ``chain`` - the classical embedded Markov chain over basis states
  (excitation branching by line strength, decay branching by the 3:1 rule).
  Exact for single-polarization settings, where no coherences form.  The
  chain's photon count from each level has an exact law (``_count_law``),
  so each trajectory is one uniform draw inverted through that law's CDF;
  nothing is walked step by step.  A detection matrix draws all its bright
  cells' trajectories in slices that may span cells; ``simulate_pumping``
  draws one cell.

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
from math import ceil, isfinite, sqrt
from typing import Iterable, Mapping, Optional, Sequence

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


def _cumulative(p: np.ndarray) -> np.ndarray:
    """Row-wise cumulative sums of probabilities, at most 1.0, and 1.0 from each row's last positive entry on.

    Rounded sums may miss 1 by a few ulps either way; so pinned, every row is
    nondecreasing and ends at exactly 1.0, and the largest uniform,
    1 - 2**-53, picks an outcome that can happen rather than one past it.
    """
    cum = np.minimum(np.cumsum(p, axis=1), 1.0)
    last = p.shape[1] - 1 - np.argmax(p[:, ::-1] > 0, axis=1)
    cum[np.arange(p.shape[1]) >= last[:, None]] = 1.0
    return cum


class NonTerminatingError(RuntimeError):
    """Raised when trajectories fail to pump dark: too many hit a cap, or the chain's count law leaks."""


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
    that component's frequency from the zero-field line center.  The ``jump``
    method needs the detuning differences within each color to share a
    period (whole multiples of one frequency, as ``standard_beam``'s are);
    otherwise ``simulate_pumping`` raises ValueError.
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
    Raises ValueError naming ``b_gauss`` when a Zeeman shift or a detuning is
    not finite (the standard beams' detunings overflow above about 6e301 G).
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
    detunings = [d for beam in beams for _, _, d in beam.components()]
    if not (np.isfinite(zg).all() and np.isfinite(ze).all() and np.isfinite(detunings).all()):
        raise ValueError(
            f"b_gauss = {b_gauss:g} G: the Zeeman shifts or beam detunings overflow a float"
        )

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


_JUMP_WINDOW = 64  # jumps of threshold and channel draws fetched per trajectory at a time
DARK_RATE_FRACTION = 1e-6  # dark: time-averaged rate below this share of the largest basis-state rate
_PERIOD_TOL = 1e-9  # cycles a generator frequency may miss a whole number by per period
_MAX_CYCLES = 64  # a period spans at most this many cycles of the slowest generator beat
_MAX_PERIOD = 8192  # steps per period
# (phase, level) entries of one block's lifts: what one _MAX_PERIOD-step model
# needs, 37 MB as S and D blocks
_MAX_TABLE = _MAX_PERIOD.bit_length() * _MAX_PERIOD
_MIN_STRIDE_LOG2 = 5  # a period advance covers at least 32 steps
# jumps per jump trajectory; a format constant: the decay channel of jump j is
# draw column _MAX_JUMPS + 1 + j (rng module docstring)
_MAX_JUMPS = 400
_MAX_STEPS = 400_000  # steps per jump trajectory
_BLOCK = 8192  # trajectories per jump block and per chain slice
# each beam drives one manifold and the model keeps no S-D Raman terms, so the
# no-jump generator, and with it every step propagator, is block diagonal
_MANIFOLDS = (slice(0, 2), slice(2, 6))
# (2 excited, 6 channels) decay weights: in each channel every ground level is
# reached from one excited level, so a channel's rate is sum_e |amplitude_e|^2 * weight
_CHANNEL_WEIGHTS = (_DECAY**2).sum(axis=1).T


class _JumpEngine:
    """Precompiled matrices of one model over one period of its no-jump generator.

    The generator ``G(t) = sum_m exp(-i w_m t) C_m`` beats at detuning
    differences that must all be whole multiples of one fundamental, as they
    are for the standard beams (g_S/g_D = 5/2).  Its period ``T`` is split into
    the fewest ``period`` steps whose ``dt = T / period`` is at most 0.05 us and
    1/28 cycle of the fastest frequency.  ``propagators()`` evaluates the step
    propagator at each phase ``p`` (step ``p`` mod ``period``) in one
    exponential call, for the block that stacks it (``_Trajectories``); the
    engine keeps only the generator's Fourier terms.  ``2**levels`` is the
    first power of two >= max(``period``, 32), the stride this model needs.
    A model whose beats share no period, or whose period needs more than
    ``_MAX_PERIOD`` steps, raises ValueError before any table is allocated.
    """

    def __init__(self, model: PumpModel):
        self.colors = model._colors

        # steps of at most 0.05 us and 1/28 cycle of the fastest frequency
        freqs = [0.0]
        for _, _, deltas in self.colors:
            freqs.extend(deltas.tolist())
        freqs.extend(model._zg.tolist())
        span = max(freqs) - min(freqs)
        beat = max(abs(f) for f in freqs)
        wmax = max(span, 2 * beat, 1e-12)
        # frequencies are keyed below by rounding, which scales them by up to 1e12
        if not isfinite(wmax * 1e12):
            raise ValueError(
                f"b_gauss = {model.b_gauss:g} G: generator frequencies up to {wmax:.3g} rad/us "
                "are out of range for method 'jump'"
            )
        dt_max = min((2 * np.pi / wmax) / 28.0, 0.05)

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
        basis_rates = _GAMMA * (np.abs(self.term_map) ** 2).sum(axis=0)
        self.rate_ref = basis_rates.max()
        self.dark_basis = basis_rates < DARK_RATE_FRACTION * self.rate_ref

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
        gfreqs = np.array(sorted(gterms))
        gmats = np.array([gterms[w] for w in sorted(gterms)])

        # the period spans the fewest cycles q of the slowest beat in which every
        # beat makes whole cycles; without beats one step is a period
        beats = np.abs(gfreqs[gfreqs != 0.0])
        period_us = dt_max
        if beats.size:
            x = np.arange(1, _MAX_CYCLES + 1)[:, None] * (beats / beats.min())
            whole = np.nonzero((np.abs(x - np.round(x)) <= _PERIOD_TOL).all(axis=1))[0]
            if not whole.size:
                raise ValueError(
                    f"{model.describe()}: the detunings share no period within {_MAX_CYCLES} "
                    "cycles of the slowest beat, which method 'jump' needs"
                )
            period_us = (int(whole[0]) + 1) * 2 * np.pi / float(beats.min())
        steps = period_us / dt_max
        if steps > _MAX_PERIOD:
            raise ValueError(
                f"b_gauss = {model.b_gauss:g} G is too low for method 'jump': its generator "
                f"period of {period_us:.4g} us needs {steps:.0f} steps of at most {dt_max:g} us, "
                f"more than {_MAX_PERIOD}"
            )
        n = self.period = ceil(steps - _PERIOD_TOL)
        self.dt = period_us / n
        self.levels = max((n - 1).bit_length(), _MIN_STRIDE_LOG2)
        self._gfreqs, self._gmats = gfreqs, gmats

    def propagators(self) -> np.ndarray:
        """(period, 6, 6) step propagators, phase by phase, each from its step's midpoint generator."""
        ph = np.exp(-1j * np.outer((0.5 + np.arange(self.period)) * self.dt, self._gfreqs))
        return expm(np.einsum("nm,mij->nij", ph, self._gmats) * self.dt)


def _table_size(engines: Sequence[_JumpEngine]) -> int:
    """(phase, level) entries of the lifts of a block over these engines."""
    return (max(e.levels for e in engines) + 1) * sum(e.period for e in engines)


def _norms(psi: np.ndarray) -> np.ndarray:
    return (psi.real**2 + psi.imag**2).sum(axis=1)


def _apply(lift: Sequence[np.ndarray], k: int, phase: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Row-wise products of level-``k`` lifts at ``phase[i]`` with states ``psi[i]`` (n, 6)."""
    out = np.empty_like(psi)
    for table, b in zip(lift, _MANIFOLDS):
        out[:, b] = np.einsum("nij,nj->ni", table[k, phase], psi[:, b])
    return out


class _Trajectories:
    """Tables, state, random draws and jump/dark bookkeeping of one block of trajectories.

    ``cells`` lists ``(engine, initial_idx, seed, first_trial, n)``: trials
    ``first_trial .. first_trial + n - 1`` of a cell seeded ``seed``.  Rows are
    indexed by their position in the block, cell after cell.

    The block's distinct models share one phase axis: phase ``p`` of model
    ``m`` is entry ``off[m] + p`` of level ``k`` of the lifts, the product of
    ``2**k`` step propagators from that phase, and its successor ``2**k``
    steps on is ``off[m] + (p + 2**k) % period[m]``.  ``lift`` holds the S
    (2x2) and D (4x4) blocks of these products apart, since no beam couples
    the two manifolds.  The lifts reach the longest stride any of the models
    needs, so every row advances one stride per iteration.  Each model's
    excitation amplitudes and dark-check map are stacked once, zero-padded to
    common color, component and group counts.
    """

    def __init__(self, cells: Sequence[tuple]):
        engines = list({id(c[0]): c[0] for c in cells}.values())
        which = {id(e): m for m, e in enumerate(engines)}
        sizes = [c[4] for c in cells]
        self.model = np.repeat([which[id(c[0])] for c in cells], sizes)
        self.seed = np.repeat(np.array([c[2] % 2**64 for c in cells], np.uint64), sizes)
        self.trial = np.concatenate([np.arange(c[3], c[3] + c[4]) for c in cells])

        # excitation amplitudes, rows (color, component, excited), and the dark
        # check's single-frequency groups, stacked by model
        ncol = max(len(e.colors) for e in engines)
        ncomp = max(len(d) for e in engines for _, _, d in e.colors)
        ngroup = max(len(e.term_map) for e in engines)
        exc = np.zeros((len(engines), ncol, ncomp, 2, 6), complex)
        self.freq = np.zeros((len(engines), ncol, ncomp))
        self.term = np.zeros((len(engines), ngroup, 6), complex)
        for m, e in enumerate(engines):
            for c, (Bks, _, deltas) in enumerate(e.colors):
                exc[m, c, : len(deltas)] = Bks
                self.freq[m, c, : len(deltas)] = deltas
            self.term[m, : len(e.term_map)] = e.term_map
        self.exc = exc.reshape(len(engines), -1, 6)
        self.rate_ref = np.array([e.rate_ref for e in engines])
        self.dt = np.array([e.dt for e in engines])

        n = self.model.size
        self.counts = np.zeros(n, np.int64)
        self.jumps = np.zeros(n, np.int64)
        self.capped = np.zeros(n, bool)
        self.done = np.zeros(n, bool)
        self.psi = np.zeros((n, 6), complex)  # initial states
        self.psi[np.arange(n), np.repeat([c[1] for c in cells], sizes)] = 1.0
        # per row, the threshold and channel draws of _JUMP_WINDOW jumps;
        # col is the window column of the row's current jump
        self.u_thresh, self.u_chan = np.split(self._draws(np.arange(n)), 2)
        self.col = np.zeros(n, np.int64)
        self.thresh = self.u_thresh[:, 0].copy()

        # stacked step propagators and their lifts, built after the first
        # draws so that the table's temporaries and the lifts do not overlap
        period = np.array([e.period for e in engines])
        off = np.cumsum(period) - period
        self.row_off, self.row_period = off[self.model], period[self.model]
        self.levels = max(e.levels for e in engines)
        self.lift = [
            np.empty((self.levels + 1, int(period.sum()), b.stop - b.start, b.stop - b.start), complex)
            for b in _MANIFOLDS
        ]
        for e, o in zip(engines, off):
            props = e.propagators()
            for lift, b in zip(self.lift, _MANIFOLDS):
                lift[0, o : o + e.period] = props[:, b, b]
        phase = np.concatenate([np.arange(p) for p in period])
        base, cycle = np.repeat(off, period), np.repeat(period, period)
        nxt = base + (phase + (1 << np.arange(self.levels))[:, None]) % cycle
        for lift in self.lift:
            for k in range(self.levels):
                np.matmul(lift[k][nxt[k]], lift[k], out=lift[k + 1])

    def _draws(self, rows: np.ndarray) -> np.ndarray:
        """The rows' draw windows from their current jump on: thresholds, then channels.

        One table holds both streams: the rows' thresholds from column
        ``jumps``, then the same rows' channels from column ``_MAX_JUMPS + 1 + jumps``.
        A window may run past its stream's last column; those draws are never read.
        """
        first = self.jumps[rows]
        both = np.concatenate([rows, rows])
        return uniform_table(
            self.seed[both],
            0,
            both.size,
            _JUMP_WINDOW,
            np.concatenate([first, first + _MAX_JUMPS + 1]),
            self.trial[both],
        )

    def _fetch(self, rows: np.ndarray) -> None:
        """Refill the rows' draw windows from their current jump on (column 0)."""
        self.u_thresh[rows], self.u_chan[rows] = np.split(self._draws(rows), 2)
        self.col[rows] = 0

    def _by_model(self, models: np.ndarray, psi: np.ndarray, tables: np.ndarray) -> np.ndarray:
        """Row-wise ``psi[i] @ tables[models[i]].T`` for (n, 6) states and (models, k, 6) tables."""
        out = np.empty((len(psi), tables.shape[1]), complex)
        for m, table in enumerate(tables):
            sel = models == m
            if sel.any():
                out[sel] = psi[sel] @ table.T
        return out

    def _excitation(self, rows: np.ndarray, psi: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Per-color excited amplitudes (n, colors, 2) of the rows' states (n, 6) after ``steps``."""
        models = self.model[rows]
        freq = self.freq[models]  # (n, colors, components)
        amp = self._by_model(models, psi, self.exc).reshape(*freq.shape, 2)
        ph = np.exp(-1j * ((steps * self.dt[models])[:, None, None] * freq))
        return np.einsum("nck,ncke->nce", ph, amp)

    def jump(self, rows: np.ndarray, psi: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Jump rows whose no-jump norm fell to their threshold at ``steps``.

        Rows that already made ``_MAX_JUMPS`` jumps are capped instead.  Updates
        ``psi`` in place to the rows' states afterwards (normalized where they
        jumped) and returns it.
        """
        over = self.jumps[rows] >= _MAX_JUMPS
        self.capped[rows[over]] = True
        self.done[rows[over]] = True
        go = np.nonzero(~over)[0]
        if not go.size:
            return psi
        glob = rows[go]
        exc = self._excitation(glob, psi[go], steps[go])  # (m, colors, excited)
        cum = np.cumsum(((exc.real**2 + exc.imag**2) @ _CHANNEL_WEIGHTS).reshape(go.size, -1), axis=1)
        col = self.col[glob]
        pick = (self.u_chan[glob, col, None] * cum[:, -1:] > cum).sum(axis=1)
        color, channel = np.divmod(np.minimum(pick, cum.shape[1] - 1), 6)
        del cum
        new_psi = np.einsum("ne,nge->ng", exc[np.arange(go.size), color], _DECAY[channel])
        psi[go] = new_psi / np.linalg.norm(new_psi, axis=1)[:, None]
        self.counts[glob] += _CHANNEL_IS_S[channel]
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
        """Mark done the rows whose time-averaged rate is below ``DARK_RATE_FRACTION`` of the reference.

        The time-averaged rate sums the single-frequency groups' scattering
        rates; it is zero iff the state can never brighten.
        """
        mi = self.model[rows]
        amp = self._by_model(mi, psi / np.sqrt(_norms(psi))[:, None], self.term)
        rsec = _GAMMA * (np.abs(amp) ** 2).sum(axis=1)
        self.done[rows[rsec < DARK_RATE_FRACTION * self.rate_ref[mi]]] = True


def _period_steps(run: _Trajectories) -> None:
    """Advance each row up to ``2**levels`` steps per iteration from its own phase; stop at jumps.

    No-jump evolution never raises the norm (G + G^dagger <= 0), so binary
    lifting over ``lift``, from the full stride down to one step, finds the
    last step above each row's threshold within its limit: the stride, or
    what is left of ``_MAX_STEPS``.  A row that stops short of its limit
    crosses on the next step, where it jumps.
    """
    lift, levels = run.lift, run.levels
    rows, psi = np.arange(len(run.psi)), run.psi
    step = np.zeros(rows.size, np.int64)
    while True:
        cap = step >= _MAX_STEPS
        if cap.any():
            run.capped[rows[cap]] = True
            rows, psi, step = rows[~cap], psi[~cap], step[~cap]
        if not rows.size:
            return
        off, period = run.row_off[rows], run.row_period[rows]
        limit = np.minimum(1 << levels, _MAX_STEPS - step)
        thresh = run.thresh[rows]
        taken = np.zeros(rows.size, np.int64)
        for k in range(levels, -1, -1):
            g = np.nonzero(taken + (1 << k) <= limit)[0]
            phase = off[g] + (step[g] + taken[g]) % period[g]
            cand = _apply(lift, k, phase, psi[g])
            ok = _norms(cand) > thresh[g]
            psi[g[ok]] = cand[ok]
            taken[g[ok]] += 1 << k
        hit = np.nonzero(taken < limit)[0]
        phase = off[hit] + (step[hit] + taken[hit]) % period[hit]
        psi[hit] = _apply(lift, 0, phase, psi[hit])
        taken[hit] += 1
        step += taken
        psi[hit] = run.jump(rows[hit], psi[hit], step[hit])
        run.dark(rows, psi)
        keep = ~run.done[rows]
        rows, psi, step = rows[keep], psi[keep], step[keep]


def _blocks(cells: Sequence[tuple[int, _JumpEngine]], trials: int):
    """Cut ``trials`` trajectories of each ``(cell, engine)`` into blocks of ``(cell, first_trial, n)``.

    Cells fill blocks in order.  A block holds at most ``_BLOCK`` trajectories,
    so a cell's trials may be split between two blocks, and a new model joins
    only while the stacked lifts stay within ``_MAX_TABLE`` entries (one
    model alone always fits).
    """
    pieces: list[tuple[int, int, int]] = []
    models: list[_JumpEngine] = []
    size = 0
    for c, eng in cells:
        lo = 0
        while lo < trials:
            new = not any(e is eng for e in models)
            if size == _BLOCK or (new and _table_size(models + [eng]) > _MAX_TABLE):
                yield pieces
                pieces, models, size = [], [], 0
                continue
            n = min(trials - lo, _BLOCK - size)
            pieces.append((c, lo, n))
            if new:
                models.append(eng)
            size += n
            lo += n
    if pieces:
        yield pieces


def _jump_counts(
    cells: Sequence[tuple[PumpModel, int, int]], trials: int
) -> tuple[np.ndarray, np.ndarray]:
    """Quantum-jump counts and caps (cells, trials) of every cell ``(model, initial_idx, seed)``.

    Every engine is built, or raises ValueError, before any block runs.
    Trajectories from a dark basis state end at once with no photon and
    join no block.
    """
    engines = [model._jump_engine for model, _, _ in cells]
    counts = np.zeros((len(cells), trials), np.int64)
    capped = np.zeros((len(cells), trials), bool)
    bright = [
        (c, eng) for c, (eng, (_, idx, _)) in enumerate(zip(engines, cells)) if not eng.dark_basis[idx]
    ]
    for pieces in _blocks(bright, trials):
        run = _Trajectories([(engines[c], cells[c][1], cells[c][2], lo, n) for c, lo, n in pieces])
        _period_steps(run)
        at = 0
        for c, lo, n in pieces:
            counts[c, lo : lo + n] = run.counts[at : at + n]
            capped[c, lo : lo + n] = run.capped[at : at + n]
            at += n
    return counts, capped


_LAW_TAIL = 2.0**-60  # a count law ends at its first term below this on every bright level
_MAX_COUNT = 10_000  # photon counts a law may run to before its tail counts as not decaying
_LAW_LEAK = 1e-9  # a bright level's law may sum short of 1 by this much


def _count_law(model: PumpModel) -> np.ndarray:
    """(6, n) photon-count law of the classical chain: entry (g, k) is P(k blue photons | start at g).

    One excite-and-decay step from a bright level splits into a photon-free
    part ``T0``, which lands in D, and a photon part ``T1``, which lands in S.
    On the bright levels ``f_0 = (I - T0)^-1 T0->dark``, ``f_1 = (I - T0)^-1
    (T1 f_0 + T1->dark)`` and ``f_k = M f_{k-1}`` with ``M = (I - T0)^-1 T1``,
    whose rows sum to at most 1: past ``f_1`` no term exceeds the one
    before.  The terms are built in doubling blocks, ``M^(2^j)`` times the
    block so far, and end at the first term below ``_LAW_TAIL`` on every
    bright level.  A dark level ends with no photon.

    Raises NonTerminatingError naming the configuration when ``I - T0`` is
    singular on the bright levels (walks that cycle without a photon and
    never pump dark) or when the terms are still above ``_LAW_TAIL`` after
    ``_MAX_COUNT`` photons.  A bright closed class that emits photons gives
    its levels a law that sums to 0; ``_chain_counts`` rejects those.
    """
    lam = model._chain_rates
    tot = lam.sum(axis=1)
    bright = tot > 0
    step = (lam[bright] / tot[bright, None]) @ model._decay_probs  # (bright, 6)
    t0, t1 = step.copy(), step.copy()
    t0[:, :2] = 0.0
    t1[:, 2:] = 0.0
    rhs = np.column_stack([t1[:, bright], t0[:, ~bright].sum(axis=1), t1[:, ~bright].sum(axis=1)])
    try:
        x = np.linalg.solve(np.eye(len(rhs)) - t0[:, bright], rhs)
    except np.linalg.LinAlgError:
        x = np.full_like(rhs, np.nan)
    if not np.isfinite(x).all():
        raise NonTerminatingError(
            f"I - T0 is singular: walks cycle without a photon and never pump dark "
            f"for configuration: {model.describe()}"
        )
    m, f0 = x[:, :-2], x[:, -2]
    terms = (m @ f0 + x[:, -1])[:, None]  # f_1
    power = m
    while terms[:, -1].max() >= _LAW_TAIL:
        if terms.shape[1] > _MAX_COUNT:
            raise NonTerminatingError(
                f"the photon-count law does not decay within {_MAX_COUNT} photons "
                f"for configuration: {model.describe()}"
            )
        terms = np.hstack([terms, power @ terms])
        power = power @ power
    n = 1 + int(np.argmax(terms.max(axis=0) < _LAW_TAIL))
    law = np.zeros((6, n + 1))
    law[~bright, 0] = 1.0
    law[bright, 0] = f0
    law[bright, 1:] = terms[:, :n]
    return law


def _chain_counts(cells: Sequence[tuple[PumpModel, int, int]], trials: int) -> np.ndarray:
    """Classical-chain counts (cells, trials) of every cell ``(model, initial_idx, seed)``.

    Each bright cell inverts its level's count-law CDF: trial t of a cell
    seeded s reads draw 0 of key (s, t) and takes the first count whose
    cumulative probability exceeds it, so the uniform 0.0 takes the first
    count of positive probability.  The bright cells' trajectories are drawn
    in trial order, cell after cell, in slices of at most ``_BLOCK``
    rows with one ``uniform_table`` call each.  Trajectories from a dark
    initial level end at once with no photon and draw nothing.  Raises
    NonTerminatingError when a bright cell's law sums short of 1 by more than
    ``_LAW_LEAK``: some of its walks never pump dark.
    """
    counts = np.zeros((len(cells), trials), np.int64)
    laws: dict[int, np.ndarray] = {}
    todo, cdfs = [], []
    for c, (model, idx, _) in enumerate(cells):
        if model._chain_rates[idx].sum() <= 0:
            continue
        if id(model) not in laws:
            laws[id(model)] = _count_law(model)
        law = laws[id(model)][idx : idx + 1]
        if not law.sum() >= 1.0 - _LAW_LEAK:  # a NaN sum fails too
            raise NonTerminatingError(
                f"walks from {GROUND_STATES[idx]} never pump dark (their count law sums to "
                f"{law.sum():.3g}) for configuration: {model.describe()}"
            )
        todo.append(c)
        cdfs.append(_cumulative(law)[0])
    seeds = np.array([cells[c][2] % 2**64 for c in todo], np.uint64)
    total = len(todo) * trials
    for lo in range(0, total, _BLOCK):
        hi = min(lo + _BLOCK, total)
        p = np.arange(lo, hi)
        u = uniform_table(seeds[p // trials], 0, p.size, 1, 0, p % trials)[:, 0]
        for k in range(lo // trials, (hi - 1) // trials + 1):
            a, z = max(lo, k * trials), min(hi, (k + 1) * trials)
            row = slice(a - k * trials, z - k * trials)
            counts[todo[k], row] = np.searchsorted(cdfs[k], u[a - lo : z - lo], side="right")
    return counts


def _sample_counts(
    cells: Sequence[tuple[PumpModel, int, int]], trials: int, method: str
) -> tuple[np.ndarray, np.ndarray]:
    """Counts and caps (cells, trials) of every cell ``(model, initial_idx, seed)`` under ``method``.

    Only jump trajectories can be capped; a chain trajectory is one draw from an exact law.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if method == "jump":
        return _jump_counts(cells, trials)
    if method == "chain":
        return _chain_counts(cells, trials), np.zeros((len(cells), trials), bool)
    raise ValueError(f"unknown method {method!r}")


def _pump_result(model: PumpModel, counts: np.ndarray, capped: np.ndarray) -> PumpResult:
    """Mean and standard error of one cell's counts; raises NonTerminatingError past 1% capped."""
    trials = counts.size
    capped_total = int(capped.sum())
    frac = capped_total / trials
    if frac > 0.01:
        raise NonTerminatingError(
            f"{capped_total}/{trials} trajectories failed to pump dark for "
            f"configuration: {model.describe()}"
        )
    x = counts.astype(float)
    total = x.sum()
    sem = 0.0
    if trials > 1:
        sem = sqrt(max(0.0, (x @ x - total**2 / trials) / (trials - 1)) / trials)
    return PumpResult(
        mean=total / trials, sem=sem, trials=trials, capped_fraction=frac, counts=counts
    )


def simulate_pumping(
    model: PumpModel,
    initial: ZeemanState,
    trials: int,
    seed: int,
    method: str = "jump",
) -> PumpResult:
    """Mean and standard error of emitted blue photons until the ion is dark.

    Deterministic for fixed (seed, trials): trial t always draws from the
    substream keyed (seed, t).  The cell is a one-cell run of the sampler
    that detection matrices run on all their cells at once.

    Under ``jump`` a trajectory ends when its time-averaged excitation rate
    falls below ``DARK_RATE_FRACTION`` times the largest basis-state rate (a
    state with zero time-averaged rate can never brighten), or when it
    exceeds the ``_MAX_JUMPS``/``_MAX_STEPS`` caps.  Raises
    NonTerminatingError if more than 1% of trajectories hit a cap, and
    ValueError, before any propagator table is built, when the model's
    detunings share no period, when its period needs more than
    ``_MAX_PERIOD`` steps (standard beams below about 0.0044 G), or when its
    frequencies overflow (fields above about 5e294 G).

    Under ``chain`` each trajectory is draw 0 of its substream inverted
    through the exact photon-count law of the chain from ``initial``
    (``_count_law``); a basis state with no excitation rate is dark and draws
    nothing.  The chain needs no period and has no cap.  Raises
    NonTerminatingError, naming the configuration, when walks from
    ``initial`` can fail to pump dark (a bright closed class) or the law
    does not decay.
    """
    if initial not in _GROUND_INDEX:
        raise ValueError(f"initial state {initial} is not a ground/metastable level")
    counts, capped = _sample_counts([(model, _GROUND_INDEX[initial], seed)], trials, method)
    return _pump_result(model, counts[0], capped[0])


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
    trials: int,
    seed: int,
    method: Optional[str],
) -> DetectionMatrix:
    """One cell per (setting row, initial-state column), seeded seed + 1000*row + col.

    One call samples every cell.  Under ``method="jump"`` (``_jump_counts``)
    the cells' trajectories share blocks that step together on stacked period
    tables, and a block's tables are alive only while it runs.  Under
    ``method="chain"`` (``_chain_counts``) each distinct model's count law is
    built once, and the bright cells' trajectories are drawn from it in slices
    of at most ``_BLOCK`` rows written straight into the counts.  With
    no method each cell is the classical chain's exact expectation with a
    zero SEM.
    """
    models = [build_model(b_gauss, beams) for _, beams in rows]
    cells = [
        (model, state, seed + 1000 * ri + ci)
        for ri, model in enumerate(models)
        for ci, state in enumerate(states)
    ]
    if method is None:
        stats = [(chain_expected_counts(model, state), 0.0) for model, state, _ in cells]
    else:
        counts, capped = _sample_counts(
            [(model, _GROUND_INDEX[state], s) for model, state, s in cells], trials, method
        )
        results = map(_pump_result, [model for model, _, _ in cells], counts, capped)
        stats = [(res.mean, res.sem) for res in results]
    means, sems = np.array(stats).T.reshape(2, len(rows), len(states))
    return DetectionMatrix(
        row_labels=tuple(label for label, _ in rows),
        col_labels=tuple(str(s) for s in states),
        means=means,
        sems=sems,
        trials=trials,
        seed=seed,
    )


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
    return _detection_matrix(b_gauss, rows, _S_STATES, trials, seed, method)


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
    return _detection_matrix(b_gauss, rows, _D_STATES, trials, seed, method)


def chain_detection_matrix_d(
    b_gauss: float = 2.2,
    intensity: float = DEFAULT_INTENSITY,
    seed: int = 0,
) -> DetectionMatrix:
    """Exact classical-chain expectation of the ``detection_matrix_d`` matrix.

    Nothing is sampled: the SEMs are zero, ``trials`` is 0 and ``seed`` is only recorded.
    """
    rows = [(label, d_detection_beams(pols, b_gauss, intensity)) for label, pols in D_SETTINGS]
    return _detection_matrix(b_gauss, rows, _D_STATES, 0, seed, None)


@dataclass(frozen=True)
class DarkState:
    """One zero-coupling D-manifold state with its stationarity tag."""

    amplitudes: np.ndarray  # over (d-3/2, d-1/2, d+1/2, d+3/2)
    stationary: bool


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
