"""Static atomic data and exact angular-momentum algebra for a Ba-like ion.

Level structure: an S_1/2 ground doublet, a short-lived P_1/2 doublet and a
metastable D_3/2 quartet.  Everything here is a pure function over immutable
value types: Zeeman energies, squared Clebsch-Gordan line strengths,
selection rules, and first-order magnetic sensitivities of qubit transitions.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import factorial, sqrt
from types import MappingProxyType
from typing import Mapping, Sequence, Union

import numpy as np

__all__ = [
    "Manifold",
    "Polarization",
    "ZeemanState",
    "AtomConstants",
    "BA138",
    "JZ_QUARTET",
    "QUARTET_BASIS",
    "cg_coefficient",
    "cg_weight",
    "zeeman_splitting",
    "zeeman_shift",
    "jz_expectation",
    "qubit_sensitivity",
]


class Manifold(enum.Enum):
    """Fine-structure manifolds kept in the model."""

    S_HALF = "S1/2"
    P_HALF = "P1/2"
    D_THREE_HALF = "D3/2"

    @property
    def two_j(self) -> int:
        return {Manifold.S_HALF: 1, Manifold.P_HALF: 1, Manifold.D_THREE_HALF: 3}[self]

    @property
    def j(self) -> float:
        return self.two_j / 2.0


class Polarization(enum.Enum):
    """Photon polarization and the Delta m_J it drives."""

    SIGMA_PLUS = "sigma+"
    SIGMA_MINUS = "sigma-"
    PI = "pi"

    @property
    def delta_m(self) -> int:
        return {Polarization.SIGMA_PLUS: 1, Polarization.SIGMA_MINUS: -1, Polarization.PI: 0}[self]


@dataclass(frozen=True, order=True)
class ZeemanState:
    """One |manifold, m_J> level; m_J is stored doubled so half-integers stay exact."""

    manifold: Manifold
    two_mj: int

    def __post_init__(self) -> None:
        two_j = self.manifold.two_j
        if abs(self.two_mj) > two_j:
            raise ValueError(
                f"|two_mj|={abs(self.two_mj)} exceeds 2J={two_j} for {self.manifold.value}"
            )
        if (self.two_mj - two_j) % 2 != 0:
            raise ValueError(
                f"two_mj={self.two_mj} has wrong parity for 2J={two_j} ({self.manifold.value})"
            )

    @property
    def mj(self) -> float:
        return self.two_mj / 2.0

    def __str__(self) -> str:  # e.g. "d+3/2", "s-1/2"
        letter = {Manifold.S_HALF: "s", Manifold.P_HALF: "p", Manifold.D_THREE_HALF: "d"}[
            self.manifold
        ]
        sign = "+" if self.two_mj > 0 else "-"
        return f"{letter}{sign}{abs(self.two_mj)}/2"


# Electric-dipole-connected manifold pairs (lower, upper).
DIPOLE_PAIRS = frozenset(
    {(Manifold.S_HALF, Manifold.P_HALF), (Manifold.D_THREE_HALF, Manifold.P_HALF)}
)


@dataclass(frozen=True)
class AtomConstants:
    """Round-number constants of the modeled ion.

    mu_b is deliberately the rounded 1.4 MHz/G rather than the CODATA value,
    so that benchmark splittings come out as the usual round numbers.

    The Zeeman and sensitivity functions here, the pumping model (``scatter``)
    and the STIRAP loss all use ``BA138``.
    """

    mu_b_hz_per_gauss: float = 1.4e6
    g_factors: Mapping[Manifold, float] = field(
        default_factory=lambda: MappingProxyType(
            {Manifold.S_HALF: 2.0, Manifold.P_HALF: 2.0 / 3.0, Manifold.D_THREE_HALF: 4.0 / 5.0}
        )
    )
    p_lifetime_s: float = 7.86e-9
    d_lifetime_s: float = 80.0
    branching_to_s: float = 0.75  # P1/2 decay branching; 3:1 favors the ground manifold

    def __post_init__(self) -> None:
        if self.mu_b_hz_per_gauss <= 0 or self.p_lifetime_s <= 0 or self.d_lifetime_s <= 0:
            raise ValueError("atomic constants must be strictly positive")
        if any(g <= 0 for g in self.g_factors.values()):
            raise ValueError("Lande g-factors must be strictly positive")
        if not 0.0 < self.branching_to_s < 1.0:
            raise ValueError("branching fraction must lie in (0, 1)")

    @property
    def branching_to_d(self) -> float:
        return 1.0 - self.branching_to_s

    def g_factor(self, manifold: Manifold) -> float:
        return self.g_factors[manifold]


BA138 = AtomConstants()

# D3/2 quartet basis, ascending m_J, and J_z in that basis (units of hbar).
QUARTET_BASIS = tuple(
    ZeemanState(Manifold.D_THREE_HALF, two_mj) for two_mj in (-3, -1, 1, 3)
)
JZ_QUARTET = np.diag([-1.5, -0.5, 0.5, 1.5])


def _cg(j1: float, m1: float, j2: float, m2: float, j: float, m: float) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | j m>, Condon-Shortley phases."""
    if abs(m1 + m2 - m) > 1e-12:
        return 0.0
    if not (abs(j1 - j2) - 1e-12 <= j <= j1 + j2 + 1e-12):
        return 0.0
    if abs(m1) > j1 + 1e-12 or abs(m2) > j2 + 1e-12 or abs(m) > j + 1e-12:
        return 0.0

    def fct(x: float) -> int:
        return factorial(round(x))

    pref = (
        (2 * j + 1)
        * fct(j1 + j2 - j)
        * fct(j1 - j2 + j)
        * fct(-j1 + j2 + j)
        / fct(j1 + j2 + j + 1)
    )
    pref *= fct(j + m) * fct(j - m) * fct(j1 - m1) * fct(j1 + m1) * fct(j2 - m2) * fct(j2 + m2)
    total = 0.0
    for k in range(0, round(2 * (j1 + j2)) + 1):
        denoms = (k, j1 + j2 - j - k, j1 - m1 - k, j2 + m2 - k, j - j2 + m1 + k, j - j1 - m2 + k)
        if any(round(d) < 0 for d in denoms):
            continue
        term = 1.0
        for d in denoms:
            term *= fct(d)
        total += (-1) ** k / term
    return sqrt(pref) * total


def _check_dipole_pair(lower: ZeemanState, upper: ZeemanState) -> None:
    if (lower.manifold, upper.manifold) not in DIPOLE_PAIRS:
        raise ValueError(
            f"no electric-dipole transition connects {lower.manifold.value} "
            f"to {upper.manifold.value}"
        )


def cg_coefficient(lower: ZeemanState, upper: ZeemanState, pol: Polarization) -> float:
    """Signed coupling amplitude <J_l m_l; 1 q | J_u m_u> for the transition.

    Zero whenever the Delta m_J selection rule for ``pol`` is violated.  The
    sign convention is Condon-Shortley; only relative signs within one
    polarization pattern are observable (they fix the dark-state structure).
    """
    _check_dipole_pair(lower, upper)
    if upper.two_mj != lower.two_mj + 2 * pol.delta_m:
        return 0.0
    return _cg(lower.manifold.j, lower.mj, 1.0, float(pol.delta_m), upper.manifold.j, upper.mj)


def cg_weight(lower: ZeemanState, upper: ZeemanState, pol: Polarization) -> float:
    """Squared relative line strength of one Zeeman transition.

    Normalized so that for a fixed upper state the weights over all decay
    channels into one lower manifold sum to 1; the 3:1 manifold branching is
    applied separately (see AtomConstants.branching_to_s).
    """
    return cg_coefficient(lower, upper, pol) ** 2


def zeeman_splitting(manifold: Manifold, b_gauss: float) -> float:
    """Frequency gap in Hz between adjacent m_J levels of ``manifold`` at field B.

    Equals g * mu_B * B; for the S doublet this is half the full doublet
    splitting of 2 mu_B B.
    """
    if b_gauss < 0:
        raise ValueError("magnetic field must be nonnegative")
    return BA138.g_factor(manifold) * BA138.mu_b_hz_per_gauss * b_gauss


def zeeman_shift(state: ZeemanState, b_gauss: float) -> float:
    """Signed Zeeman energy shift of one level in Hz: g * mu_B * B * m_J."""
    return zeeman_splitting(state.manifold, b_gauss) * state.mj


def _as_quartet(vec: Union[Sequence[complex], np.ndarray]) -> np.ndarray:
    arr = np.asarray(vec, dtype=complex).reshape(-1)
    if arr.shape != (4,):
        raise ValueError("quartet amplitudes must be a length-4 vector")
    norm = np.linalg.norm(arr)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.2e}")
    return arr


def jz_expectation(a, b) -> complex:
    """Matrix element <a|J_z|b> over the D quartet, in units of hbar.

    Both vectors are length-4 complex amplitudes over the basis
    (d-3/2, d-1/2, d+1/2, d+3/2) and must be unit-norm to 1e-9.
    """
    va = _as_quartet(a)
    vb = _as_quartet(b)
    return complex(va.conj() @ (JZ_QUARTET @ vb))


def _jz_of(state) -> tuple[Manifold, float]:
    """(manifold, <J_z>) of either a ZeemanState or a quartet amplitude vector."""
    if isinstance(state, ZeemanState):
        return state.manifold, state.mj
    vec = _as_quartet(state)
    return Manifold.D_THREE_HALF, jz_expectation(vec, vec).real


def qubit_sensitivity(a, b) -> float:
    """First-order magnetic sensitivity of the |a> <-> |b> transition, kHz/mG.

    sensitivity = |g * mu_B * (<a|J_z|a> - <b|J_z|b>)|.  Both states must live
    in one manifold (quartet amplitude vectors are taken over D3/2).
    """
    man_a, jz_a = _jz_of(a)
    man_b, jz_b = _jz_of(b)
    if man_a != man_b:
        raise ValueError(
            f"sensitivity is defined within a single manifold, got "
            f"{man_a.value} and {man_b.value}"
        )
    hz_per_gauss = BA138.g_factor(man_a) * BA138.mu_b_hz_per_gauss * abs(jz_a - jz_b)
    return hz_per_gauss * 1e-6  # Hz/G -> kHz/mG
