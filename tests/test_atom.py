import math

import numpy as np
import pytest

from dqubit.atom import (
    BA138,
    AtomConstants,
    Manifold,
    Polarization,
    ZeemanState,
    cg_coefficient,
    cg_weight,
    jz_expectation,
    qubit_sensitivity,
    zeeman_shift,
    zeeman_splitting,
)
from dqubit.dynamics import make_synth_states

from oracles import sympy_cg

S_STATES = [ZeemanState(Manifold.S_HALF, m) for m in (-1, 1)]
P_STATES = [ZeemanState(Manifold.P_HALF, m) for m in (-1, 1)]
D_STATES = [ZeemanState(Manifold.D_THREE_HALF, m) for m in (-3, -1, 1, 3)]
ALL_LOWER = S_STATES + D_STATES
ALL_POLS = list(Polarization)


class TestZeemanState:
    def test_valid_projections(self):
        assert ZeemanState(Manifold.D_THREE_HALF, 3).mj == 1.5

    @pytest.mark.parametrize("two_mj", [-5, 5, 2, 0])
    def test_invalid_projection_rejected(self, two_mj):
        with pytest.raises(ValueError):
            ZeemanState(Manifold.S_HALF, two_mj)

    def test_wrong_parity_rejected(self):
        with pytest.raises(ValueError):
            ZeemanState(Manifold.D_THREE_HALF, 2)


class TestConstants:
    def test_branching(self):
        assert BA138.branching_to_s / BA138.branching_to_d == pytest.approx(3.0)
        assert BA138.branching_to_s + BA138.branching_to_d == pytest.approx(1.0)

    def test_invalid_constants_rejected(self):
        with pytest.raises(ValueError):
            AtomConstants(mu_b_hz_per_gauss=-1.0)
        with pytest.raises(ValueError):
            AtomConstants(branching_to_s=1.5)


class TestZeemanSplitting:
    def test_s_doublet_at_one_gauss(self):
        assert zeeman_splitting(Manifold.S_HALF, 1.0) == pytest.approx(2.8e6)

    def test_d_manifold_at_operating_field(self):
        # ~2.5 MHz between adjacent quartet levels
        assert zeeman_splitting(Manifold.D_THREE_HALF, 2.2) == pytest.approx(2.464e6)

    def test_zero_field(self):
        assert zeeman_splitting(Manifold.D_THREE_HALF, 0.0) == 0.0

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            zeeman_splitting(Manifold.S_HALF, -0.1)

    def test_shift_is_signed(self):
        up = zeeman_shift(ZeemanState(Manifold.D_THREE_HALF, 3), 2.2)
        dn = zeeman_shift(ZeemanState(Manifold.D_THREE_HALF, -3), 2.2)
        assert up == -dn > 0


class TestLineStrengths:
    def test_selection_rule_blocked_example(self):
        d = ZeemanState(Manifold.D_THREE_HALF, 3)
        p = ZeemanState(Manifold.P_HALF, 1)
        assert cg_weight(d, p, Polarization.SIGMA_PLUS) == 0.0

    @pytest.mark.parametrize("lower", ALL_LOWER)
    @pytest.mark.parametrize("upper", P_STATES)
    @pytest.mark.parametrize("pol", ALL_POLS)
    def test_selection_rules_exhaustive(self, lower, upper, pol):
        w = cg_weight(lower, upper, pol)
        allowed = upper.two_mj - lower.two_mj == 2 * pol.delta_m
        if allowed:
            assert w > 0.0
        else:
            assert w == 0.0

    @pytest.mark.parametrize("lower", ALL_LOWER)
    @pytest.mark.parametrize("upper", P_STATES)
    @pytest.mark.parametrize("pol", ALL_POLS)
    def test_signed_amplitudes_match_symbolic_engine(self, lower, upper, pol):
        got = cg_coefficient(lower, upper, pol)
        if upper.two_mj != lower.two_mj + 2 * pol.delta_m:
            assert got == 0.0
            return
        ref = sympy_cg(lower.manifold.j, lower.mj, 1.0, pol.delta_m, upper.manifold.j, upper.mj)
        assert got == pytest.approx(ref, abs=1e-13)

    @pytest.mark.parametrize("upper", P_STATES)
    @pytest.mark.parametrize("lower_set", [S_STATES, D_STATES])
    def test_decay_sum_rules(self, upper, lower_set):
        total = sum(cg_weight(low, upper, pol) for low in lower_set for pol in ALL_POLS)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_unconnected_manifolds_rejected(self):
        with pytest.raises(ValueError):
            cg_weight(S_STATES[0], D_STATES[0], Polarization.PI)
        with pytest.raises(ValueError):
            cg_weight(P_STATES[0], P_STATES[1], Polarization.SIGMA_PLUS)


class TestJzExpectation:
    def test_eigenstate(self):
        edge = np.array([0, 0, 0, 1.0])
        assert jz_expectation(edge, edge) == pytest.approx(1.5)

    def test_insensitive_states(self):
        s = make_synth_states()
        assert abs(jz_expectation(s.d1, s.d1)) < 1e-12
        assert abs(jz_expectation(s.d1, s.d2)) < 1e-12

    def test_conjugate_symmetry_and_tracelessness(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            assert jz_expectation(a, b) == pytest.approx(np.conj(jz_expectation(b, a)))
        basis = np.eye(4)
        assert sum(jz_expectation(basis[i], basis[i]).real for i in range(4)) == pytest.approx(0.0)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            jz_expectation([1, 1, 0, 0], [1, 0, 0, 0])


class TestSensitivity:
    def test_s_doublet(self, s_down, s_up):
        assert qubit_sensitivity(s_down, s_up) == pytest.approx(2.8)

    def test_quartet_edge_pair(self):
        a = ZeemanState(Manifold.D_THREE_HALF, 3)
        b = ZeemanState(Manifold.D_THREE_HALF, -1)
        assert qubit_sensitivity(a, b) == pytest.approx(8.0 / 5.0 * 1.4)

    def test_synthetic_qubit_is_insensitive(self):
        s = make_synth_states()
        assert qubit_sensitivity(s.d1, s.d2) == pytest.approx(0.0, abs=1e-12)

    def test_s_doublet_is_the_most_sensitive_benchmark(self, s_down, s_up):
        s = make_synth_states()
        pairs = [
            qubit_sensitivity(s_down, s_up),
            qubit_sensitivity(
                ZeemanState(Manifold.D_THREE_HALF, 3), ZeemanState(Manifold.D_THREE_HALF, -1)
            ),
            qubit_sensitivity(s.d1, s.d2),
        ]
        assert int(np.argmax(pairs)) == 0

    def test_cross_manifold_rejected(self, s_down):
        with pytest.raises(ValueError):
            qubit_sensitivity(s_down, ZeemanState(Manifold.D_THREE_HALF, -1))
