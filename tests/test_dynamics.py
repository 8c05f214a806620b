import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import least_squares

from dqubit import dynamics
from dqubit.atom import jz_expectation
from dqubit.dynamics import (
    DecayModel,
    EffectiveDrive,
    FitFailureError,
    NO_DECAY,
    _fit_least_squares,
    drive_hamiltonian,
    evolve,
    fit_rabi,
    make_synth_states,
    prepare_d1_by_rotation,
    prepare_d2_by_rotation,
    project_synth,
    stirap_prepare,
    wigner_populations,
)

EDGE_TOP = np.array([0, 0, 0, 1.0], complex)
OMEGA_LADDER = math.sqrt(18.0) * math.pi / 12e-6  # full edge-to-edge transfer in 12 us
OMEGA_PAIR = math.pi / 30e-6  # full pair transfer in 30 us


class TestDriveHamiltonian:
    def test_adjacent_coupling_matrix_at_zero_phase(self):
        h = drive_hamiltonian(EffectiveDrive(kind="dm1", rabi_rad_s=2.0))
        w = [math.sqrt(3 / 18), math.sqrt(4 / 18), math.sqrt(3 / 18)]
        expected = np.zeros((4, 4))
        for i, wi in enumerate(w):
            expected[i, i + 1] = expected[i + 1, i] = wi  # Omega/2 = 1
        assert np.allclose(h, expected, atol=1e-15)

    def test_adjacent_drive_is_scaled_spin_x(self):
        omega = 3.7
        h = drive_hamiltonian(EffectiveDrive(kind="dm1", rabi_rad_s=omega))
        jx = np.zeros((4, 4))
        for i, w in enumerate((math.sqrt(3) / 2, 1.0, math.sqrt(3) / 2)):
            jx[i, i + 1] = jx[i + 1, i] = w
        assert np.allclose(h, omega / math.sqrt(18.0) * jx, atol=1e-15)

    def test_pair_coupling_matrix(self):
        h = drive_hamiltonian(EffectiveDrive(kind="dm2", rabi_rad_s=2.0))
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[2, 0] = 1.0
        expected[1, 3] = expected[3, 1] = 1.0
        assert np.allclose(h, expected, atol=1e-15)

    def test_pair_drive_commutes_with_pair_swap(self):
        h = drive_hamiltonian(EffectiveDrive(kind="dm2", rabi_rad_s=1.0, phase_rad=0.7))
        swap = np.zeros((4, 4))
        swap[0, 1] = swap[1, 0] = swap[2, 3] = swap[3, 2] = 1.0
        assert np.allclose(swap @ h @ swap, h, atol=1e-15)

    @pytest.mark.parametrize("kind", ["dm1", "dm2"])
    @pytest.mark.parametrize("phase", [0.0, 0.4, math.pi, -1.2])
    def test_hermitian(self, kind, phase):
        h = drive_hamiltonian(EffectiveDrive(kind=kind, rabi_rad_s=1.0, phase_rad=phase))
        assert np.array_equal(h, h.conj().T)

    def test_invalid_drive_rejected(self):
        with pytest.raises(ValueError):
            EffectiveDrive(kind="dm3", rabi_rad_s=1.0)
        with pytest.raises(ValueError):
            EffectiveDrive(kind="dm1", rabi_rad_s=0.0)


class TestEvolve:
    def test_matches_closed_form_rotation_at_sampled_angles(self):
        drv = EffectiveDrive(kind="dm1", rabi_rad_s=OMEGA_LADDER)
        thetas = np.linspace(0.0, 2 * math.pi, 50)
        times = thetas / (drv.rabi_rad_s / math.sqrt(18.0))
        res = evolve(EDGE_TOP, drv, NO_DECAY, times)
        for i, th in enumerate(thetas):
            assert np.abs(res.populations[i] - wigner_populations(th, 3)).max() < 1e-8

    def test_full_ladder_transfer(self):
        drv = EffectiveDrive(kind="dm1", rabi_rad_s=OMEGA_LADDER)
        res = evolve(EDGE_TOP, drv, NO_DECAY, [12e-6])
        assert res.populations[-1][0] == pytest.approx(1.0, abs=1e-9)

    def test_half_angle_binomial_populations(self):
        drv = EffectiveDrive(kind="dm1", rabi_rad_s=OMEGA_LADDER)
        t_quarter = (math.pi / 2) / (OMEGA_LADDER / math.sqrt(18.0))
        res = evolve(EDGE_TOP, drv, NO_DECAY, [t_quarter])
        assert np.allclose(res.populations[-1], [1 / 8, 3 / 8, 3 / 8, 1 / 8], atol=1e-9)

    def test_pair_drive_leaves_other_pair_untouched(self):
        drv = EffectiveDrive(kind="dm2", rabi_rad_s=OMEGA_PAIR)
        times = np.linspace(0.0, 90e-6, 301)
        res = evolve(EDGE_TOP, drv, NO_DECAY, times)
        assert res.populations[:, [0, 2]].max() < 1e-10

    def test_pair_drive_two_thirds_point(self):
        drv = EffectiveDrive(kind="dm2", rabi_rad_s=OMEGA_PAIR)
        res = evolve(EDGE_TOP, drv, NO_DECAY, [20e-6])
        assert np.abs(res.populations[-1] - [0.0, 0.75, 0.0, 0.25]).max() < 1e-8

    def test_norm_preserved_over_many_samples(self):
        drv = EffectiveDrive(kind="dm1", rabi_rad_s=1e6)
        times = np.linspace(0.0, 1e-3, 10_000)
        res = evolve(EDGE_TOP, drv, NO_DECAY, times)
        norms = np.linalg.norm(res.states, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-9

    def test_decay_preserves_trace_and_shrinks_purity(self):
        drv = EffectiveDrive(kind="dm1", rabi_rad_s=1e6)
        decay = DecayModel(tau_s=20e-6)
        times = np.linspace(0.0, 100e-6, 64)
        res = evolve(EDGE_TOP, drv, decay, times)
        purities = [np.trace(r @ r).real for r in res.states]
        traces = [np.trace(r).real for r in res.states]
        assert np.abs(np.array(traces) - 1.0).max() < 1e-9
        assert (np.diff(purities) <= 1e-12).all()
        assert np.allclose(res.states[-1], np.eye(4) / 4, atol=0.01)

    def test_depolarized_density_matches_per_time_reference(self):
        from scipy.linalg import expm

        drv = EffectiveDrive(kind="dm2", rabi_rad_s=OMEGA_PAIR, phase_rad=0.7, detuning_rad_s=2e4)
        decay = DecayModel(tau_s=40e-6)
        rho0 = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        rho0[0, 2] = rho0[2, 0] = 0.05
        times = np.linspace(0.0, 60e-6, 25)
        res = evolve(rho0, drv, decay, times)
        h = drive_hamiltonian(drv)
        for t, rho in zip(times, res.states):
            u = expm(-1j * h * t)
            w = math.exp(-t / decay.tau_s)
            ref = w * u @ rho0 @ u.conj().T + (1 - w) * np.eye(4) / 4
            assert np.abs(rho - ref).max() < 1e-12
        assert np.array_equal(res.populations, np.diagonal(res.states, axis1=1, axis2=2).real)

    def test_populations_independent_of_drive_phase_from_basis_state(self):
        times = np.linspace(0.0, 25e-6, 40)
        base = evolve(
            EDGE_TOP, EffectiveDrive(kind="dm1", rabi_rad_s=OMEGA_LADDER, phase_rad=0.0),
            NO_DECAY, times,
        ).populations
        for phase in (0.9, math.pi, -2.0):
            alt = evolve(
                EDGE_TOP,
                EffectiveDrive(kind="dm1", rabi_rad_s=OMEGA_LADDER, phase_rad=phase),
                NO_DECAY, times,
            ).populations
            assert np.abs(alt - base).max() < 1e-12

    def test_input_validation(self):
        drv = EffectiveDrive(kind="dm1", rabi_rad_s=1.0)
        with pytest.raises(ValueError):
            evolve(EDGE_TOP, drv, NO_DECAY, [])
        with pytest.raises(ValueError):
            evolve(EDGE_TOP, drv, NO_DECAY, [1.0, 0.5])
        with pytest.raises(ValueError):
            evolve(np.array([1.0, 1.0, 0, 0]), drv, NO_DECAY, [1.0])


class TestWignerOracle:
    def test_identity(self):
        assert np.allclose(wigner_populations(0.0, 3), [0, 0, 0, 1], atol=1e-15)

    def test_full_flip(self):
        assert np.allclose(wigner_populations(math.pi, 3), [1, 0, 0, 0], atol=1e-12)

    def test_quarter_turn_binomial(self):
        assert np.allclose(
            wigner_populations(math.pi / 2, 3), [1 / 8, 3 / 8, 3 / 8, 1 / 8], atol=1e-12
        )

    @pytest.mark.parametrize("two_mj", [-3, -1, 1, 3])
    def test_rows_normalized(self, two_mj):
        for th in np.linspace(0, 2 * math.pi, 17):
            assert wigner_populations(th, two_mj).sum() == pytest.approx(1.0, abs=1e-12)

    def test_invalid_projection_rejected(self):
        with pytest.raises(ValueError):
            wigner_populations(0.1, 2)


class TestSynthStates:
    def test_orthonormality(self):
        s = make_synth_states()
        basis = [s.d1, s.d2, s.b1, s.b2]
        gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
        assert np.abs(gram - np.eye(4)).max() < 1e-12

    def test_insensitive_states_have_zero_jz(self):
        for phi in (0.0, 1.1, math.pi):
            s = make_synth_states(phi)
            for i in (s.d1, s.d2):
                for j in (s.d1, s.d2):
                    assert abs(jz_expectation(i, j)) < 1e-12

    def test_bright_state_is_sensitive(self):
        s = make_synth_states()
        assert jz_expectation(s.b1, s.b1).real == pytest.approx(1.0, abs=1e-12)

    def test_reference_phase_components(self):
        s = make_synth_states(math.pi)
        assert np.allclose(s.d1, [0, -math.sqrt(3) / 2, 0, 0.5], atol=1e-15)
        assert np.allclose(s.d2, [0.5, 0, -math.sqrt(3) / 2, 0], atol=1e-15)
        assert np.allclose(s.b1, [0, 0.5, 0, math.sqrt(3) / 2], atol=1e-15)
        assert np.allclose(s.b2, [math.sqrt(3) / 2, 0, 0.5, 0], atol=1e-15)


class TestPreparationByRotation:
    def test_first_state_prepared_exactly(self):
        for phi in (0.0, math.pi, 2.2):
            sched, state = prepare_d1_by_rotation(OMEGA_PAIR, phi)
            target = make_synth_states(phi).d1
            assert abs(np.vdot(target, state)) ** 2 > 1.0 - 1e-9
            assert sched.duration_s == pytest.approx(20e-6)

    def test_second_state_prepared_exactly(self):
        for phi in (0.0, math.pi, -0.7):
            _, state = prepare_d2_by_rotation(OMEGA_PAIR, phi)
            target = make_synth_states(phi).d2
            assert abs(np.vdot(target, state)) ** 2 > 1.0 - 1e-9

    def test_full_duration_transfers_to_partner(self):
        sched, _ = prepare_d1_by_rotation(OMEGA_PAIR)
        res = evolve(EDGE_TOP, sched.drive, NO_DECAY, [30e-6])
        assert res.populations[-1][1] == pytest.approx(1.0, abs=1e-9)

    def test_zero_duration_leaves_state(self):
        sched, _ = prepare_d1_by_rotation(OMEGA_PAIR)
        res = evolve(EDGE_TOP, sched.drive, NO_DECAY, [0.0])
        assert res.populations[0][3] == pytest.approx(1.0)

    def test_transfer_between_insensitive_states(self):
        # the adjacent-level drive swaps the two insensitive states through
        # the bright pair, with transient leakage along the way
        s = make_synth_states()
        drv = EffectiveDrive(kind="dm1", rabi_rad_s=OMEGA_LADDER)
        times = np.linspace(0.0, 30e-6, 601)
        res = evolve(s.d1, drv, NO_DECAY, times)
        p2 = np.array([abs(np.vdot(s.d2, st)) ** 2 for st in res.states])
        p1 = np.array([abs(np.vdot(s.d1, st)) ** 2 for st in res.states])
        leak = 1.0 - p1 - p2
        assert p2.max() >= 0.99
        assert leak.max() > 0.1

    def test_invalid_rabi_rejected(self):
        with pytest.raises(ValueError):
            prepare_d1_by_rotation(0.0)


class TestStirap:
    def test_adiabatic_transfer(self):
        om = 2 * math.pi * 20e6
        res = stirap_prepare(om, om, 1.6e-6, 2.4e-6, 10e-6)
        assert res.fidelity > 0.95
        assert res.peak_p_population < 0.05
        assert res.counterintuitive

    def test_zero_pump_means_no_transfer(self):
        res = stirap_prepare(0.0, 2 * math.pi * 20e6, 1.6e-6, 2.4e-6, 10e-6)
        assert res.fidelity == pytest.approx(0.0, abs=1e-6)

    def test_intuitive_ordering_warns_and_underperforms(self):
        om = 2 * math.pi * 20e6
        good = stirap_prepare(om, om, 1.6e-6, 2.4e-6, 10e-6)
        with pytest.warns(UserWarning, match="intuitive ordering"):
            bad = stirap_prepare(om, om, 1.6e-6, -2.4e-6, 10e-6)
        assert bad.fidelity < good.fidelity - 0.2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            stirap_prepare(-1.0, 1.0, 1e-6, 1e-6, 1e-5)
        with pytest.raises(ValueError):
            stirap_prepare(1.0, 1.0, 0.0, 1e-6, 1e-5)

    def test_memory_does_not_grow_with_steps(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_STIRAP_BLOCK", 256)
        om = 2 * math.pi * 20e6

        def peak_bytes(steps):
            tracemalloc.start()
            try:
                stirap_prepare(om, om, 1.6e-6, 2.4e-6, 10e-6, steps=steps)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(512)  # first call warms numpy's caches
        assert peak_bytes(8192) - peak_bytes(512) < 64 * 1024


class TestProjectSynth:
    def test_projecting_the_state_itself(self):
        s = make_synth_states()
        res = project_synth(s.d1)
        assert res.p_d1 == pytest.approx(1.0, abs=1e-12)
        assert res.p_d2 == pytest.approx(0.0, abs=1e-12)
        assert res.leakage == pytest.approx(0.0, abs=1e-9)
        assert not res.population_rule

    def test_bright_state_is_pure_leakage(self):
        s = make_synth_states()
        res = project_synth(s.b1)
        assert res.p_d1 == pytest.approx(0.0, abs=1e-12)
        assert res.p_d2 == pytest.approx(0.0, abs=1e-12)
        assert res.leakage == pytest.approx(1.0, abs=1e-9)

    def test_population_rule_flagged(self):
        res = project_synth(np.array([0.0, 0.75, 0.0, 0.25]))
        assert res.population_rule
        assert res.p_d1 == pytest.approx(1.0)
        assert res.p_d2 == pytest.approx(0.0)
        assert res.leakage is None

    def test_density_input(self):
        s = make_synth_states()
        rho = np.outer(s.d2, s.d2.conj())
        res = project_synth(rho)
        assert res.p_d2 == pytest.approx(1.0, abs=1e-12)


class TestFitRabi:
    def make_data(self, kind, omega, tau, noise=0.0, seed=0, n=60, t_max=40e-6):
        times = np.linspace(0.0, t_max, n)
        drv = EffectiveDrive(kind=kind, rabi_rad_s=omega)
        res = evolve(EDGE_TOP, drv, DecayModel(tau_s=tau), times)
        pops = res.populations
        if noise:
            rng = np.random.default_rng(seed)
            pops = np.clip(pops + noise * rng.standard_normal(pops.shape), 0.0, 1.0)
        return times, pops

    def test_decay_free_ladder_recovery(self):
        times, pops = self.make_data("dm1", OMEGA_LADDER, math.inf)
        fit = fit_rabi(times, pops, "dm1", initial=EDGE_TOP)
        assert fit.omega_rad_s == pytest.approx(OMEGA_LADDER, rel=1e-3)
        assert fit.decay_free_bound
        assert math.isinf(fit.tau_s)

    def test_noisy_pair_drive_recovery_within_errors(self):
        omega, tau = OMEGA_PAIR, 150e-6
        hits = 0
        for seed in range(6):
            times, pops = self.make_data("dm2", omega, tau, noise=0.01, seed=seed, t_max=90e-6)
            fit = fit_rabi(times, pops, "dm2", initial=EDGE_TOP)
            ok_omega = abs(fit.omega_rad_s - omega) < 3 * max(fit.omega_err, 1e-12)
            ok_tau = abs(fit.tau_s - tau) < 3 * max(fit.tau_err, 1e-12)
            hits += ok_omega and ok_tau
        assert hits >= 5

    def test_constant_trajectories_fail_loudly(self):
        times = np.linspace(0.0, 1e-5, 20)
        pops = np.tile([0.25, 0.25, 0.25, 0.25], (20, 1))
        with pytest.raises(FitFailureError):
            fit_rabi(times, pops, "dm1")

    def test_too_few_points_rejected(self):
        times, pops = self.make_data("dm1", OMEGA_LADDER, math.inf, n=60)
        with pytest.raises(ValueError):
            fit_rabi(times[:5], pops[:5], "dm1")

    def test_programming_error_in_the_model_propagates(self, monkeypatch):
        times, pops = self.make_data("dm1", OMEGA_LADDER, math.inf)

        def broken_hamiltonian(*args, **kwargs):
            raise TypeError("broken model")

        monkeypatch.setattr(dynamics, "drive_hamiltonian", broken_hamiltonian)
        with pytest.raises(TypeError, match="broken model"):
            fit_rabi(times, pops, "dm1", initial=EDGE_TOP)

    def test_fit_never_calls_evolve(self, monkeypatch):
        times, pops = self.make_data("dm2", OMEGA_PAIR, 150e-6, noise=0.01)

        def forbidden(*args, **kwargs):
            raise AssertionError("fit_rabi called evolve")

        monkeypatch.setattr(dynamics, "evolve", forbidden)
        fit_rabi(times, pops, "dm2", initial=EDGE_TOP)

    def test_unordered_times_rejected(self):
        times, pops = self.make_data("dm1", OMEGA_LADDER, math.inf)
        with pytest.raises(ValueError, match="ascending"):
            fit_rabi(times[::-1], pops, "dm1")

    @pytest.mark.parametrize("kind", ["dm1", "dm2"])
    @pytest.mark.parametrize("initial", [EDGE_TOP, np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)])
    def test_closed_form_model_matches_evolve_and_its_derivatives(self, kind, initial):
        times = np.linspace(0.0, 40e-6, 30)
        model, base = dynamics._rabi_closed_form(times, kind, initial)
        omega, gamma = 0.9e6, 2.0e4
        pops, d_omega, d_gamma = model(omega, gamma)
        ref = evolve(initial, EffectiveDrive(kind=kind, rabi_rad_s=omega), DecayModel(1.0 / gamma), times)
        assert np.abs(pops - ref.populations).max() < 1e-12
        assert base == pytest.approx(1.0 / math.sqrt(18.0) if kind == "dm1" else 1.0, rel=1e-12)
        for got, shift in ((d_omega, (1.0, 0.0)), (d_gamma, (0.0, 1.0))):
            step = 1e-6 * (omega if shift[0] else gamma)
            up = model(omega + shift[0] * step, gamma + shift[1] * step)[0]
            down = model(omega - shift[0] * step, gamma - shift[1] * step)[0]
            assert np.abs(got - (up - down) / (2 * step)).max() < 1e-6 * np.abs(got).max()

    def test_seed_near_an_alias_fits_the_base_frequency(self):
        # on a uniform grid every frequency of the model is a multiple of omega/sqrt(18),
        # so omega and 2 * fold - omega give the same samples; at 0.68 of the fold the
        # doubled spectral seed lands next to that alias, at 1.32 of the fold
        times = np.linspace(0.0, 30e-6, 40)
        fold = math.pi * math.sqrt(18.0) / (times[1] - times[0])
        omega = 0.68 * fold
        _, clean = self.make_data("dm1", omega, math.inf, n=40, t_max=30e-6)
        _, alias = self.make_data("dm1", 2 * fold - omega, math.inf, n=40, t_max=30e-6)
        assert np.abs(alias - clean).max() < 1e-9
        _, pops = self.make_data("dm1", omega, math.inf, noise=0.01, seed=1, n=40, t_max=30e-6)
        fit = fit_rabi(times, pops, "dm1", initial=EDGE_TOP)
        assert fit.omega_rad_s <= fold
        assert abs(fit.omega_rad_s - omega) < 5 * fit.omega_err


def scipy_rabi_reference(times, pops, kind, initial):
    """The fit by scipy's least_squares on the propagated model, from the seeds of fit_rabi."""
    trace = pops[:, int(np.argmax(pops.std(axis=0)))]
    uniform = np.linspace(times[0], times[-1], max(64, 4 * times.size))
    resampled = np.interp(uniform, times, trace)
    spec = np.abs(np.fft.rfft(resampled - resampled.mean()))
    freqs = np.fft.rfftfreq(uniform.size, uniform[1] - uniform[0])
    span = times[-1] - times[0]
    w_peak = 2 * math.pi * max(freqs[1:][int(np.argmax(spec[1:]))], 1.0 / span)
    scale = math.sqrt(18.0) if kind == "dm1" else 1.0

    def resid(p):
        decay = DecayModel(tau_s=math.inf if p[1] <= 0 else 1.0 / p[1])
        return (evolve(initial, EffectiveDrive(kind, p[0]), decay, times).populations - pops).ravel()

    bounds = ([1e-6 / span, 0.0], [np.inf, 1e4 / span])
    sols = [
        least_squares(resid, x0=[scale * w_peak * m, g], bounds=bounds, xtol=1e-14, ftol=1e-14)
        for m in (1.0, 0.5, 2.0, 1.0 / 3.0)
        for g in (0.0, 1.0 / span)
    ]
    return min(sols, key=lambda sol: sol.cost)


@pytest.mark.parametrize(
    "kind, omega, tau, seed",
    [
        ("dm1", OMEGA_LADDER, 200e-6, 0),
        ("dm1", OMEGA_LADDER, 60e-6, 3),
        ("dm2", OMEGA_PAIR, 150e-6, 1),
        ("dm2", OMEGA_PAIR, 60e-6, 4),
    ],
)
def test_rabi_fit_matches_scipy_reference(kind, omega, tau, seed):
    times = np.linspace(0.0, 30e-6 if kind == "dm1" else 90e-6, 40)
    pops = evolve(EDGE_TOP, EffectiveDrive(kind, omega), DecayModel(tau), times).populations
    pops = np.clip(pops + 0.01 * np.random.default_rng(seed).standard_normal(pops.shape), 0.0, 1.0)
    fit = fit_rabi(times, pops, kind, initial=EDGE_TOP)
    ref = scipy_rabi_reference(times, pops, kind, EDGE_TOP)
    cost = 0.5 * pops.size * fit.residual_rms**2
    assert cost <= ref.cost * (1 + 1e-12)
    assert np.allclose([fit.omega_rad_s, 1.0 / fit.tau_s], ref.x, rtol=1e-4, atol=0.0)


UNBOUNDED = (-np.inf, np.inf)


def with_jacobian(resid, jac):
    """Residual callable in the (r, J) form _fit_least_squares takes."""
    return lambda p: (resid(p), jac(p))


class TestLeastSquaresDriver:
    def test_linear_model_matches_normal_equations(self):
        # the analytic Jacobian lets coefficients of order 1 converge to rounding
        rng = np.random.default_rng(0)
        t = np.linspace(0.0, 1.0, 40)
        a = np.stack([np.ones_like(t), t, t**2], axis=1)
        y = a @ [2.0, -1.0, 3.0] + rng.standard_normal(t.size)
        fit = _fit_least_squares(lambda p: (a @ p - y, a), [[[0.0, 0.0, 0.0]]], UNBOUNDED, "linear fit")
        x, *_ = np.linalg.lstsq(a, y, rcond=None)
        r = a @ x - y
        assert np.allclose(fit.x, x, rtol=1e-12, atol=0.0)
        assert fit.cost == pytest.approx(0.5 * r @ r, rel=1e-14)
        expected = (r @ r) / (t.size - 3) * np.linalg.inv(a.T @ a)
        assert np.allclose(fit.cov, expected, rtol=1e-12, atol=0.0)
        assert fit.start == 0 and fit.nfev >= 1
        assert isinstance(fit.cost, float) and isinstance(fit.nfev, int)

    def test_keeps_the_strictly_lowest_cost_start(self):
        # distinct local minima near -pi/2, 3pi/2 and pi/2 (lowest); the repeated start ties it
        fun = with_jacobian(
            lambda p: np.array([math.cos(p[0]), 0.3 * (p[0] - 1.0)]),
            lambda p: np.array([[-math.sin(p[0])], [0.3]]),
        )
        starts = [[-1.5], [4.7], [1.6], [1.6]]
        costs = [_fit_least_squares(fun, [[x0]], UNBOUNDED, "cosine fit").cost for x0 in starts]
        assert len(set(costs)) == 3
        fit = _fit_least_squares(fun, [starts], UNBOUNDED, "cosine fit")
        assert fit.start == 2
        assert fit.cost == min(costs)
        assert fit.x[0] == pytest.approx(math.pi / 2, abs=0.1)

    def test_bound_holds_a_variable_whose_minimum_lies_outside(self):
        # unbounded minimum at (-1, 2); with p0 >= 0 held at its bound, p1 = 1/2
        a = np.array([[1.0, 1.0], [2.0, 1.0]])
        fun = with_jacobian(lambda p: a @ p - [1.0, 0.0], lambda p: a)
        fit = _fit_least_squares(fun, [[[3.0, 0.0]]], ([0.0, -np.inf], [np.inf, np.inf]), "bounded fit")
        assert fit.x[0] == 0.0
        assert fit.x[1] == pytest.approx(0.5, abs=1e-12)

    def test_early_stop_waits_for_the_whole_group(self):
        seen = []

        def fun(p):
            seen.append(float(p[0]))
            return np.array([p[0] - 2.0]), np.array([[1.0]])

        _fit_least_squares(fun, [[[2.0], [5.0]], [[99.0]]], UNBOUNDED, "exact fit", stop_cost=1e-18)
        assert 5.0 in seen and 99.0 not in seen
        seen.clear()
        _fit_least_squares(fun, [[[2.0], [5.0]], [[99.0]]], UNBOUNDED, "exact fit")
        assert 99.0 in seen

    def test_start_raising_value_error_is_skipped(self):
        def fun(p):
            if p[0] < 0:
                raise ValueError("infeasible start")
            return np.array([p[0] - 3.0, 0.5 * (p[0] - 3.0)]), np.array([[1.0], [0.5]])

        fit = _fit_least_squares(fun, [[[-1.0], [1.0]]], UNBOUNDED, "skip fit")
        assert fit.start == 1
        assert fit.x[0] == pytest.approx(3.0, abs=1e-9)
        with pytest.raises(FitFailureError, match="skip fit did not converge: no finite cost from 2 seeded starts"):
            _fit_least_squares(fun, [[[-1.0], [-2.0]]], UNBOUNDED, "skip fit")

    def test_infeasible_or_non_finite_start_is_skipped(self):
        fun = with_jacobian(lambda p: np.array([1.0 / p[0] - 0.5]), lambda p: np.array([[-1.0 / p[0] ** 2]]))
        with np.errstate(divide="ignore"):  # the start at 0 has an infinite residual
            fit = _fit_least_squares(fun, [[[-1.0], [0.0], [1.0]]], ([0.0], [np.inf]), "skip fit")
        assert fit.start == 2
        assert fit.x[0] == pytest.approx(2.0, rel=1e-12)

    def test_residual_raising_type_error_propagates(self):
        def fun(p):
            raise TypeError("not a value problem")

        with pytest.raises(TypeError, match="not a value problem"):
            _fit_least_squares(fun, [[[1.0], [2.0]]], UNBOUNDED, "broken fit")
