import math

import numpy as np
import pytest
from scipy.optimize import least_squares, lsq_linear

from dqubit import ramsey
from dqubit.dynamics import FitFailureError
from dqubit.ramsey import (
    NoiseModel,
    benchmark_suite,
    calibrate_noise,
    calibrate_residual_rate,
    fit_t2star,
    ramsey_scan,
)
from dqubit.ramsey import _profile


def delays_for(t2, n=16):
    return np.linspace(t2 / 20, 2.4 * t2, n)


class TestNoiseModel:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma_b_mg=-1.0)
        with pytest.raises(ValueError):
            NoiseModel(harmonics=((0.0, 1.0),))


class TestRamseyScan:
    def test_no_dephasing_channel_keeps_full_contrast(self):
        scan = ramsey_scan(0.0, NoiseModel(), delays_for(1e-4), shots=400, seed=0)
        assert (scan.contrast == 1.0).all()

    def test_insensitive_qubit_ignores_field_noise_exactly(self):
        # first-order phase variance is identically zero, not merely small
        loud = NoiseModel(sigma_b_mg=50.0, harmonics=((60.0, 30.0),))
        scan = ramsey_scan(0.0, loud, delays_for(1e-4), shots=300, seed=3)
        assert (scan.contrast == 1.0).all()

    def test_zero_delay_limit_has_full_contrast(self):
        noise = NoiseModel(sigma_b_mg=1.0)
        delays = np.linspace(1e-9, 3e-4, 12)
        scan = ramsey_scan(2.8, noise, delays, shots=4000, seed=1)
        assert scan.contrast[0] == pytest.approx(1.0, abs=0.05)

    def test_deterministic_per_seed(self):
        noise = NoiseModel(sigma_b_mg=0.8)
        a = ramsey_scan(2.8, noise, delays_for(1e-4), 300, seed=5)
        b = ramsey_scan(2.8, noise, delays_for(1e-4), 300, seed=5)
        assert np.array_equal(a.probabilities, b.probabilities)

    def test_shot_noise_spread_matches_binomial(self):
        noise = NoiseModel(sigma_b_mg=0.84)
        delays = delays_for(96e-6, n=8)
        shots = 400
        samples = np.array(
            [ramsey_scan(2.8, noise, delays, shots, seed=s).probabilities for s in range(150)]
        )
        spread = samples.std(axis=0, ddof=1)
        p = samples.mean(axis=0)
        # quasi-static noise adds variance beyond the binomial floor; the
        # combined spread stays within a modest factor of it
        binom = np.sqrt(p * (1 - p) / shots)
        ratio = spread / binom
        assert (ratio < 2.5).all() and (ratio > 0.6).all()

    def test_fringe_readout_oscillates(self):
        noise = NoiseModel()
        delays = np.linspace(1e-6, 200e-6, 40)
        scan = ramsey_scan(0.0, noise, delays, 2000, seed=9, readout="fringe",
                           fringe_detuning_hz=20e3)
        assert scan.probabilities.min() < 0.2
        assert scan.probabilities.max() > 0.8

    def test_harmonic_noise_dephases_sensitive_qubit(self):
        quiet = NoiseModel()
        hum = NoiseModel(harmonics=((60.0, 1.5),))
        delays = delays_for(150e-6)
        c_quiet = ramsey_scan(2.8, quiet, delays, 3000, seed=2).contrast
        c_hum = ramsey_scan(2.8, hum, delays, 3000, seed=2).contrast
        assert c_hum[-4:].mean() < c_quiet[-4:].mean() - 0.2

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ramsey_scan(2.8, NoiseModel(), delays_for(1e-4), 0, seed=0)
        with pytest.raises(ValueError):
            ramsey_scan(2.8, NoiseModel(), delays_for(1e-4), 10, seed=0, readout="parity")


class TestFitT2:
    def test_round_trip(self):
        sens = 2.8
        sigma = calibrate_noise(96e-6, sens)
        scan = ramsey_scan(sens, NoiseModel(sigma_b_mg=sigma), delays_for(96e-6), 10_000, seed=3)
        fit = fit_t2star(scan)
        assert fit.t2_s == pytest.approx(96e-6, rel=0.05)
        assert not fit.at_upper_bound and not fit.at_lower_bound

    def test_flat_contrast_pins_upper_bound(self):
        scan = ramsey_scan(0.0, NoiseModel(), delays_for(1e-4), 500, seed=4)
        fit = fit_t2star(scan)
        assert fit.at_upper_bound

    def test_dead_contrast_flags_lower_bound(self):
        noise = NoiseModel(residual_rate_per_s=5e6)  # kills contrast immediately
        scan = ramsey_scan(0.0, noise, delays_for(1e-4), 500, seed=5)
        fit = fit_t2star(scan)
        assert fit.at_lower_bound

    def test_non_finite_contrast_fails_loudly(self):
        scan = ramsey_scan(2.8, NoiseModel(sigma_b_mg=0.8), delays_for(1e-4), 500, seed=6)
        scan.contrast[3] = math.nan
        with pytest.raises(FitFailureError, match="coherence-time fit"):
            fit_t2star(scan)

    def test_too_few_delays_rejected(self):
        scan = ramsey_scan(0.0, NoiseModel(), delays_for(1e-4, n=4), 100, seed=0)
        with pytest.raises(ValueError):
            fit_t2star(scan)


def scipy_t2_reference(scan):
    """The fit by scipy's least_squares from three T2 seeds around the first 1/e crossing."""
    t, c = scan.delays_s, scan.contrast
    w = 1.0 / np.maximum(scan.errors, 1e-6)
    lo, hi = 0.05 * t[0], 50.0 * t[-1]

    def resid(p):
        return w * (p[0] * np.exp(-((t / p[1]) ** 2)) + p[2] - c)

    a0 = max(c[0], 0.1)
    below = np.nonzero(c < a0 / math.e)[0]
    t2_0 = min(max(t[below[0]] if below.size else t[-1], 2 * lo), hi / 2)
    bounds = ([0.0, lo, -0.5], [1.5, hi, 0.5])
    sols = [
        least_squares(resid, [a0, seed, 0.0], bounds=bounds, xtol=1e-14, ftol=1e-14)
        for seed in (t2_0, 0.5 * t2_0, 2.0 * t2_0)
    ]
    return min(sols, key=lambda sol: sol.cost)


SIGMA_96US = calibrate_noise(96e-6, 2.8)


@pytest.mark.parametrize(
    "amplitude, floor",
    # inside the box, then beyond each of its four edges
    [(0.8, 0.1), (-0.3, 0.2), (1.9, -0.6), (0.7, -0.8), (0.4, 0.9)],
)
def test_profile_matches_bounded_linear_least_squares(amplitude, floor):
    t = delays_for(100e-6)
    c = amplitude * np.exp(-((t / 80e-6) ** 2)) + floor + 0.01 * np.cos(7e4 * t)
    w = np.linspace(20.0, 60.0, t.size)
    t2 = np.geomspace(5e-6, 0.01, 9)
    cost, amps, floors = _profile(t, c, w, t2)
    for k, t2_k in enumerate(t2):
        design = w[:, None] * np.stack([np.exp(-((t / t2_k) ** 2)), np.ones_like(t)], axis=1)
        ref = lsq_linear(design, w * c, bounds=([0.0, -0.5], [1.5, 0.5]), tol=1e-15, lsmr_tol="auto")
        assert cost[k] <= ref.cost * (1 + 1e-10) + 1e-14
        assert np.allclose([amps[k], floors[k]], ref.x, rtol=0.0, atol=1e-6)


@pytest.mark.parametrize(
    "sens, noise, t2, shots, seed",
    [
        (2.8, NoiseModel(sigma_b_mg=SIGMA_96US), 96e-6, 10_000, 3),
        (2.24, NoiseModel(sigma_b_mg=SIGMA_96US), 120e-6, 2000, 5),
        (0.0, NoiseModel(residual_rate_per_s=1 / 350e-6), 350e-6, 10_000, 2),
        (2.8, NoiseModel(0.5, tuple((1000.0 * (k + 1), 0.3 / (k + 1)) for k in range(3))), 100e-6, 1000, 7),
        (2.8, NoiseModel(sigma_b_mg=SIGMA_96US), 96e-6, 200, 11),
        (2.8, NoiseModel(sigma_b_mg=SIGMA_96US, residual_rate_per_s=1500.0), 96e-6, 10_000, 0),
    ],
)
def test_t2_fit_matches_scipy_reference(sens, noise, t2, shots, seed):
    scan = ramsey_scan(sens, noise, delays_for(t2), shots, seed)
    fit = fit_t2star(scan)
    ref = scipy_t2_reference(scan)
    t, w = scan.delays_s, 1.0 / np.maximum(scan.errors, 1e-6)
    r = w * (fit.amplitude * np.exp(-((t / fit.t2_s) ** 2)) + fit.floor - scan.contrast)
    assert 0.5 * r @ r <= ref.cost * (1 + 1e-12)
    assert np.allclose([fit.amplitude, fit.t2_s], ref.x[:2], rtol=1e-4, atol=0.0)
    # the floor sits near zero: compare it on the scale of the amplitude
    assert abs(fit.floor - ref.x[2]) <= 1e-4 * fit.amplitude
    # covariance from the analytic Jacobian at the optimum, 13 degrees of freedom
    g = np.exp(-((t / fit.t2_s) ** 2))
    jac = w[:, None] * np.stack([g, fit.amplitude * g * 2 * t**2 / fit.t2_s**3, np.ones_like(t)], axis=1)
    expected = (r @ r) / (t.size - 3) * np.linalg.inv(jac.T @ jac)
    assert np.allclose(fit.covariance, expected, rtol=1e-9, atol=0.0)


class TestCalibration:
    def test_closed_form_round_trip(self):
        sigma = calibrate_noise(96e-6, 2.8)
        scan = ramsey_scan(2.8, NoiseModel(sigma_b_mg=sigma), delays_for(96e-6), 20_000, seed=8)
        assert fit_t2star(scan).t2_s == pytest.approx(96e-6, rel=0.05)

    def test_inverse_proportionality(self):
        assert calibrate_noise(1e-4, 5.6) == pytest.approx(calibrate_noise(1e-4, 2.8) / 2)

    def test_infinite_target_gives_zero(self):
        assert calibrate_noise(math.inf, 2.8) == 0.0

    def test_zero_sensitivity_rejected(self):
        with pytest.raises(ValueError):
            calibrate_noise(1e-4, 0.0)

    # (10_000, 2512001858): the plain secant oscillates there without converging
    @pytest.mark.parametrize("shots, seed", [(8000, 6), (10_000, 2512001858)])
    def test_residual_rate_generate_and_fit(self, shots, seed):
        rate, fit = calibrate_residual_rate(350e-6, shots=shots, seed=seed)
        scan = ramsey_scan(
            0.0, NoiseModel(residual_rate_per_s=rate), delays_for(350e-6), shots, seed=seed
        )
        assert fit_t2star(scan).t2_s == pytest.approx(350e-6, rel=0.005)


class TestSensitivityScaling:
    def test_t2_scales_inversely_with_sensitivity(self):
        sigma = 0.8
        fitted = []
        for sens in (1.0, 2.0, 4.0):
            expected = math.sqrt(2) / (2 * math.pi * sens * 1e3 * sigma)
            scan = ramsey_scan(
                sens, NoiseModel(sigma_b_mg=sigma), delays_for(expected), 10_000, seed=17
            )
            fitted.append(fit_t2star(scan).t2_s)
        assert fitted[0] / fitted[1] == pytest.approx(2.0, rel=0.1)
        assert fitted[1] / fitted[2] == pytest.approx(2.0, rel=0.1)


@pytest.fixture(scope="module")
def rows():
    return benchmark_suite(seed=11, shots=10_000)


class TestBenchmarkSuite:

    def test_row_labels_and_sensitivities(self, rows):
        assert [r.label for r in rows] == ["s-doublet", "d-edge-pair", "synthetic-d1d2"]
        assert rows[0].sensitivity_khz_per_mg == pytest.approx(2.8)
        assert rows[1].sensitivity_khz_per_mg == pytest.approx(2.24)
        assert rows[2].sensitivity_khz_per_mg == 0.0

    def test_coherence_ordering_and_ratio(self, rows):
        t2 = [r.t2_s for r in rows]
        assert t2[0] < t2[1] < t2[2]
        assert t2[2] / t2[0] >= 3.0

    def test_doublet_and_pair_match_inverse_sensitivity(self, rows):
        ratio = rows[1].t2_s / rows[0].t2_s
        assert ratio == pytest.approx(2.8 / 2.24, rel=0.08)

    def test_unconverged_field_calibration_raises(self):
        # 50 shots per delay leave the closed loop 2% short of the doublet target
        with pytest.raises(FitFailureError, match="field-noise calibration"):
            benchmark_suite(seed=0, shots=50, residual_rate_per_s=1500.0)

    def test_zero_residual_rate_unbounded_synthetic_row(self):
        rows = benchmark_suite(seed=12, shots=2000, residual_rate_per_s=0.0)
        synth = rows[2]
        assert synth.unbounded

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_no_scan_is_repeated(self, seed, monkeypatch):
        keys = []

        def recording_scan(sens, noise, delays, shots, scan_seed, **kw):
            # the field RMS does not enter a scan of the insensitive qubit
            sigma = noise.sigma_b_mg if sens != 0 else None
            keys.append((sens, scan_seed, tuple(delays), noise.residual_rate_per_s, sigma))
            return ramsey_scan(sens, noise, delays, shots, scan_seed, **kw)

        monkeypatch.setattr(ramsey, "ramsey_scan", recording_scan)
        benchmark_suite(seed=seed, shots=2000)
        assert len(set(keys)) == len(keys)
