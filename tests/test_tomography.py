import numpy as np
import pytest

from dqubit.tomography import (
    CountsVector,
    SingularSystemError,
    UndefinedStateError,
    solve_constrained,
    solve_direct,
    solve_s,
    synth_counts,
)

from oracles import simplex_grid_search


def noiseless_counts(m, d, efficiency, background, scaled=True):
    d = np.asarray(d, dtype=float)
    mu = efficiency * (m @ d + background) if scaled else efficiency * (m @ d) + background
    return CountsVector(values=mu, trials=10**9)


class TestSolveS:
    def test_pure_bright_under_sigma_plus(self):
        assert solve_s(2.8, 0.0) == (0.0, 1.0)

    def test_symmetric_counts(self):
        assert solve_s(1.4, 1.4) == (0.5, 0.5)

    def test_mirror(self):
        assert solve_s(0.0, 2.8) == (1.0, 0.0)

    def test_zero_counts_rejected(self):
        with pytest.raises(UndefinedStateError):
            solve_s(0.0, 0.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            solve_s(-1.0, 2.0)


class TestSynthCounts:
    def test_vertex_reproduces_matrix_column(self, reference_matrix):
        c = synth_counts([1, 0, 0, 0], 1.0, 0.0, reference_matrix, 200_000, seed=3)
        assert np.allclose(c.values, reference_matrix[:, 0], atol=0.05)

    def test_dark_column_gives_only_background(self, reference_matrix):
        c = synth_counts([0, 0, 0, 1], 0.5, 0.2, reference_matrix, 100_000, seed=4)
        assert c.values[0] == pytest.approx(0.5 * 0.2, abs=0.01)  # sigma+ row is dark

    def test_error_shrinks_with_trials(self, reference_matrix):
        d = [0.3, 0.3, 0.2, 0.2]
        mu = 0.8 * (reference_matrix @ d + 0.1)
        errs = []
        for trials in (400, 6400):
            devs = []
            for seed in range(40):
                c = synth_counts(d, 0.8, 0.1, reference_matrix, trials, seed=seed)
                devs.append(np.linalg.norm(c.values - mu))
            errs.append(np.mean(devs))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.35)

    def test_off_simplex_rejected(self, reference_matrix):
        with pytest.raises(ValueError):
            synth_counts([0.5, 0.5, 0.5, -0.5], 1.0, 0.0, reference_matrix, 10, seed=0)
        with pytest.raises(ValueError):
            synth_counts([0.3, 0.3, 0.2, 0.1], 1.0, 0.0, reference_matrix, 10, seed=0)

    def test_invalid_efficiency_background(self, reference_matrix):
        with pytest.raises(ValueError):
            synth_counts([1, 0, 0, 0], 0.0, 0.0, reference_matrix, 10, seed=0)
        with pytest.raises(ValueError):
            synth_counts([1, 0, 0, 0], 0.5, -0.1, reference_matrix, 10, seed=0)


class TestSolveDirect:
    def test_exact_recovery_uniform(self, reference_matrix):
        c = noiseless_counts(reference_matrix, [0.25] * 4, 0.8, 0.1)
        est = solve_direct(c, reference_matrix)
        assert np.allclose(est.populations, 0.25, atol=1e-9)
        assert est.efficiency == pytest.approx(0.8, abs=1e-9)
        assert est.background == pytest.approx(0.1, abs=1e-9)
        assert est.out_of_bounds == ()
        assert est.populations.sum() == pytest.approx(1.0, abs=1e-12)

    def test_exact_recovery_vertex(self, reference_matrix):
        c = noiseless_counts(reference_matrix, [1, 0, 0, 0], 1.0, 0.0)
        est = solve_direct(c, reference_matrix)
        assert np.allclose(est.populations, [1, 0, 0, 0], atol=1e-9)

    def test_noisy_vertex_can_leave_bounds_and_is_flagged(self, reference_matrix):
        # systematically perturbed counts push one population negative
        c = noiseless_counts(reference_matrix, [0.97, 0.03, 0, 0], 1.0, 0.05)
        vals = c.values.copy()
        vals[2] = max(vals[2] - 0.5, 0.0)
        c = CountsVector(values=vals, trials=2000)
        est = solve_direct(c, reference_matrix)
        assert est.out_of_bounds
        assert (est.populations < -1e-9).any()

    def test_poisson_low_trials_flags_some_seeds(self, reference_matrix):
        flagged = 0
        for seed in range(30):
            c = synth_counts([1, 0, 0, 0], 1.0, 0.02, reference_matrix, 40, seed=seed)
            est = solve_direct(c, reference_matrix)
            flagged += bool(est.out_of_bounds)
        assert flagged > 0

    def test_singular_matrix_names_rows(self):
        m = np.array(
            [
                [6.6, 5.4, 0.0, 0.0],
                [6.6, 5.4, 0.0, 0.0],  # duplicated row: rank deficient
                [0.0, 6.0, 6.0, 0.0],
                [13.3, 12.6, 11.4, 0.0],
                [0.0, 11.4, 12.6, 13.3],
            ]
        )
        c = CountsVector(values=np.array([1.0, 1.0, 1.0, 1.0, 1.0]), trials=10)
        with pytest.raises(SingularSystemError) as ei:
            solve_direct(c, m)
        assert 0 in ei.value.deficient_rows and 1 in ei.value.deficient_rows

    def test_covariance_shape(self, reference_matrix):
        c = noiseless_counts(reference_matrix, [0.25] * 4, 0.8, 0.1)
        est = solve_direct(c, reference_matrix)
        assert est.covariance.shape == (6, 6)


class TestSolveConstrained:
    def test_matches_direct_on_consistent_data(self, reference_matrix):
        c = noiseless_counts(reference_matrix, [0.1, 0.2, 0.3, 0.4], 0.7, 0.25)
        direct = solve_direct(c, reference_matrix)
        constrained = solve_constrained(c, reference_matrix, efficiency=0.7)
        assert np.abs(direct.populations - constrained.populations).max() < 1e-9
        assert abs(direct.background - constrained.background) < 1e-9

    def test_boundary_solution_stays_on_simplex(self, reference_matrix):
        c = noiseless_counts(reference_matrix, [0.97, 0.03, 0, 0], 1.0, 0.05)
        vals = c.values.copy()
        vals[2] = max(vals[2] - 0.5, 0.0)
        c = CountsVector(values=vals, trials=2000)
        est = solve_constrained(c, reference_matrix, efficiency=1.0)
        assert est.populations.min() >= 0.0
        assert est.populations.sum() == pytest.approx(1.0, abs=1e-9)
        assert est.active_constraints  # at least one bound pinned

    def test_boundary_solution_matches_grid_search(self, reference_matrix):
        c = noiseless_counts(reference_matrix, [0.97, 0.03, 0, 0], 1.0, 0.05)
        vals = c.values.copy()
        vals[2] = max(vals[2] - 0.5, 0.0)
        c = CountsVector(values=vals, trials=2000)
        est = solve_constrained(c, reference_matrix, efficiency=1.0)
        w = 1.0 / c.mean_variances()
        _, grid_obj = simplex_grid_search(c.values, reference_matrix, 1.0, w)
        assert est.residual_norm**2 <= grid_obj + 1e-9 * (1 + grid_obj)

    @pytest.mark.parametrize("seed", range(10))
    def test_oracle_equivalence_on_noisy_instances(self, reference_matrix, seed):
        rng = np.random.default_rng(1000 + seed)
        d = rng.dirichlet([1.0] * 4)
        c = synth_counts(d, 0.8, 0.1, reference_matrix, 500, seed=seed)
        est = solve_constrained(c, reference_matrix, efficiency=0.8)
        w = 1.0 / c.mean_variances()
        _, grid_obj = simplex_grid_search(c.values, reference_matrix, 0.8, w)
        solver_obj = est.residual_norm**2
        assert solver_obj <= grid_obj + 1e-9 * (1 + grid_obj)
        # grid can beat the solver only by less than its own resolution bound
        a = np.zeros((5, 5))
        a[:, :4] = 0.8 * reference_matrix
        a[:, 4] = 0.8
        aw = np.sqrt(w)[:, None] * a
        z = np.concatenate([est.populations, [est.background]])
        grad = 2 * aw.T @ (aw @ z - np.sqrt(w) * c.values)
        lam = np.linalg.eigvalsh(2 * aw.T @ aw).max()
        step = 1e-3
        bound = np.abs(grad).sum() * 2 * step + lam * (4 * step) ** 2
        assert grid_obj - solver_obj <= bound

    def test_round_trip_recovery_within_errors(self, reference_matrix):
        d_true = np.array([0.4, 0.1, 0.3, 0.2])
        c = synth_counts(d_true, 0.8, 0.1, reference_matrix, 10_000, seed=12, keep_raw=True)
        est = solve_constrained(c, reference_matrix, efficiency=0.8)
        sigma = np.sqrt(np.clip(np.diag(est.covariance), 1e-12, None))
        rms = np.sqrt(np.mean((est.populations - d_true) ** 2))
        assert rms < 3 * np.sqrt(np.mean(sigma**2))

    def test_estimate_error_shrinks_with_trials(self, reference_matrix):
        d_true = np.array([0.4, 0.1, 0.3, 0.2])
        rms = []
        for trials in (250, 4000):
            devs = []
            for seed in range(25):
                c = synth_counts(d_true, 0.8, 0.1, reference_matrix, trials, seed=seed)
                est = solve_constrained(c, reference_matrix, efficiency=0.8)
                devs.append(np.mean((est.populations - d_true) ** 2))
            rms.append(np.sqrt(np.mean(devs)))
        assert rms[0] / rms[1] == pytest.approx(4.0, rel=0.4)

    def test_reported_covariance_tracks_empirical_scatter(self, reference_matrix):
        d_true = np.array([0.35, 0.25, 0.25, 0.15])
        ests, covs = [], []
        for seed in range(120):
            c = synth_counts(d_true, 0.8, 0.1, reference_matrix, 2500, seed=seed, keep_raw=True)
            est = solve_constrained(c, reference_matrix, efficiency=0.8)
            ests.append(est.populations)
            covs.append(np.diag(est.covariance))
        emp = np.var(np.array(ests), axis=0, ddof=1)
        rep = np.mean(np.array(covs), axis=0)
        ratio = emp / rep
        assert (ratio > 0.5).all() and (ratio < 2.0).all()

    def test_negative_counts_rejected(self, reference_matrix):
        with pytest.raises(ValueError):
            solve_constrained(
                CountsVector(values=np.array([1.0, 1, 1, 1, 1]), trials=5),
                reference_matrix,
                efficiency=1.5,
            )
        with pytest.raises(ValueError):
            CountsVector(values=np.array([-1.0, 1, 1, 1, 1]), trials=5)

    def test_unscaled_background_convention_round_trips(self, reference_matrix):
        d_true = [0.2, 0.3, 0.1, 0.4]
        c = noiseless_counts(reference_matrix, d_true, 0.6, 0.3, scaled=False)
        est = solve_constrained(c, reference_matrix, 0.6, scaled_background=False)
        assert np.allclose(est.populations, d_true, atol=1e-9)
        assert est.background == pytest.approx(0.3, abs=1e-9)
        d2 = solve_direct(c, reference_matrix, scaled_background=False)
        assert np.allclose(d2.populations, d_true, atol=1e-9)
        assert d2.background == pytest.approx(0.3, abs=1e-9)
