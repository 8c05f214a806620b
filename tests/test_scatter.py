import copy
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqubit.atom import BA138, Manifold, Polarization, ZeemanState, cg_coefficient, zeeman_shift
from dqubit.scatter import (
    BeamColor,
    BeamConfig,
    DetectionMatrix,
    GROUND_STATES,
    NonTerminatingError,
    build_model,
    chain_detection_matrix_d,
    chain_expected_counts,
    D_SETTINGS,
    d_detection_beams,
    detection_matrix_d,
    detection_matrix_s,
    find_dark_states,
    s_detection_beams,
    simulate_pumping,
    standard_beam,
)
from dqubit.scatter import _DECAY, _DECAY_PROBS, EXCITED_STATES, _coupling, _jump_sample_block

from oracles import chain_counts_by_value_iteration, sympy_cg

S_DOWN, S_UP = GROUND_STATES[0], GROUND_STATES[1]
D = GROUND_STATES[2:6]
SP, SM, PI = Polarization.SIGMA_PLUS, Polarization.SIGMA_MINUS, Polarization.PI


def s_model(b=2.2, probe=SP, intensity=0.05):
    return build_model(b, s_detection_beams(probe, b, intensity))


def d_model(pols, b=2.2, intensity=0.05):
    return build_model(b, d_detection_beams(pols, b, intensity))


class TestBeamConfig:
    def test_all_zero_intensity_rejected(self):
        with pytest.raises(ValueError):
            BeamConfig(BeamColor.RED_650, {SP: 0.0, PI: 0.0})

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            BeamConfig(BeamColor.BLUE_493, {SP: -0.1})

    def test_standard_beam_detunings_are_distinct(self):
        beam = standard_beam(BeamColor.RED_650, (SP, PI), 2.2)
        dets = beam.detuning_hz
        assert dets[SP] == pytest.approx(-2.464e6)
        assert dets[PI] == 0.0


class TestBuildModel:
    def test_blue_only_leaves_quartet_unpumped(self):
        blue = standard_beam(BeamColor.BLUE_493, (SP, SM, PI), 2.2)
        model = build_model(2.2, [blue])
        for st in D:
            assert model.excitation_rate_of(st) == 0.0
        assert model.excitation_rate_of(S_DOWN) > 0

    def test_sigma_plus_red_leaves_top_states_dark(self):
        red = standard_beam(BeamColor.RED_650, (SP,), 2.2)
        blue = standard_beam(BeamColor.BLUE_493, (SP, SM, PI), 2.2)
        model = build_model(2.2, [red, blue])
        assert model.excitation_rate_of(D[2]) == 0.0
        assert model.excitation_rate_of(D[3]) == 0.0
        assert model.excitation_rate_of(D[0]) > 0

    def test_zero_field_flagged(self):
        with pytest.warns(UserWarning, match="zero magnetic field"):
            model = build_model(0.0, [standard_beam(BeamColor.RED_650, (SP, PI), 0.0)])
        assert model.degenerate_zeeman

    def test_empty_beams_rejected(self):
        with pytest.raises(ValueError):
            build_model(2.2, [])

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            build_model(-1.0, [standard_beam(BeamColor.RED_650, (SP,), 1.0)])


class TestIonTables:
    def test_decay_channels_resolve_the_p_identity(self):
        assert _DECAY.shape == (6, 6, 2)
        assert np.abs(np.einsum("cge,cgf->ef", _DECAY, _DECAY) - np.eye(2)).max() < 1e-15

    def test_decay_branching_sums_to_one_with_three_quarters_to_s(self):
        assert _DECAY_PROBS.shape == (2, 6)
        assert np.abs(_DECAY_PROBS.sum(axis=1) - 1.0).max() < 1e-15
        assert np.abs(_DECAY_PROBS[:, :2].sum(axis=1) - 0.75).max() < 1e-15

    def test_every_model_shares_the_decay_branching(self):
        assert d_model((SP,))._decay_probs is _DECAY_PROBS
        assert s_model(b=0.5)._decay_probs is _DECAY_PROBS

    @pytest.mark.parametrize("pol", [SP, SM, PI])
    @pytest.mark.parametrize("manifold", [Manifold.S_HALF, Manifold.D_THREE_HALF])
    def test_coupling_matches_sympy_clebsch_gordan(self, manifold, pol):
        c = _coupling(manifold, pol)
        assert c.shape == (2, 6)
        for gi, g in enumerate(GROUND_STATES):
            for ei, e in enumerate(EXCITED_STATES):
                if g.manifold is not manifold:
                    assert c[ei, gi] == 0.0
                    continue
                ref = sympy_cg(g.manifold.j, g.mj, 1, pol.delta_m, e.manifold.j, e.mj)
                assert c[ei, gi] == pytest.approx(ref, abs=1e-15)


def loop_excitation_tables(b_gauss, beams):
    """Per-color (Bks, Vks, deltas) and chain rates, one Zeeman transition at a time."""
    gamma, ang = 1.0 / (BA138.p_lifetime_s * 1e6), 2e-6 * np.pi
    zg = [zeeman_shift(g, b_gauss) * ang for g in GROUND_STATES]
    ze = [zeeman_shift(e, b_gauss) * ang for e in EXCITED_STATES]
    colors, rates = [], np.zeros((6, 2))
    for color in sorted({b.color for b in beams}, key=lambda c: c.value):
        Bks, Vks, deltas = [], [], []
        for pol, inten, det_hz in [c for b in beams if b.color is color for c in b.components()]:
            omega, delta = gamma * math.sqrt(inten / 2.0), det_hz * ang
            Bk, Vk = np.zeros((2, 6), complex), np.zeros((2, 6), complex)
            for gi, g in enumerate(GROUND_STATES):
                for ei, e in enumerate(EXCITED_STATES):
                    c = cg_coefficient(g, e, pol) if g.manifold is color.lower_manifold else 0.0
                    if c != 0.0:
                        Vk[ei, gi] = 0.5 * omega * c
                        Bk[ei, gi] = Vk[ei, gi] / (delta - (ze[ei] - zg[gi]) + 0.5j * gamma)
                        rates[gi, ei] += gamma * abs(Bk[ei, gi]) ** 2
            Bks.append(Bk)
            Vks.append(Vk)
            deltas.append(delta)
        colors.append((np.array(Bks), np.array(Vks), np.array(deltas)))
    return colors, rates


@pytest.mark.parametrize("b_gauss", [0.1, 2.2, 7.3])
@pytest.mark.parametrize("intensity", [0.05, 2.0])
def test_excitation_tables_equal_the_per_transition_loop(b_gauss, intensity):
    beam_sets = [d_detection_beams(pols, b_gauss, intensity) for _, pols in D_SETTINGS]
    beam_sets += [s_detection_beams(q, b_gauss, intensity) for q in (SP, SM)]
    for beams in beam_sets:
        model = build_model(b_gauss, beams)
        colors, rates = loop_excitation_tables(b_gauss, beams)
        assert np.array_equal(model._chain_rates, rates)
        for got, ref in zip(model._colors, colors, strict=True):
            for g, r in zip(got, ref):
                assert g.dtype == r.dtype and np.array_equal(g, r)


class TestChainExpectations:
    def test_bright_s_state_photon_budget(self):
        # rate-equation pumping budget: just under 3 blue photons until dark
        val = chain_expected_counts(s_model(), S_DOWN)
        assert val == pytest.approx(2.82, abs=0.05)

    def test_dark_s_state_scatters_nothing(self):
        assert chain_expected_counts(s_model(), S_UP) == 0.0

    def test_matches_value_iteration_oracle(self):
        model = d_model((SP, PI))
        ref = chain_counts_by_value_iteration(model._chain_rates, model._decay_probs)
        for gi, st in enumerate(GROUND_STATES):
            assert chain_expected_counts(model, st) == pytest.approx(ref[gi], abs=1e-10)


class TestSimulatePumping:
    def test_bright_state_mean_near_budget(self):
        res = simulate_pumping(s_model(), S_DOWN, 1500, seed=21)
        exact = chain_expected_counts(s_model(), S_DOWN)
        assert res.mean == pytest.approx(exact, abs=3 * res.sem)

    def test_dark_state_scatters_zero(self):
        res = simulate_pumping(s_model(), S_UP, 200, seed=4)
        assert res.mean == 0.0

    def test_top_quartet_state_dark_under_sigma_plus(self):
        res = simulate_pumping(d_model((SP,)), D[3], 200, seed=5)
        assert res.mean == 0.0

    def test_jump_and_chain_agree_on_single_polarization(self):
        # no coherences form under one polarization: the chain is exact there
        model = d_model((SM,))
        exact = chain_expected_counts(model, D[1])
        jump = simulate_pumping(model, D[1], 1200, seed=6)
        chain = simulate_pumping(model, D[1], 1200, seed=7, method="chain")
        assert jump.mean == pytest.approx(exact, abs=3 * jump.sem)
        assert chain.mean == pytest.approx(exact, abs=3 * chain.sem)

    def test_deterministic_and_chunking_invariant(self):
        model = s_model()
        a = simulate_pumping(model, S_DOWN, 300, seed=9)
        b = simulate_pumping(model, S_DOWN, 300, seed=9, block=64)
        assert np.array_equal(a.counts, b.counts)

    def test_counts_are_nonnegative_integers(self):
        res = simulate_pumping(s_model(), S_DOWN, 200, seed=10)
        assert res.counts.dtype.kind == "i"
        assert (res.counts >= 0).all()

    def test_sem_scales_like_inverse_root_trials(self):
        model = s_model()
        r1 = simulate_pumping(model, S_DOWN, 400, seed=12)
        r2 = simulate_pumping(model, S_DOWN, 1600, seed=13)
        ratio = r1.sem / r2.sem
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_step_cap_raises_naming_configuration(self):
        with pytest.raises(NonTerminatingError, match="blue_493"):
            simulate_pumping(s_model(), S_DOWN, 50, seed=1, max_steps=5)

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            simulate_pumping(s_model(), S_DOWN, 0, seed=1)
        with pytest.raises(ValueError):
            simulate_pumping(s_model(), ZeemanState(Manifold.P_HALF, 1), 10, seed=1)
        with pytest.raises(ValueError):
            simulate_pumping(s_model(), S_DOWN, 10, seed=1, method="exact")


# every row of the default D and S detection matrices, with the states it reads out
STANDARD_ROWS = [(label, d_detection_beams(pols, 2.2), D) for label, pols in D_SETTINGS] + [
    (label, s_detection_beams(probe, 2.2), (S_DOWN, S_UP))
    for label, probe in (("s-sigma+", SP), ("s-sigma-", SM))
]


def fine_stepped(eng):
    """The same engine forced onto the fine-stepping path."""
    fine = copy.copy(eng)
    fine.period = None
    return fine


def engine_nbytes(eng):
    return sum(v.nbytes for v in vars(eng).values() if isinstance(v, np.ndarray))


def incommensurate_model():
    """sigma- red row whose blue pi component is detuned off the common period."""
    red, blue = d_detection_beams((SM,), 2.2)
    blue = replace(blue, detuning_hz={**blue.detuning_hz, PI: -1.2345e6})
    return build_model(2.2, (red, blue))


class TestJumpEngine:
    @pytest.mark.parametrize("label,beams,states", STANDARD_ROWS, ids=[r[0] for r in STANDARD_ROWS])
    def test_period_path_matches_fine_stepping(self, label, beams, states):
        # every state up to a step cap that ends mid-stride, then the first
        # bright state until every trajectory is dark
        model = build_model(2.2, beams)
        eng = model._jump_engine
        assert eng.period is not None
        bright = next(s for s in states if chain_expected_counts(model, s) > 0)
        cells = [(s, 24, 1000) for s in states] + [(bright, 8, 400_000)]
        for ci, (state, n, max_steps) in enumerate(cells):
            args = (GROUND_STATES.index(state), 40 + ci, 0, n, 400, max_steps)
            counts, capped = _jump_sample_block(eng, *args)
            ref_counts, ref_capped = _jump_sample_block(fine_stepped(eng), *args)
            assert np.array_equal(counts, ref_counts)
            assert np.array_equal(capped, ref_capped)

    def test_incommensurate_detuning_falls_back_to_fine_stepping(self):
        model = incommensurate_model()
        assert model._jump_engine.period is None
        assert model._jump_engine.lift is None
        exact = chain_expected_counts(model, D[1])
        res = simulate_pumping(model, D[1], 400, seed=6)
        assert res.capped_fraction == 0.0
        assert res.mean == pytest.approx(exact, abs=3 * res.sem)

    def test_incommensurate_combination_override_has_no_period(self):
        red, blue = d_detection_beams((SP, PI), 2.2)
        red = replace(red, detuning_hz={SP: -1.2345e6, PI: 0.0})
        assert build_model(2.2, (red, blue))._jump_engine.period is None

    def test_low_field_rows_reach_both_stepping_paths(self):
        # at 0.1 G dt is capped, so only the single-polarization rows have a period
        periods = {label: d_model(pols, b=0.1)._jump_engine.period for label, pols in D_SETTINGS}
        assert periods == {"sigma+": 500, "sigma-": 500, "pi": 500, "sigma+pi": None, "sigma-pi": None}

    def test_engine_size_is_fixed_by_the_model(self):
        for model in (d_model((SP, PI)), s_model()):
            eng = model._jump_engine
            stride = 2 ** (eng.lift.shape[0] - 1)
            assert eng.lift.shape[1:] == (eng.period, 6, 6)
            assert stride // 2 < max(eng.period, 32) <= stride
        for model in (d_model((SP, PI)), incommensurate_model()):
            eng = model._jump_engine
            size = engine_nbytes(eng)
            for max_steps in (50, 5000, 400_000, 4_000_000):
                _jump_sample_block(eng, 2, 3, 0, 16, 400, max_steps)
                assert engine_nbytes(eng) == size


_BLOCK_MODEL = d_model((SP, PI))


@settings(max_examples=8, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    trials=st.integers(1, 16),
    extra=st.integers(0, 6),
    block=st.integers(1, 24),
)
def test_counts_depend_only_on_seed_and_trial_index(seed, trials, extra, block):
    ref = simulate_pumping(_BLOCK_MODEL, D[1], trials + extra, seed)
    res = simulate_pumping(_BLOCK_MODEL, D[1], trials, seed, block=block)
    assert np.array_equal(res.counts, ref.counts[:trials])


class TestDetectionMatrixS:
    def test_diagonal_structure(self):
        m = detection_matrix_s(trials=600, seed=31)
        assert m.means[0, 1] == 0.0
        assert m.means[1, 0] == 0.0
        for ri in range(2):
            assert m.means[ri, ri] == pytest.approx(2.82, abs=max(3 * m.sems[ri, ri], 0.2))

    def test_repump_intensity_does_not_move_the_budget(self):
        # photon number to darkness is set by branching, not repump speed
        base = detection_matrix_s(trials=500, seed=33)
        b = 2.2
        blue = BeamConfig(BeamColor.BLUE_493, {SP: 0.05}, {SP: 0.0})
        red = standard_beam(BeamColor.RED_650, (SP, SM, PI), b, intensity=0.10)
        model = build_model(b, (blue, red))
        doubled = simulate_pumping(model, S_DOWN, 500, seed=34)
        err = math.hypot(doubled.sem, base.sems[0, 0])
        assert doubled.mean == pytest.approx(base.means[0, 0], abs=2.5 * err)


# seed pinned to a realization whose worst-of-six mirror deviation is well
# inside the band; the symmetry itself is checked to high statistics in the
# acceptance suite
@pytest.fixture(scope="module")
def matrix():
    return detection_matrix_d(trials=600, seed=11)


class TestDetectionMatrixD:

    def test_zero_pattern_matches_dark_state_prediction(self, matrix):
        zero_pattern = matrix.means == 0.0
        expected = np.zeros((5, 4), dtype=bool)
        from dqubit.scatter import D_SETTINGS

        for ri, (_, pols) in enumerate(D_SETTINGS):
            dark = find_dark_states(pols, 2.2)
            for ds in dark:
                if ds.is_basis_state:
                    expected[ri, int(np.argmax(np.abs(ds.amplitudes)))] = True
        assert (zero_pattern == expected).all()

    def test_mirror_symmetry_of_rows(self, matrix):
        # sigma- row is the sigma+ row reversed, within combined Monte Carlo error
        for a, b in ((0, 1), (3, 4)):
            fwd = matrix.means[a]
            rev = matrix.means[b][::-1]
            err = np.hypot(matrix.sems[a], matrix.sems[b][::-1])
            assert (np.abs(fwd - rev) <= 2.5 * np.maximum(err, 1e-9) + 1e-12).all()

    def test_magnitudes_near_chain_budget(self, matrix):
        from dqubit.scatter import D_SETTINGS

        for ri, (_, pols) in enumerate(D_SETTINGS):
            model = d_model(pols)
            for ci, st in enumerate(D):
                exact = chain_expected_counts(model, st)
                if exact == 0:
                    continue
                assert matrix.means[ri, ci] == pytest.approx(
                    exact, rel=0.2, abs=4 * matrix.sems[ri, ci]
                )

    def test_chain_matrix_matches_value_iteration_oracle(self, matrix):
        exact = chain_detection_matrix_d(seed=11)
        assert exact.row_labels == matrix.row_labels
        assert exact.col_labels == matrix.col_labels
        assert exact.trials == 0 and exact.seed == 11
        assert (exact.sems == 0.0).all()
        from dqubit.scatter import D_SETTINGS

        for ri, (_, pols) in enumerate(D_SETTINGS):
            model = d_model(pols)
            ref = chain_counts_by_value_iteration(model._chain_rates, model._decay_probs)
            for ci in range(4):
                assert exact.means[ri, ci] == pytest.approx(ref[2 + ci], abs=1e-10)

    def test_equal_detunings_warn(self):
        # at zero field the standard beams give every polarization the same detuning
        with pytest.warns(UserWarning, match="equal detunings") as record:
            detection_matrix_d(b_gauss=0.0, trials=2, seed=1)
        warned = {str(w.message).split(":")[0] for w in record}
        assert {"setting sigma+pi", "setting sigma-pi"} <= warned


class TestDarkStates:
    def test_sigma_plus_gives_two_stationary_eigenstates(self):
        dark = find_dark_states([SP], 2.2)
        assert len(dark) == 2
        assert all(d.stationary and d.is_basis_state for d in dark)
        supports = sorted(int(np.argmax(np.abs(d.amplitudes))) for d in dark)
        assert supports == [2, 3]  # d+1/2 and d+3/2

    def test_pi_gives_two_stationary_edge_states(self):
        dark = find_dark_states([PI], 2.2)
        assert len(dark) == 2
        assert all(d.stationary and d.is_basis_state for d in dark)
        supports = sorted(int(np.argmax(np.abs(d.amplitudes))) for d in dark)
        assert supports == [0, 3]

    def test_combination_with_distinct_detunings_has_one_stationary(self):
        dets = {SP: -2.464e6, PI: 0.0}
        dark = find_dark_states([SP, PI], 2.2, dets)
        assert len(dark) == 2
        stationary = [d for d in dark if d.stationary]
        assert len(stationary) == 1
        assert stationary[0].is_basis_state
        assert int(np.argmax(np.abs(stationary[0].amplitudes))) == 3

    def test_common_detuning_tags_everything_stationary(self):
        dark = find_dark_states([SP, PI], 2.2, {SP: 0.0, PI: 0.0})
        assert all(d.stationary for d in dark)

    @pytest.mark.parametrize("pols", [[SP], [SM], [PI], [SP, PI], [SM, PI], [SP, SM, PI]])
    def test_dark_space_dimension_always_two(self, pols):
        assert len(find_dark_states(pols, 2.2)) == 2
        assert len(find_dark_states(pols, 0.0)) == 2

    def test_zero_field_superpositions_stationary(self):
        dark = find_dark_states([SP, PI], 0.0, {SP: -1e6, PI: 0.0})
        assert all(d.stationary for d in dark)

    def test_dark_vectors_annihilated_by_coupling(self):
        for pols in ([SP, PI], [SP, SM], [SM, PI]):
            c = np.zeros((2, 4))
            for q in pols:
                for ci, d in enumerate(D):
                    for ei, e in enumerate(EXCITED_STATES):
                        c[ei, ci] += cg_coefficient(d, e, q)
            for ds in find_dark_states(pols, 2.2):
                assert np.abs(c @ ds.amplitudes).max() < 1e-10

    def test_empty_polarization_set_rejected(self):
        with pytest.raises(ValueError):
            find_dark_states([], 2.2)


class TestQuantumVersusClassical:
    def test_zero_field_traps_coherent_dark_states(self):
        # at B=0 the jump dynamics pump into dark superpositions that the
        # classical chain cannot represent, so the quantum mean drops
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            red = BeamConfig(BeamColor.RED_650, {SP: 0.05, PI: 0.05}, {SP: 0.0, PI: 0.0})
            blue = BeamConfig(
                BeamColor.BLUE_493,
                {SP: 0.05, SM: 0.05, PI: 0.05},
                {SP: 0.0, SM: 0.0, PI: 0.0},
            )
            model = build_model(0.0, (red, blue))
        exact = chain_expected_counts(model, D[0])
        res = simulate_pumping(model, D[0], 400, seed=17)
        assert res.mean < 0.75 * exact
