import functools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqubit.atom import (
    BA138,
    Manifold,
    Polarization,
    ZeemanState,
    cg_coefficient,
    zeeman_shift,
    zeeman_splitting,
)
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
from dqubit.scatter import (
    _CHANNEL_WEIGHTS,
    _DECAY,
    _DECAY_PROBS,
    _MAX_PERIOD,
    EXCITED_STATES,
    _Trajectories,
    _blocks,
    _chain_counts,
    _count_law,
    _coupling,
    _cumulative,
    _jump_counts,
    _norms,
)
from dqubit import scatter
from dqubit.rng import substream, uniform_table

from oracles import chain_count_law_by_steps, chain_counts_by_value_iteration, sympy_cg

S_DOWN, S_UP = GROUND_STATES[0], GROUND_STATES[1]
D = GROUND_STATES[2:6]
SP, SM, PI = Polarization.SIGMA_PLUS, Polarization.SIGMA_MINUS, Polarization.PI


def s_model(b=2.2, probe=SP, intensity=0.05):
    return build_model(b, s_detection_beams(probe, b, intensity))


def d_model(pols, b=2.2, intensity=0.05):
    return build_model(b, d_detection_beams(pols, b, intensity))


def excitation_rate(model, state):
    """Total excitation rate out of a basis state, 1/us."""
    return model._chain_rates[GROUND_STATES.index(state)].sum()


def is_basis_state(dark):
    return np.count_nonzero(np.abs(dark.amplitudes) > 1e-12) == 1


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
            assert excitation_rate(model, st) == 0.0
        assert excitation_rate(model, S_DOWN) > 0

    def test_sigma_plus_red_leaves_top_states_dark(self):
        red = standard_beam(BeamColor.RED_650, (SP,), 2.2)
        blue = standard_beam(BeamColor.BLUE_493, (SP, SM, PI), 2.2)
        model = build_model(2.2, [red, blue])
        assert excitation_rate(model, D[2]) == 0.0
        assert excitation_rate(model, D[3]) == 0.0
        assert excitation_rate(model, D[0]) > 0

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

    @pytest.mark.parametrize("b_gauss", [1e302, 1e305])
    def test_overflowing_shifts_name_the_field(self, b_gauss):
        # the S splitting (2.8 MHz/G) overflows a float above about 6e301 G
        with pytest.raises(ValueError, match="b_gauss"):
            build_model(b_gauss, d_detection_beams((SP,), b_gauss))


class TestIonTables:
    def test_decay_channels_resolve_the_p_identity(self):
        assert _DECAY.shape == (6, 6, 2)
        assert np.abs(np.einsum("cge,cgf->ef", _DECAY, _DECAY) - np.eye(2)).max() < 1e-15

    def test_decay_branching_sums_to_one_with_three_quarters_to_s(self):
        assert _DECAY_PROBS.shape == (2, 6)
        assert np.abs(_DECAY_PROBS.sum(axis=1) - 1.0).max() < 1e-15
        assert np.abs(_DECAY_PROBS[:, :2].sum(axis=1) - 0.75).max() < 1e-15

    def test_channel_rates_need_no_interference_terms(self):
        # each (channel, ground) pair is reached from one excited level, so a
        # channel's rate is sum_e |amplitude_e|^2 times a fixed weight
        assert np.count_nonzero(_DECAY, axis=2).max() == 1
        rng = np.random.default_rng(3)
        amp = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        posts = np.einsum("ne,cge->ncg", amp, _DECAY)
        rates = (np.abs(posts) ** 2).sum(axis=2)
        assert np.allclose((np.abs(amp) ** 2) @ _CHANNEL_WEIGHTS, rates, rtol=1e-13)

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
        exact = chain_expected_counts(model, D[2])
        jump = simulate_pumping(model, D[2], 1200, seed=6)
        chain = simulate_pumping(model, D[2], 1200, seed=7, method="chain")
        assert jump.mean == pytest.approx(exact, abs=3 * jump.sem)
        assert chain.mean == pytest.approx(exact, abs=3 * chain.sem)

    def test_deterministic_and_chunking_invariant(self, monkeypatch):
        model = s_model()
        a = simulate_pumping(model, S_DOWN, 300, seed=9)
        monkeypatch.setattr(scatter, "_BLOCK", 64)
        b = simulate_pumping(model, S_DOWN, 300, seed=9)
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

    def test_step_cap_raises_naming_configuration(self, monkeypatch):
        monkeypatch.setattr(scatter, "_MAX_STEPS", 5)
        with pytest.raises(NonTerminatingError, match="blue_493"):
            simulate_pumping(s_model(), S_DOWN, 50, seed=1)

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            simulate_pumping(s_model(), S_DOWN, 0, seed=1)
        with pytest.raises(ValueError):
            simulate_pumping(s_model(), ZeemanState(Manifold.P_HALF, 1), 10, seed=1)
        with pytest.raises(ValueError):
            simulate_pumping(s_model(), S_DOWN, 10, seed=1, method="exact")


def standard_rows(b):
    """Every row of the default D and S detection matrices at field b, with the states it reads out."""
    return [(label, d_detection_beams(pols, b), D) for label, pols in D_SETTINGS] + [
        (label, s_detection_beams(probe, b), (S_DOWN, S_UP))
        for label, probe in (("s-sigma+", SP), ("s-sigma-", SM))
    ]


STANDARD_ROWS = [(b, *row) for b in (2.2, 0.1) for row in standard_rows(b)]


def lockstep(eng, initial_idx, seed, first_trial, n):
    """Reference sampler: every row takes one step propagator at a time.

    Jumps, the jump cap and dark checks use the engine's ``_Trajectories``
    bookkeeping; the dark check runs every 16 steps and at the step cap
    ``scatter._MAX_STEPS``.
    """
    max_steps = scatter._MAX_STEPS
    run = _Trajectories([(eng, initial_idx, seed, first_trial, n)])
    props = eng.propagators()
    rows, psi, step = np.arange(n), run.psi, 0
    while rows.size and step < max_steps:
        psi = psi @ props[step % eng.period].T
        step += 1
        hit = np.nonzero(_norms(psi) <= run.thresh[rows])[0]
        if hit.size:
            psi[hit] = run.jump(rows[hit], psi[hit], np.full(hit.size, step))
        if step % 16 == 0 or step == max_steps:
            run.dark(rows, psi)
        keep = ~run.done[rows]
        rows, psi = rows[keep], psi[keep]
    run.capped[rows] = True
    return run.counts, run.capped


def engine_nbytes(eng):
    return sum(v.nbytes for v in vars(eng).values() if isinstance(v, np.ndarray))


def incommensurate_model():
    """sigma- red row whose blue pi component is detuned off the common period."""
    red, blue = d_detection_beams((SM,), 2.2)
    blue = replace(blue, detuning_hz={**blue.detuning_hz, PI: -1.2345e6})
    return build_model(2.2, (red, blue))


def assert_chain_sampling_is_exact(model, state):
    exact = chain_expected_counts(model, state)
    res = simulate_pumping(model, state, 400, seed=6, method="chain")
    assert res.capped_fraction == 0.0
    assert res.mean == pytest.approx(exact, abs=4 * res.sem)


# each case steps its rows' cells in shared blocks; the last case mixes rows of
# periods 56 and 280
BLOCK_CASES = [(b, label, [(beams, states)]) for b, label, beams, states in STANDARD_ROWS] + [
    (2.2, "sigma+|sigma+pi", [(d_detection_beams(pols, 2.2), D) for pols in ((SP,), (SP, PI))])
]


class TestJumpEngine:
    @pytest.mark.parametrize(
        "b,label,rows", BLOCK_CASES, ids=[f"{c[0]}G-{c[1]}" for c in BLOCK_CASES]
    )
    def test_strided_steps_match_lockstep_reference(self, monkeypatch, b, label, rows):
        # every state up to a step cap that ends mid-stride, then each row's
        # first bright state until every trajectory is dark
        models = [build_model(b, beams) for beams, _ in rows]
        bright = [
            next(s for s in states if chain_expected_counts(m, s) > 0)
            for m, (_, states) in zip(models, rows)
        ]
        groups = [
            ([(m, s) for m, (_, states) in zip(models, rows) for s in states], 24, 1000),
            (list(zip(models, bright)), 8, 400_000),
        ]
        seed = 40
        for group, n, max_steps in groups:
            cells = [(m, GROUND_STATES.index(s), seed + i) for i, (m, s) in enumerate(group)]
            seed += len(cells)
            monkeypatch.setattr(scatter, "_MAX_STEPS", max_steps)
            counts, capped = _jump_counts(cells, n)
            for (m, idx, cell_seed), got, got_capped in zip(cells, counts, capped):
                ref_counts, ref_capped = lockstep(m._jump_engine, idx, cell_seed, 0, n)
                assert np.array_equal(got, ref_counts)
                assert np.array_equal(got_capped, ref_capped)

    def test_jump_cap_matches_lockstep_reference_and_raises(self, monkeypatch):
        # a bright sigma+pi trajectory makes about 12 jumps before it is dark:
        # a cap of 3 stops most of them
        monkeypatch.setattr(scatter, "_MAX_JUMPS", 3)
        model, trials = d_model((SP, PI)), 50
        cells = [(model, 2 + ci, 60 + ci) for ci in range(4)]
        counts, capped = _jump_counts(cells, trials)
        assert capped.any() and counts.max() <= 3
        for (m, idx, seed), got, got_capped in zip(cells, counts, capped):
            ref_counts, ref_capped = lockstep(m._jump_engine, idx, seed, 0, trials)
            assert np.array_equal(got, ref_counts)
            assert np.array_equal(got_capped, ref_capped)
        with pytest.raises(NonTerminatingError, match="red_650"):
            simulate_pumping(model, D[0], trials, seed=60)

    def test_incommensurate_detuning_raises_under_jump(self):
        model = incommensurate_model()
        with pytest.raises(ValueError, match="share no period"):
            simulate_pumping(model, D[1], 400, seed=6)
        assert_chain_sampling_is_exact(model, D[2])

    def test_incommensurate_combination_override_raises_under_jump(self):
        red, blue = d_detection_beams((SP, PI), 2.2)
        red = replace(red, detuning_hz={SP: -1.2345e6, PI: 0.0})
        model = build_model(2.2, (red, blue))
        with pytest.raises(ValueError, match="share no period"):
            model._jump_engine
        assert_chain_sampling_is_exact(model, D[0])

    def test_low_field_periods_are_exact(self):
        # dt is capped at 0.05 us, so each period takes the next whole step count
        rows = {label: build_model(0.1, beams)._jump_engine for label, beams, _ in standard_rows(0.1)}
        assert {label: eng.period for label, eng in rows.items()} == {
            "sigma+": 72, "sigma-": 72, "pi": 72, "sigma+pi": 358, "sigma-pi": 358,
            "s-sigma+": 179, "s-sigma-": 179,
        }
        # one S splitting cycle, two D cycles and one D cycle (microseconds)
        cycle_s = 1e6 / zeeman_splitting(Manifold.S_HALF, 0.1)
        cycle_d = 1e6 / zeeman_splitting(Manifold.D_THREE_HALF, 0.1)
        for label, cycle in (("pi", cycle_s), ("sigma+pi", 2 * cycle_d), ("s-sigma+", cycle_d)):
            eng = rows[label]
            assert eng.period * eng.dt == pytest.approx(cycle, rel=1e-12)
            assert eng.dt <= 0.05

    def test_engine_size_is_fixed_by_the_model(self, monkeypatch):
        for model in (d_model((SP, PI)), s_model()):
            eng = model._jump_engine
            props = eng.propagators()
            assert props.shape == (eng.period, 6, 6)
            # no beam couples S and D: the tables keep the two blocks apart
            assert not props[:, :2, 2:].any() and not props[:, 2:, :2].any()
            stride = 2**eng.levels
            assert stride // 2 < max(eng.period, 32) <= stride
            run = _Trajectories([(eng, 2, 3, 0, 16)])
            assert [t.shape for t in run.lift] == [
                (eng.levels + 1, eng.period, 2, 2),
                (eng.levels + 1, eng.period, 4, 4),
            ]
        for model in (d_model((SP, PI)), d_model((SP, PI), b=0.1)):
            eng = model._jump_engine
            size = engine_nbytes(eng)
            for max_steps in (50, 5000, 400_000, 4_000_000):
                monkeypatch.setattr(scatter, "_MAX_STEPS", max_steps)
                _jump_counts([(model, 2, 3)], 16)
                assert engine_nbytes(eng) == size

    def test_lowest_admitted_field_stays_within_the_table_budget(self):
        # a matrix's rows share a block while the stacked tables fit one
        # model's budget: at 0.0044 G the combination rows (8117 steps per
        # period) take a block each, at 2.2 G the whole matrix is one block
        budget = (_MAX_PERIOD.bit_length()) * _MAX_PERIOD * 36 * 16  # 66 MB
        for b, groups in ((0.0044, [[0, 1, 2], [3], [4]]), (2.2, [[0, 1, 2, 3, 4]])):
            engines = [d_model(pols, b=b)._jump_engine for _, pols in D_SETTINGS]
            assert max(eng.period for eng in engines) <= _MAX_PERIOD
            cells = [(4 * ri + ci, eng) for ri, eng in enumerate(engines) for ci in range(4)]
            blocks = list(_blocks(cells, 1))
            assert [sorted({c // 4 for c, _, _ in pieces}) for pieces in blocks] == groups
            for pieces in blocks:
                run = _Trajectories([(engines[c // 4], 2 + c % 4, 1, lo, n) for c, lo, n in pieces])
                assert sum(t.nbytes for t in run.lift) <= budget
                del run

    @pytest.mark.parametrize("b_gauss", [0.0005, 0.0043, 1e300])
    def test_field_out_of_range_raises_before_allocating(self, b_gauss):
        model = d_model((SP, PI), b=b_gauss)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="b_gauss"):
                model._jump_engine
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 // 4


@pytest.mark.parametrize("b_gauss", [0.1, 0.02])
def test_low_field_single_polarization_rows_match_the_chain(b_gauss):
    # no coherences form under one red polarization: the chain is exact there
    for ri, (_, pols) in enumerate(D_SETTINGS[:3]):
        model = d_model(pols, b=b_gauss)
        ref = chain_counts_by_value_iteration(model._chain_rates, model._decay_probs)
        for ci, state in enumerate(D):
            if ref[2 + ci] == 0:
                continue
            res = simulate_pumping(model, state, 400, seed=2100 + 10 * ri + ci)
            assert res.capped_fraction == 0.0
            assert res.mean == pytest.approx(ref[2 + ci], abs=4 * res.sem)


@pytest.mark.parametrize("b_gauss", [2.2, 0.1])
def test_detection_matrix_blocks_match_per_cell_runs(b_gauss):
    # a matrix steps all its cells in shared blocks; each cell must equal its
    # own one-cell run, also when blocks of 13 trajectories cut cells mid-trial
    trials, seed = 8, 7
    for fn, rows, states in (
        (detection_matrix_d, [d_detection_beams(pols, b_gauss) for _, pols in D_SETTINGS], D),
        (detection_matrix_s, [s_detection_beams(q, b_gauss) for q in (SP, SM)], (S_DOWN, S_UP)),
    ):
        matrix = fn(b_gauss, trials=trials, seed=seed)
        models = [build_model(b_gauss, beams) for beams in rows]
        cells = [
            (model, GROUND_STATES.index(state), seed + 1000 * ri + ci)
            for ri, model in enumerate(models)
            for ci, state in enumerate(states)
        ]
        per_cell = [simulate_pumping(m, GROUND_STATES[idx], trials, s) for m, idx, s in cells]
        assert matrix.means.ravel().tolist() == [res.mean for res in per_cell]
        assert matrix.sems.ravel().tolist() == [res.sem for res in per_cell]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scatter, "_BLOCK", 13)
            counts, capped = _jump_counts(cells, trials)
        for res, got, got_capped in zip(per_cell, counts, capped):
            assert np.array_equal(got, res.counts)
            assert got_capped.mean() == res.capped_fraction == 0.0
        # a step cap that caps some trajectories, which simulate_pumping rejects
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scatter, "_MAX_STEPS", 60)
            mp.setattr(scatter, "_BLOCK", 13)
            counts, capped = _jump_counts(cells, trials)
            assert capped.any()
            mp.setattr(scatter, "_BLOCK", 8192)
            for cell, got, got_capped in zip(cells, counts, capped):
                ref_counts, ref_capped = _jump_counts([cell], trials)
                assert np.array_equal(got, ref_counts[0])
                assert np.array_equal(got_capped, ref_capped[0])


_BLOCK_MODEL = d_model((SP, PI))


@settings(max_examples=8, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    trials=st.integers(1, 16),
    extra=st.integers(0, 6),
    block=st.integers(1, 24),
)
def test_counts_depend_only_on_seed_and_trial_index(seed, trials, extra, block):
    for method in ("jump", "chain"):
        ref = simulate_pumping(_BLOCK_MODEL, D[1], trials + extra, seed, method=method)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scatter, "_BLOCK", block)
            res = simulate_pumping(_BLOCK_MODEL, D[1], trials, seed, method=method)
        assert np.array_equal(res.counts, ref.counts[:trials])


def walk_branch(u, p):
    """Inverse-CDF pick from probabilities p: the first branch whose running sum reaches u.

    A uniform past every running sum, which an ulp short of 1 can leave,
    takes the last branch of positive probability.
    """
    last = max(j for j, pj in enumerate(p) if pj > 0)
    total = 0.0
    for j in range(last):
        total += p[j]
        if u <= total:
            return j
    return last


def chain_walk(model, initial_idx, draw, max_jumps):
    """Scalar reference for one chain trajectory on the uniforms ``draw()`` yields; (count, capped)."""
    state, count = initial_idx, 0
    for _ in range(max_jumps):
        lam = model._chain_rates[state]
        tot = lam[0] + lam[1]
        if tot <= 0:
            return count, False
        e = walk_branch(draw(), lam / tot)
        state = walk_branch(draw(), _DECAY_PROBS[e])
        count += state < 2
    return count, model._chain_rates[state].sum() > 0


# two models, bright and dark initial states of each, in an order that mixes them
CHAIN_CELLS = [
    (d_model((SP,)), 2, 71),
    (s_model(), 1, 72),
    (d_model((SP,)), 5, 73),
    (s_model(), 0, 74),
    (d_model((SP,)), 3, 75),
]


def chain_cdf(model, idx):
    return _cumulative(_count_law(model)[idx : idx + 1])[0]


@pytest.mark.parametrize("chunk", [5, 12, 8192])
def test_chain_trial_inverts_draw_zero_of_its_own_key(monkeypatch, chunk):
    # slices of 5 rows cut cells mid-trial; every bright trajectory reads one
    # uniform, and the dark initial states read none
    monkeypatch.setattr(scatter, "_BLOCK", chunk)
    rows = []

    def counted(seed, first, n, *args):
        rows.append(n)
        return uniform_table(seed, first, n, *args)

    monkeypatch.setattr(scatter, "uniform_table", counted)
    trials = 12
    counts = _chain_counts(CHAIN_CELLS, trials)
    assert sum(rows) == 3 * trials and max(rows) <= chunk
    for (model, idx, seed), got in zip(CHAIN_CELLS, counts):
        if model._chain_rates[idx].sum() == 0:
            assert (got == 0).all()
            continue
        cdf = chain_cdf(model, idx)
        ref = [np.searchsorted(cdf, substream(seed, t).random(), side="right") for t in range(trials)]
        assert got.tolist() == ref


def test_chain_has_no_cap(monkeypatch):
    # the caps bound the jump engine only: a chain trajectory is one draw from its law
    model = d_model((SP, PI))
    ref = simulate_pumping(model, D[0], 200, seed=8, method="chain")
    monkeypatch.setattr(scatter, "_MAX_JUMPS", 3)
    monkeypatch.setattr(scatter, "_MAX_STEPS", 5)
    res = simulate_pumping(model, D[0], 200, seed=8, method="chain")
    assert np.array_equal(res.counts, ref.counts) and res.capped_fraction == 0.0
    assert res.counts.max() > 3


# 1.31 G at intensity 0.3: the S rows' excitation sums from d-1/2 and d+1/2 end at 1 - 2**-52
HIGH_ULP = s_model(1.31, SP, 0.3)
LAW_MODELS = {
    **{label: d_model(pols) for label, pols in D_SETTINGS},
    "s-sigma+": s_model(),
    "s-sigma-": s_model(probe=SM),
    "high-ulp": HIGH_ULP,
}


@functools.cache
def step_oracle_law(label):
    model = LAW_MODELS[label]
    return chain_count_law_by_steps(model._chain_rates, model._decay_probs)


class TestCountLaw:
    @pytest.mark.parametrize("label", list(LAW_MODELS))
    def test_law_matches_the_step_oracle(self, label):
        law, ref = _count_law(LAW_MODELS[label]), step_oracle_law(label)
        n = max(law.shape[1], ref.shape[1])
        pad = lambda a: np.pad(a, ((0, 0), (0, n - a.shape[1])))
        assert np.abs(pad(law) - pad(ref)).max() < 1e-12

    @pytest.mark.parametrize("label", list(LAW_MODELS))
    def test_law_means_match_value_iteration(self, label):
        model = LAW_MODELS[label]
        law = _count_law(model)
        ref = chain_counts_by_value_iteration(model._chain_rates, model._decay_probs)
        assert law @ np.arange(law.shape[1]) == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("label", list(LAW_MODELS))
    def test_every_cdf_ends_at_exactly_one(self, label):
        cdf = _cumulative(_count_law(LAW_MODELS[label]))
        assert (cdf[:, -1] == 1.0).all()
        assert (np.diff(cdf, axis=1) >= 0).all() and (cdf <= 1.0).all()

    @pytest.mark.parametrize("u", [0.0, 1 - 2**-53])
    def test_extreme_uniforms_pick_the_first_and_last_possible_counts(self, monkeypatch, u):
        # the last possible count is the last the CDF gives positive probability:
        # its first entry at 1.0
        monkeypatch.setattr(scatter, "uniform_table", lambda seed, first, n, d, *a: np.full((n, d), u))
        cells = [(model, idx, 1) for model in (HIGH_ULP, LAW_MODELS["sigma+pi"]) for idx in range(6)]
        cells = [cell for cell in cells if cell[0]._chain_rates[cell[1]].sum() > 0]
        counts = _chain_counts(cells, 3)
        for (model, idx, _), got in zip(cells, counts):
            law, cdf = _count_law(model)[idx], chain_cdf(model, idx)
            possible = np.nonzero(np.diff(cdf, prepend=0.0) > 0)[0]
            want = possible[0] if u == 0.0 else possible[-1]
            assert law[want] > 0 and got.tolist() == [want] * 3
        assert len(cells) == 10

    @pytest.mark.parametrize("label,idx,seed", [("sigma+pi", 2, 91), ("s-sigma+", 0, 92)])
    def test_scalar_walks_follow_the_law(self, label, idx, seed):
        # chi-square of 2000 step-by-step walks against the law, tails pooled
        # into the outermost counts expected at least 5 times
        from scipy.stats import chi2

        model, walks = LAW_MODELS[label], 2000
        counts = []
        for t in range(walks):
            count, capped = chain_walk(model, idx, substream(seed, t).random, 100_000)
            assert not capped
            counts.append(count)
        law = _count_law(model)[idx]
        expected = walks * law
        observed = np.bincount(counts, minlength=law.size)[: law.size]
        assert observed.sum() == walks
        lo, hi = np.nonzero(expected >= 5)[0][[0, -1]]

        def pooled(x):
            bins = x[lo : hi + 1].astype(float)
            bins[0] += x[:lo].sum()
            bins[-1] += x[hi + 1 :].sum()
            return bins

        e, o = pooled(expected), pooled(observed)
        stat = ((o - e) ** 2 / e).sum()
        assert chi2.sf(stat, e.size - 1) > 0.01


class TestChainTermination:
    def test_bright_closed_class_raises_naming_the_configuration(self):
        # every level is bright under all polarizations of both colors: no walk pumps dark
        beams = [standard_beam(color, (SP, SM, PI), 2.2) for color in BeamColor]
        with pytest.raises(NonTerminatingError, match="never pump dark.*red_650"):
            simulate_pumping(build_model(2.2, beams), D[0], 10, seed=1, method="chain")

    def test_photon_free_cycle_raises(self, monkeypatch):
        # every decay lands in d-3/2, which stays bright: I - T0 is singular
        to_d = np.zeros((2, 6))
        to_d[:, 2] = 1.0
        monkeypatch.setattr(scatter.PumpModel, "_decay_probs", to_d)
        beams = [standard_beam(color, (SP, SM, PI), 2.2) for color in BeamColor]
        with pytest.raises(NonTerminatingError, match="without a photon.*blue_493"):
            simulate_pumping(build_model(2.2, beams), D[0], 10, seed=1, method="chain")

    def test_slow_tail_raises(self, monkeypatch):
        monkeypatch.setattr(scatter, "_MAX_COUNT", 8)
        with pytest.raises(NonTerminatingError, match="does not decay within 8 photons"):
            simulate_pumping(d_model((SP, PI)), D[0], 10, seed=1, method="chain")


def test_chain_matrix_memory_is_bounded_by_its_outputs():
    # draws are made in slices of at most _BLOCK rows, whatever the trial count
    def peak_bytes(trials):
        tracemalloc.start()
        try:
            detection_matrix_d(trials=trials, seed=3, method="chain")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(100)  # first call warms numpy's caches
    outputs = 20 * 8000 * (8 + 1)  # int64 counts and capped flags of the larger matrix
    assert peak_bytes(8000) - peak_bytes(1000) <= outputs + 2**20


class TestDetectionMatrixS:
    def test_diagonal_structure(self):
        m = detection_matrix_s(trials=600, seed=31)
        assert m.means[0, 1] == 0.0
        assert m.means[1, 0] == 0.0
        for ri in range(2):
            assert m.means[ri, ri] == pytest.approx(2.82, abs=max(3 * m.sems[ri, ri], 0.2))

    @pytest.mark.parametrize("method", ["jump", "chain"])
    def test_zero_trials_rejected(self, method):
        with pytest.raises(ValueError, match="trials"):
            detection_matrix_s(trials=0, seed=1, method=method)

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
                if is_basis_state(ds):
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
        assert all(d.stationary and is_basis_state(d) for d in dark)
        supports = sorted(int(np.argmax(np.abs(d.amplitudes))) for d in dark)
        assert supports == [2, 3]  # d+1/2 and d+3/2

    def test_pi_gives_two_stationary_edge_states(self):
        dark = find_dark_states([PI], 2.2)
        assert len(dark) == 2
        assert all(d.stationary and is_basis_state(d) for d in dark)
        supports = sorted(int(np.argmax(np.abs(d.amplitudes))) for d in dark)
        assert supports == [0, 3]

    def test_combination_with_distinct_detunings_has_one_stationary(self):
        dets = {SP: -2.464e6, PI: 0.0}
        dark = find_dark_states([SP, PI], 2.2, dets)
        assert len(dark) == 2
        stationary = [d for d in dark if d.stationary]
        assert len(stationary) == 1
        assert is_basis_state(stationary[0])
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
