import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqubit import dynamics, ramsey, scatter
from dqubit.cli import run
from dqubit.config import RunConfig
from dqubit.scatter import DarkState, DetectionMatrix
from dqubit.serialize import (
    _text,
    parse_counts,
    parse_detection_matrix,
    parse_record,
    write_counts,
    write_detection_matrix,
    write_estimate,
    write_record,
    write_table,
)
from dqubit.tomography import CountsVector, PopulationEstimate, solve_constrained


@pytest.fixture
def matrix(reference_matrix):
    return DetectionMatrix(
        row_labels=("sigma+", "sigma-", "pi", "sigma+pi", "sigma-pi"),
        col_labels=("d-3/2", "d-1/2", "d+1/2", "d+3/2"),
        means=reference_matrix,
        sems=0.01 * np.ones_like(reference_matrix),
        trials=1234,
        seed=99,
    )


def test_detection_matrix_round_trip(matrix):
    text = write_detection_matrix(matrix, config_hash="abc123")
    back = parse_detection_matrix(text)
    assert back.row_labels == matrix.row_labels
    assert back.col_labels == matrix.col_labels
    assert np.array_equal(back.means, matrix.means)
    assert np.array_equal(back.sems, matrix.sems)
    assert back.trials == matrix.trials
    assert back.seed == matrix.seed
    assert "config-hash: abc123" in text


def test_counts_round_trip():
    c = CountsVector(
        values=np.array([1.25, 0.0, 3.5e-7, 12.0, 0.125]),
        trials=777,
        labels=("sigma+", "sigma-", "pi", "sigma+pi", "sigma-pi"),
    )
    back = parse_counts(write_counts(c, seed=5))
    assert np.array_equal(back.values, c.values)
    assert back.trials == 777
    assert back.labels == c.labels


def test_counts_written_at_full_precision():
    c = CountsVector(values=np.array([1 / 3, 2 / 7]), trials=3)
    back = parse_counts(write_counts(c))
    assert back.values[0] == c.values[0]
    assert back.values[1] == c.values[1]


def test_estimate_document_fields(matrix):
    counts = CountsVector(values=matrix.means @ np.array([0.4, 0.3, 0.2, 0.1]), trials=100)
    est = solve_constrained(counts, matrix, efficiency=1.0)
    text = write_estimate(est, config_hash="ff00", seed=3)
    assert "method: constrained" in text
    assert "populations: " in text
    assert "config-hash: ff00" in text
    assert text.count("cov: ") == 4


def test_table_layout():
    text = write_table("table", ["t", "x"], [np.array([0.0, 1.0]), np.array([0.5, 0.25])], seed=1)
    lines = text.strip().splitlines()
    assert lines[0].startswith("# dqubit table")
    assert "t,x" in lines
    assert lines[-1] == "1,0.25"


def test_table_rejects_ragged_columns():
    with pytest.raises(ValueError):
        write_table("table", ["a", "b"], [np.zeros(3), np.zeros(2)])


def test_malformed_documents_rejected():
    with pytest.raises(ValueError):
        parse_detection_matrix("# dqubit detection-matrix v1\ntrials: 3\n")
    with pytest.raises(ValueError):
        parse_counts("# dqubit counts v1\ntrials: 3\n")


@pytest.mark.parametrize(
    "drop,row",
    [("mean sigma+pi ", "sigma+pi"), ("sem pi ", "pi")],
)
def test_missing_matrix_line_names_row(matrix, drop, row):
    lines = write_detection_matrix(matrix).splitlines()
    text = "\n".join(l for l in lines if not l.startswith(drop))
    with pytest.raises(ValueError, match=re.escape(f"line for row '{row}'")):
        parse_detection_matrix(text)


def test_short_matrix_line_names_row(matrix):
    text = write_detection_matrix(matrix).replace("mean sigma- 0 0 ", "mean sigma- 0 ")
    with pytest.raises(ValueError, match="row 'sigma-' has 3 values for 4 columns"):
        parse_detection_matrix(text)


@pytest.mark.parametrize("word", ["nan", "inf", "-inf"])
def test_non_finite_matrix_entry_names_row(matrix, word):
    text = write_detection_matrix(matrix).replace("sem pi 0.01 ", f"sem pi {word} ")
    with pytest.raises(ValueError, match="sem line of row 'pi' has a non-finite value"):
        parse_detection_matrix(text)


def test_detection_matrix_rejects_non_finite_entries(matrix):
    means = matrix.means.copy()
    means[2, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        DetectionMatrix(matrix.row_labels, matrix.col_labels, means, matrix.sems, 1, 0)


# --- the exact text of every document type -------------------------------
# Hand-made result objects, no simulation: the bytes depend only on the
# writers, and pin the record format the CLI has always emitted.


def test_detection_matrix_text():
    m = DetectionMatrix(
        row_labels=("sigma+", "pi"),
        col_labels=("d-1/2", "d+1/2"),
        means=np.array([[0.1, 0.0], [1 / 3, 12.0]]),
        sems=np.array([[1e-300, 0.0], [2.5, 0.125]]),
        trials=40,
        seed=7,
    )
    assert write_detection_matrix(m, config_hash="0123abcd") == (
        "# dqubit detection-matrix v1\n"
        "config-hash: 0123abcd\n"
        "seed: 7\n"
        "trials: 40\n"
        "rows: sigma+ pi\n"
        "cols: d-1/2 d+1/2\n"
        "mean sigma+ 0.10000000000000001 0\n"
        "mean pi 0.33333333333333331 12\n"
        "sem sigma+ 1e-300 0\n"
        "sem pi 2.5 0.125\n"
    )


def test_counts_text():
    c = CountsVector(values=np.array([0.1, 2.0]), trials=9, labels=("sigma+", "pi"))
    assert write_counts(c, config_hash="ff", seed=3) == (
        "# dqubit counts v1\nconfig-hash: ff\nseed: 3\n"
        "trials: 9\nsettings: sigma+ pi\nmeans: 0.10000000000000001 2\n"
    )
    bare = CountsVector(values=np.array([1.5]), trials=2)
    assert write_counts(bare) == "# dqubit counts v1\ntrials: 2\nmeans: 1.5\n"


def test_estimate_text():
    est = PopulationEstimate(
        populations=np.array([0.7, 0.3, -0.0, 1e-3]),
        background=0.1,
        efficiency=0.8,
        covariance=np.array([[0.25, -0.5], [-0.5, 1 / 3]]),
        method="direct",
        out_of_bounds=(2, 3),
        active_constraints=("d2>=0", "background>=0"),
        background_scaled_by_efficiency=np.bool_(False),
        residual_norm=float("inf"),
    )
    assert write_estimate(est, config_hash="beef", seed=11) == (
        "# dqubit population-estimate v1\n"
        "config-hash: beef\n"
        "seed: 11\n"
        "method: direct\n"
        "populations: 0.69999999999999996 0.29999999999999999 -0 0.001\n"
        "background: 0.10000000000000001\n"
        "efficiency: 0.80000000000000004\n"
        "background-scaled-by-efficiency: False\n"
        "residual-norm: inf\n"
        "out-of-bounds: 2 3\n"
        "active-constraints: d2>=0 background>=0\n"
        "covariance-shape: 2x2\n"
        "cov: 0.25 -0.5\n"
        "cov: -0.5 0.33333333333333331\n"
    )
    plain = PopulationEstimate(
        populations=np.array([1.0]), background=0.0, efficiency=1.0,
        covariance=np.array([[0.0]]), method="constrained",
    )
    assert write_estimate(plain) == (
        "# dqubit population-estimate v1\n"
        "method: constrained\n"
        "populations: 1\n"
        "background: 0\n"
        "efficiency: 1\n"
        "background-scaled-by-efficiency: True\n"
        "residual-norm: 0\n"
        "covariance-shape: 1x1\n"
        "cov: 0\n"
    )


def _cli_documents(tmp_path, monkeypatch, experiment, params, fakes):
    """Run one CLI experiment with its library calls replaced by hand-made results."""
    for module, name, result in fakes:
        monkeypatch.setattr(module, name, lambda *a, _r=result, **k: _r)
    cfg = RunConfig(experiment=experiment, seed=5, out_dir=str(tmp_path), params=params)
    paths = run(cfg, quiet=True)
    head = f"config-hash: {cfg.config_hash}\nseed: 5\n"
    return head, {p.name: p.read_text() for p in paths}


def test_darkstates_text(tmp_path, monkeypatch):
    states = [
        DarkState(amplitudes=np.array([0.0, 0.0, 0.0, 1.0]), stationary=True),
        DarkState(amplitudes=np.array([0.6, -0.8, 0.0, 0.0]), stationary=np.bool_(False)),
    ]
    head, docs = _cli_documents(
        tmp_path, monkeypatch, "darkstates", {"b_gauss": 2.2},
        [(scatter, "find_dark_states", states)],
    )
    assert docs["darkstates.txt"] == (
        f"# dqubit dark-states v1\n{head}"
        "pols: sigma+,pi\n"
        "b_gauss: 2.2000000000000002\n"
        "count: 2\n"
        "dark stationary 0 0 0 1\n"
        "dark non-stationary 0.59999999999999998 -0.80000000000000004 0 0\n"
    )


def test_rabi_texts(tmp_path, monkeypatch):
    times = np.arange(8.0)
    pops = np.tile([0.125, 0.25, 0.125, 0.5], (8, 1))
    traj = dynamics.EvolveResult(times_s=times, populations=pops, states=pops, density_form=False)
    fit = dynamics.RabiFit(
        omega_rad_s=1e6, omega_err=0.1, tau_s=float("inf"), tau_err=float("nan"),
        covariance=np.zeros((2, 2)), residual_rms=1 / 3, decay_free_bound=np.bool_(True),
    )
    head, docs = _cli_documents(
        tmp_path, monkeypatch, "rabi", {"t_max_s": 7.0, "n_times": 8, "noise_frac": 0.0},
        [(dynamics, "evolve", traj), (dynamics, "fit_rabi", fit)],
    )
    assert docs["trajectory.csv"] == (
        f"# dqubit table v1\n{head}"
        "time_s,p_d_m3_2,p_d_m1_2,p_d_p1_2,p_d_p3_2\n"
        + "".join(f"{t},0.125,0.25,0.125,0.5\n" for t in range(8))
    )
    assert docs["rabi_fit.txt"] == (
        f"# dqubit rabi-fit v1\n{head}"
        "kind: dm1\n"
        "omega_rad_s: 1000000\n"
        "omega_err: 0.10000000000000001\n"
        "tau_s: inf\n"
        "tau_err: nan\n"
        "residual_rms: 0.33333333333333331\n"
        "decay_free_bound: True\n"
    )


def test_synthprep_text(tmp_path, monkeypatch):
    schedule = dynamics.PulseSchedule(
        drive=dynamics.EffectiveDrive(kind="dm2", rabi_rad_s=2.0, phase_rad=0.1), duration_s=3e-5
    )
    state = np.array([0.6 + 0.0j, 0.0, -0.8j, 0.0])
    proj = dynamics.ProjectionResult(p_d1=0.75, p_d2=0.25, leakage=0.0, population_rule=False)
    head, docs = _cli_documents(
        tmp_path, monkeypatch, "synthprep", {},
        [(dynamics, "prepare_d1_by_rotation", (schedule, state)), (dynamics, "project_synth", proj)],
    )
    assert docs["synthprep.txt"] == (
        f"# dqubit synthetic-preparation v1\n{head}"
        "drive_kind: dm2\n"
        "rabi_rad_s: 2\n"
        "drive_phase_rad: 0.10000000000000001\n"
        "duration_s: 3.0000000000000001e-05\n"
        "state_re: 0.59999999999999998 0 -0 0\n"
        "state_im: 0 0 -0.80000000000000004 0\n"
        "p_d1: 0.75\n"
        "p_d2: 0.25\n"
        "leakage: 0\n"
    )


def test_stirap_text(tmp_path, monkeypatch):
    res = dynamics.StirapResult(
        fidelity=0.99, peak_p_population=1e-3, final_populations=np.array([0.005, 0.0, 0.99]),
        loss=0.005, counterintuitive=True,
    )
    head, docs = _cli_documents(
        tmp_path, monkeypatch, "stirap", {}, [(dynamics, "stirap_prepare", res)]
    )
    assert docs["stirap.txt"] == (
        f"# dqubit adiabatic-passage v1\n{head}"
        "fidelity: 0.98999999999999999\n"
        "peak_p_population: 0.001\n"
        "loss: 0.0050000000000000001\n"
        "counterintuitive: True\n"
        "final_populations: 0.0050000000000000001 0 0.98999999999999999\n"
    )


def test_ramsey_texts(tmp_path, monkeypatch):
    scan = ramsey.RamseyScan(
        delays_s=np.array([1e-5, 2e-5]), probabilities=np.array([0.875, 0.5]),
        contrast=np.array([0.75, 0.0]), errors=np.array([0.01, 0.02]),
        shots=100, sensitivity_khz_per_mg=2.8, readout="contrast",
    )
    fit = ramsey.T2Fit(
        t2_s=9.6e-5, t2_err=2e-6, amplitude=1.0, floor=-0.0,
        at_upper_bound=False, at_lower_bound=np.bool_(False), covariance=np.zeros((3, 3)),
    )
    head, docs = _cli_documents(
        tmp_path, monkeypatch, "ramsey", {},
        [(ramsey, "ramsey_scan", scan), (ramsey, "fit_t2star", fit)],
    )
    assert docs["ramsey_scan.csv"] == (
        f"# dqubit table v1\n{head}"
        "delay_s,probability,contrast,contrast_err\n"
        "1.0000000000000001e-05,0.875,0.75,0.01\n"
        "2.0000000000000002e-05,0.5,0,0.02\n"
    )
    assert docs["t2_fit.txt"] == (
        f"# dqubit t2-fit v1\n{head}"
        "t2_s: 9.6000000000000002e-05\n"
        "t2_err: 1.9999999999999999e-06\n"
        "amplitude: 1\n"
        "floor: -0\n"
        "at_upper_bound: False\n"
        "at_lower_bound: False\n"
    )


def test_benchmark_text(tmp_path, monkeypatch):
    rows = [
        ramsey.BenchmarkRow("s-doublet", 2.8, 9.6e-5, 1.5e-6, False),
        ramsey.BenchmarkRow("synthetic-d1d2", 0.0, 3.5e-4, float("inf"), np.bool_(True)),
    ]
    head, docs = _cli_documents(
        tmp_path, monkeypatch, "benchmark", {}, [(ramsey, "benchmark_suite", rows)]
    )
    assert docs["benchmark.csv"] == (
        f"# dqubit benchmark v1\n{head}"
        "qubit,sensitivity_khz_per_mg,t2_s,t2_err_s,unbounded\n"
        "s-doublet,2.7999999999999998,9.6000000000000002e-05,1.5e-06,False\n"
        "synthetic-d1d2,0,0.00035,inf,True\n"
    )


# --- the parsers' contract: a value or ValueError, never another exception --

_WORDS = st.one_of(
    st.sampled_from(["a", "b", "1", "-2", "0.5", "nan", "1e999", "x:", ":", "#", "1_0"]),
    st.text(max_size=6),
)
_LINES = st.builds(
    lambda key, words: " ".join([key, *words]),
    st.sampled_from(
        ["rows:", "cols:", "trials:", "seed:", "mean a", "mean b", "sem a", "sem b",
         "means:", "settings:", "trials:5", "mean", "#", ""]
    ),
    st.lists(_WORDS, max_size=4),
)
_DOCUMENTS = st.one_of(st.text(), st.lists(_LINES, max_size=10).map("\n".join))


@settings(max_examples=400, deadline=None, database=None)
@given(_DOCUMENTS)
def test_parsers_return_or_raise_value_error(text):
    for parse in (parse_detection_matrix, parse_counts):
        try:
            parse(text)
        except ValueError:
            pass


# --- write_record and parse_record are inverse on keys and words ----------

_WORD = st.text(alphabet=string.ascii_letters + string.digits + "+-_./=>", min_size=1, max_size=8)
_KEYS = st.one_of(_WORD.map(lambda w: w + ":"), st.tuples(_WORD, _WORD).map(" ".join))
_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    _WORD,
    st.lists(st.floats(), max_size=4).map(np.array),
    st.lists(st.one_of(st.integers(), _WORD), max_size=4).map(tuple),
)


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.lists(st.tuples(_KEYS, _VALUES), max_size=8),
    st.none() | _WORD,
    st.none() | st.integers(0, 2**64 - 1),
)
def test_parse_record_inverts_write_record(fields, config_hash, seed):
    text = write_record("kind", fields, config_hash, seed)
    head = [("config-hash:", config_hash), ("seed:", seed)]
    assert parse_record(text) == [(k, _text(v).split()) for k, v in head + fields if v is not None]
