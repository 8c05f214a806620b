import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dqubit
from dqubit import config
from dqubit.cli import main, run
from dqubit.config import EXPERIMENTS, ConfigError, RunConfig, load_config


class TestRunConfig:
    def test_defaults_resolved(self):
        cfg = RunConfig(experiment="detmatrix_s")
        assert cfg.params["trials"] == 2000
        assert cfg.params["b_gauss"] == 2.2

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="experiment"):
            RunConfig(experiment="teleport")

    def test_unknown_parameter_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            RunConfig(experiment="detmatrix_s", params={"bogus": 1})

    def test_invalid_value_named(self):
        cases = [
            ("detmatrix_s", "trials", -5),
            ("detmatrix_d", "trials", 1.5),
            ("ramsey", "shots", True),
            ("detmatrix_d", "b_gauss", "2.2"),
            ("rabi", "tau_s", False),
            ("tomo", "populations", [0.25, 0.25, 0.25, 0.25]),
            ("tomo", "populations", (0.25, 0.25, 0.25, "0.25")),
            ("tomo", "scaled_background", 1),
            ("detmatrix_d", "method", None),
        ]
        for experiment, key, value in cases:
            with pytest.raises(ConfigError, match=key):
                RunConfig(experiment=experiment, params={key: value})

    def test_canonical_text_is_stable(self):
        a = RunConfig(experiment="ramsey", seed=5, params={"shots": 100})
        b = RunConfig(experiment="ramsey", seed=5, params={"shots": 100})
        assert a.canonical_text() == b.canonical_text()
        assert a.config_hash == b.config_hash

    def test_hash_tracks_parameters(self):
        a = RunConfig(experiment="ramsey", seed=5)
        b = RunConfig(experiment="ramsey", seed=6)
        c = RunConfig(experiment="ramsey", seed=5, params={"shots": 77})
        assert a.config_hash != b.config_hash != c.config_hash

    def test_hash_tracks_the_package_version(self, monkeypatch):
        cfg = RunConfig(experiment="ramsey", seed=5)
        assert cfg.canonical_text().startswith(f"# dqubit {dqubit.__version__}\n[run]\n")
        before = cfg.config_hash
        monkeypatch.setattr(config, "__version__", "0.0.0")
        assert cfg.config_hash != before

    def test_config_file_round_trip(self, tmp_path):
        cfg = RunConfig(
            experiment="ramsey",
            seed=42,
            params={"shots": 500, "sigma_b_mg": 0.125, "max_delay_s": 1e-4},
        )
        path = tmp_path / "run.cfg"
        path.write_text(cfg.canonical_text())
        loaded = load_config(str(path))
        assert loaded.experiment == cfg.experiment
        assert loaded.seed == cfg.seed
        assert loaded.params == cfg.params
        assert loaded.config_hash == cfg.config_hash

    def test_infinity_round_trips(self, tmp_path):
        cfg = RunConfig(experiment="rabi", seed=1, params={"tau_s": math.inf})
        path = tmp_path / "run.cfg"
        path.write_text(cfg.canonical_text())
        assert load_config(str(path)).params["tau_s"] == math.inf

    def test_matrix_file_names_round_trip_or_are_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        for name in ("50%.txt", "a %% b.txt"):
            cfg = RunConfig(experiment="tomo", params={"matrix_source": name})
            path.write_text(cfg.canonical_text())
            assert load_config(str(path)).params["matrix_source"] == name
        for name in (" a.txt", "a\nb.txt", "a\r.txt", "\ud800.txt"):
            with pytest.raises(ConfigError, match="matrix_source"):
                RunConfig(experiment="tomo", params={"matrix_source": name})

    def test_bad_file_value_names_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\nexperiment = ramsey\n\n[params]\nshots = lots\n")
        with pytest.raises(ConfigError, match="shots"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "body,key",
        [
            (b"experiment = ramsey\n", "config"),
            (b"[run]\nexperiment = ramsey\n\xff\n", "config"),
            (b"[run]\nexperiment = ramsey\n\n[params]\nshots = 5\nshots = 6\n", "shots"),
            (b"[run]\nexperiment = tomo\n\n[params]\nmatrix_source = 50%.txt\n", "matrix_source"),
        ],
        ids=["no-section-header", "not-utf8", "duplicated-key", "bad-interpolation"],
    )
    def test_config_syntax_error_names_key(self, tmp_path, capsys, body, key):
        path = tmp_path / "bad.cfg"
        path.write_bytes(body)
        with pytest.raises(ConfigError, match=f"'{key}'"):
            load_config(str(path))
        assert main(["ramsey", "--config", str(path), "--quiet"]) == 1
        assert f"'{key}'" in capsys.readouterr().err

    def test_bad_file_seed_names_key(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\nexperiment = ramsey\nseed = abc\n")
        with pytest.raises(ConfigError, match="seed"):
            load_config(str(path))
        assert main(["ramsey", "--config", str(path), "--quiet"]) == 1
        assert "'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, key, value",
        [
            (exp, p.name, f"1, 0, 0, {bad}" if p.kind == "floats" else bad)
            for exp, specs in EXPERIMENTS.items()
            for p in specs
            if p.kind.startswith("float")
            for bad in ("inf", "-inf", "nan")
            if (p.name, bad) != ("tau_s", "inf")
        ],
    )
    def test_non_finite_float_names_key(self, tmp_path, capsys, experiment, key, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[run]\nexperiment = {experiment}\n\n[params]\n{key} = {value}\n")
        assert main([experiment, "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 1
        assert f"'{key}'" in capsys.readouterr().err

    def test_infinite_decay_time_runs(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[run]\nexperiment = rabi\n\n[params]\ntau_s = inf\n")
        assert main(["rabi", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        assert "tau_s = inf" in (tmp_path / "resolved.cfg").read_text()


# --- canonical_text and load_config are inverse on valid configs -----------

_STRINGS = {
    "method": st.sampled_from(["jump", "chain"]),
    "kind": st.sampled_from(["dm1", "dm2"]),
    "readout": st.sampled_from(["contrast", "fringe"]),
    "detuning_mode": st.sampled_from(["standard", "common"]),
    "pols": st.lists(st.sampled_from(["sigma+", "sigma-", "pi"]), min_size=1, max_size=4).map(",".join),
    "matrix_source": st.one_of(st.just("chain"), st.text(max_size=12).map(lambda s: s + ".txt")),
}
_FINITE = st.one_of(st.floats(0.0, 1.0), st.floats(allow_nan=False, allow_infinity=False))
_KINDS = {
    "int": st.one_of(st.integers(-5, 200), st.integers(0, 2**62)),
    "float": _FINITE,
    "float_or_inf": st.one_of(_FINITE, st.just(math.inf)),
    "floats": st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)
    .filter(lambda v: sum(v) > 0)
    .map(lambda v: tuple(x / sum(v) for x in v)),
    "bool": st.booleans(),
}


def _valid_value(spec):
    strategy = _STRINGS[spec.name] if spec.kind == "str" else _KINDS[spec.kind]
    return strategy.filter(lambda v: spec.check is None or spec.check(v))


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data(), seed=st.integers(0, 2**63 - 1))
def test_canonical_text_round_trips_through_load_config(tmp_path_factory, experiment, data, seed):
    specs = [p for p in EXPERIMENTS[experiment] if data.draw(st.booleans())]
    cfg = RunConfig(experiment, seed, params={p.name: data.draw(_valid_value(p), label=p.name) for p in specs})
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text(cfg.canonical_text())
    loaded = load_config(str(path))
    assert (loaded.experiment, loaded.seed, loaded.params) == (cfg.experiment, cfg.seed, cfg.params)
    assert loaded.config_hash == cfg.config_hash


class TestCliProcess:
    def test_every_experiment_has_a_subcommand(self):
        for name in EXPERIMENTS:
            assert name in EXPERIMENTS

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        rc = main(["detmatrix_s", "--trials", "-3", "--out", str(tmp_path)])
        assert rc == 1
        assert "trials" in capsys.readouterr().err

    def test_artifacts_embed_hash_and_seed(self, tmp_path):
        rc = main(
            ["darkstates", "--seed", "7", "--out", str(tmp_path / "a"), "--quiet"]
        )
        assert rc == 0
        text = (tmp_path / "a" / "darkstates.txt").read_text()
        cfg = RunConfig(experiment="darkstates", seed=7)
        assert f"config-hash: {cfg.config_hash}" in text
        assert "seed: 7" in text

    def test_reruns_are_byte_identical(self, tmp_path):
        for sub in ("r1", "r2"):
            rc = main(
                [
                    "detmatrix_s",
                    "--trials",
                    "150",
                    "--seed",
                    "31",
                    "--out",
                    str(tmp_path / sub),
                    "--quiet",
                ]
            )
            assert rc == 0
        a = (tmp_path / "r1" / "detmatrix_s.txt").read_bytes()
        b = (tmp_path / "r2" / "detmatrix_s.txt").read_bytes()
        assert a == b

    def test_tomo_pipeline_writes_documents(self, tmp_path):
        rc = main(["tomo", "--seed", "3", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        for name in ("counts.txt", "estimate_direct.txt", "estimate_constrained.txt"):
            assert (tmp_path / name).exists()
        est = (tmp_path / "estimate_constrained.txt").read_text()
        assert "method: constrained" in est

    def test_missing_matrix_source_names_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "tomo.cfg"
        cfg_path.write_text(
            f"[run]\nexperiment = tomo\n\n[params]\nmatrix_source = {tmp_path / 'absent.txt'}\n"
        )
        rc = main(["tomo", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 1
        assert "'matrix_source'" in capsys.readouterr().err

    def test_truncated_matrix_source_names_key_and_row(self, tmp_path, capsys):
        rc = main(["detmatrix_d", "--trials", "2", "--out", str(tmp_path / "m"), "--quiet"])
        assert rc == 0
        lines = (tmp_path / "m" / "detmatrix_d.txt").read_text().splitlines(keepends=True)
        truncated = tmp_path / "truncated.txt"
        truncated.write_text("".join(lines[:9]))  # header and the first three mean lines
        cfg_path = tmp_path / "tomo.cfg"
        cfg_path.write_text(f"[run]\nexperiment = tomo\n\n[params]\nmatrix_source = {truncated}\n")
        rc = main(["tomo", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "'matrix_source'" in err and "sigma+pi" in err

    def test_non_finite_matrix_source_names_key_and_row(self, tmp_path, capsys):
        rc = main(["detmatrix_d", "--trials", "2", "--out", str(tmp_path / "m"), "--quiet"])
        assert rc == 0
        text = (tmp_path / "m" / "detmatrix_d.txt").read_text()
        line = next(l for l in text.splitlines() if l.startswith("mean sigma+ "))
        bad = tmp_path / "nan.txt"
        bad.write_text(text.replace(line, "mean sigma+ nan " + line.split(" ", 3)[3]))
        cfg_path = tmp_path / "tomo.cfg"
        cfg_path.write_text(f"[run]\nexperiment = tomo\n\n[params]\nmatrix_source = {bad}\n")
        rc = main(["tomo", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "'matrix_source'" in err and "'sigma+'" in err and "non-finite" in err

    @pytest.mark.parametrize("seed", [-3, 2**63])
    def test_seed_outside_63_bits_names_key(self, tmp_path, capsys, seed):
        rc = main(["detmatrix_s", "--seed", str(seed), "--trials", "5", "--out", str(tmp_path), "--quiet"])
        assert rc == 1
        assert "'seed'" in capsys.readouterr().err
        assert not (tmp_path / "detmatrix_s.txt").exists()
        cfg_path = tmp_path / "seed.cfg"
        cfg_path.write_text(f"[run]\nexperiment = detmatrix_s\nseed = {seed}\n")
        with pytest.raises(ConfigError, match="'seed'"):
            load_config(str(cfg_path))

    def test_largest_seed_runs(self, tmp_path):
        rc = main(["detmatrix_s", "--seed", str(2**63 - 1), "--trials", "5", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        assert f"seed: {2**63 - 1}" in (tmp_path / "detmatrix_s.txt").read_text()

    def test_config_file_drives_run(self, tmp_path):
        cfg_path = tmp_path / "my.cfg"
        cfg_path.write_text(
            "[run]\nexperiment = synthprep\nseed = 9\n\n[params]\nphi = 3.141592653589793\n"
        )
        rc = main(
            ["synthprep", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"]
        )
        assert rc == 0
        text = (tmp_path / "o" / "synthprep.txt").read_text()
        p_d1 = float(next(l for l in text.splitlines() if l.startswith("p_d1:")).split(":")[1])
        assert p_d1 == pytest.approx(1.0, abs=1e-9)

    def test_resolved_config_echoed(self, tmp_path):
        rc = main(["stirap", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        echoed = (tmp_path / "resolved.cfg").read_text()
        assert "experiment = stirap" in echoed
        assert "width_s" in echoed  # defaults are materialized

    def test_trials_override_rejected_where_meaningless(self, capsys):
        rc = main(["stirap", "--trials", "10", "--quiet"])
        assert rc == 1
        assert "trials" in capsys.readouterr().err

    @staticmethod
    def run_with(tmp_path, experiment, **params):
        path = tmp_path / "run.cfg"
        body = "".join(f"{k} = {v}\n" for k, v in params.items())
        path.write_text(f"[run]\nexperiment = {experiment}\n\n[params]\n{body}")
        return main([experiment, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])

    @pytest.mark.parametrize("b_gauss", ["1e300", "0.0005"])
    def test_jump_method_outside_its_field_range_names_b_gauss(self, tmp_path, capsys, b_gauss):
        # 1e300 G overflows the generator frequencies; at 0.0005 G the first
        # row's period needs more steps than the engine tabulates
        assert self.run_with(tmp_path, "detmatrix_d", b_gauss=b_gauss, method="jump", trials=4) == 2
        err = capsys.readouterr().err
        assert "b_gauss" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("method", ["jump", "chain"])
    def test_overflowing_zeeman_shifts_name_b_gauss(self, tmp_path, capsys, method):
        # at 1e305 G the Zeeman shifts in Hz overflow; the model build names the
        # field before any arithmetic on them (warnings are errors here)
        assert self.run_with(tmp_path, "detmatrix_d", b_gauss="1e305", method=method, trials=4) == 2
        err = capsys.readouterr().err
        assert "b_gauss" in err
        assert "Traceback" not in err and "Warning" not in err

    def test_chain_method_runs_below_the_jump_field_range(self, tmp_path):
        assert self.run_with(tmp_path, "detmatrix_d", b_gauss=0.0005, method="chain", trials=200) == 0

    @pytest.mark.parametrize("experiment, key", [("ramsey", "max_delay_s"), ("benchmark", "synth_target_t2_s")])
    def test_huge_coherence_times_end_without_a_traceback(self, tmp_path, capsys, experiment, key):
        assert self.run_with(tmp_path, experiment, **{key: 1e300}) in (0, 2)
        assert "Traceback" not in capsys.readouterr().err


class TestRunApi:
    def test_run_returns_written_paths(self, tmp_path):
        cfg = RunConfig(experiment="darkstates", seed=2, out_dir=str(tmp_path))
        paths = run(cfg, quiet=True)
        assert all(Path(p).exists() for p in paths)
        assert any(p.name == "resolved.cfg" for p in paths)


def test_importing_the_cli_loads_no_scipy_module():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, dqubit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


# a sys.meta_path finder that fails every scipy import, then four fitting or
# sampling experiments through the CLI entry point
SCIPY_BLOCKED_RUN = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None


sys.meta_path.insert(0, BlockScipy())
try:
    import scipy.optimize
except ImportError:
    pass
else:
    sys.exit("the blocker let scipy through")
from dqubit.cli import main
from dqubit.config import EXPERIMENTS

runs = [[name, "--trials", "20"] if name.startswith("detmatrix") else [name] for name in EXPERIMENTS]
print([main([*argv, "--out", sys.argv[1] + "/" + argv[0], "--quiet"]) for argv in runs])
"""


def test_fitting_experiments_run_without_scipy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED_RUN, str(tmp_path)], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == str([0] * len(EXPERIMENTS)), out.stderr
    assert (tmp_path / "rabi" / "rabi_fit.txt").exists()
