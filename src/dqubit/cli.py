"""Command-line front end: one subcommand per experiment, reproducible outputs.

Every run writes its artifacts plus a ``resolved.cfg`` echo of the full
configuration (defaults filled in) into the output directory; each artifact
embeds the config hash and seed.  Exit codes: 0 success, 1 configuration
error (the offending key is named), 2 runtime or fit failure.
"""
from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from . import dynamics, ramsey, scatter, serialize, tomography
from .atom import Polarization
from .config import EXPERIMENTS, ConfigError, RunConfig, load_config
from .rng import substream

__all__ = ["main", "run"]

_POL_NAMES = {"sigma+": Polarization.SIGMA_PLUS, "sigma-": Polarization.SIGMA_MINUS, "pi": Polarization.PI}


def _run_detmatrix(cfg: RunConfig, which: str) -> Iterator[tuple[str, str]]:
    p = cfg.params
    fn = scatter.detection_matrix_s if which == "s" else scatter.detection_matrix_d
    m = fn(
        b_gauss=p["b_gauss"],
        trials=p["trials"],
        seed=cfg.seed,
        intensity=p["intensity"],
        method=p["method"],
    )
    yield f"detmatrix_{which}.txt", serialize.write_detection_matrix(m, cfg.config_hash)


def _run_darkstates(cfg: RunConfig) -> Iterator[tuple[str, str]]:
    p = cfg.params
    pols = [_POL_NAMES[s] for s in p["pols"].split(",")]
    if p["detuning_mode"] == "standard":
        beam = scatter.standard_beam(scatter.BeamColor.RED_650, pols, p["b_gauss"])
        dets = dict(beam.detuning_hz)
    else:
        dets = {q: 0.0 for q in pols}
    states = scatter.find_dark_states(pols, p["b_gauss"], dets)
    fields = [("pols:", p["pols"]), ("b_gauss:", p["b_gauss"]), ("count:", len(states))]
    for st in states:
        tag = "stationary" if st.stationary else "non-stationary"
        fields.append((f"dark {tag}", st.amplitudes.real))
    yield "darkstates.txt", serialize.write_record("dark-states", fields, cfg.config_hash, cfg.seed)


def _run_tomo(cfg: RunConfig) -> Iterator[tuple[str, str]]:
    p = cfg.params
    if p["matrix_source"] == "chain":
        matrix = scatter.chain_detection_matrix_d(p["b_gauss"], p["intensity"], seed=cfg.seed)
    else:
        try:
            matrix = serialize.parse_detection_matrix(Path(p["matrix_source"]).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError("matrix_source", f"cannot use {p['matrix_source']!r}: {exc}") from None
    yield "matrix.txt", serialize.write_detection_matrix(matrix, cfg.config_hash)
    counts = tomography.synth_counts(
        list(p["populations"]),
        p["efficiency"],
        p["background"],
        matrix,
        p["trials"],
        cfg.seed,
        scaled_background=p["scaled_background"],
    )
    yield "counts.txt", serialize.write_counts(counts, cfg.config_hash, cfg.seed)
    direct = tomography.solve_direct(counts, matrix, p["scaled_background"])
    yield "estimate_direct.txt", serialize.write_estimate(direct, cfg.config_hash, cfg.seed)
    constrained = tomography.solve_constrained(
        counts, matrix, p["efficiency"], p["scaled_background"]
    )
    yield "estimate_constrained.txt", serialize.write_estimate(constrained, cfg.config_hash, cfg.seed)


def _fields(result, names: tuple[str, ...]) -> list[tuple[str, object]]:
    """One ``name:`` field per named attribute of a result."""
    return [(f"{name}:", getattr(result, name)) for name in names]


def _run_rabi(cfg: RunConfig) -> Iterator[tuple[str, str]]:
    p = cfg.params
    times = np.linspace(0.0, p["t_max_s"], p["n_times"])
    drive = dynamics.EffectiveDrive(kind=p["kind"], rabi_rad_s=p["omega_rad_s"])
    decay = dynamics.DecayModel(tau_s=p["tau_s"])
    start = np.zeros(4, complex)
    start[3] = 1.0  # populate the top edge state
    traj = dynamics.evolve(start, drive, decay, times)
    pops = traj.populations.copy()
    if p["noise_frac"] > 0:
        rng = substream(cfg.seed, "rabi-noise")
        pops = np.clip(pops + p["noise_frac"] * rng.standard_normal(pops.shape), 0.0, 1.0)
    yield "trajectory.csv", serialize.write_table(
        "table",
        ["time_s", "p_d_m3_2", "p_d_m1_2", "p_d_p1_2", "p_d_p3_2"],
        [times] + [pops[:, i] for i in range(4)],
        cfg.config_hash,
        cfg.seed,
    )
    fit = dynamics.fit_rabi(times, pops, p["kind"], initial=start)
    names = ("omega_rad_s", "omega_err", "tau_s", "tau_err", "residual_rms", "decay_free_bound")
    fields = [("kind:", p["kind"])] + _fields(fit, names)
    yield "rabi_fit.txt", serialize.write_record("rabi-fit", fields, cfg.config_hash, cfg.seed)


def _run_synthprep(cfg: RunConfig) -> Iterator[tuple[str, str]]:
    p = cfg.params
    schedule, state = dynamics.prepare_d1_by_rotation(p["omega_rad_s"], p["phi"])
    proj = dynamics.project_synth(state, p["phi"])
    fields = [
        ("drive_kind:", schedule.drive.kind),
        ("rabi_rad_s:", schedule.drive.rabi_rad_s),
        ("drive_phase_rad:", schedule.drive.phase_rad),
        ("duration_s:", schedule.duration_s),
        ("state_re:", state.real),
        ("state_im:", state.imag),
    ] + _fields(proj, ("p_d1", "p_d2", "leakage"))
    text = serialize.write_record("synthetic-preparation", fields, cfg.config_hash, cfg.seed)
    yield "synthprep.txt", text


def _run_stirap(cfg: RunConfig) -> Iterator[tuple[str, str]]:
    p = cfg.params
    res = dynamics.stirap_prepare(
        p["peak_pump_rad_s"],
        p["peak_stokes_rad_s"],
        p["width_s"],
        p["delay_s"],
        p["total_s"],
        steps=p["steps"],
    )
    names = ("fidelity", "peak_p_population", "loss", "counterintuitive", "final_populations")
    fields = _fields(res, names)
    yield "stirap.txt", serialize.write_record("adiabatic-passage", fields, cfg.config_hash, cfg.seed)


def _run_ramsey(cfg: RunConfig) -> Iterator[tuple[str, str]]:
    p = cfg.params
    noise = ramsey.NoiseModel(
        sigma_b_mg=p["sigma_b_mg"], residual_rate_per_s=p["residual_rate_per_s"]
    )
    delays = np.linspace(p["max_delay_s"] / p["n_delays"], p["max_delay_s"], p["n_delays"])
    scan = ramsey.ramsey_scan(
        p["sensitivity_khz_per_mg"],
        noise,
        delays,
        p["shots"],
        cfg.seed,
        readout=p["readout"],
        fringe_detuning_hz=p["fringe_detuning_hz"],
    )
    yield "ramsey_scan.csv", serialize.write_table(
        "table",
        ["delay_s", "probability", "contrast", "contrast_err"],
        [scan.delays_s, scan.probabilities, scan.contrast, scan.errors],
        cfg.config_hash,
        cfg.seed,
    )
    fit = ramsey.fit_t2star(scan)
    names = ("t2_s", "t2_err", "amplitude", "floor", "at_upper_bound", "at_lower_bound")
    fields = _fields(fit, names)
    yield "t2_fit.txt", serialize.write_record("t2-fit", fields, cfg.config_hash, cfg.seed)


def _run_benchmark(cfg: RunConfig) -> Iterator[tuple[str, str]]:
    p = cfg.params
    rows = ramsey.benchmark_suite(
        seed=cfg.seed,
        shots=p["shots"],
        s_target_t2_s=p["s_target_t2_s"],
        synth_target_t2_s=p["synth_target_t2_s"],
    )
    names = ("label", "sensitivity_khz_per_mg", "t2_s", "t2_err", "unbounded")
    yield "benchmark.csv", serialize.write_table(
        "benchmark",
        ["qubit", "sensitivity_khz_per_mg", "t2_s", "t2_err_s", "unbounded"],
        [[getattr(r, name) for r in rows] for name in names],
        cfg.config_hash,
        cfg.seed,
    )


_RUNNERS = {
    "detmatrix_s": lambda c: _run_detmatrix(c, "s"),
    "detmatrix_d": lambda c: _run_detmatrix(c, "d"),
    "darkstates": _run_darkstates,
    "tomo": _run_tomo,
    "rabi": _run_rabi,
    "synthprep": _run_synthprep,
    "stirap": _run_stirap,
    "ramsey": _run_ramsey,
    "benchmark": _run_benchmark,
}


def run(cfg: RunConfig, quiet: bool = False) -> list[Path]:
    """Dispatch one experiment, writing each document as its runner yields it; returns the paths."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    resolved = [("resolved.cfg", cfg.canonical_text())]
    for name, text in itertools.chain(resolved, _RUNNERS[cfg.experiment](cfg)):
        path = out / name
        path.write_text(text)
        if not quiet:
            print(f"wrote {path}")
        paths.append(path)
    if not quiet:
        print(f"config-hash: {cfg.config_hash}  seed: {cfg.seed}")
    return paths


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqubit",
        description="Reproducible experiments on the metastable-manifold qubit toolkit",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, specs in EXPERIMENTS.items():
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", metavar="PATH", help="INI config file")
        sp.add_argument("--seed", type=int, metavar="N", help="RNG seed, 0 <= N < 2**63")
        sp.add_argument("--out", metavar="DIR", default=None, help="output directory")
        sp.add_argument("--trials", type=int, metavar="N", help="override trial count")
        sp.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config:
            cfg = load_config(args.config, args.experiment)
        else:
            cfg = RunConfig(experiment=args.experiment)
        if args.seed is not None:
            cfg = RunConfig(experiment=cfg.experiment, seed=args.seed, params=cfg.params)
        if args.trials is not None:
            if "trials" not in {p.name for p in EXPERIMENTS[cfg.experiment]}:
                raise ConfigError("trials", f"not a parameter of {cfg.experiment}")
            params = dict(cfg.params, trials=args.trials)
            cfg = RunConfig(experiment=cfg.experiment, seed=cfg.seed, params=params)
        cfg.out_dir = args.out if args.out is not None else "."
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        run(cfg, quiet=args.quiet)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (dynamics.FitFailureError, scatter.NonTerminatingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
