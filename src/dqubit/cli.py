"""Command-line front end: one subcommand per experiment, reproducible outputs.

Every run writes its artifacts plus a ``resolved.cfg`` echo of the full
configuration (defaults filled in) into the output directory; each artifact
embeds the config hash and seed.  Exit codes: 0 success, 1 configuration
error (the offending key is named), 2 runtime or fit failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import dynamics, ramsey, scatter, serialize, tomography
from .atom import Polarization
from .config import EXPERIMENTS, ConfigError, RunConfig, load_config
from .rng import substream

__all__ = ["main", "run"]

_POL_NAMES = {"sigma+": Polarization.SIGMA_PLUS, "sigma-": Polarization.SIGMA_MINUS, "pi": Polarization.PI}


def _write(out_dir: Path, name: str, text: str, quiet: bool) -> Path:
    path = out_dir / name
    path.write_text(text)
    if not quiet:
        print(f"wrote {path}")
    return path


def _run_detmatrix(cfg: RunConfig, out: Path, quiet: bool, which: str) -> list[Path]:
    p = cfg.params
    fn = scatter.detection_matrix_s if which == "s" else scatter.detection_matrix_d
    m = fn(
        b_gauss=p["b_gauss"],
        trials=p["trials"],
        seed=cfg.seed,
        intensity=p["intensity"],
        method=p["method"],
    )
    text = serialize.write_detection_matrix(m, cfg.config_hash)
    return [_write(out, f"detmatrix_{which}.txt", text, quiet)]


def _run_darkstates(cfg: RunConfig, out: Path, quiet: bool) -> list[Path]:
    p = cfg.params
    pols = [_POL_NAMES[s] for s in p["pols"].split(",")]
    dets = None
    if p["detuning_mode"] == "standard":
        beam = scatter.standard_beam(scatter.BeamColor.RED_650, pols, p["b_gauss"])
        dets = dict(beam.detuning_hz)
    else:
        dets = {q: 0.0 for q in pols}
    states = scatter.find_dark_states(pols, p["b_gauss"], dets)
    lines = serialize.header_lines("dark-states", cfg.config_hash, cfg.seed)
    lines.append(f"pols: {p['pols']}")
    lines.append(f"b_gauss: {serialize.fmt(p['b_gauss'])}")
    lines.append(f"count: {len(states)}")
    for st in states:
        amp = " ".join(serialize.fmt(a) for a in st.amplitudes.real)
        tag = "stationary" if st.stationary else "non-stationary"
        lines.append(f"dark {tag} {amp}")
    return [_write(out, "darkstates.txt", "\n".join(lines) + "\n", quiet)]


def _run_tomo(cfg: RunConfig, out: Path, quiet: bool) -> list[Path]:
    p = cfg.params
    if p["matrix_source"] == "chain":
        matrix = scatter.chain_detection_matrix_d(p["b_gauss"], p["intensity"], seed=cfg.seed)
    else:
        try:
            matrix = serialize.parse_detection_matrix(Path(p["matrix_source"]).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError("matrix_source", f"cannot use {p['matrix_source']!r}: {exc}") from None
    counts = tomography.synth_counts(
        list(p["populations"]),
        p["efficiency"],
        p["background"],
        matrix,
        p["trials"],
        cfg.seed,
        scaled_background=p["scaled_background"],
    )
    direct = tomography.solve_direct(counts, matrix, p["scaled_background"])
    constrained = tomography.solve_constrained(
        counts, matrix, p["efficiency"], p["scaled_background"]
    )
    return [
        _write(out, "matrix.txt", serialize.write_detection_matrix(matrix, cfg.config_hash), quiet),
        _write(out, "counts.txt", serialize.write_counts(counts, cfg.config_hash, cfg.seed), quiet),
        _write(out, "estimate_direct.txt", serialize.write_estimate(direct, cfg.config_hash, cfg.seed), quiet),
        _write(
            out,
            "estimate_constrained.txt",
            serialize.write_estimate(constrained, cfg.config_hash, cfg.seed),
            quiet,
        ),
    ]


def _run_rabi(cfg: RunConfig, out: Path, quiet: bool) -> list[Path]:
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
    table = serialize.write_table(
        ["time_s", "p_d_m3_2", "p_d_m1_2", "p_d_p1_2", "p_d_p3_2"],
        [times] + [pops[:, i] for i in range(4)],
        cfg.config_hash,
        cfg.seed,
    )
    paths = [_write(out, "trajectory.csv", table, quiet)]
    fit = dynamics.fit_rabi(times, pops, p["kind"], initial=start)
    lines = serialize.header_lines("rabi-fit", cfg.config_hash, cfg.seed)
    lines.append(f"kind: {p['kind']}")
    lines.append(f"omega_rad_s: {serialize.fmt(fit.omega_rad_s)}")
    lines.append(f"omega_err: {serialize.fmt(fit.omega_err)}")
    lines.append(f"tau_s: {serialize.fmt(fit.tau_s)}")
    lines.append(f"tau_err: {serialize.fmt(fit.tau_err)}")
    lines.append(f"residual_rms: {serialize.fmt(fit.residual_rms)}")
    lines.append(f"decay_free_bound: {fit.decay_free_bound}")
    paths.append(_write(out, "rabi_fit.txt", "\n".join(lines) + "\n", quiet))
    return paths


def _run_synthprep(cfg: RunConfig, out: Path, quiet: bool) -> list[Path]:
    p = cfg.params
    schedule, state = dynamics.prepare_d1_by_rotation(p["omega_rad_s"], p["phi"])
    proj = dynamics.project_synth(state, p["phi"])
    lines = serialize.header_lines("synthetic-preparation", cfg.config_hash, cfg.seed)
    lines.append(f"drive_kind: {schedule.drive.kind}")
    lines.append(f"rabi_rad_s: {serialize.fmt(schedule.drive.rabi_rad_s)}")
    lines.append(f"drive_phase_rad: {serialize.fmt(schedule.drive.phase_rad)}")
    lines.append(f"duration_s: {serialize.fmt(schedule.duration_s)}")
    lines.append("state_re: " + " ".join(serialize.fmt(a) for a in state.real))
    lines.append("state_im: " + " ".join(serialize.fmt(a) for a in state.imag))
    lines.append(f"p_d1: {serialize.fmt(proj.p_d1)}")
    lines.append(f"p_d2: {serialize.fmt(proj.p_d2)}")
    lines.append(f"leakage: {serialize.fmt(proj.leakage)}")
    return [_write(out, "synthprep.txt", "\n".join(lines) + "\n", quiet)]


def _run_stirap(cfg: RunConfig, out: Path, quiet: bool) -> list[Path]:
    p = cfg.params
    res = dynamics.stirap_prepare(
        p["peak_pump_rad_s"],
        p["peak_stokes_rad_s"],
        p["width_s"],
        p["delay_s"],
        p["total_s"],
        steps=p["steps"],
    )
    lines = serialize.header_lines("adiabatic-passage", cfg.config_hash, cfg.seed)
    lines.append(f"fidelity: {serialize.fmt(res.fidelity)}")
    lines.append(f"peak_p_population: {serialize.fmt(res.peak_p_population)}")
    lines.append(f"loss: {serialize.fmt(res.loss)}")
    lines.append(f"counterintuitive: {res.counterintuitive}")
    lines.append(
        "final_populations: " + " ".join(serialize.fmt(v) for v in res.final_populations)
    )
    return [_write(out, "stirap.txt", "\n".join(lines) + "\n", quiet)]


def _run_ramsey(cfg: RunConfig, out: Path, quiet: bool) -> list[Path]:
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
    table = serialize.write_table(
        ["delay_s", "probability", "contrast", "contrast_err"],
        [scan.delays_s, scan.probabilities, scan.contrast, scan.errors],
        cfg.config_hash,
        cfg.seed,
    )
    paths = [_write(out, "ramsey_scan.csv", table, quiet)]
    fit = ramsey.fit_t2star(scan)
    lines = serialize.header_lines("t2-fit", cfg.config_hash, cfg.seed)
    lines.append(f"t2_s: {serialize.fmt(fit.t2_s)}")
    lines.append(f"t2_err: {serialize.fmt(fit.t2_err)}")
    lines.append(f"amplitude: {serialize.fmt(fit.amplitude)}")
    lines.append(f"floor: {serialize.fmt(fit.floor)}")
    lines.append(f"at_upper_bound: {fit.at_upper_bound}")
    lines.append(f"at_lower_bound: {fit.at_lower_bound}")
    paths.append(_write(out, "t2_fit.txt", "\n".join(lines) + "\n", quiet))
    return paths


def _run_benchmark(cfg: RunConfig, out: Path, quiet: bool) -> list[Path]:
    p = cfg.params
    rows = ramsey.benchmark_suite(
        seed=cfg.seed,
        shots=p["shots"],
        s_target_t2_s=p["s_target_t2_s"],
        synth_target_t2_s=p["synth_target_t2_s"],
    )
    lines = serialize.header_lines("benchmark", cfg.config_hash, cfg.seed)
    lines.append("qubit,sensitivity_khz_per_mg,t2_s,t2_err_s,unbounded")
    for r in rows:
        lines.append(
            f"{r.label},{serialize.fmt(r.sensitivity_khz_per_mg)},"
            f"{serialize.fmt(r.t2_s)},{serialize.fmt(r.t2_err)},{r.unbounded}"
        )
    return [_write(out, "benchmark.csv", "\n".join(lines) + "\n", quiet)]


_RUNNERS = {
    "detmatrix_s": lambda c, o, q: _run_detmatrix(c, o, q, "s"),
    "detmatrix_d": lambda c, o, q: _run_detmatrix(c, o, q, "d"),
    "darkstates": _run_darkstates,
    "tomo": _run_tomo,
    "rabi": _run_rabi,
    "synthprep": _run_synthprep,
    "stirap": _run_stirap,
    "ramsey": _run_ramsey,
    "benchmark": _run_benchmark,
}


def run(cfg: RunConfig, quiet: bool = False) -> list[Path]:
    """Dispatch one experiment; returns the written artifact paths."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [_write(out, "resolved.cfg", cfg.canonical_text(), quiet)]
    paths += _RUNNERS[cfg.experiment](cfg, out, quiet)
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
        sp.add_argument("--seed", type=int, metavar="N", help="RNG seed (64-bit)")
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
