"""One benchmark run of one workload, in a fresh process.

Started by ``bench/run.py`` with BLAS threads capped and ``src`` on the path.
It repeats the workload's pass (its experiment sequence, each call made
through ``dqubit.cli.main``) until ``--seconds`` is used up, checks every
output after its pass, and writes a JSON record of timings, checks,
fingerprints and per-layer metrics to ``--result``.

The host-speed probe (``bench/hostspeed.py``) runs before the first pass
and after every pass; each pass time is scaled to reference seconds by the
mean of the probes on either side of it.

With ``--trace 1`` passes come in pairs on the same derived seed: first
untraced, then traced.  The tracing overhead is the scaled time of the traced
pass minus that of the untraced one; the raw difference would mostly measure
how the host's speed changed between the two.  Span times are raw.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_package():
    """Import ``dqubit.cli`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "dqubit" / "cli.py").is_file():
        raise SystemExit(f"error: no dqubit package under {src}")
    sys.path.insert(0, str(src))
    import dqubit.cli

    if Path(dqubit.cli.__file__).resolve().parent != (src / "dqubit").resolve():
        raise SystemExit(f"error: imported dqubit from {dqubit.cli.__file__}, not {src}")
    return dqubit.cli


def run_pass(cli, ops, pass_dir: Path, tracer=None) -> tuple[float, list[dict]]:
    """Execute one pass; returns its wall time and one record per operation."""
    pass_dir.mkdir(parents=True)
    for op in ops:
        (pass_dir / f"{op.label}.cfg").write_text(op.config_text())
    records = []
    wall = 0.0
    for op in ops:
        err = io.StringIO()
        span = tracer.span(f"cli.{op.experiment}") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err), span:
                rc = cli.main(op.argv(pass_dir))
        except (Exception, SystemExit):  # raising or exiting counts as a failed operation
            rc = None
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
        wall += dt
        records.append(
            {"op": op.label, "experiment": op.experiment, "seed": op.seed, "seconds": dt, "rc": rc, "stderr": err.getvalue()}
        )
    return wall, records


def check_pass(checker, ops, records, pass_dir: Path) -> None:
    for op, rec in zip(ops, records):
        out = pass_dir / op.label
        if rec["rc"] == 0:
            rec["problems"], rec["fingerprint"] = checker.check(op.experiment, out)
        else:
            rec["problems"] = [f"exit code {rec['rc']}: {rec['stderr'].strip()[-500:]}"]
        rec["ok"] = not rec["problems"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, required=True, help="JSON-lines span file, written when tracing")
    args = ap.parse_args(argv)

    cli = import_package()
    os.chdir(args.workdir)
    import numpy as np
    import scipy

    checker = checks.Checker(ROOT)
    started = time.perf_counter()
    passes, records_all, tracers, overheads = [], [], [], []
    probes = [hostspeed.probe()]
    k = 0
    while True:
        seed = workloads.pass_seed(args.seed, k)
        for traced in (False, True)[: 1 + args.trace]:
            pass_dir = Path("pass")  # relative, so configs depend on the seed alone
            ops = workloads.build_pass(args.workload, seed, pass_dir)
            tracer = tracing.Tracer() if traced else None
            if tracer:
                tracing.install(tracer)
            try:
                wall, records = run_pass(cli, ops, pass_dir, tracer)
            finally:
                if tracer:
                    tracer.restore()
            check_pass(checker, ops, records, pass_dir)
            shutil.rmtree(pass_dir)
            records_all += records
            probes.append(hostspeed.probe())
            scale = hostspeed.scale(0.5 * (probes[-2] + probes[-1]))
            if traced:
                tracers.append(tracer)
                untraced = passes[-1]
                overheads.append((wall, wall * scale - untraced["wall_s"] * untraced["scale"]))
            else:
                passes.append({"pass": k, "seed": seed, "wall_s": wall, "scale": scale, "ops": records,
                               "trajectories": sum(op.trajectories for op in ops),
                               "trajectory_op_s": sum(r["seconds"] for op, r in zip(ops, records) if op.trajectories)})
        k += 1
        # stop where the run ends nearest to --seconds: one more round would overshoot more
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / k > args.seconds:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "attempted": len(records_all),
        "failed": sum(not r["ok"] for r in records_all),
        "wall_s": statistics.median(p["wall_s"] * p["scale"] for p in passes),
        "trajectories_per_s": statistics.median(
            p["trajectories"] / (p["trajectory_op_s"] * p["scale"]) for p in passes
        ),
        "raw_wall_s": statistics.median(p["wall_s"] for p in passes),
        "probe_s": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__},
        "blas": blas_info(np),
        "failures": [r for r in records_all if not r["ok"]],
        "pass_records": passes,
    }
    if tracers:
        names = tracing.span_metric_names(json.loads((ROOT / "BENCHMARK.json").read_text()))
        layers = [tracing.layer_metrics(t, names) for t in tracers]
        per_layer = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        per_layer["bench.traced_wall_s"] = statistics.median(w for w, _ in overheads)
        per_layer["bench.trace_overhead_s"] = statistics.median(d for _, d in overheads)
        result["per_layer"] = per_layer
        with args.spans.open("w") as fh:
            for i, t in enumerate(tracers):
                t.dump(fh, traced_pass=i)
    args.result.write_text(json.dumps(result, indent=1, default=str))
    return 0


def blas_info(np) -> dict:
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except Exception as exc:  # older numpy without mode="dicts"
        return {"name": f"unknown ({exc!r})"}


if __name__ == "__main__":
    sys.exit(main())
