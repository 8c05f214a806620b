"""Benchmark of the dqubit CLI experiments: one command, every metric, checked outputs.

Usage, from the root of a checkout::

    python3 bench/run.py --workload detect-jump --seed 1 --seconds 30 --trace 0

Workloads (see ``bench/workloads.py``):

- ``detect-jump``: ``detmatrix_d`` and ``detmatrix_s`` with the quantum-jump engine.
- ``detect-chain``: the same matrices sampled from the classical chain, two
  tomography runs (exact chain matrix, and the matrix file just written) and
  ``darkstates``.
- ``coherence``: ``rabi``, ``stirap``, ``synthprep``, ``ramsey``, ``benchmark``.

The run measures ``setup_s`` (median ``import dqubit.cli`` time over
``SETUP_REPEATS`` fresh processes), then starts one fresh worker process
with BLAS threads capped at ``THREAD_CAP``.  The worker repeats the
workload's pass over derived seeds for ``--seconds`` and checks every output
against independent references.  With ``--trace 0`` the last line carries
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of the traced passes.  The full record (host facts, per-pass timings,
check results, physics fingerprint) is written under ``.bench_work/``.

End-to-end metrics: ``wall_s`` (median pass wall time, set-up excluded),
``setup_s``, ``peak_rss_mb`` (worker ``ru_maxrss``) and
``trajectories_per_s`` (configured Monte Carlo trajectories per second of
the operations that simulate them: trials x cells of the detection matrices,
shots x delays of the Ramsey scan).  ``wall_s``, ``setup_s`` and
``trajectories_per_s`` are scaled to a reference host speed by the probe of
``bench/hostspeed.py``, measured next to each timing; the raw figures are
printed and kept in the record.  ``fail_frac`` (failed / attempted
operations) is reported with the per-layer metrics and in the
``failed``/``attempted`` fields of every result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

THREAD_CAP = 1  # <= nproc; the 6x6 and 4x4 products gain nothing from BLAS threads
SETUP_REPEATS = 7
DEADLINE_S = 170  # a run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import dqubit.cli; d = time.perf_counter() - t; "
    f"import sys; sys.path.insert(0, {str(BENCH)!r}); import hostspeed; "
    "print(d, hostspeed.probe(), dqubit.cli.__file__)"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: str(THREAD_CAP) for var in THREAD_VARS})
    return env


def measure_setup(env: dict[str, str], cwd: Path, deadline: float) -> list[dict]:
    """``import dqubit.cli`` wall time and the host-speed probe, in each of several fresh processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=cwd, capture_output=True,
            text=True, timeout=deadline - time.monotonic(), check=True,
        ).stdout.split()
        if Path(out[2]).resolve().parent != (ROOT / "src" / "dqubit").resolve():
            raise RuntimeError(f"imported dqubit from {out[2]}, not this checkout")
        samples.append({"import_s": float(out[0]), "probe_s": float(out[1])})
    return samples


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def host_facts(seed: int, worker: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": worker["versions"]["python"],
        "numpy": worker["versions"]["numpy"],
        "scipy": worker["versions"]["scipy"],
        "blas": worker["blas"],
        "blas_thread_cap": THREAD_CAP,
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def metric_values(worker: dict, setup: list[dict], traced: int) -> dict[str, float]:
    """End-to-end metrics of an untraced run, or per-layer metrics of a traced one."""
    if traced:
        return dict(worker["per_layer"], fail_frac=worker["failed"] / worker["attempted"])
    return {
        "wall_s": worker["wall_s"],
        "setup_s": statistics.median(s["import_s"] * hostspeed.scale(s["probe_s"]) for s in setup),
        "peak_rss_mb": worker["peak_rss_mb"],
        "trajectories_per_s": worker["trajectories_per_s"],
    }


def load_manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "dqubit" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} holds no dqubit sources (src/dqubit) or oracles (tests/oracles.py)", file=sys.stderr)
        return 2
    manifest = load_manifest()
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = ROOT / ".bench_work" / "results"
    workdir = ROOT / ".bench_work" / f"run-{tag}-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True)
    record_path = results / f"{tag}.json"
    result_path = workdir / "worker.json"
    try:
        setup = [] if args.trace else measure_setup(env, workdir, deadline)
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir), "--result", str(result_path),
            "--spans", str(results / f"{tag}-spans.jsonl"),
        ]
        subprocess.run(cmd, env=env, cwd=workdir, timeout=deadline - time.monotonic(), check=True)
        worker = json.loads(result_path.read_text())
    except (subprocess.SubprocessError, ValueError) as exc:  # failed, timed out or killed
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = worker["attempted"], worker["failed"]
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    values = metric_values(worker, setup, args.trace)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in sorted(values)}
    record = {
        "host": host_facts(args.seed, worker),
        "setup_samples": setup,
        "metrics": metrics,
        **{k: v for k, v in worker.items() if k not in ("versions", "blas", "per_layer")},
    }
    record_path.write_text(json.dumps(record, indent=1))

    for rec in worker["failures"]:
        print(f"FAILED {rec['op']} (pass seed {rec['seed']}): {'; '.join(rec['problems'])}")
    print("host: " + json.dumps(record["host"]))
    print(f"workload {args.workload} seed {args.seed}: {worker['passes']} passes, "
          f"fail_frac {failed}/{attempted}, blas threads {THREAD_CAP}, record {record_path.relative_to(ROOT)}")
    raw_setup = f", setup_s {statistics.median(s['import_s'] for s in setup):.6g} s" if setup else ""
    print(f"raw (unscaled): wall_s {worker['raw_wall_s']:.6g} s{raw_setup}; "
          f"host-speed probe median {statistics.median(worker['probe_s']):.6g} s (reference {hostspeed.PROBE_REF_S} s)")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
