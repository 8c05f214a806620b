"""Structured text formats exchanged between modules and emitted by the CLI.

Matrices, counts and estimates use a small line-oriented document format;
tabular data (trajectories, scans) are comma-separated with one header row.
Floats are written with 17 significant digits so payloads round-trip exactly
and reruns with the same seed are byte-identical.
"""
from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .scatter import DetectionMatrix
from .tomography import CountsVector, PopulationEstimate

__all__ = [
    "fmt",
    "write_detection_matrix",
    "parse_detection_matrix",
    "write_counts",
    "parse_counts",
    "write_estimate",
    "write_table",
    "header_lines",
]


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def header_lines(kind: str, config_hash: Optional[str] = None, seed: Optional[int] = None) -> list[str]:
    lines = [f"# dqubit {kind} v1"]
    if config_hash is not None:
        lines.append(f"config-hash: {config_hash}")
    if seed is not None:
        lines.append(f"seed: {seed}")
    return lines


def write_detection_matrix(
    m: DetectionMatrix, config_hash: Optional[str] = None
) -> str:
    lines = header_lines("detection-matrix", config_hash, m.seed)
    lines.append(f"trials: {m.trials}")
    lines.append("rows: " + " ".join(m.row_labels))
    lines.append("cols: " + " ".join(m.col_labels))
    for ri, label in enumerate(m.row_labels):
        lines.append(f"mean {label} " + " ".join(fmt(v) for v in m.means[ri]))
    for ri, label in enumerate(m.row_labels):
        lines.append(f"sem {label} " + " ".join(fmt(v) for v in m.sems[ri]))
    return "\n".join(lines) + "\n"


def parse_detection_matrix(text: str) -> DetectionMatrix:
    rows: list[str] = []
    cols: list[str] = []
    trials = 0
    seed = 0
    means: dict[str, list[float]] = {}
    sems: dict[str, list[float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("rows:"):
            rows = line.split(":", 1)[1].split()
        elif line.startswith("cols:"):
            cols = line.split(":", 1)[1].split()
        elif line.startswith("trials:"):
            trials = int(line.split(":", 1)[1])
        elif line.startswith("seed:"):
            seed = int(line.split(":", 1)[1])
        elif line.startswith("mean "):
            _, label, *vals = line.split()
            means[label] = [float(v) for v in vals]
        elif line.startswith("sem "):
            _, label, *vals = line.split()
            sems[label] = [float(v) for v in vals]
    if not rows or not cols:
        raise ValueError("detection-matrix document is missing rows/cols declarations")
    for kind, table in (("mean", means), ("sem", sems)):
        for r in rows:
            if r not in table:
                raise ValueError(f"detection-matrix document has no {kind} line for row {r!r}")
            if len(table[r]) != len(cols):
                raise ValueError(
                    f"{kind} line of row {r!r} has {len(table[r])} values for {len(cols)} columns"
                )
    return DetectionMatrix(
        row_labels=tuple(rows),
        col_labels=tuple(cols),
        means=np.array([means[r] for r in rows]),
        sems=np.array([sems[r] for r in rows]),
        trials=trials,
        seed=seed,
    )


def write_counts(c: CountsVector, config_hash: Optional[str] = None, seed: Optional[int] = None) -> str:
    lines = header_lines("counts", config_hash, seed)
    lines.append(f"trials: {c.trials}")
    if c.labels:
        lines.append("settings: " + " ".join(c.labels))
    lines.append("means: " + " ".join(fmt(v) for v in c.values))
    return "\n".join(lines) + "\n"


def parse_counts(text: str) -> CountsVector:
    trials = 1
    labels: tuple[str, ...] = ()
    values = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("trials:"):
            trials = int(line.split(":", 1)[1])
        elif line.startswith("settings:"):
            labels = tuple(line.split(":", 1)[1].split())
        elif line.startswith("means:"):
            values = np.array([float(v) for v in line.split(":", 1)[1].split()])
    if values is None:
        raise ValueError("counts document has no means line")
    return CountsVector(values=values, trials=trials, labels=labels)


def write_estimate(
    e: PopulationEstimate, config_hash: Optional[str] = None, seed: Optional[int] = None
) -> str:
    lines = header_lines("population-estimate", config_hash, seed)
    lines.append(f"method: {e.method}")
    lines.append("populations: " + " ".join(fmt(v) for v in e.populations))
    lines.append(f"background: {fmt(e.background)}")
    lines.append(f"efficiency: {fmt(e.efficiency)}")
    lines.append(f"background-scaled-by-efficiency: {e.background_scaled_by_efficiency}")
    lines.append(f"residual-norm: {fmt(e.residual_norm)}")
    if e.out_of_bounds:
        lines.append("out-of-bounds: " + " ".join(str(i) for i in e.out_of_bounds))
    if e.active_constraints:
        lines.append("active-constraints: " + " ".join(e.active_constraints))
    lines.append(f"covariance-shape: {e.covariance.shape[0]}x{e.covariance.shape[1]}")
    for row in np.atleast_2d(e.covariance):
        lines.append("cov: " + " ".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def write_table(
    header: Sequence[str],
    columns: Sequence[np.ndarray],
    config_hash: Optional[str] = None,
    seed: Optional[int] = None,
) -> str:
    """Comma-separated table with one header row; metadata rides in # comments."""
    meta = header_lines("table", config_hash, seed)
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("all columns must have equal length")
    lines = meta + [",".join(header)]
    for i in range(n):
        lines.append(",".join(fmt(col[i]) for col in columns))
    return "\n".join(lines) + "\n"
