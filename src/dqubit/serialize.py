"""The one text record format of every document the CLI writes.

A record is a header line ``# dqubit <kind> v1``, then ``config-hash:`` and
``seed:`` lines when those are known, then one line per field.  A field is a
``(key, value)`` pair written as ``key value``; the key carries its own
separator, so ``("trials:", 5)`` writes ``trials: 5`` and
``("mean sigma+", row)`` writes ``mean sigma+ ...``.  Fields whose value is
``None`` are left out.  Values are written by one rule: strings, booleans and
integers as ``str``, floats with 17 significant digits (so payloads
round-trip exactly and reruns with the same seed are byte-identical), and
sequences space-joined.  Tables (trajectories, scans, benchmark rows) share
the header and the value rule, followed by one comma-separated header row and
one line per row.  ``parse_record`` reads a record back into ``(key, words)``
pairs; the typed parsers are lookups over it and raise only ``ValueError``.
"""
from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from .scatter import DetectionMatrix
from .tomography import CountsVector, PopulationEstimate

__all__ = [
    "fmt",
    "write_record",
    "parse_record",
    "write_detection_matrix",
    "parse_detection_matrix",
    "write_counts",
    "parse_counts",
    "write_estimate",
    "write_table",
]


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _text(value: Any) -> str:
    if isinstance(value, (float, np.floating)):
        return fmt(value)
    if isinstance(value, (str, int, np.integer, np.bool_)):
        return str(value)
    return " ".join(_text(v) for v in value)


def write_record(
    kind: str,
    fields: Sequence[tuple[str, Any]],
    config_hash: Optional[str] = None,
    seed: Optional[int] = None,
) -> str:
    """Header line, then a ``key value`` line per field, header fields first; None is left out."""
    fields = [("config-hash:", config_hash), ("seed:", seed), *fields]
    lines = [f"# dqubit {kind} v1"]
    lines += [f"{key} {_text(value)}" for key, value in fields if value is not None]
    return "\n".join(lines) + "\n"


def parse_record(text: str) -> list[tuple[str, list[str]]]:
    """``(key, words)`` per field line; a key is one word ending in ':', else two words."""
    pairs = []
    for line in text.splitlines():
        words = line.split()
        if not words or words[0].startswith("#"):
            continue
        n = 1 if words[0].endswith(":") else 2
        pairs.append((" ".join(words[:n]), words[n:]))
    return pairs


def _int(record: dict[str, list[str]], key: str, default: int) -> int:
    return int(" ".join(record[key])) if key in record else default


def write_detection_matrix(m: DetectionMatrix, config_hash: Optional[str] = None) -> str:
    fields = [("trials:", m.trials), ("rows:", m.row_labels), ("cols:", m.col_labels)]
    for kind, table in (("mean", m.means), ("sem", m.sems)):
        fields += [(f"{kind} {label}", row) for label, row in zip(m.row_labels, table)]
    return write_record("detection-matrix", fields, config_hash, m.seed)


def parse_detection_matrix(text: str) -> DetectionMatrix:
    record = dict(parse_record(text))
    rows, cols = record.get("rows:"), record.get("cols:")
    if not rows or not cols:
        raise ValueError("detection-matrix document is missing rows/cols declarations")
    tables: dict[str, list[list[float]]] = {"mean": [], "sem": []}
    for kind, table in tables.items():
        for r in rows:
            words = record.get(f"{kind} {r}")
            if words is None:
                raise ValueError(f"detection-matrix document has no {kind} line for row {r!r}")
            if len(words) != len(cols):
                raise ValueError(
                    f"{kind} line of row {r!r} has {len(words)} values for {len(cols)} columns"
                )
            values = [float(v) for v in words]
            if not np.isfinite(values).all():
                raise ValueError(f"{kind} line of row {r!r} has a non-finite value")
            table.append(values)
    return DetectionMatrix(
        row_labels=tuple(rows),
        col_labels=tuple(cols),
        means=np.array(tables["mean"]),
        sems=np.array(tables["sem"]),
        trials=_int(record, "trials:", 0),
        seed=_int(record, "seed:", 0),
    )


def write_counts(c: CountsVector, config_hash: Optional[str] = None, seed: Optional[int] = None) -> str:
    fields = [("trials:", c.trials), ("settings:", c.labels or None), ("means:", c.values)]
    return write_record("counts", fields, config_hash, seed)


def parse_counts(text: str) -> CountsVector:
    record = dict(parse_record(text))
    if "means:" not in record:
        raise ValueError("counts document has no means line")
    return CountsVector(
        values=np.array([float(v) for v in record["means:"]]),
        trials=_int(record, "trials:", 1),
        labels=tuple(record.get("settings:", ())),
    )


def write_estimate(
    e: PopulationEstimate, config_hash: Optional[str] = None, seed: Optional[int] = None
) -> str:
    fields = [
        ("method:", e.method),
        ("populations:", e.populations),
        ("background:", e.background),
        ("efficiency:", e.efficiency),
        ("background-scaled-by-efficiency:", e.background_scaled_by_efficiency),
        ("residual-norm:", e.residual_norm),
        ("out-of-bounds:", e.out_of_bounds or None),
        ("active-constraints:", e.active_constraints or None),
        ("covariance-shape:", f"{e.covariance.shape[0]}x{e.covariance.shape[1]}"),
    ]
    fields += [("cov:", row) for row in np.atleast_2d(e.covariance)]
    return write_record("population-estimate", fields, config_hash, seed)


def write_table(
    kind: str,
    header: Sequence[str],
    columns: Sequence[Sequence[Any]],
    config_hash: Optional[str] = None,
    seed: Optional[int] = None,
) -> str:
    """A record without fields, then one comma-separated header row and one line per row."""
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("all columns must have equal length")
    lines = [",".join(header)] + [",".join(_text(col[i]) for col in columns) for i in range(n)]
    return write_record(kind, [], config_hash, seed) + "\n".join(lines) + "\n"
