"""Outside-in tracing: wrappers on the public functions callers look up.

A wrapper is installed as a module attribute, at the name the calling code
resolves at call time (``scatter.uniform_table`` rather than
``rng.uniform_table``, because scatter binds it with ``from .rng import``).
Each call records one span ``[name, parent, start, end, info]`` in memory;
``info`` holds per-call counts (trajectories, rows, bytes).  ``restore`` puts every
original function back.  Private helpers are never wrapped.
"""
from __future__ import annotations

import inspect
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

NAME, PARENT, START, END, INFO = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    # -- installation ----------------------------------------------------
    def wrap(self, module, attr: str, name, info=None) -> None:
        """Record a span per call of ``module.attr``.

        ``name`` is a string or ``name(bound_args) -> str``; ``info`` maps
        ``(bound_args, result)`` to a dict of counts stored on the span.
        """
        fn = getattr(module, attr)
        sig = inspect.signature(fn) if callable(name) or info else None
        tracer = self

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if sig else None
            rec = tracer._open(name(bound) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if info is not None:
                rec[INFO] = info(bound, out)
            return out

        self._install(module, attr, fn, wrapper)

    def count(self, module, attr: str, name: str) -> None:
        """Count calls of ``module.attr`` without a span (for call-heavy leaves)."""
        fn = getattr(module, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._install(module, attr, fn, wrapper)

    def _install(self, module, attr, fn, wrapper) -> None:
        wrapper.__wrapped__ = fn
        self._saved.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    # -- output ----------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                own[rec[PARENT]] -= rec[END] - rec[START]
        return own

    def ancestor(self, idx: int, name: str) -> bool:
        """Whether span ``idx`` runs inside a span called ``name``."""
        p = self.spans[idx][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False

    def dump(self, fh, **tags) -> None:
        """Write the spans as JSON lines, one span per line."""
        for i, (name, parent, start, end, info) in enumerate(self.spans):
            rec = {"id": i, "name": name, "parent": parent, "start": start, "end": end}
            if info:
                rec["info"] = info
            fh.write(json.dumps({**tags, **rec}) + "\n")


def _pumping_name(a) -> str:
    return "scatter.simulate_pumping." + a.get("method", "jump")


def _pumping_info(a, res) -> dict:
    return {
        "trajectories": a["trials"],
        "capped": round(res.capped_fraction * a["trials"]),
        "bright": bool(res.mean > 0),
    }


def _table_info(a, out) -> dict:
    return {"rows": a["n_trials"], "draws": a["n_trials"] * a["n_draws"]}


def _bytes_info(a, out) -> dict:
    return {"bytes": len(out.encode())}


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the ``dqubit`` package."""
    from dqubit import cli, dynamics, ramsey, scatter, serialize, tomography

    tracer.wrap(scatter, "simulate_pumping", _pumping_name, _pumping_info)
    tracer.wrap(scatter, "build_model", "scatter.build_model")
    tracer.wrap(scatter, "uniform_table", "rng.uniform_table", _table_info)
    tracer.wrap(scatter, "chain_expected_counts", "scatter.chain_expected_counts")
    tracer.wrap(dynamics, "evolve", "dynamics.evolve")
    tracer.wrap(dynamics, "fit_rabi", "dynamics.fit_rabi")
    tracer.wrap(dynamics, "stirap_prepare", "dynamics.stirap_prepare")
    tracer.count(dynamics, "expm", "scipy.expm")
    tracer.wrap(cli, "load_config", "config.load_config")
    for fn in ("ramsey_scan", "fit_t2star", "calibrate_residual_rate", "benchmark_suite"):
        tracer.wrap(ramsey, fn, "ramsey." + fn)
    for fn in ("synth_counts", "solve_direct", "solve_constrained"):
        tracer.wrap(tomography, fn, "tomography." + fn)
    for fn in ("write_detection_matrix", "write_counts", "write_estimate", "write_table"):
        tracer.wrap(serialize, fn, "serialize.write", _bytes_info)
    tracer.wrap(serialize, "parse_detection_matrix", "serialize.parse_detection_matrix")


def span_metric_names(manifest: dict) -> list[str]:
    """BENCHMARK.json per-layer names computed from spans; the worker adds bench.*, run.py fail_frac."""
    return [m["name"] for m in manifest["per_layer"] if not m["name"].startswith("bench.") and m["name"] != "fail_frac"]


def layer_metrics(tracer: Tracer, names) -> dict[str, float]:
    """Per-layer totals of one traced pass for the given metric names (0 for layers never called)."""
    own = tracer.self_times()
    m: Counter = Counter()
    bright_max = 0.0
    for i, (name, _, start, end, info) in enumerate(tracer.spans):
        dur = end - start
        m[name + ".s"] += dur
        m[name + ".self_s"] += own[i]
        m[name + ".calls"] += 1
        for key, val in (info or {}).items():
            if key != "bright":
                m[f"{name}.{key}"] += val
        if name == "scatter.simulate_pumping.jump" and info and info["bright"]:
            bright_max = max(bright_max, dur)
        if name == "dynamics.evolve" and tracer.ancestor(i, "dynamics.fit_rabi"):
            m["dynamics.fit_rabi.evolve_calls"] += 1
        if name == "ramsey.ramsey_scan" and tracer.ancestor(i, "ramsey.calibrate_residual_rate"):
            m["ramsey.calibrate_residual_rate.scans"] += 1
    jump = "scatter.simulate_pumping.jump"
    m[jump + ".bright_cell_max_s"] = bright_max
    m[jump + ".capped_frac"] = m[jump + ".capped"] / m[jump + ".trajectories"] if m[jump + ".calls"] else 0.0
    m["scipy.expm.calls"] = tracer.counts["scipy.expm"]
    return {k: float(m[k]) for k in names}

