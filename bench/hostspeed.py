"""Host-speed probe: a fixed piece of work whose time tracks how fast the host runs now.

The 2-vCPU host this benchmark was tuned on shares its cores with other
machines: the same computation takes up to 1.8 times as long from one minute
to the next, and the medians of two sets of runs of identical code moved by
up to 31%.  Every timed end-to-end
figure is therefore scaled to a reference host speed::

    reported = measured * PROBE_REF_S / probe

where ``probe`` is the time of :func:`probe` measured next to the timed work
(in the same process, just before and after it).  The probe does what the
workloads do most: small complex matrix products, reductions and Python-loop
overhead, on one thread.  It calls no ``dqubit`` code, so a change to the
package moves the reported figures and the probe does not.  The raw times are
kept beside the scaled ones in every record.
"""
from __future__ import annotations

import time

import numpy as np

PROBE_REF_S = 0.1  # probe time that defines the reference host speed
PROBE_ITERATIONS = 3000

_MATRIX = np.random.default_rng(0).random((6, 6)) / 6


def probe() -> float:
    """Seconds taken by the fixed probe computation."""
    t0 = time.perf_counter()
    x = np.ones((300, 6), complex)
    for _ in range(PROBE_ITERATIONS):
        x = x @ _MATRIX.T
        norms = np.einsum("ij,ij->i", x, x.conj()).real
        x /= norms.max()
    return time.perf_counter() - t0


def scale(probe_s: float) -> float:
    """Factor that turns a time measured at probe time ``probe_s`` into reference seconds."""
    return PROBE_REF_S / probe_s
