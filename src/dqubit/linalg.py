"""Batched matrix exponential shared by the jump engine and the STIRAP integrator."""
from __future__ import annotations

import numpy as np

__all__ = ["expm"]


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a (..., n, n) stack by scaling and squaring a Taylor series.

    One squaring count serves the whole stack: it scales the largest max-row-sum
    norm in the stack to at most 1/4, where the degree-15 Taylor remainder is far
    below double precision (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).
    """
    a = np.asarray(a, dtype=complex)
    norm = np.abs(a).sum(axis=-1).max()
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30) / 0.25))))
    a = a / 2.0**squarings
    m = np.eye(a.shape[-1], dtype=complex) + a
    term = a
    for p in range(2, 16):
        term = term @ a / p
        m = m + term
    for _ in range(squarings):
        m = m @ m
    return m
