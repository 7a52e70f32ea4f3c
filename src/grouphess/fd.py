"""Finite-difference oracles, independent of the graph-based derivatives.

Everything here consumes only ``engine.evaluate`` so the checks cannot share
a code path with the quantities they verify.
"""

from __future__ import annotations

import numpy as np

from . import engine


def fd_gradient(f, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient from loss values only."""
    theta = np.asarray(theta, dtype=np.float64)
    g = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (engine.evaluate(f, theta + e) - engine.evaluate(f, theta - e)) / (2 * h)
    return g


def fd_hessian(f, theta: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central four-point Hessian from loss values only."""
    theta = np.asarray(theta, dtype=np.float64)
    n = theta.size
    steps = h * np.eye(n)
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            ei, ej = steps[i], steps[j]
            v = (engine.evaluate(f, theta + ei + ej)
                 - engine.evaluate(f, theta + ei - ej)
                 - engine.evaluate(f, theta - ei + ej)
                 + engine.evaluate(f, theta - ei - ej)) / (4 * h * h)
            H[i, j] = H[j, i] = v
    return H
