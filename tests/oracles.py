"""Third-derivative finite-difference oracle for the tests; the gradient and
Hessian oracles live in ``grouphess.fd``.

It consumes only ``engine.evaluate`` so the check cannot share a code path
with the quantities it verifies.
"""

from __future__ import annotations

import numpy as np

from grouphess import engine


def fd_third_directional(f, theta: np.ndarray, u: np.ndarray, h: float = 1e-3) -> float:
    """d^3/de^3 f(theta + e*u) at e=0 by central differences."""
    theta = np.asarray(theta, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)

    def at(e):
        return engine.evaluate(f, theta + e * u)

    return (at(2 * h) - 2 * at(h) + 2 * at(-h) - at(-2 * h)) / (2 * h ** 3)
