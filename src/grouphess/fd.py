"""Finite-difference oracles, independent of the graph-based derivatives.

Everything here consumes only ``engine.evaluate`` so the checks cannot share
a code path with the quantities they verify.  One stencil serves every order.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import engine
from .partition import Partition, mask


def fd_nested_directional(f, theta: np.ndarray, dirs, h: float) -> float:
    """D^d f(theta)[u_1, ..., u_d] by the mixed central difference: the sum over
    s in {1, -1}^d of prod(s) f(theta + h sum_k s_k u_k), over (2h)^d."""
    theta = np.asarray(theta, dtype=np.float64)
    total = None
    for signs in itertools.product((1, -1), repeat=len(dirs)):
        point = theta
        for s, u in zip(signs, dirs):
            point = point + (s * h) * u
        term = math.prod(signs) * engine.evaluate(f, point)
        total = term if total is None else total + term  # keeps the first term's signed zero
    return total / math.prod([2 * h] * len(dirs))


def _unit(n: int, i: int) -> np.ndarray:
    return np.eye(1, n, i)[0]  # e_i, without an n x n identity


def fd_gradient(f, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient from loss values only."""
    n = np.size(theta)
    return np.array([fd_nested_directional(f, theta, [_unit(n, i)], h) for i in range(n)])


def fd_hessian(f, theta: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central four-point Hessian from loss values only."""
    n = np.size(theta)
    H = np.zeros((n, n))
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        H[i, j] = H[j, i] = fd_nested_directional(f, theta, [_unit(n, i), _unit(n, j)], h)
    return H


def fd_pseudo_hessian(f, theta: np.ndarray, part: Partition, g: np.ndarray) -> np.ndarray:
    """hbar[s1, s2] = mask(g, s1)^T H mask(g, s2), with H = fd_hessian(f, theta)."""
    h_fd = fd_hessian(f, theta)
    masks = [mask(g, part, s) for s in range(part.size)]
    return np.array([[m1 @ h_fd @ m2 for m2 in masks] for m1 in masks])
