"""Finite-difference oracles from loss values alone, by no derivative rule.

One stencil serves every order.  Its points run as rows of
``engine.evaluate_points``, each bitwise ``engine.evaluate``, and share
``engine._rows`` and its stacked generated code with the rows they check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import engine
from .partition import Partition, mask


def fd_nested_directional(f, theta: np.ndarray, dirs, h: float):
    """D^d f(theta)[u_1, ..., u_d] by the mixed central difference: the sum over
    s in {1, -1}^d of prod(s) f(theta + h sum_k s_k u_k), over (2h)^d.  The
    directions are d vectors, for one value, or d (B, P) stacks, for B
    values; all 2^d points of every row go to the engine in one call."""
    theta = np.asarray(theta, dtype=np.float64)
    signs = list(itertools.product((1, -1), repeat=len(dirs)))
    points = []
    for sign in signs:
        point = theta
        for s, u in zip(sign, dirs):
            point = point + (s * h) * u
        points.append(point)
    points = np.stack(points, axis=-2)  # rows, then signs
    values = engine.evaluate_points(f, points.reshape(-1, theta.size)).reshape(points.shape[:-1])
    total = None
    with np.errstate(all="ignore"):  # non-finite values combine silently, as floats do
        for j, sign in enumerate(signs):
            term = math.prod(sign) * values[..., j]
            total = term if total is None else total + term  # keeps the first term's signed zero
        return total / math.prod([2 * h] * len(dirs))


def _unit_stencils(f, theta: np.ndarray, index: np.ndarray, h: float) -> np.ndarray:
    """fd_nested_directional along e_i for each i in each row of the (B, d)
    ``index``, in calls of at most ``engine.BUDGET`` bytes of points."""
    n, (rows, d) = np.size(theta), index.shape
    step = max(1, engine.BUDGET // (8 * n * 2**d))
    out = np.empty(rows)
    for lo in range(0, rows, step):
        part = index[lo:lo + step].T
        units = np.zeros((d, part.shape[1], n))
        units[np.arange(d)[:, None], np.arange(part.shape[1]), part] = 1.0
        out[lo:lo + step] = fd_nested_directional(f, theta, list(units), h)
    return out


def fd_gradient(f, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient from loss values only."""
    return _unit_stencils(f, theta, np.arange(np.size(theta))[:, None], h)


def fd_hessian(f, theta: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central four-point Hessian from loss values only."""
    n = np.size(theta)
    pairs = np.array(list(itertools.combinations_with_replacement(range(n), 2)),
                     dtype=np.int64).reshape(-1, 2)
    H = np.zeros((n, n))
    H[pairs[:, 0], pairs[:, 1]] = H[pairs[:, 1], pairs[:, 0]] = _unit_stencils(f, theta, pairs, h)
    return H


def fd_pseudo_hessian(f, theta: np.ndarray, part: Partition, g: np.ndarray) -> np.ndarray:
    """hbar[s1, s2] = mask(g, s1)^T H mask(g, s2), with H = fd_hessian(f, theta)."""
    h_fd = fd_hessian(f, theta)
    masks = [mask(g, part, s) for s in range(part.size)]
    return np.array([[m1 @ h_fd @ m2 for m2 in masks] for m1 in masks])
