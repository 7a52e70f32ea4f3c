"""Grouped derivative summaries: Taylor terms, order-d summary tensors, and
the group-level pseudo-gradient / pseudo-Hessian system.

The order-d summary tensor of a loss at a point, for a direction u and an
S-group partition, holds in entry (s1..sd) the d-th derivative contracted
with u masked to groups s1..sd.  Summing all S^d entries recovers the plain
d-th directional derivative (the Taylor term); the entries are symmetric
under index permutation.  Everything is computed with nested directional
derivatives (never a full derivative tensor):

* one entry column costs one gradient-equivalent pass; the tensor reads every
  entry from the columns of a covering set (``summary_rows``), which from
  order 3 on drops the multisets of d - 1 distinct colors s % (d - 1), so it
  costs C(S + d - 2, d - 1) passes minus their number (20, not 36, at S = 8);
* the pseudo-Hessian costs exactly S Hessian-vector products plus one
  gradient, verified against the engine's pass counter.

Both hand all their directions to the engine in one stacked call, which
evaluates them in as few sweeps as the graph allows; the counter still
charges one pass per direction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .engine import Expr, gradient, gradient_of_nested, nested_directional
from .partition import Partition, group_sum, mask

__all__ = [
    "BudgetError",
    "SummaryTensor",
    "PseudoSystem",
    "RegularizationVector",
    "taylor_term",
    "summary_tensor",
    "pseudo_gradient",
    "pseudo_hessian",
    "regularization_vector",
]

DEFAULT_ENTRY_BUDGET = 10**6


class BudgetError(ValueError):
    """Raised when a summary tensor or an exact regularizer exceeds its budget."""


def nulled(x):
    """``x`` with each non-finite float in it replaced by None (``null``)."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: nulled(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [nulled(v) for v in x]
    return x


@dataclass(frozen=True, eq=False)
class SummaryTensor:
    """Order-d tensor of size S per dimension."""

    order: int
    size: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.float64).reshape((self.size,) * self.order)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def total(self) -> float:
        """Sum of all entries: the scalar Taylor term."""
        return float(np.sum(self.entries))

    def to_json(self) -> str:
        return json.dumps(nulled({
            "order": self.order,
            "size": self.size,
            "entries": self.entries.reshape(-1).tolist(),
        }), allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "SummaryTensor":
        obj = json.loads(text)
        return cls(obj["order"], obj["size"], np.array(obj["entries"], dtype=np.float64))


@dataclass(frozen=True, eq=False)
class PseudoSystem:
    """Group-level curvature system: symmetric S x S matrix ``hbar`` and
    non-negative vector ``gbar`` of per-group squared gradient norms."""

    hbar: np.ndarray
    gbar: np.ndarray
    partition: Partition

    def __post_init__(self) -> None:
        hbar = np.asarray(self.hbar, dtype=np.float64)
        gbar = np.asarray(self.gbar, dtype=np.float64)
        s = self.partition.size
        if hbar.shape != (s, s) or gbar.shape != (s,):
            raise ValueError(f"system shapes {hbar.shape}/{gbar.shape} do not match S={s}")
        hbar.setflags(write=False)
        gbar.setflags(write=False)
        object.__setattr__(self, "hbar", hbar)
        object.__setattr__(self, "gbar", gbar)

    @property
    def size(self) -> int:
        return self.partition.size

    def to_json(self) -> str:
        labels = list(self.partition.labels) if self.partition.labels else None
        return json.dumps(nulled({
            "hbar": self.hbar.tolist(),
            "gbar": self.gbar.tolist(),
            "labels": labels,
        }), allow_nan=False)


def taylor_term(f: Expr, theta, u, d: int) -> float:
    """d-th directional derivative of f at theta along u, via d nested
    differentiations (cost proportional to d gradient sweeps)."""
    if d < 1:
        raise ValueError("taylor_term needs order d >= 1 (use evaluate for d = 0)")
    u = np.asarray(u, dtype=np.float64)
    return nested_directional(f, theta, [u] * d)


def summary_rows(s_count: int, d: int) -> list[tuple[int, ...]]:
    """The sorted (d - 1)-multisets of groups an order-d summary tensor runs
    one row (one pass) for: all of them below order 3.  From order 3 on, group
    s has color s % (d - 1) and a multiset is kept when two entries share a
    color; any d indices hold two of one color, so dropping a third leaves a
    kept prefix (at d = 3, Turan's cover of every index triple by pairs)."""
    prefixes = combinations_with_replacement(range(s_count), d - 1)
    return [p for p in prefixes if d < 3 or len({s % (d - 1) for s in p}) < d - 1]


def summary_tensor(f: Expr, theta, u, part: Partition, d: int,
                   budget: int = DEFAULT_ENTRY_BUDGET) -> SummaryTensor:
    """Order-d summary tensor of f at theta for direction u.

    Only the C covering multisets of d - 1 indices (``summary_rows``) are
    computed, one pass each for a full column over the free index; other
    entries are filled by copy, so the result is exactly permutation-
    symmetric.  The multisets go to the engine as d - 1 stacks of masked
    directions, so the call holds (d - 1) * C + C vectors of length P at once.
    """
    if d < 1:
        raise ValueError("summary tensor needs order d >= 1")
    s_count = part.size
    if s_count ** d > budget:
        raise BudgetError(
            f"S^d = {s_count}^{d} exceeds the {budget}-entry budget; "
            "use a coarser partition")
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (part.total,):
        raise ValueError(f"direction has shape {u.shape}, partition covers {part.total}")

    masks = np.array([mask(u, part, s) for s in range(s_count)])
    # columns[i] = the entries over the free index of prefix i
    prefixes = summary_rows(s_count, d)
    stacks = [masks[[prefix[k] for prefix in prefixes]] for k in range(d - 1)]
    w = np.reshape(gradient_of_nested(f, theta, stacks), (len(prefixes), -1))
    columns = np.array([group_sum(row * u, part) for row in w])

    # entry idx, sorted, copies entry idx[p] of the column of idx without p
    # for the first p that leaves a kept prefix; column_of[base-S code] = i
    weights = s_count ** np.arange(d - 2, -1, -1)
    column_of = np.full(s_count ** (d - 1), -1)
    column_of[np.array(prefixes, dtype=np.int64) @ weights] = range(len(prefixes))
    idx = np.sort(np.indices((s_count,) * d).reshape(d, -1), axis=0)
    entries = np.empty(idx.shape[1])
    for p in reversed(range(d)):  # so the first p that hits is written last
        at = column_of[weights @ np.delete(idx, p, axis=0)]
        entries[at >= 0] = columns[at[at >= 0], idx[p, at >= 0]]
    return SummaryTensor(d, s_count, entries)


def pseudo_gradient(f: Expr, theta, part: Partition) -> np.ndarray:
    """Per-group squared gradient norms (non-negative, sums to ||g||^2)."""
    g = gradient(f, theta)
    return group_sum(g * g, part)


def pseudo_hessian(f: Expr, theta, part: Partition, g: np.ndarray | None = None) -> PseudoSystem:
    """Group-level curvature of f at theta along masked gradient directions.

    hbar[s1, s2] = mask(g, s1)^T H mask(g, s2), assembled from S
    Hessian-vector products (one per group, stacked into one engine call)
    without forming H; one extra pass computes the gradient unless the
    caller passes it as ``g``.
    Exactly S + 1 passes total, or S with ``g``.
    """
    if g is None:
        g = gradient(f, theta)
    masked = np.array([mask(g, part, s) for s in range(part.size)])
    w = gradient_of_nested(f, theta, [masked])  # row s: H mask(g, s)
    hbar = np.array([group_sum(row * g, part) for row in w]).T
    hbar = 0.5 * (hbar + hbar.T)
    gbar = group_sum(g * g, part)
    return PseudoSystem(hbar, gbar, part)


@dataclass(frozen=True, eq=False)
class RegularizationVector:
    """Per-group third-derivative magnitudes raised to the 2/3 power.

    ``lower_bound`` is True for sampled estimates (the max over a random
    subset of index triples can only under-estimate the true max)."""

    values: np.ndarray
    mode: str
    samples: int | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def lower_bound(self) -> bool:
        return self.mode == "sampled"

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype)

    def __len__(self) -> int:
        return len(self.values)


def regularization_vector(f: Expr, theta, part: Partition, mode: str = "exact",
                          n_max: int = 64, samples: int = 256,
                          seed: int = 0) -> RegularizationVector:
    """Max absolute entry of the third-derivative sub-tensor of each group,
    raised to the power 2/3.

    Both modes read rows T[i, j, :] = grad(grad(grad f . e_i) . e_j) of the
    third-derivative tensor, one order-2 gradient pass per row.  Exact mode
    takes one row per unordered index pair (i, j) of a group and reads it at
    the whole group; it refuses groups larger than ``n_max``.  Sampled mode
    draws ``samples`` random triples (i, j, k) per group, takes row (i, j)
    for each and reads it at k, so its max over the sample is a lower bound
    on the true value.  Rows run unstacked: stacked sweeps measured slower
    and larger in memory above a few hundred parameters.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode '{mode}' (expected 'exact' or 'sampled')")
    oversized = [s for s, grp in enumerate(part.groups) if len(grp) > n_max]
    if mode == "exact" and oversized:
        raise BudgetError(
            f"exact enumeration refused: group(s) {oversized} exceed "
            f"{n_max} parameters; use mode='sampled'")
    rng = np.random.default_rng(seed)
    maxima = np.zeros(part.size)
    for s, grp in enumerate(part.groups):
        idx = np.fromiter(grp, dtype=np.int64)
        if mode == "exact":
            rows = [(i, j, idx) for i, j in combinations_with_replacement(grp, 2)]
        else:
            rows = [tuple(rng.choice(idx, size=3)) for _ in range(samples)]
        for i, j, read in rows:
            ei, ej = np.zeros(part.total), np.zeros(part.total)
            ei[i] = ej[j] = 1.0
            row = gradient_of_nested(f, theta, [ei, ej])
            maxima[s] = max(maxima[s], float(np.max(np.abs(row[read]))))

    values = np.power(maxima, 2.0 / 3.0)
    return RegularizationVector(values, mode, samples if mode == "sampled" else None)
