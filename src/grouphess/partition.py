"""Parameter-index partitions and the linear maps they induce.

A :class:`Partition` splits the flat index set {0..P-1} into S disjoint,
non-empty groups.  ``group_sum`` and ``broadcast`` realize multiplication by
the 0/1 partition matrix and its transpose; ``mask`` zeroes a vector outside
one group.  JSON serialization uses 1-based indices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Partition",
    "trivial_partition",
    "discrete_partition",
    "canonical_partition",
    "custom_partition",
    "group_sum",
    "broadcast",
    "mask",
]


@dataclass(frozen=True)
class Partition:
    """S disjoint index groups covering {0..P-1}, in a fixed order.

    ``kind`` is one of trivial | discrete | canonical | custom; ``labels``
    optionally names each group (e.g. "layer3/weight").
    """

    groups: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None
    kind: str = "custom"
    _group_of: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        groups = tuple(tuple(int(i) for i in g) for g in self.groups)
        object.__setattr__(self, "groups", groups)
        if not groups:
            raise ValueError("partition needs at least one group")
        if any(len(g) == 0 for g in groups):
            raise ValueError("partition groups must be non-empty")
        total = sum(len(g) for g in groups)
        group_of = np.full(total, -1, dtype=np.int64)
        for s, g in enumerate(groups):
            for p in g:
                if not (0 <= p < total) or group_of[p] != -1:
                    raise ValueError(
                        "groups must be disjoint and cover exactly 0..P-1")
                group_of[p] = s
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != len(groups):
                raise ValueError("one label per group required")
            object.__setattr__(self, "labels", labels)
        group_of.setflags(write=False)
        object.__setattr__(self, "_group_of", group_of)

    @property
    def size(self) -> int:
        """Number of groups S."""
        return len(self.groups)

    @property
    def total(self) -> int:
        """Number of parameters P."""
        return self._group_of.shape[0]

    def group_sizes(self) -> np.ndarray:
        return np.array([len(g) for g in self.groups], dtype=np.int64)

    # serialization (1-based indices on the wire) ---------------------------
    def to_json(self) -> str:
        obj = {
            "kind": self.kind,
            "groups": [[p + 1 for p in g] for g in self.groups],
            "labels": list(self.labels) if self.labels is not None else None,
        }
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "Partition":
        obj = json.loads(text)
        groups = tuple(tuple(int(p) - 1 for p in g) for g in obj["groups"])
        labels = obj.get("labels")
        return cls(groups, tuple(labels) if labels else None, obj.get("kind", "custom"))


def trivial_partition(p: int) -> Partition:
    """One group holding every index (S = 1)."""
    if p < 1:
        raise ValueError("need at least one parameter")
    return Partition((tuple(range(p)),), None, "trivial")


def discrete_partition(p: int) -> Partition:
    """One singleton group per index (S = P)."""
    if p < 1:
        raise ValueError("need at least one parameter")
    return Partition(tuple((i,) for i in range(p)), None, "discrete")


def canonical_partition(shapes: Sequence[tuple], labels: Iterable[str] | None = None) -> Partition:
    """One group per tensor of a parameter vector, in declaration order
    (each weight tensor and each bias vector its own group)."""
    shapes = list(shapes)
    if not shapes:
        raise ValueError("need at least one tensor shape")
    groups, offset = [], 0
    for shp in shapes:
        n = int(np.prod(shp, dtype=np.int64))
        groups.append(tuple(range(offset, offset + n)))
        offset += n
    lab = tuple(labels) if labels is not None else tuple(f"tensor{i}" for i in range(len(shapes)))
    return Partition(tuple(groups), lab, "canonical")


def custom_partition(groups: Sequence[Sequence[int]], labels: Iterable[str] | None = None) -> Partition:
    return Partition(tuple(tuple(g) for g in groups),
                     tuple(labels) if labels is not None else None, "custom")


def _check_length(v: np.ndarray, n: int, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n,):
        raise ValueError(f"{what} must have length {n}, got shape {v.shape}")
    return v


def group_sum(v, part: Partition) -> np.ndarray:
    """out_s = sum of v over group s (the partition matrix applied to v)."""
    v = _check_length(v, part.total, "vector")
    return np.bincount(part._group_of, weights=v, minlength=part.size)


def broadcast(eta, part: Partition) -> np.ndarray:
    """out_p = eta_s for p in group s (transpose of the partition matrix)."""
    eta = _check_length(eta, part.size, "group vector")
    return eta[part._group_of]


def mask(v, part: Partition, s: int) -> np.ndarray:
    """Copy of v zeroed outside group s; the masks over all s sum to v."""
    v = _check_length(v, part.total, "vector")
    if not (0 <= s < part.size):
        raise ValueError(f"group index {s} out of range for S={part.size}")
    return np.where(part._group_of == s, v, 0.0)
