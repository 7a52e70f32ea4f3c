"""Differentiable test problems: random quadratics, Rosenbrock, and small
smooth multilayer perceptrons over synthetic or CSV datasets.

Activations are tanh or softplus only, so every problem is smooth to the
third order the summaries need.  Construction is deterministic per seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import engine
from .engine import Expr, ParamVector, const, dot, matmul, param_tensors, reduce_sum, var

__all__ = [
    "DataError",
    "QuadraticSpec",
    "QuadraticProblem",
    "MlpSpec",
    "Dataset",
    "CsvSchema",
    "make_quadratic",
    "make_rosenbrock",
    "make_mlp",
    "mlp_shapes",
    "mlp_labels",
    "FEATURES",
    "TARGETS",
    "synth_dataset",
    "load_csv",
    "dataset_to_csv",
]


class DataError(ValueError):
    """Malformed dataset input; the message carries the offending location."""


# ---------------------------------------------------------------------------
# quadratics and Rosenbrock
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticSpec:
    eig_lo: float = 0.1
    eig_hi: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.eig_lo <= self.eig_hi < math.inf):
            raise ValueError(
                f"invalid eigenvalue range [{self.eig_lo}, {self.eig_hi}]")


@dataclass(frozen=True, eq=False)
class QuadraticProblem:
    """L(theta) = 0.5 (theta - c)^T A (theta - c) with known minimizer c."""

    A: np.ndarray
    minimizer: np.ndarray
    spec: QuadraticSpec

    @classmethod
    def generate(cls, p: int, spec: QuadraticSpec | None = None) -> "QuadraticProblem":
        spec = spec or QuadraticSpec()
        if p < 1:
            raise ValueError("need at least one parameter")
        rng = np.random.default_rng(spec.seed)
        q, _ = np.linalg.qr(rng.normal(size=(p, p)))
        eigs = rng.uniform(spec.eig_lo, spec.eig_hi, size=p)
        a = q @ np.diag(eigs) @ q.T
        a = 0.5 * (a + a.T)
        c = rng.normal(size=p)
        return cls(a, c, spec)

    def expr(self) -> Expr:
        p = self.A.shape[0]
        t = var(engine.PARAM, (p,))
        d = t - const(self.minimizer)
        return 0.5 * dot(d, matmul(const(self.A), d))


def make_quadratic(p: int, spec: QuadraticSpec | None = None) -> tuple[Expr, np.ndarray]:
    """Random positive-definite quadratic; returns the loss and its exact
    minimizer."""
    prob = QuadraticProblem.generate(p, spec)
    return prob.expr(), prob.minimizer


def make_rosenbrock() -> Expr:
    """(1 - x)^2 + 100 (y - x^2)^2; minimum 0 at (1, 1)."""
    t = var(engine.PARAM, (2,))
    x = reduce_sum(engine.segment(t, 0, 1))
    y = reduce_sum(engine.segment(t, 1, 2))
    return (1.0 - x) ** 2 + 100.0 * (y - x ** 2) ** 2


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix plus targets (class indices or real vectors)."""

    features: np.ndarray
    targets: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] < 1:
            raise DataError("features must be a non-empty N x F matrix")
        targets = np.asarray(self.targets)
        if targets.shape[0] != features.shape[0]:
            raise DataError("one target per row required")
        if not np.all(np.isfinite(features)):
            raise DataError("features contain NaN/Inf")
        if not np.all(np.isfinite(targets.astype(np.float64))):
            raise DataError("targets contain NaN/Inf")
        features.setflags(write=False)
        targets.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def classification(self) -> bool:
        return np.issubdtype(self.targets.dtype, np.integer)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.features.shape).encode())
        h.update(np.ascontiguousarray(self.features).tobytes())
        h.update(str(self.targets.dtype).encode())
        h.update(np.ascontiguousarray(self.targets).tobytes())
        return h.hexdigest()


def synth_dataset(kind: str, n: int, seed: int, noise: float | None = None) -> Dataset:
    """Two balanced classes, deterministic per seed.

    ``blobs``: two Gaussian clusters (default spread 0.5).
    ``moons``: two interleaved half-circles (noiseless by default, hence
    separable by a small smooth network).
    """
    if n < 2:
        raise ValueError("need at least two points")
    rng = np.random.default_rng(seed)
    n0 = n - n // 2
    n1 = n // 2
    if kind == "blobs":
        spread = 0.5 if noise is None else noise
        c0 = rng.normal(size=(n0, 2)) * spread + np.array([-1.5, -1.5])
        c1 = rng.normal(size=(n1, 2)) * spread + np.array([1.5, 1.5])
    elif kind == "moons":
        spread = 0.0 if noise is None else noise
        t0 = rng.uniform(0.0, math.pi, size=n0)
        t1 = rng.uniform(0.0, math.pi, size=n1)
        c0 = np.stack([np.cos(t0), np.sin(t0)], axis=1)
        c1 = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
        if spread > 0:
            c0 = c0 + rng.normal(size=c0.shape) * spread
            c1 = c1 + rng.normal(size=c1.shape) * spread
    else:
        raise ValueError(f"unknown dataset kind '{kind}' (expected 'blobs' or 'moons')")
    features = np.concatenate([c0, c1])
    targets = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    order = rng.permutation(n)
    return Dataset(features[order], targets[order],
                   {"kind": kind, "n": n, "seed": seed, "noise": spread})


@dataclass(frozen=True)
class CsvSchema:
    """Column layout of a CSV dataset: which column holds the label and,
    optionally, which columns are features (default: all others)."""

    label_column: str
    feature_columns: tuple[str, ...] | None = None


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Parse a comma-separated, UTF-8, header-row dataset file.

    Rejects NaN and non-numeric cells, naming the row and column."""
    path = Path(path)
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if schema.label_column not in header:
        raise DataError(f"{path}: label column '{schema.label_column}' not in header {header}")
    feature_names = (list(schema.feature_columns) if schema.feature_columns is not None
                     else [h for h in header if h != schema.label_column])
    for name in feature_names:
        if name not in header:
            raise DataError(f"{path}: feature column '{name}' not in header")
    if not feature_names:
        raise DataError(f"{path}: no feature columns")
    if len(rows) == 1:
        raise DataError(f"{path}: no data rows")

    col = {name: header.index(name) for name in header}

    def cell(row_idx: int, row: list, name: str) -> float:
        try:
            value = float(row[col[name]])
        except (ValueError, IndexError):
            raise DataError(
                f"{path}: non-numeric cell at row {row_idx}, column '{name}'") from None
        if not math.isfinite(value):
            raise DataError(f"{path}: NaN/Inf cell at row {row_idx}, column '{name}'")
        return value

    features, labels = [], []
    for i, row in enumerate(rows[1:], start=2):  # 1-based rows incl. header
        features.append([cell(i, row, name) for name in feature_names])
        labels.append(cell(i, row, schema.label_column))
    labels_arr = np.array(labels)
    if np.all(labels_arr == np.round(labels_arr)):
        labels_arr = labels_arr.astype(np.int64)
    return Dataset(np.array(features), labels_arr,
                   {"path": str(path), "sha256": hashlib.sha256(raw).hexdigest(),
                    "features": feature_names, "label": schema.label_column})


def dataset_to_csv(ds: Dataset, path, label_column: str = "label") -> None:
    """Write a dataset back out in the same CSV format load_csv accepts."""
    names = ds.provenance.get("features") or [f"x{i + 1}" for i in range(ds.features.shape[1])]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(names) + [label_column])
        for x, y in zip(ds.features, ds.targets):
            writer.writerow([repr(float(v)) for v in x]
                            + [int(y) if ds.classification else repr(float(y))])


# ---------------------------------------------------------------------------
# multilayer perceptrons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MlpSpec:
    """Dense network layout: widths[0] inputs through widths[-1] outputs,
    one weight matrix and one bias vector per layer."""

    widths: tuple[int, ...]
    activation: str = "tanh"
    loss: str = "mse"
    seed: int = 0
    init_scale: float = 1.0

    def __post_init__(self) -> None:
        widths = tuple(int(w) for w in self.widths)
        object.__setattr__(self, "widths", widths)
        if len(widths) < 3:
            raise ValueError("need at least one hidden layer")
        if any(w < 1 for w in widths):
            raise ValueError("widths must be positive")
        if self.activation not in ("tanh", "softplus"):
            raise ValueError(f"unknown activation '{self.activation}'")
        if self.loss not in ("mse", "softmax-cross-entropy"):
            raise ValueError(f"unknown loss '{self.loss}'")
        if not math.isfinite(self.init_scale):
            raise ValueError("init_scale must be finite")

    @property
    def layers(self) -> int:
        return len(self.widths) - 1


def mlp_shapes(widths: Sequence[int]) -> list[tuple[int, ...]]:
    shapes: list[tuple[int, ...]] = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        shapes += [(fan_in, fan_out), (fan_out,)]
    return shapes


def mlp_labels(widths: Sequence[int]) -> list[str]:
    labels: list[str] = []
    for layer in range(1, len(widths)):
        labels += [f"layer{layer}/weight", f"layer{layer}/bias"]
    return labels


def _init_params(spec: MlpSpec) -> ParamVector:
    rng = np.random.default_rng(spec.seed)
    tensors = []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        a = spec.init_scale / math.sqrt(fan_in)
        tensors.append(rng.uniform(-a, a, size=(fan_in, fan_out)))
        tensors.append(rng.uniform(-a, a, size=(fan_out,)))
    return ParamVector.from_tensors(tensors)


# The leaves a network's loss graph reads its rows from: the (n, widths[0])
# feature matrix and the (n, widths[-1]) one-hot or real targets.
FEATURES = "_x"
TARGETS = "_y"

_networks: "weakref.WeakValueDictionary[tuple, Expr]" = weakref.WeakValueDictionary()


def _network(spec: MlpSpec, n: int) -> Expr:
    """The loss graph of spec's network over n rows of FEATURES and
    TARGETS, built once per (widths, activation, loss, n) while a loss bound
    to it is alive."""
    key = (spec.widths, spec.activation, spec.loss, n)
    loss = _networks.get(key)
    if loss is not None:
        return loss
    shapes, k = mlp_shapes(spec.widths), spec.widths[-1]
    tensors = param_tensors(var(engine.PARAM, (sum(math.prod(s) for s in shapes),)), shapes)
    targets = var(TARGETS, (n, k))

    act = engine.tanh if spec.activation == "tanh" else engine.softplus
    h: Expr = var(FEATURES, (n, spec.widths[0]))
    for layer in range(spec.layers):
        w, b = tensors[2 * layer], tensors[2 * layer + 1]
        h = matmul(h, w) + b
        if layer < spec.layers - 1:
            h = act(h)

    if spec.loss == "mse":
        loss = reduce_sum((h - targets) ** 2) * (1.0 / (n * k))
    else:
        # mean over rows of logsumexp(z) - z[target]; plain logsumexp, smooth
        # everywhere (can overflow for huge logits, irrelevant at this scale)
        lse = engine.log(engine.reduce_sum(engine.exp(h), axis=1))
        picked = engine.reduce_sum(h * targets, axis=1)
        loss = reduce_sum(lse - picked) * (1.0 / n)
    return _networks.setdefault(key, loss)


def make_mlp(spec: MlpSpec, data: Dataset,
             subset: Sequence[int] | None = None) -> tuple[Expr, ParamVector]:
    """Full-batch loss of a dense network as a smooth expression, plus a
    seeded initial parameter vector with the canonical shape list.

    ``subset`` restricts the loss to a fixed set of rows (a frozen
    minibatch); the default is the whole dataset.  The loss is the network's
    graph for its row count, shared by every loss of the same widths,
    activation, loss kind and row count while one is alive, bound
    (:func:`engine.bind`) to its rows under the reserved leaf names FEATURES
    and TARGETS.  So a new minibatch derives no graph and plans nothing.
    """
    x = data.features
    y = data.targets
    if subset is not None:
        idx = np.asarray(subset, dtype=np.int64)
        x, y = x[idx], y[idx]
    n, f_in = x.shape
    if f_in != spec.widths[0]:
        raise ValueError(f"dataset has {f_in} features, network expects {spec.widths[0]}")
    k = spec.widths[-1]

    if data.classification:
        classes = np.asarray(y, dtype=np.int64)
        if classes.min() < 0 or classes.max() >= k:
            raise ValueError(f"class index out of range for {k} outputs")
        onehot = np.zeros((n, k))
        onehot[np.arange(n), classes] = 1.0
    else:
        onehot = np.asarray(y, dtype=np.float64).reshape(n, -1)
        if onehot.shape[1] != k:
            raise ValueError(f"targets have {onehot.shape[1]} columns, network has {k} outputs")

    return engine.bind(_network(spec, n), {FEATURES: x, TARGETS: onehot}), _init_params(spec)
