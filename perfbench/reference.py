"""Independent numpy reference for the tanh-MLP mean-squared-error loss.

Nothing here imports ``grouphess``: the loss and its gradient are written
out by hand (forward pass plus backpropagation), Hessian-vector products are
complex-step derivatives of that gradient, and the third directional
derivative is a central second difference of a directional gradient.  The
benchmark compares the program's outputs against these values.

Why the complex step: partitioned training can drive single weight tensors
to |theta| ~ 1e14 within a few steps.  There ``theta + h u`` rounds back to
``theta`` for any usable ``h`` and a central difference of the gradient is
meaningless, while the complex step perturbs only the imaginary part and
stays exact to rounding at every scale.  The self-check compares it with a
central difference at the initial point, where both are accurate.

Parameter layout (the same one the program documents): for each layer the
weight matrix ``(fan_in, fan_out)`` flattened row-major, then the bias
vector; layers in order.  The canonical partition has one group per tensor.
"""

from __future__ import annotations

import numpy as np

# Step lengths along unit directions.  With the fourth-order stencils below
# the truncation error is ~h^4 and the rounding error ~1e-16 / h (first
# derivative) or ~1e-16 / h^2 (second derivative); the complex step has no
# cancellation, so its step only has to make h^2 negligible.
DIFF_STEP = 1e-3
THIRD_STEP = 1e-2
COMPLEX_STEP = 1e-20


class ReferenceMlp:
    """Loss, gradient and curvature of a dense tanh network with MSE loss
    over fixed features ``x`` (n x widths[0]) and one-hot targets."""

    def __init__(self, widths, x, classes):
        self.widths = tuple(int(w) for w in widths)
        self.x = np.asarray(x, dtype=np.float64)
        self.x_complex = self.x.astype(np.complex128)
        n, k = self.x.shape[0], self.widths[-1]
        self.y = np.zeros((n, k))
        self.y[np.arange(n), np.asarray(classes, dtype=np.int64)] = 1.0
        self.scale = 1.0 / (n * k)
        sizes, slices, offset = [], [], 0
        for fan_in, fan_out in zip(self.widths[:-1], self.widths[1:]):
            for shape in ((fan_in, fan_out), (fan_out,)):
                size = int(np.prod(shape))
                slices.append((offset, offset + size, shape))
                sizes.append(size)
                offset += size
        self.slices = slices
        self.size = offset
        self.group_of = np.repeat(np.arange(len(sizes)), sizes)
        self.groups = len(sizes)

    def _tensors(self, theta):
        return [theta[a:b].reshape(shape) for a, b, shape in self.slices]

    def _forward(self, theta):
        t = self._tensors(theta)
        layers = len(self.widths) - 1
        acts = [self.x_complex if np.iscomplexobj(theta) else self.x]
        for layer in range(layers):
            z = acts[-1] @ t[2 * layer] + t[2 * layer + 1]
            acts.append(np.tanh(z) if layer < layers - 1 else z)
        return t, acts

    def loss(self, theta) -> float:
        _, acts = self._forward(theta)
        return float(np.sum((acts[-1] - self.y) ** 2) * self.scale)

    def grad(self, theta) -> np.ndarray:
        """Backpropagation.  Every operation is analytic (no abs, no
        conjugate), so a complex ``theta`` gives the complex extension."""
        t, acts = self._forward(theta)
        layers = len(self.widths) - 1
        delta = 2.0 * self.scale * (acts[-1] - self.y)
        parts = [None] * (2 * layers)
        for layer in reversed(range(layers)):
            parts[2 * layer] = acts[layer].T @ delta
            parts[2 * layer + 1] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ t[2 * layer].T) * (1.0 - acts[layer] ** 2)
        return np.concatenate([p.reshape(-1) for p in parts])

    def hvp(self, theta, v) -> np.ndarray:
        """H v as the complex-step derivative Im grad(theta + i h v) / h."""
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            return np.zeros_like(theta)
        g = self.grad(theta + 1j * COMPLEX_STEP * (v / norm))
        return norm * np.imag(g) / COMPLEX_STEP

    def hvp_difference(self, theta, v) -> np.ndarray:
        """H v by the fourth-order central difference of the gradient."""
        norm = float(np.linalg.norm(v))
        u, h = v / norm, DIFF_STEP
        g = [self.grad(theta + c * h * u) for c in (2.0, 1.0, -1.0, -2.0)]
        return norm * (-g[0] + 8.0 * g[1] - 8.0 * g[2] + g[3]) / (12.0 * h)

    def third_directional(self, theta, u) -> float:
        """D^3 f[u, u, u]: the second derivative of t -> grad(theta + t u) . u."""
        norm = float(np.linalg.norm(u))
        w = u / norm
        h = THIRD_STEP
        phi = [float(self.grad(theta + c * h * w) @ w) for c in (2.0, 1.0, 0.0, -1.0, -2.0)]
        second = (-phi[0] + 16.0 * phi[1] - 30.0 * phi[2] + 16.0 * phi[3] - phi[4]) / (12.0 * h * h)
        return norm ** 3 * second

    def group_sum(self, v) -> np.ndarray:
        return np.bincount(self.group_of, weights=v, minlength=self.groups)

    def system(self, theta):
        """(hbar, gbar): hbar[s1, s2] = mask(g, s1)^T H mask(g, s2) and
        gbar[s] = |mask(g, s)|^2, for the canonical partition."""
        g = self.grad(theta)
        hbar = np.empty((self.groups, self.groups))
        for s in range(self.groups):
            masked = np.where(self.group_of == s, g, 0.0)
            hbar[:, s] = self.group_sum(self.hvp(theta, masked) * g)
        return 0.5 * (hbar + hbar.T), self.group_sum(g * g)

    def self_check(self, theta, rng, directions: int = 4) -> float:
        """Largest relative gap between the hand-written gradient and central
        differences of the loss, along random unit directions and a few
        coordinates, and between the complex-step and central-difference
        HVPs along the same directions.  Small means the reference is
        consistent with itself."""
        g = self.grad(theta)
        scale = float(np.max(np.abs(g))) + 1e-300
        h = DIFF_STEP
        worst = 0.0
        dirs = [rng.normal(size=self.size) for _ in range(directions)]
        for i in rng.choice(self.size, size=min(4, self.size), replace=False):
            e = np.zeros(self.size)
            e[i] = 1.0
            dirs.append(e)
        for d in dirs:
            u = d / np.linalg.norm(d)
            f = [self.loss(theta + c * h * u) for c in (2.0, 1.0, -1.0, -2.0)]
            fd = (-f[0] + 8.0 * f[1] - 8.0 * f[2] + f[3]) / (12.0 * h)
            worst = max(worst, abs(fd - float(g @ u)) / scale)
            exact, diff = self.hvp(theta, u), self.hvp_difference(theta, u)
            worst = max(worst, float(np.max(np.abs(exact - diff))) / float(np.max(np.abs(exact))))
        return worst
