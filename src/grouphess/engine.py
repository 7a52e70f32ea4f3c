"""Expression graphs with exact nested differentiation.

A loss is represented as an immutable DAG of tensor-valued nodes (``Expr``)
over named variable leaves, typically a single flat parameter vector named
``"theta"``.  Differentiation is a graph-to-graph transformation: the
reverse-mode adjoint of every primitive is itself built from primitives, so
the gradient of an expression is again an expression that can be evaluated,
composed, and differentiated to arbitrary order.  That property is what the
higher-order machinery in :mod:`grouphess.summaries` relies on.

All arithmetic is 64-bit; evaluation is deterministic (same inputs give
bit-identical outputs).  Only smooth primitives are provided: tanh, softplus,
sigmoid, exp, log, powers, and the usual arithmetic/affine/reduction ops.
Piecewise-linear primitives (relu, max, abs) are deliberately absent because
second and third derivatives are consumed downstream.

One :class:`PassCounter` tracks evaluation cost, per process (``snapshot``)
and per calling thread (``own``):

* ``forward``  - number of graph evaluations of any kind;
* ``backward`` - total differentiation depth of evaluated derivative graphs
  (one gradient = one forward + one backward sweep);
* ``passes``   - number of derivative-graph evaluations ("gradient-equivalent
  passes": one gradient, or one Hessian-vector product, each count once);
* ``sweeps``   - number of derivative-graph evaluations actually run: a
  stack of B directions counts B passes but may run as fewer sweeps.

What the engine derives from a graph lives in one program on the graph's
root, which every graph derived from it joins: those graphs, each root's
plan, and per thread the values at the thread's latest point of the
point-only nodes, those that depend on no direction leaf _u<k>.  A point is
theta and every other variable the caller passes, compared by bytes, plus
the arrays a bound root carries, compared by identity.  So a step's loss,
gradient and S Hessian-vector products at one point compute each such value
once.  Only the graph's root holds its program; derived roots join it
through weak references, and no derived graph holds the root.  So a
dropped loss frees all of it at once, by reference counting, and a derived
graph that outlives its loss starts a fresh program.

:func:`bind` makes a root that carries read-only arrays for some variable
leaves; graph-level calls on it work on its graph and bind their results
alike.  A network's loss is its graph over a row count bound to the rows
(:func:`grouphess.problems.make_mlp`), so every minibatch of one size shares
one graph and one program, and a new batch derives and plans nothing.  Two
bound losses of one graph used alternately at one theta are different
points, so each switch computes the point-only values again.  A bound root
cannot be part of a larger graph.

A plan runs as straight-line Python generated from it, plain or stacked,
at its first evaluation of each kind, each kernel called by name: a point
phase, once per graph and call, reads each point-only value from the store
or computes and stores it, and hands them to a row phase, in which every
other value is a local that no code frees: the memory plan alone places it.
Graphs of one structure share their compiled code (:func:`_generated`).

One loop, :func:`_rows`, runs the derivative rows of calls that take
directions: a single vector is one row run plain, and (B, P) stacks
evaluate the direction-dependent nodes for many rows at once, each value
carrying a leading stack axis; row b is bitwise equal to the call with the
stacks' row b as plain vectors.  The rows form groups, one on the full
graph or one per folded graph, each run in sweeps of the most rows whose
arena (below) fits in ``BUDGET`` bytes, and at least one, scattered into
the result.  :func:`evaluate_points` runs points as rows of the loss graph
with theta set to the leaf _u1.  The counter's ``forward``, ``backward``
and ``passes`` stay logical: every row counts as one call, whether its
values were computed, reused or stacked, and a point as one ``evaluate``;
``sweeps`` is the physical count of derivative rows.

Rows are folded where that pays.  A masked direction is zero outside one
tensor, so a row whose nonzeros lie at each level k in one tensor range
[a, b) of a ``segment(theta, a, b)`` in its plan runs on the graph
:func:`substitute` folds with _uk set to ``embed(v_k, a, P)``: only what
v_k can reach.  The key, one whole tensor's range per level, stays put
when a masked gradient has zeros at its edges; each folded graph is built
at the first call that needs it and kept in the program.  The full plan's
static shapes decide: rows fold only at a grain (elements per
direction-dependent node) of at least ``FOLD_GRAIN``, where numpy kernels,
not per-call costs, dominate.  Graphs without tensor ranges and calls with
a row across a tensor boundary run unfolded.  Folding drops ``0 * x``
terms: rows on finite inputs stay bitwise equal, but a non-finite x no
longer makes NaN, and a zero may change its sign.

Memory is planned statically, per plan: each value of rank one or more
that a kernel but ``sigmoid`` computes and that is not point-only gets an
offset of a flat arena, its extent per row, first-fit by liveness or over
an input that dies at an elementwise kernel; views keep their base's
offset alive, and the root and what it views get none, so no result
aliases a buffer.  In every plan such kernels write through numpy's
``out`` argument, bitwise as allocating, so a pass hands no pages back to
the system to fault in again: into the offset of an arena that one call of
:func:`_rows` makes for each lane and drops on return, and a point-only
value into its node's buffer, which the program keeps per thread and
overwrites at each new point.

Large sweeps run on two lanes.  In a process that may run on two CPUs
(``CPUS``), a call of :func:`_rows` with two or more sweeps whose median
arena holds ``BUDGET`` bytes or more (shorter sweeps lose more to threads
than they overlap; by the width rule, only single rows can hold more)
runs them from the largest arena down in the caller and from the smallest
up, while they fit the median's arena, in one worker thread (``_LANE``).
A sweep runs the same code on either lane, so no row depends on them.  Only
the caller counts, plans, generates code and runs point phases; a worker's
failure reaches it, and it never waits for a worker that has not begun.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import hashlib
import itertools
import math
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import CodeType, FunctionType, MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "EvaluationError",
    "Expr",
    "ParamVector",
    "PassCounts",
    "PassCounter",
    "counter",
    "const",
    "var",
    "add",
    "mul",
    "matmul",
    "transpose",
    "reshape",
    "segment",
    "embed",
    "reduce_sum",
    "reduce_mean",
    "dot",
    "neg",
    "exp",
    "log",
    "tanh",
    "softplus",
    "sigmoid",
    "power",
    "param_tensors",
    "bind",
    "substitute",
    "evaluate",
    "evaluate_points",
    "gradient",
    "gradient_expr",
    "directional_derivative",
    "nested_directional",
    "gradient_of_nested",
    "PARAM",
]

PARAM = "theta"

ArrayLike = Union[float, int, Sequence, np.ndarray]


class EvaluationError(ValueError):
    """Raised when an expression cannot be evaluated (domain violation,
    unbound variable, shape mismatch)."""


# ---------------------------------------------------------------------------
# pass counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PassCounts:
    forward: int = 0
    backward: int = 0
    passes: int = 0
    sweeps: int = 0

    def __add__(self, other: "PassCounts") -> "PassCounts":
        return PassCounts(self.forward + other.forward, self.backward + other.backward,
                          self.passes + other.passes, self.sweeps + other.sweeps)

    def __sub__(self, other: "PassCounts") -> "PassCounts":
        return PassCounts(self.forward - other.forward, self.backward - other.backward,
                          self.passes - other.passes, self.sweeps - other.sweeps)


class PassCounter:
    """Thread-safe accumulator of evaluation cost (see module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._total = PassCounts()
        self._thread = threading.local()

    def add(self, forward: int = 0, backward: int = 0, passes: int = 0,
            sweeps: int = 0) -> None:
        cost = PassCounts(forward, backward, passes, sweeps)
        self._thread.counts = self.own() + cost
        with self._lock:
            self._total += cost

    def snapshot(self) -> PassCounts:
        """The counts of every thread's calls."""
        with self._lock:
            return self._total

    def own(self) -> PassCounts:
        """The counts of the calling thread's calls alone."""
        return getattr(self._thread, "counts", PassCounts())


counter = PassCounter()


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------

_node_ids = itertools.count()


class Expr:
    """One immutable node of an expression DAG.

    ``op`` names the primitive, ``inputs`` are child expressions, ``payload``
    carries non-differentiable attributes (constant arrays, variable names,
    axes, exponents), and ``shape`` is the statically known result shape.
    Nodes hash by identity; shared subgraphs are shared objects.
    """

    __slots__ = ("op", "inputs", "payload", "shape", "nid", "program", "__weakref__")

    def __init__(self, op: str, inputs: tuple, payload, shape: tuple) -> None:
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "nid", next(_node_ids))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Expr nodes are immutable")

    def __repr__(self) -> str:
        return f"Expr<{self.op}#{self.nid} shape={self.shape}>"

    # arithmetic sugar -----------------------------------------------------
    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return add(self, neg(_as_expr(other)))

    def __rsub__(self, other):
        return add(_as_expr(other), neg(self))

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __truediv__(self, other):
        return mul(self, power(_as_expr(other), -1.0))

    def __rtruediv__(self, other):
        return mul(_as_expr(other), power(self, -1.0))

    def __neg__(self):
        return neg(self)

    def __pow__(self, p):
        return power(self, p)

    def __matmul__(self, other):
        return matmul(self, _as_expr(other))


def _as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return const(x)


# constructors --------------------------------------------------------------

_var_registry: "weakref.WeakValueDictionary[tuple, Expr]" = weakref.WeakValueDictionary()


def const(value: ArrayLike) -> Expr:
    arr = np.asarray(value, dtype=np.float64)
    arr.setflags(write=False)
    return Expr("const", (), arr, arr.shape)


def var(name: str, shape: Iterable[int]) -> Expr:
    """Variable leaf, interned per (name, shape) so that graphs built
    independently against the same variable share it while one is alive."""
    key = (name, tuple(int(s) for s in shape))
    node = _var_registry.get(key)
    if node is None:
        node = Expr("var", (), name, key[1])
        _var_registry[key] = node
    return node


def neg(x: Expr) -> Expr:
    return Expr("neg", (x,), None, x.shape)


def add(x: Expr, y: Expr) -> Expr:
    shape = np.broadcast_shapes(x.shape, y.shape)
    return Expr("add", (x, y), None, shape)


def mul(x: Expr, y: Expr) -> Expr:
    shape = np.broadcast_shapes(x.shape, y.shape)
    return Expr("mul", (x, y), None, shape)


def matmul(x: Expr, y: Expr) -> Expr:
    if len(x.shape) == 2 and len(y.shape) == 2:
        if x.shape[1] != y.shape[0]:
            raise EvaluationError(f"matmul: {x.shape} @ {y.shape}")
        shape = (x.shape[0], y.shape[1])
    elif len(x.shape) == 2 and len(y.shape) == 1:
        if x.shape[1] != y.shape[0]:
            raise EvaluationError(f"matmul: {x.shape} @ {y.shape}")
        shape = (x.shape[0],)
    else:
        raise EvaluationError(f"matmul supports 2d@2d and 2d@1d, got {x.shape} @ {y.shape}")
    return Expr("matmul", (x, y), None, shape)


def transpose(x: Expr) -> Expr:
    if len(x.shape) != 2:
        raise EvaluationError(f"transpose expects a matrix, got shape {x.shape}")
    return Expr("transpose", (x,), None, (x.shape[1], x.shape[0]))


def reshape(x: Expr, shape: Iterable[int]) -> Expr:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != int(np.prod(x.shape, dtype=np.int64)):
        raise EvaluationError(f"reshape: cannot reshape {x.shape} to {shape}")
    return Expr("reshape", (x,), shape, shape)


def segment(x: Expr, start: int, stop: int) -> Expr:
    """Contiguous slice x[start:stop] of a vector."""
    if len(x.shape) != 1:
        raise EvaluationError("segment expects a vector")
    if not (0 <= start <= stop <= x.shape[0]):
        raise EvaluationError(f"segment [{start}:{stop}] out of range for length {x.shape[0]}")
    return Expr("segment", (x,), (int(start), int(stop)), (stop - start,))


def embed(x: Expr, start: int, total: int) -> Expr:
    """Embed a vector into a zero vector of length ``total`` at ``start``
    (the adjoint of :func:`segment`)."""
    if len(x.shape) != 1:
        raise EvaluationError("embed expects a vector")
    if not (0 <= start and start + x.shape[0] <= total):
        raise EvaluationError("embed out of range")
    return Expr("embed", (x,), (int(start), int(total)), (int(total),))


def reduce_sum(x: Expr, axis: int | None = None) -> Expr:
    if axis is None:
        return Expr("sum", (x,), None, ())
    axis = int(axis)
    if not (0 <= axis < len(x.shape)):
        raise EvaluationError(f"sum axis {axis} out of range for shape {x.shape}")
    shape = x.shape[:axis] + x.shape[axis + 1:]
    return Expr("sum", (x,), axis, shape)


def reduce_mean(x: Expr, axis: int | None = None) -> Expr:
    n = int(np.prod(x.shape, dtype=np.int64)) if axis is None else x.shape[axis]
    return mul(reduce_sum(x, axis), const(1.0 / n))


def dot(x: Expr, y: Expr) -> Expr:
    return reduce_sum(mul(x, y))


def exp(x: Expr) -> Expr:
    return Expr("exp", (x,), None, x.shape)


def log(x: Expr) -> Expr:
    return Expr("log", (x,), None, x.shape)


def tanh(x: Expr) -> Expr:
    return Expr("tanh", (x,), None, x.shape)


def softplus(x: Expr) -> Expr:
    return Expr("softplus", (x,), None, x.shape)


def sigmoid(x: Expr) -> Expr:
    return Expr("sigmoid", (x,), None, x.shape)


def power(x: Expr, p) -> Expr:
    if isinstance(p, Expr):
        raise TypeError("power exponent must be a number, not an Expr")
    return Expr("power", (x,), float(p), x.shape)


def param_tensors(theta: Expr, shapes: Sequence[tuple]) -> list[Expr]:
    """Carve a flat parameter vector into reshaped tensor views, in
    declaration order with row-major flattening."""
    out, offset = [], 0
    for shp in shapes:
        n = int(np.prod(shp, dtype=np.int64))
        out.append(reshape(segment(theta, offset, offset + n), shp))
        offset += n
    if offset != theta.shape[0]:
        raise EvaluationError("shape list does not cover the parameter vector")
    return out


_ZERO_OF_ZERO = frozenset({"neg", "transpose", "reshape", "sum", "embed", "segment", "add"})


def substitute(f: Expr, leaves: Mapping[str, Expr]) -> Expr:
    """Rebuild ``f`` with every variable leaf named in ``leaves`` replaced
    by its value (which may itself reference other variables), dropping
    structural zeros in the same pass: ``segment`` of an ``embed`` is the
    embedded vector over its range and zero off it, and moves into a
    rebuilt ``add``, ``mul`` or ``neg`` of same-shape or scalar operands;
    ``mul`` and ``matmul`` of a zero, and ``add`` or a linear op of zeros
    alone, are zero; ``add`` of a zero and a full-shape operand is that
    operand; other zeros become zero constants.  Kept nodes keep their
    inputs' order.  A bound ``f`` gives its graph's result, bound alike.
    The nodes visited die at return, by reference counting."""
    if f.op == "bind":
        return _bound(substitute(f.inputs[0], leaves), f.payload)
    memo: dict[int, Expr | None] = {}  # node id -> rebuilt node, None for a zero
    cuts: dict[tuple, Expr | None] = {}

    def cut(x: Expr, start: int, stop: int) -> Expr | None:
        """``segment(x, start, stop)``, folded where x was rebuilt."""
        key, op, shape = (x.nid, start, stop), x.op, (stop - start,)
        if key not in cuts:
            out = Expr("segment", (x,), (start, stop), shape)
            if x.nid in memo:  # a node of f: nothing in it folds
                pass
            elif op == "embed":
                a, b = x.payload[0], x.payload[0] + x.inputs[0].shape[0]
                out = x.inputs[0] if (a, b) == (start, stop) else (
                    None if stop <= a or b <= start else out)
            elif op == "neg" or op in ("add", "mul") and all(
                    i.shape in (x.shape, ()) for i in x.inputs):
                out = build(op, tuple(i if i.shape == () else cut(i, start, stop)
                                      for i in x.inputs), None, shape)
            cuts[key] = out
        return cuts[key]

    def build(op: str, inputs: tuple, payload, shape: tuple, shapes=None) -> Expr | None:
        """The node ``op(inputs)`` folded, None for a zero; ``shapes`` are
        the inputs' static shapes, by default all the result's."""
        zero = [x is None for x in inputs]
        if any(zero):
            if op in ("mul", "matmul") or all(zero) and op in _ZERO_OF_ZERO:
                return None
            if op == "add" and inputs[zero[0]].shape == shape:
                return inputs[zero[0]]  # the operand that is not zero
            inputs = tuple(const(np.zeros(shapes[k] if shapes else shape)) if x is None else x
                           for k, x in enumerate(inputs))
        if op == "segment":
            return cut(inputs[0], *payload)
        return Expr(op, inputs, payload, shape)

    for node in itertools.chain(_planned(f).order, (f,)):
        if node.op == "var" and node.payload in leaves:
            new = leaves[node.payload]
            if node.shape != new.shape:
                raise EvaluationError(
                    f"substitute: variable {node.payload} has shape {node.shape}, "
                    f"replacement has {new.shape}")
        elif any(memo[i.nid] is not i for i in node.inputs):
            inputs = tuple(memo[i.nid] for i in node.inputs)
            new = build(node.op, inputs, node.payload, node.shape,
                        tuple(i.shape for i in node.inputs))
        else:
            new = node
        memo[node.nid] = new
    out = memo[f.nid]
    del cut, build  # they close over each other: a cycle that would hold memo
    return const(np.zeros(f.shape)) if out is None else out


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class _Program:
    """What the engine derives from one graph: graphs by (root id, variable
    name, (chain order, parameter shape), order 0 setting theta to _u1, or
    tensor range per direction level), plans by root id, and the per-thread
    store of :func:`_point_values`.  The graph's root holds it; each derived
    root joins it through a weak reference, so no root and its program form
    a cycle, and a dropped root frees its program by reference counting."""

    derived: dict = field(default_factory=dict)
    plans: dict = field(default_factory=dict)
    point: threading.local = field(default_factory=threading.local)


def _program(root: Expr) -> _Program:
    """The program of ``root``, begun on first use, and begun afresh for a
    derived root that outlived its graph's.  Threads that race here may
    begin two; that costs work, not results, as values are keyed by node."""
    program = getattr(root, "program", None)
    if type(program) is weakref.ref:
        program = program()
    if program is None:
        program = _Program()
        object.__setattr__(root, "program", program)
    return program


def _kept(f: Expr, key, build) -> Expr:
    """f's graph under ``key``, else ``build()``, kept in f's program unless it is f (which would
    then hold its own program); a kept graph that is no graph's root joins the program weakly."""
    program = _program(f)
    graph = program.derived.get((f.nid, key))
    if graph is None:
        graph = build()
        if graph is not f:
            if getattr(graph, "program", None) is None:
                object.__setattr__(graph, "program", weakref.ref(program))
            program.derived[(f.nid, key)] = graph
    return graph


def bind(f: Expr, arrays: Mapping[str, ArrayLike]) -> Expr:
    """``f`` with the variable leaves named in ``arrays`` bound to the
    arrays, made read-only as :func:`const` makes its value, so a caller
    must not write to them afterwards: a root that the evaluation entry
    points take like any other.  Its graph and its program are f's, so
    every binding of one graph shares its derived graphs, plans and folded
    graphs, and graph-level calls on it (``gradient_expr``, ``substitute``,
    ...) return f's result bound to the same arrays.  A bound root cannot
    be part of a larger graph: evaluating or differentiating one that holds
    it raises."""
    if f.op == "bind":
        raise EvaluationError("bind: the root is bound already")
    frozen = {}
    for name, value in arrays.items():
        if name == PARAM or _is_direction(name):
            raise EvaluationError(f"bind: '{name}' is the parameter or a direction leaf")
        frozen[name] = np.asarray(value, dtype=np.float64)
        frozen[name].setflags(write=False)
    return _bound(f, MappingProxyType(frozen))


def _bound(f: Expr, arrays: Mapping[str, np.ndarray]) -> Expr:
    """The root binding ``f`` to ``arrays`` as they are."""
    node = Expr("bind", (f,), arrays, f.shape)
    object.__setattr__(node, "program", _program(f))
    return node


def _unbind(f: Expr) -> tuple[Expr, Mapping[str, np.ndarray] | None]:
    """The graph of ``f`` and its bound arrays, None when it binds none."""
    return (f.inputs[0], f.payload) if f.op == "bind" else (f, None)


class _Plan(NamedTuple):
    """How to evaluate one root, built whole by :func:`_planned` but for
    ``code``: the topological order of the nodes below the root (inputs
    before consumers; the root, which comes last, is left out so that its
    plan does not hold it); parallel to that order followed by the root,
    whether each node is point-only (a const, a leaf that is no direction
    leaf _u<k>, or a node whose inputs are all point-only); ``frees``,
    consumer id -> ids of the values that are not point-only and die once
    it has run; the sweep ``width``, BUDGET // (8 * extent) rows and at
    least one; ``grain``, one row's elements that are not point-only over
    the number of nodes that hold them, 0 when all are point-only;
    ``slots``, id -> offset in elements per row into the arena for a value
    that is not point-only, None for a point-only one, of every value a
    kernel writes into a buffer; ``extent``, the arena's elements per row;
    and ``code``, the point and row chunks generated for plain and stacked calls."""

    order: list
    fixed: tuple
    frees: dict
    width: int
    grain: int
    slots: dict
    extent: int
    code: list


# Ops whose kernel writes into a buffer, and ops whose value views their input.
_SLOTTED = frozenset({"add", "mul", "matmul", "neg", "exp", "log", "tanh", "softplus",
                      "power", "sum", "embed"})
_VIEWS = frozenset({"transpose", "reshape", "segment"})


def _planned(root: Expr) -> _Plan:
    """The plan of ``root`` (of its graph, for a bound root), built whole at
    first use and kept in its program."""
    if root.op == "bind":
        root = root.inputs[0]
    plans = _program(root).plans
    plan = plans.get(root.nid)
    if plan is not None:
        return plan
    order: list[Expr] = []
    last: dict[int, int | None] = {}  # node that is not point-only -> last consumer
    seen: set[int] = set()
    stack: list[tuple[Expr, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            if not node.inputs:
                if node.op == "var" and _is_direction(node.payload):
                    last[node.nid] = None
            elif last:
                for child in node.inputs:
                    if child.nid in last:
                        last[child.nid] = node.nid
                        last[node.nid] = None
            order.append(node)
            continue
        if node.nid in seen:
            continue
        if node.op == "bind":
            raise EvaluationError("a bound root cannot be part of a larger graph; "
                                  "build the graph on its unbound graph and bind that")
        seen.add(node.nid)
        stack.append((node, True))
        for child in node.inputs:
            if child.nid not in seen:
                stack.append((child, False))
    fixed = tuple([node.nid not in last for node in order])
    frees: dict[int, list] = {}
    for nid, consumer in last.items():
        if consumer is not None:
            frees.setdefault(consumer, []).append(nid)
    size = {n.nid: math.prod(n.shape) for n, is_fixed in zip(order, fixed) if not is_fixed}
    slots, extent = _memory(order, fixed, frees, size)
    order.pop()
    return plans.setdefault(root.nid, _Plan(
        order, fixed, frees, max(1, BUDGET // (8 * max(extent, 1))),
        sum(size.values()) // len(size) if size else 0, slots, extent, [None, None]))


def _memory(order: list, fixed: tuple, frees: dict, size: dict) -> tuple[dict, int]:
    """The ``slots`` and ``extent`` of a plan (see :class:`_Plan`) of
    ``order``, root last, with ``size`` the elements of each value that is
    not point-only.  Arena offsets go first-fit by liveness: a value takes
    its elements before its dead inputs give theirs back, but for an
    elementwise kernel, which takes those of a same-shaped input that dies
    at it and has no live view; a view keeps its base's until the view's
    own last use.  The root, and what it views, writes into no buffer, so
    no result aliases one."""
    bare, view = {order[-1].nid}, order[-1]
    while view.op in _VIEWS:
        view = view.inputs[0]
        bare.add(view.nid)
    slots: dict[int, int | None] = {}
    owner: dict[int, int] = {}  # a live value in the arena -> the value whose slot it is
    users: dict[int, int] = {}  # a slotted value -> the live values in its slot
    taken: list[tuple[int, int]] = []  # the arena's taken ranges, in order
    extent = 0
    for node, is_fixed in zip(order, fixed):
        if node.op in _SLOTTED and node.shape != () and node.nid not in bare:
            if is_fixed:
                slots[node.nid] = None
                continue
            n, at = size[node.nid], None
            if node.op not in ("matmul", "sum", "embed"):  # elementwise: may write over an input
                for x in node.inputs:
                    if (x.shape == node.shape and owner.get(x.nid) == x.nid and users[x.nid] == 1
                            and x.nid in frees.get(node.nid, ())):
                        at = slots[x.nid]
                        del owner[x.nid], users[x.nid]  # its slot passes to the node
                        break
            if at is None:
                at = 0
                for lo, hi in taken:
                    if lo - at >= n:
                        break
                    at = hi
                bisect.insort(taken, (at, at + n))
            slots[node.nid], owner[node.nid], users[node.nid] = at, node.nid, 1
            extent = max(extent, at + n)
        elif node.op in _VIEWS and node.inputs[0].nid in owner:
            base = owner[node.nid] = owner[node.inputs[0].nid]
            users[base] += 1
        for dead in frees.get(node.nid, ()):
            base = owner.pop(dead, None)
            if base is not None:
                users[base] -= 1
                if not users[base]:
                    taken.remove((slots[base], slots[base] + size[base]))
    return slots, extent


def _leaf(env: Mapping[str, np.ndarray], name: str, shape: tuple,
          stacked: bool = False) -> np.ndarray:
    """The value of the leaf ``name`` of static ``shape``, stacked or not."""
    if name not in env:
        raise EvaluationError(f"unbound variable '{name}'")
    v = np.asarray(env[name], dtype=np.float64)
    if v.shape[stacked:] != shape or v.ndim != len(shape) + stacked:
        raise EvaluationError(f"variable '{name}' expects shape {shape}, got {v.shape}")
    return v


def _log(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if np.any(a <= 0.0):
        raise EvaluationError("log: non-positive input")
    return np.log(a, out)


def _power(a: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    if not float(p).is_integer() and np.any(a < 0.0):
        raise EvaluationError("power: negative base with non-integer exponent")
    if p < 0 and np.any(a == 0.0):
        raise EvaluationError("power: zero base with negative exponent")
    return np.power(a, p, out)


def _sigmoid(a: np.ndarray) -> np.ndarray:  # 1/(1+exp(-x)), stable on both tails
    e = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _embed(a: np.ndarray, start: int, total: int, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = np.zeros(a.shape[:-1] + (total,))
    else:
        out.fill(0.0)
    out[..., start:start + a.shape[-1]] = a
    return out


def _buffer(buffers: dict, nid: int, shape: tuple) -> np.ndarray:
    """The point buffer of node ``nid`` in ``buffers``, made at first use."""
    out = buffers.get(nid)
    if out is None:
        out = buffers[nid] = np.empty(shape)
    return out


# The names generated code calls kernels by, and the head of each unary op's call.
_KERNELS = {"V": _leaf, "EXP": np.exp, "LOG": _log, "TANH": np.tanh, "LAE": np.logaddexp,
            "SIG": _sigmoid, "POW": np.power, "POWC": _power, "EMB": _embed,
            "SUM": np.add.reduce, "ADD": np.add, "MUL": np.multiply, "MATMUL": np.matmul,
            "NEG": np.negative, "BUF": _buffer}
_UNARY = {"neg": "NEG(", "exp": "EXP(", "log": "LOG(", "tanh": "TANH(",
          "softplus": "LAE(0.0,", "sigmoid": "SIG("}


def _kernel(node: Expr, names: dict, axis: dict, consts: list, out: str | None = None) -> str:
    """The source that computes ``node`` from its inputs' ``names``, with
    ``axis`` telling which values carry a stack axis, into the buffer
    ``out`` when given; exponents go to ``consts``.  Each op but a view
    calls its ``_KERNELS`` name, ``NAME(inputs)`` or ``NAME(inputs,out)``:
    numpy's kernel for its operator or function (``np.sum`` is
    ``np.add.reduce``) on a row of a plain value's layout, so every row is
    bitwise the value of its plain pass, with or without a buffer."""
    op, p = node.op, node.payload
    if op == "var":
        return f"V(E,{p!r},{node.shape!r}{',1' if axis[node.nid] else ''})"
    x = node.inputs[0]
    a, stacked = names[x.nid], axis[x.nid]
    if op == "transpose":
        return f"{a}.swapaxes(-1,-2)" if stacked else f"{a}.T"
    if op == "reshape":
        return f"{a}.reshape({a}.shape[:1]+{p!r})" if stacked else f"{a}.reshape({p!r})"
    if op == "segment":
        return f"{a}[{':,' if stacked else ''}{p[0]}:{p[1]}]"
    put = f",{out}" if out else ""  # a call's last argument is its buffer
    if op in ("add", "mul", "matmul"):
        y = node.inputs[1]
        b, n = names[y.nid], len(node.shape)
        if op == "matmul" and len(y.shape) == 1 and axis[y.nid]:  # a stacked vector
            return f"MATMUL({a},{b}[...,None]{put and put + '[...,None]'})[...,0]"
        lift = "{0}.reshape({0}.shape[:1]+{1!r})"  # a stacked lower-rank operand, never matmul's
        if len(x.shape) < n and stacked:
            a = lift.format(a, (1,) * (n - len(x.shape)) + x.shape)
        elif len(y.shape) < n and axis[y.nid]:
            b = lift.format(b, (1,) * (n - len(y.shape)) + y.shape)
        return f"{op.upper()}({a},{b}{put})"
    if op == "embed":
        return f"EMB({a},{p[0]},{p[1]}{put})"
    if op == "sum":  # axes count from the end, past any stack axis
        rank = len(x.shape)
        axes = tuple(range(-rank, 0)) if p is None else p - rank
        return f"SUM({a},{axes!r}{put and ',None' + put})"
    if op == "power":
        consts.append(p)
        kernel = "POW" if float(p).is_integer() and p >= 0 else "POWC"
        return f"{kernel}({a},C[{len(consts) - 1}]{put})"
    if op not in _UNARY:
        raise EvaluationError(f"unknown primitive '{op}'")  # pragma: no cover
    return f"{_UNARY[op]}{a}{put})"


_codes: dict = {}  # digest of a generated source -> the code of its function
_CHUNK = 64  # nodes per generated function; compiling one takes memory in its length


def _compile(source: str) -> CodeType:
    """The code of the one function that ``source`` defines."""
    return next(c for c in compile(source, "<plan>", "exec").co_consts
                if isinstance(c, CodeType))


def _generated(root: Expr, plan: _Plan, stacked: bool) -> tuple:
    """The point chunks and the row chunks, at least one, that run ``plan``, the
    plan of ``root``, for plain directions or, when ``stacked``, for direction
    stacks, kept in the plan: straight-line code, point-only nodes first, each
    phase in plan order and cut every ``_CHUNK`` nodes, each function handing
    the values that later ones read (``last``: local -> the last chunk that
    reads it) to the next in a new list.  A point-only node reads its value
    from the point store K or computes and stores it, into its buffer from P
    if slotted; any other node computes into a local that no code frees, into
    its offset of the arena A, B rows deep if slotted, stacked if ``stacked``.
    Locals are named by position and node ids and constants are arguments, so
    graphs of one structure share their code, kept and named by its digest."""
    names, axis, ids, consts, chunks, last = {}, {}, [], [], [], {}
    points = sum(plan.fixed)
    nodes = sorted(zip(itertools.chain(plan.order, (root,)), plan.fixed), key=lambda n: not n[1])
    for k, (node, fixed) in enumerate(nodes):
        if (k if fixed else k - points) % _CHUNK == 0:
            chunks.append([])
        axis[node.nid] = stacked and not fixed
        if node.op == "const":
            names[node.nid] = f"C[{len(consts)}]"
            consts.append(node.payload)
            continue
        for child in node.inputs:
            last[names[child.nid]] = len(chunks) - 1
        w = names[node.nid] = f"w{k}"
        out, o, n = None, plan.slots.get(node.nid), math.prod(node.shape)
        if node.nid in plan.slots:
            out = (f"BUF(P,I[{len(ids)}],{node.shape!r})" if fixed else
                   f"A[{o}*B:{o + n}*B].reshape((B,)+{node.shape!r})" if stacked else
                   f"A[{o}:{o + n}].reshape({node.shape!r})")
        value = _kernel(node, names, axis, consts, out)
        if fixed:
            chunks[-1] += [f"{w}=K.get(I[{len(ids)}])",
                           f"if {w} is None:{w}=K[I[{len(ids)}]]={value}"]
            ids.append(node.nid)
        else:
            chunks[-1].append(f"{w}={value}")
    split = -(-points // _CHUNK)  # the point chunks
    if len(chunks) == split:  # no row node: one row chunk takes the root from the point chunks
        chunks.append([])
    last[names[root.nid]] = len(chunks) - 1
    run, live, args = [], [], (tuple(ids), tuple(consts))
    for c, lines in enumerate(chunks):
        head = ["def run(E,K,L,A,B,P,I,C):"] + (
            [",".join(live) + ",=L"] if live else [])
        live = [w for w in live + [line.split("=", 1)[0] for line in lines if line[0] == "w"]
                if last.get(w, -1) > c]
        tail = f"return [{','.join(live)}]" if c < len(chunks) - 1 else f"return {names[root.nid]}"
        source = "\n ".join(head + lines + [tail])
        key = hashlib.blake2b(source.encode(), digest_size=16).digest()
        code = _codes.get(key)
        if code is None:
            if len(_codes) >= 1024:  # about 15 KB each: forget the oldest
                _codes.pop(next(iter(_codes)), None)
            code = _codes[key] = _compile(source).replace(co_filename=f"<plan {key.hex()[:12]}>")
        run.append(FunctionType(code, _KERNELS, "run", args))
    plan.code[stacked] = run[:split], run[split:]
    return plan.code[stacked]


def _point_values(env: Mapping[str, np.ndarray], bound: Mapping[str, np.ndarray] | None,
                  point: threading.local) -> tuple[dict, dict]:
    """The point of a pass and the point-only values stored at it in
    ``point``, a program's per-thread store of one entry: (bound, env's
    point leaves by name, shape and bytes, the point, {node id -> value}).
    The point is read-only copies of env's leaves that are no direction
    leaves, and the arrays ``bound`` to the root.  Bound arrays compare by
    identity, which the entry keeps valid by holding them; env's leaves by
    bytes, so -0.0 and 0.0 differ.  A new point drops the old values before
    computing any.  Its value map starts empty, so no value is read stale
    from the point buffers that :func:`_point` keeps beside the entry and
    overwrites at each new point."""
    key = []
    for name, value in env.items():
        if name == PARAM or not _is_direction(name):
            value = np.asarray(value, dtype=np.float64)
            key.append((name, value.shape, value.tobytes()))
    entry = getattr(point, "entry", None)
    if entry is not None and entry[0] is bound and entry[1] == key:
        return entry[2], entry[3]
    point.entry = None
    if bound is not None and not bound.keys().isdisjoint(env):
        raise EvaluationError(f"variables {sorted(bound.keys() & env.keys())} are bound "
                              "to the root and cannot be passed")
    arrays = dict(bound or {})
    for name, _, _ in key:
        arrays[name] = np.array(env[name], dtype=np.float64)
        arrays[name].setflags(write=False)
    values: dict = {}
    point.entry = (bound, key, arrays, values)
    return arrays, values


def _point(root: Expr, plan: _Plan, env: Mapping, bound: Mapping | None, stacked: bool) -> list:
    """Root's point chunks of its ``plan``, run under the caller's errstate on the calling
    thread's store (:func:`_point_values`) and point buffers: the values its row chunks take."""
    store, live = _program(root).point, []
    arrays, kept = _point_values(env, bound, store)
    buffers = vars(store).setdefault("buffers", {})
    for run in (plan.code[stacked] or _generated(root, plan, stacked))[0]:
        live = run(arrays, kept, live, None, 0, buffers)
    return live


def _run(root: Expr, env: Mapping[str, np.ndarray],
         bound: Mapping[str, np.ndarray] | None = None, stacked: bool = False,
         arena: np.ndarray | None = None, points: list | None = None) -> np.ndarray:
    """Evaluate the graph ``root`` by its plan's row chunks from ``points``,
    root's :func:`_point` values, which they read, by default made here at
    env's point and root's ``bound`` arrays.  Env's direction leaves are
    plain or, when ``stacked``, stacks of rows, which only :func:`_rows`
    passes.  Slotted values go into ``arena``, of the plan's extent times
    the rows or more, or one of its own.  The result is no buffer, but it
    may be stored, so public callers hand out copies."""
    plan = _planned(root)
    rows = next((len(v) for k, v in env.items() if _is_direction(k)), 0) if stacked else 1
    arena = np.empty(rows * plan.extent) if arena is None else arena
    with np.errstate(all="ignore"):
        live = _point(root, plan, env, bound, stacked) if points is None else points
        for run in plan.code[stacked][1]:  # generated by _point at the latest
            live = run(env, None, live, arena, rows, None)
    return live


def _as_env(theta) -> Mapping[str, np.ndarray]:
    if isinstance(theta, Mapping):
        return theta
    if isinstance(theta, ParamVector):
        return {PARAM: theta.values}
    return {PARAM: np.asarray(theta, dtype=np.float64)}


def evaluate(f: Expr, theta) -> float:
    """Evaluate a scalar expression at ``theta`` (ParamVector, flat array,
    or an explicit name->array environment of ``f``'s unbound leaves)."""
    counter.add(forward=1)
    f, bound = _unbind(f)
    out = _run(f, _as_env(theta), bound)
    return float(out) if out.shape == () else out.copy()


# ---------------------------------------------------------------------------
# differentiation (graph transformation)
# ---------------------------------------------------------------------------


def _sum_to(e: Expr, shape: tuple) -> Expr:
    """Reduce a broadcast expression back to ``shape`` (adjoint of numpy
    broadcasting in add/mul)."""
    while len(e.shape) > len(shape):
        e = reduce_sum(e, axis=0)
    for ax in range(len(shape)):
        if shape[ax] == 1 and e.shape[ax] != 1:
            e = reshape(reduce_sum(e, axis=ax), shape[:ax] + (1,) + e.shape[ax + 1:])
    return e


def _ones(shape: tuple) -> Expr:
    return const(np.ones(shape))


def _vjp(node: Expr, adj: Expr) -> list[tuple[Expr, Expr]]:
    """Adjoint contributions of ``node`` to each differentiable input,
    expressed with primitives so the result is differentiable again."""
    op = node.op
    x = node.inputs[0] if node.inputs else None
    if op == "neg":
        return [(x, neg(adj))]
    if op == "add":
        y = node.inputs[1]
        return [(x, _sum_to(adj, x.shape)), (y, _sum_to(adj, y.shape))]
    if op == "mul":
        y = node.inputs[1]
        return [(x, _sum_to(mul(adj, y), x.shape)), (y, _sum_to(mul(adj, x), y.shape))]
    if op == "matmul":
        y = node.inputs[1]
        if len(y.shape) == 2:
            return [(x, matmul(adj, transpose(y))), (y, matmul(transpose(x), adj))]
        # matrix @ vector
        m, k = x.shape
        outer = matmul(reshape(adj, (m, 1)), reshape(y, (1, k)))
        return [(x, outer), (y, matmul(transpose(x), adj))]
    if op == "transpose":
        return [(x, transpose(adj))]
    if op == "reshape":
        return [(x, reshape(adj, x.shape))]
    if op == "segment":
        start, _ = node.payload
        return [(x, embed(adj, start, x.shape[0]))]
    if op == "embed":
        start, _ = node.payload
        return [(x, segment(adj, start, start + x.shape[0]))]
    if op == "sum":
        if node.payload is None:
            return [(x, mul(adj, _ones(x.shape)))]
        ax = node.payload
        keep = x.shape[:ax] + (1,) + x.shape[ax + 1:]
        return [(x, mul(reshape(adj, keep), _ones(x.shape)))]
    if op == "exp":
        return [(x, mul(adj, node))]
    if op == "log":
        return [(x, mul(adj, power(x, -1.0)))]
    if op == "tanh":
        return [(x, mul(adj, add(const(1.0), neg(mul(node, node)))))]
    if op == "softplus":
        return [(x, mul(adj, sigmoid(x)))]
    if op == "sigmoid":
        return [(x, mul(adj, mul(node, add(const(1.0), neg(node)))))]
    if op == "power":
        p = node.payload
        if p == 0.0:
            return []
        return [(x, mul(adj, mul(const(p), power(x, p - 1.0))))]
    raise EvaluationError(f"no derivative rule for primitive '{op}'")  # pragma: no cover


def gradient_expr(f: Expr, wrt: str = PARAM, shape: tuple | None = None) -> Expr:
    """Reverse-mode gradient of a scalar expression as a new expression.

    Adjoints are accumulated over the sub-DAG that depends on ``wrt``; every
    rule emits primitive nodes, so the returned graph supports further
    differentiation.  Results are kept per (f, wrt) in f's program.
    """
    if f.op == "bind":
        return _bound(gradient_expr(f.inputs[0], wrt, shape), f.payload)
    out = _kept(f, wrt, lambda: _adjoint(f, wrt))
    if out is not f:
        return out
    # constant w.r.t. wrt; not kept because the zero shape is caller-supplied
    if shape is None:
        raise EvaluationError(f"expression does not contain variable '{wrt}' "
                              "and no shape was given for the zero gradient")
    return const(np.zeros(shape))


def _adjoint(f: Expr, wrt: str) -> Expr:
    """The gradient graph of the scalar ``f`` for ``wrt``, or f itself if no leaf is ``wrt``."""
    if f.shape != ():
        raise EvaluationError(f"gradient expects a scalar expression, got shape {f.shape}")
    order = [*_planned(f).order, f]
    leaves = [node for node in order if node.op == "var" and node.payload == wrt]
    if len(leaves) > 1:
        raise EvaluationError(f"expression mixes two '{wrt}' leaves of different shapes")
    if not leaves:
        return f
    leaf = leaves[0]
    # nodes whose value depends on the leaf
    dep: set[int] = {leaf.nid}
    for node in order:
        if any(i.nid in dep for i in node.inputs):
            dep.add(node.nid)

    adjoint: dict[int, Expr] = {f.nid: const(1.0)}
    for node in reversed(order):
        if node.nid not in dep or node.nid not in adjoint or not node.inputs:
            continue
        adj = adjoint[node.nid]
        if node is f:  # a same-valued clone, so that no derived graph holds the root
            node = Expr(f.op, f.inputs, f.payload, f.shape)
        for child, contrib in _vjp(node, adj):
            if child.nid not in dep:
                continue
            prev = adjoint.get(child.nid)
            adjoint[child.nid] = contrib if prev is None else add(prev, contrib)
    # zero if every path to the leaf dies in a derivative-free rule (x**0)
    out = adjoint.get(leaf.nid)
    return const(np.zeros(leaf.shape)) if out is None else out


def gradient(f: Expr, theta) -> np.ndarray:
    """Exact reverse-mode gradient of ``f`` with respect to the parameter
    vector, evaluated at ``theta``.  One forward plus one backward sweep."""
    counter.add(forward=1, backward=1, passes=1, sweeps=1)
    return np.array(_run(*_derivative(f, theta, 0, True)), ndmin=1)


def directional_derivative(f: Expr, theta, u: ArrayLike) -> Expr:
    """The scalar expression grad(f)^T u, itself differentiable again.

    ``u`` is baked in as a constant; ``theta`` fixes the expected parameter
    length (the expression remains a function of the parameter vector).
    """
    if f.op == "bind":
        return _bound(directional_derivative(f.inputs[0], theta, u), f.payload)
    env = _as_env(theta)
    p = np.asarray(env[PARAM]).shape
    u = np.asarray(u, dtype=np.float64)
    if u.shape != p:
        raise EvaluationError(f"direction has shape {u.shape}, parameters have {p}")
    return dot(gradient_expr(f, PARAM, shape=p), const(u))


def _dir_name(k: int) -> str:
    return f"_u{k}"


def _is_direction(name: str) -> bool:
    return name[:2] == "_u" and name[2:].isdigit()


def _derivative(f: Expr, theta, d: int, grad: bool) -> tuple[Expr, dict, Mapping | None]:
    """f's d-fold :func:`_chain`, or its gradient when ``grad``, unbound; a
    copy of theta's environment; and f's bound arrays.  The entry points
    share this rather than call one another, so each pass is timed once."""
    f, bound = _unbind(f)
    env = dict(_as_env(theta))
    pshape = np.asarray(env[PARAM]).shape if d or grad else None  # f itself takes no shape
    expr = _chain(f, d, pshape)
    return (gradient_expr(expr, PARAM, shape=pshape) if grad else expr), env, bound


def _chain(f: Expr, d: int, pshape: tuple) -> Expr:
    """d-fold nested directional derivative with independent direction
    leaves _u1.._ud:  c_k = grad(c_{k-1})^T u_k.  Kept in f's program under
    (c_{k-1}, (k, pshape)), so evaluations at new points and directions rebind
    the leaves instead of rebuilding graphs, and a call with a misshaped theta
    leaves no leaf of its shape behind for later calls."""
    if f.op == "bind":
        return _bound(_chain(f.inputs[0], d, pshape), f.payload)
    if d == 0:
        return f
    prev = _chain(f, d - 1, pshape)
    return _kept(prev, (d, pshape), lambda: dot(gradient_expr(prev, PARAM, shape=pshape),
                                                var(_dir_name(d), pshape)))


# Rows fold (see the module docstring) at a plan grain of at least this.
# Loss, gradient and h̄ per fresh point on moons MLPs (process time, one
# BLAS thread): folding costs +40% at grain 379 (P=186), breaks even near
# 1.5k-1.9k, and saves 15-30% at 2.1k-3.9k and 2x at 12.4k-54.7k.
FOLD_GRAIN = 2048

# Arena bytes per sweep.  The 372 stencil rows at P=186 (extent 1,600; one
# BLAS thread, 2-core x86 sandbox) took 24-28 ms at width 1, 11 at 4 and
# 5.7-7.2 at 32-128 (81 here); order-2 and HVP rows measured flat across
# widths 5-36, and h-bar rows at P=8,642 ran faster one at a time.
BUDGET = 2**20

# The CPUs this process may run on; the second lane, one thread started at its first job.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_LANE = ThreadPoolExecutor(1)
if hasattr(os, "register_at_fork"):  # a forked child starts a worker of its own
    os.register_at_fork(after_in_child=lambda: globals().update(_LANE=ThreadPoolExecutor(1)))


def _folds(expr: Expr, stacks: list) -> list | None:
    """The rows of the (B, P) ``stacks`` grouped by the tensor range per
    level that holds their nonzeros, as (``expr`` folded to those ranges,
    the rows' indices, the rows cut to the ranges); None when ``expr`` has
    no tensor ranges or a row's nonzeros are in no one range.  Any range
    that holds a row's nonzeros folds it exactly, so ranges may overlap."""
    spans = np.array(sorted({node.payload for node in _planned(expr).order if node.op == "segment"
                             and node.inputs[0].op == "var" and node.inputs[0].payload == PARAM}),
                     dtype=np.int64).reshape(-1, 2)
    if not len(spans):
        return None
    starts, stops = spans[:, 0], spans[:, 1]
    levels = []
    for u in stacks:  # an all-zero row goes with the first range
        nonzero = u != 0
        hit = nonzero.any(axis=1)
        lo = np.where(hit, nonzero.argmax(axis=1), starts[0])
        hi = np.where(hit, u.shape[1] - nonzero[:, ::-1].argmax(axis=1), starts[0])
        level = np.minimum(np.searchsorted(stops, lo, side="right"), len(stops) - 1)
        if np.any((lo < starts[level]) | (hi > stops[level])):
            return None
        levels.append(level)
    keys = np.stack(levels, axis=1)
    groups = []
    for key in np.unique(keys, axis=0):
        index = np.flatnonzero((keys == key).all(axis=1))
        ranges = tuple((int(starts[i]), int(stops[i])) for i in key)
        graph = _kept(expr, ranges, lambda: substitute(expr, {
            _dir_name(k): embed(var(_dir_name(k), (b - a,)), a, u.shape[1])
            for k, ((a, b), u) in enumerate(zip(ranges, stacks), start=1)}))
        groups.append((graph, index, [u[index, a:b] for u, (a, b) in zip(stacks, ranges)]))
    return groups


def _rows(expr: Expr, env: dict, bound: Mapping[str, np.ndarray] | None,
          dirs: Sequence[ArrayLike], backward: int | None) -> np.ndarray:
    """Evaluate ``expr``, with ``bound`` its bound arrays and the direction
    leaves _u1.. set to ``dirs``: all single vectors (or none), one row run
    plain, or all (B, P) stacks with one B, P theta's shape in env or else
    the stacks'.  The rows form one group on ``expr`` or, at a grain of
    ``FOLD_GRAIN`` or more, the groups of :func:`_folds`; each runs in
    sweeps of at most its plan's width rows, each in an arena of the plan's
    extent per row, from its graph's one list of :func:`_point` values, into
    the result, on one or two lanes (see the module docstring).  A row
    counts as one pass of depth ``backward``, or one forward when None."""
    pshape = np.shape(env[PARAM]) if PARAM in env else np.shape(dirs[0])[1:] if dirs else ()
    stacks = [np.ascontiguousarray(u, dtype=np.float64) for u in dirs]
    single = all(u.ndim == len(pshape) for u in stacks)
    want = pshape if single else stacks[0].shape[:1] + pshape
    for k, u in enumerate(stacks, start=1):
        if u.shape != want:
            raise EvaluationError(f"direction {k} has shape {u.shape}, expected {want}")
    if single:
        stacks = [u[None] for u in stacks]
    rows = len(stacks[0]) if stacks else 1
    out, sweeps, plans = np.empty((rows,) + expr.shape), [], {}  # plans of graphs with sweeps
    groups = stacks and _planned(expr).grain >= FOLD_GRAIN and _folds(expr, stacks)
    for graph, index, parts in groups or [(expr, np.arange(rows), stacks)]:
        plan = _planned(graph)
        width = 1 if single else plan.width
        for lo in range(0, len(index), width):
            n, plans[graph] = min(width, len(index) - lo), plan
            if backward is None:
                counter.add(forward=n)
            else:
                counter.add(forward=n, backward=n * backward, passes=n, sweeps=1)
            sweeps.append((plan.extent * n, graph, index[lo:lo + n], {
                **env, **{_dir_name(k): u[lo] if single else u[lo:lo + n]
                          for k, u in enumerate(parts, start=1)}}))
    with np.errstate(all="ignore"):
        points = {g: _point(g, plan, env, bound, not single) for g, plan in plans.items()}
    jobs, lock = collections.deque(sorted(sweeps, key=lambda sweep: sweep[0])), threading.Lock()

    def drain(arena: np.ndarray, left: bool = False) -> None:
        """Run jobs with ``arena`` from the right end or, when ``left``, from
        the left end while they fit; a failure clears the jobs."""
        try:
            while True:
                with lock:
                    if not jobs or left and jobs[0][0] > arena.size:
                        return
                    _, graph, index, leaves = jobs.popleft() if left else jobs.pop()
                out[index] = _run(graph, leaves, None, not single, arena, points[graph])
        except BaseException:
            with lock:
                jobs.clear()
            raise

    arena, lane = np.empty(jobs[-1][0] if jobs else 0), None
    region = jobs[(len(jobs) - 1) // 2][0] if len(jobs) > 1 else 0  # the worker's arena
    if 8 * region >= BUDGET and CPUS > 1:
        with contextlib.suppress(RuntimeError):  # at interpreter exit, one lane
            lane = _LANE.submit(drain, np.empty(region), True)
    try:
        drain(arena)
    finally:
        if lane is not None and not lane.cancel():
            lane.result()
    return out[0] if single else out


def _points_graph(f: Expr, pshape: tuple) -> Expr:
    """f's graph with theta of ``pshape`` set to the leaf _u1, kept in f's program."""
    f = _unbind(f)[0]  # substitute refuses a shape that is not theta's
    return _kept(f, (0, pshape), lambda: substitute(f, {PARAM: var(_dir_name(1), pshape)}))


def evaluate_points(f: Expr, points: ArrayLike) -> np.ndarray:
    """:func:`evaluate` at each row of the (B, P) ``points``: row b is
    bitwise equal to ``evaluate(f, points[b])``.  The rows run through
    :func:`_rows` on :func:`_points_graph`, each counted as one ``evaluate``."""
    points = np.asarray(points, dtype=np.float64)
    return _rows(_points_graph(f, points.shape[1:]), {}, _unbind(f)[1], [points], None)


def nested_directional(f: Expr, theta, dirs: Sequence[ArrayLike]) -> float:
    """d-th derivative of ``f`` contracted with ``dirs``, one per level: one
    gradient-equivalent pass of depth d, or at d = 0 one ``evaluate`` of f."""
    return float(_rows(*_derivative(f, theta, len(dirs), False), dirs, len(dirs) or None))


def gradient_of_nested(f: Expr, theta, dirs: Sequence[ArrayLike]) -> np.ndarray:
    """Gradient of the d-fold nested directional derivative: a full vector of
    (d+1)-th derivative contractions.  With ``dirs=[]`` this is the plain
    gradient; with one direction it is a Hessian-vector product.

    Directions may also be (B, P) stacks, all with the same B; the result is
    then (B, P), and row b is bitwise equal to the call with each stack's
    row b.  B rows count as B passes, run in as few sweeps as the graph's
    width allows (see the module docstring)."""
    return _rows(*_derivative(f, theta, len(dirs), True), dirs, len(dirs) + 1)


# ---------------------------------------------------------------------------
# parameter vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Flat 64-bit parameter vector carrying a tuple-of-tensors structure.

    Tensors are concatenated in declaration order, each flattened row-major;
    the shape list is fixed for the lifetime of a run.
    """

    values: np.ndarray
    shapes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64).reshape(-1)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        shapes = tuple(tuple(int(s) for s in shp) for shp in self.shapes)
        object.__setattr__(self, "shapes", shapes)
        total = sum(math.prod(s) for s in shapes)
        if total != self.values.shape[0]:
            raise ValueError(
                f"shape list covers {total} entries, values have {self.values.shape[0]}")

    @classmethod
    def flat(cls, values: ArrayLike) -> "ParamVector":
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        return cls(values, ((values.shape[0],),))

    @classmethod
    def from_tensors(cls, tensors: Sequence[np.ndarray]) -> "ParamVector":
        tensors = [np.asarray(t, dtype=np.float64) for t in tensors]
        flat = np.concatenate([t.reshape(-1) for t in tensors]) if tensors else np.zeros(0)
        return cls(flat, tuple(t.shape for t in tensors))

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def tensors(self) -> list[np.ndarray]:
        out, offset = [], 0
        for shp in self.shapes:
            n = int(np.prod(shp, dtype=np.int64))
            out.append(self.values[offset:offset + n].reshape(shp))
            offset += n
        return out

    def with_values(self, values: ArrayLike) -> "ParamVector":
        return ParamVector(np.asarray(values, dtype=np.float64), self.shapes)
