"""A network's losses share one graph and one program, each bound to its rows.

``make_mlp`` builds a network's loss graph once per row count, with the rows
as the variable leaves ``FEATURES`` and ``TARGETS``, and binds each loss to
its own rows.  Every value must stay bitwise equal to a loss with its rows
baked in as constants, two bindings of one graph must never see each
other's values, a stream of minibatches must not grow the program, and a
bound root must not be usable inside a larger graph.
"""

import gc

import numpy as np
import pytest

from grouphess import engine
from grouphess.engine import (PARAM, EvaluationError, Expr, evaluate, gradient,
                              gradient_of_nested, nested_directional)
from grouphess.optimizers import StepConfig, partitioned_newton_step
from grouphess.partition import canonical_partition, mask
from grouphess.problems import (FEATURES, TARGETS, MlpSpec, make_mlp, mlp_labels,
                                mlp_shapes, synth_dataset)
from grouphess.summaries import pseudo_hessian


def _const_loss(spec, data, subset=None):
    """The loss with its rows as const leaves, built as ``make_mlp`` built
    every loss before losses were bound."""
    x, y = data.features, data.targets
    if subset is not None:
        x, y = x[np.asarray(subset)], y[np.asarray(subset)]
    n, k = x.shape[0], spec.widths[-1]
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0
    shapes = mlp_shapes(spec.widths)
    theta = engine.var(PARAM, (sum(int(np.prod(s)) for s in shapes),))
    tensors = engine.param_tensors(theta, shapes)
    act = engine.tanh if spec.activation == "tanh" else engine.softplus
    h = engine.const(x)
    for layer in range(spec.layers):
        h = engine.matmul(h, tensors[2 * layer]) + tensors[2 * layer + 1]
        if layer < spec.layers - 1:
            h = act(h)
    if spec.loss == "mse":
        return engine.reduce_sum((h - engine.const(onehot)) ** 2) * (1.0 / (n * k))
    lse = engine.log(engine.reduce_sum(engine.exp(h), axis=1))
    picked = engine.reduce_sum(h * engine.const(onehot), axis=1)
    return engine.reduce_sum(lse - picked) * (1.0 / n)


def _outputs(f, theta, part):
    """Loss, gradient, group system and one partitioned step, as bytes."""
    system = pseudo_hessian(f, theta, part)
    theta2, _ = partitioned_newton_step(f, theta, part, StepConfig(damping=0.3))
    return [np.float64(evaluate(f, theta)).tobytes(), gradient(f, theta).tobytes(),
            system.hbar.tobytes(), system.gbar.tobytes(), theta2.values.tobytes()]


# (widths, rows in the dataset, rows per loss or None for the full batch)
CASES = [((2, 8, 8, 8, 2), 1000, 64), ((2, 8, 8, 8, 2), 100, None),
         ((2, 32, 32, 2), 300, None), ((2, 32, 32, 2), 600, 300)]


@pytest.mark.parametrize("widths,n,batch", CASES)
@pytest.mark.parametrize("activation,loss", [("tanh", "mse"),
                                             ("softplus", "softmax-cross-entropy")])
def test_bound_losses_equal_const_leaf_losses_bitwise(widths, n, batch, activation, loss):
    spec = MlpSpec(widths, activation=activation, loss=loss, seed=2)
    data = synth_dataset("moons", n, seed=0)
    rng = np.random.default_rng(1)
    subsets = [None] if batch is None else [rng.choice(n, batch, replace=False)
                                            for _ in range(3)]
    losses = []
    for subset in subsets:  # each batch after the first reuses the graph
        f, theta0 = make_mlp(spec, data, subset=subset)
        part = canonical_partition(theta0.shapes, mlp_labels(widths))
        theta = theta0.with_values(theta0.values + 0.1 * rng.normal(size=theta0.size))
        assert _outputs(f, theta, part) == _outputs(_const_loss(spec, data, subset), theta, part)
        losses.append(f)
    assert len({id(engine._unbind(f)[0]) for f in losses}) == 1
    if widths[1] == 32:  # rows fold at this size
        graph = engine.gradient_expr(engine._chain(losses[0], 1, (theta0.size,)))
        assert engine._planned(graph).grain >= engine.FOLD_GRAIN


def test_two_bindings_of_one_graph_used_alternately_keep_their_own_values():
    spec = MlpSpec((2, 8, 8, 8, 2), seed=2)
    data = synth_dataset("moons", 1000, seed=0)
    batches = [np.arange(64), np.arange(64, 128)]
    bound = [make_mlp(spec, data, subset=b)[0] for b in batches]
    theta = make_mlp(spec, data, subset=batches[0])[1].values
    assert engine._unbind(bound[0])[0] is engine._unbind(bound[1])[0]
    u = np.random.default_rng(2).normal(size=theta.size)
    want = []
    for b in batches:
        f = _const_loss(spec, data, b)
        want.append((evaluate(f, theta), gradient(f, theta), gradient_of_nested(f, theta, [u]),
                     nested_directional(f, theta, [u, u])))
    assert want[0][0] != want[1][0]
    for _ in range(3):  # alternate at one theta
        for f, (value, g, hv, second) in zip(bound, want):
            assert evaluate(f, theta) == value
            assert gradient(f, theta).tobytes() == g.tobytes()
            assert gradient_of_nested(f, theta, [u]).tobytes() == hv.tobytes()
            assert nested_directional(f, theta, [u, u]) == second


def _live_exprs():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Expr)


def test_a_thousand_batches_leave_the_graph_count_flat():
    spec = MlpSpec((2, 8, 8, 8, 2), seed=2)
    data = synth_dataset("moons", 1000, seed=0)
    f, theta0 = make_mlp(spec, data, subset=range(64))
    part = canonical_partition(theta0.shapes, mlp_labels(spec.widths))
    program = f.program
    rng = np.random.default_rng(3)
    counts = []
    for i in range(1000):
        f = make_mlp(spec, data, subset=rng.choice(1000, 64, replace=False))[0]
        assert f.program is program
        pseudo_hessian(f, theta0, part)
        if i in (9, 999):
            counts.append((_live_exprs(), len(program.derived), len(program.plans)))
    assert counts[0] == counts[1]


def test_a_bound_root_inside_a_larger_graph_raises():
    spec = MlpSpec((2, 8, 8, 8, 2), seed=2)
    data = synth_dataset("moons", 100, seed=0)
    f, theta0 = make_mlp(spec, data)
    theta = theta0.values
    u = np.ones(theta.size)
    for bigger in (f * 2.0, f + f, engine.add(engine.tanh(f), engine.const(1.0))):
        for call in (lambda: evaluate(bigger, theta), lambda: gradient(bigger, theta),
                     lambda: gradient_of_nested(bigger, theta, [u]),
                     lambda: engine.gradient_expr(bigger),
                     lambda: engine.substitute(bigger, {PARAM: engine.var(PARAM, (theta.size,))})):
            with pytest.raises(EvaluationError, match="cannot be part of a larger graph"):
                call()
    # the loss itself still evaluates, and its bound leaves cannot be passed
    assert evaluate(f, theta) == evaluate(_const_loss(spec, data), theta)
    with pytest.raises(EvaluationError, match="bound to the root"):
        evaluate(f, {PARAM: theta, FEATURES: data.features})
    for name in (PARAM, engine._dir_name(1)):
        with pytest.raises(EvaluationError, match="parameter or a direction leaf"):
            engine.bind(engine._unbind(f)[0], {name: theta})


def test_graph_level_calls_on_a_bound_root_return_bound_results():
    spec = MlpSpec((2, 8, 8, 8, 2), seed=2)
    data = synth_dataset("moons", 1000, seed=0)
    f, theta0 = make_mlp(spec, data, subset=range(100, 164))
    theta = theta0.values
    ref = _const_loss(spec, data, range(100, 164))
    u = mask(gradient(f, theta), canonical_partition(theta0.shapes, mlp_labels(spec.widths)), 2)
    assert engine.gradient_expr(f).program is f.program  # kept in the shared program
    for made, want in ((engine.gradient_expr(f), engine.gradient_expr(ref)),
                       (engine.directional_derivative(f, theta, u),
                        engine.directional_derivative(ref, theta, u))):
        assert made.op == "bind"
        assert np.array_equal(evaluate(made, theta), evaluate(want, theta))
    scaled = engine.substitute(f, {PARAM: 2.0 * engine.var(PARAM, (theta.size,))})
    assert evaluate(scaled, theta) == evaluate(ref, 2.0 * theta)
    with pytest.raises(EvaluationError, match="bound already"):
        engine.bind(f, {TARGETS: np.zeros((64, 2))})
