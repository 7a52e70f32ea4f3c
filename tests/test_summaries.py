import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouphess import engine, summaries
from grouphess.engine import (
    const,
    dot,
    gradient_of_nested,
    matmul,
    nested_directional,
    reduce_sum,
    var,
)
from grouphess.fd import fd_pseudo_hessian
from grouphess.partition import (
    custom_partition,
    discrete_partition,
    group_sum,
    mask,
    trivial_partition,
)
from grouphess.problems import MlpSpec, make_mlp, synth_dataset
from grouphess.summaries import (
    BudgetError,
    PseudoSystem,
    SummaryTensor,
    pseudo_gradient,
    pseudo_hessian,
    regularization_vector,
    summary_rows,
    summary_tensor,
    taylor_term,
)


def quadratic_expr(A, c=None):
    A = np.asarray(A, dtype=np.float64)
    t = var("theta", (A.shape[0],))
    d = t - const(c) if c is not None else t
    return 0.5 * dot(d, matmul(const(A), d))


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.max(np.abs(b)), 1e-300)
    return np.max(np.abs(a - b)) / scale


# taylor_term ----------------------------------------------------------------

def test_taylor_term_quadratic_form():
    f = quadratic_expr(np.diag([1.0, 2.0]))
    got = taylor_term(f, np.array([1.0, 1.0]), np.array([1.0, 1.0]), 2)
    assert got == pytest.approx(3.0, rel=1e-14)  # u^T A u


def test_taylor_term_third_order_of_quadratic_vanishes():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 3))
    A = A + A.T
    f = quadratic_expr(A)
    got = taylor_term(f, rng.normal(size=3), rng.normal(size=3), 3)
    assert got == 0.0


def test_taylor_term_exp_fourth_derivative():
    t = var("theta", (1,))
    f = reduce_sum(engine.exp(t))
    assert taylor_term(f, np.zeros(1), np.ones(1), 4) == pytest.approx(1.0, rel=1e-12)


def test_taylor_term_rejects_order_zero():
    f = quadratic_expr(np.eye(2))
    with pytest.raises(ValueError):
        taylor_term(f, np.zeros(2), np.ones(2), 0)


def _taylor_ratio_cases():
    rng = np.random.default_rng(5)
    t3 = var("theta", (3,))
    smooth = reduce_sum(engine.exp(0.7 * t3)) + dot(t3, engine.tanh(t3))
    yield smooth, 0.3 * rng.normal(size=3)

    from grouphess.problems import MlpSpec, make_mlp, make_rosenbrock, synth_dataset

    yield make_rosenbrock(), np.array([-0.4, 0.6])
    f, theta0 = make_mlp(MlpSpec(widths=(2, 3, 2), seed=2), synth_dataset("moons", 10, seed=2))
    yield f, theta0.values
    A = rng.normal(size=(4, 4))
    yield quadratic_expr(A + A.T + 5 * np.eye(4)), rng.normal(size=4)


@pytest.mark.parametrize("case", range(4))
def test_taylor_prediction_ratio_bounded(case):
    # |L(theta + eps*u) - 3rd-order prediction| / eps^4 stays bounded as eps
    # shrinks, on every shipped problem family
    f, theta = list(_taylor_ratio_cases())[case]
    rng = np.random.default_rng(17 + case)
    u = rng.normal(size=theta.size)
    u /= np.linalg.norm(u)
    ratios = []
    base = engine.evaluate(f, theta)
    for eps in (1e-1, 1e-2, 1e-3):
        pred = base
        for d in (1, 2, 3):
            pred += eps**d / math.factorial(d) * taylor_term(f, theta, u, d)
        ratios.append(abs(engine.evaluate(f, theta + eps * u) - pred) / eps**4)
    assert max(ratios[1:]) <= 10.0 * max(ratios[0], 1e-6)


# summary_tensor -------------------------------------------------------------

def test_summary_order1_matches_pseudo_gradient_with_gradient_direction():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    f = quadratic_expr(A)
    theta = np.array([0.4, -1.1])
    part = custom_partition([(0,), (1,)])
    g = engine.gradient(f, theta)
    st1 = summary_tensor(f, theta, g, part, 1)
    assert rel_err(st1.entries, pseudo_gradient(f, theta, part)) <= 1e-12


def test_summary_order2_discrete_recovers_matrix():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    f = quadratic_expr(A)
    st2 = summary_tensor(f, np.array([0.7, 0.2]), np.ones(2), discrete_partition(2), 2)
    assert rel_err(st2.entries, A) <= 1e-12


def test_summary_trivial_partition_collapses_to_taylor_term():
    t = var("theta", (3,))
    f = reduce_sum(engine.exp(0.5 * t))
    theta = np.array([0.1, -0.2, 0.3])
    u = np.array([1.0, 2.0, -1.0])
    for d in (1, 2, 3):
        st_d = summary_tensor(f, theta, u, trivial_partition(3), d)
        assert st_d.entries.shape == (1,) * d
        assert float(st_d.entries.reshape(-1)[0]) == pytest.approx(
            taylor_term(f, theta, u, d), rel=1e-12)


def test_summary_budget_guard():
    t = var("theta", (40,))
    f = dot(t, t)
    with pytest.raises(BudgetError, match="coarser"):
        summary_tensor(f, np.zeros(40), np.ones(40), discrete_partition(40), 4)


def test_summary_json_round_trip():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    f = quadratic_expr(A)
    st2 = summary_tensor(f, np.zeros(2), np.ones(2), discrete_partition(2), 2)
    back = SummaryTensor.from_json(st2.to_json())
    assert back.order == 2 and back.size == 2
    assert np.array_equal(back.entries, st2.entries)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_sum_collapse_and_symmetry_property(seed, d):
    rng = np.random.default_rng(seed)
    p = 5
    A = rng.normal(size=(p, p))
    A = A + A.T
    t = var("theta", (p,))
    f = 0.5 * dot(t, matmul(const(A), t)) + reduce_sum(engine.tanh(t))
    theta = rng.normal(size=p)
    u = rng.normal(size=p)
    part = custom_partition([(0, 2), (1,), (3, 4)])
    st_d = summary_tensor(f, theta, u, part, d)
    # collapse to the Taylor term
    tt = taylor_term(f, theta, u, d)
    assert abs(st_d.total() - tt) <= 1e-10 * max(abs(tt), 1e-12)
    # permutation symmetry
    for perm in ([1, 0], [1, 0, 2], [2, 0, 1])[:max(0, d - 1)]:
        if len(perm) == d:
            assert rel_err(np.transpose(st_d.entries, perm), st_d.entries) <= 1e-10


def _kept(s_count, d):
    """The multisets of d - 1 groups with two of one color s % (d - 1)
    (every multiset below order 3), in sorted order."""
    return [m for m in itertools.combinations_with_replacement(range(s_count), d - 1)
            if d < 3 or len({s % (d - 1) for s in m}) < d - 1]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_summary_entries_are_the_sorted_index_copies_of_their_columns(monkeypatch, d):
    # the gather equals the loop over every index tuple, and each entry is
    # exactly the one computed for its index multiset, read from the column of
    # the multiset without its first index that leaves a kept prefix
    rng = np.random.default_rng(d)
    t = var("theta", (6,))
    f = reduce_sum(engine.tanh(t) * engine.exp(0.2 * t)) + 0.5 * dot(t, t)
    theta, u = rng.normal(size=6), rng.normal(size=6)
    part = custom_partition([(0, 5), (1,), (2, 3), (4,)])
    calls = []
    nested = summaries.gradient_of_nested
    monkeypatch.setattr(summaries, "gradient_of_nested",
                        lambda *args: calls.append(nested(*args)) or calls[-1])
    entries = summary_tensor(f, theta, u, part, d).entries
    prefixes = _kept(part.size, d)
    w = np.reshape(calls[0], (len(prefixes), -1))
    columns = {prefix: group_sum(row * u, part) for prefix, row in zip(prefixes, w)}
    want = np.empty((part.size,) * d)
    for idx in itertools.product(range(part.size), repeat=d):
        srt = sorted(idx)
        p = next(p for p in range(d) if tuple(srt[:p] + srt[p + 1:]) in columns)
        want[idx] = columns[tuple(srt[:p] + srt[p + 1:])][srt[p]]
    assert entries.tobytes() == want.tobytes()
    for perm in itertools.permutations(range(d)):
        assert np.transpose(entries, perm).tobytes() == entries.tobytes()


def test_summary_rows_cover_every_index_multiset():
    for s_count in range(1, 11):
        for d in range(1, 6):
            rows = summary_rows(s_count, d)
            assert rows == _kept(s_count, d)
            colors = [len(range(c, s_count, d - 1)) for c in range(d - 1)]
            dropped = math.prod(colors) if d >= 3 else 0
            assert len(rows) == math.comb(s_count + d - 2, d - 1) - dropped
            kept = set(rows)
            for m in itertools.combinations_with_replacement(range(s_count), d):
                assert any(m[:p] + m[p + 1:] in kept for p in range(d)), (s_count, d, m)
    assert len(summary_rows(8, 3)) == 20


@pytest.mark.parametrize("s_count, d", [(1, 3), (2, 3), (5, 3), (8, 3), (3, 4), (6, 4), (4, 5)])
def test_summary_tensor_runs_one_pass_per_covering_row(s_count, d):
    t = var("theta", (s_count,))
    f = reduce_sum(engine.tanh(t)) + dot(t, t)
    theta = np.random.default_rng(s_count).normal(size=s_count)
    before = engine.counter.snapshot()
    summary_tensor(f, theta, np.ones(s_count), discrete_partition(s_count), d)
    colors = [len(range(c, s_count, d - 1)) for c in range(d - 1)]
    assert (engine.counter.snapshot() - before).passes == (
        math.comb(s_count + d - 2, d - 1) - math.prod(colors))


def _mlp_six_groups():
    f, theta0 = make_mlp(MlpSpec((2, 3, 2), seed=2), synth_dataset("moons", 12, seed=4))
    order = np.random.default_rng(6).permutation(theta0.size)
    return f, theta0.values, custom_partition(np.array_split(order, 6))


def test_order3_entries_equal_direct_nested_directionals():
    f, theta, part = _mlp_six_groups()
    u = np.random.default_rng(7).normal(size=theta.size)
    entries = summary_tensor(f, theta, u, part, 3).entries
    masks = [mask(u, part, s) for s in range(part.size)]
    want = np.empty_like(entries)
    for i, j, k in itertools.product(range(part.size), repeat=3):
        want[i, j, k] = nested_directional(f, theta, [masks[i], masks[j], masks[k]])
    assert np.all(np.abs(entries - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("d", [3, 4])
def test_entries_with_a_kept_top_prefix_are_bitwise_the_top_prefix_rule(d):
    # the rule that read every entry from the column of its d - 1 largest
    # indices, from all C(S + d - 2, d - 1) rows stacked
    f, theta, part = _mlp_six_groups()
    u = np.random.default_rng(d).normal(size=theta.size)
    entries = summary_tensor(f, theta, u, part, d).entries
    masks = np.array([mask(u, part, s) for s in range(part.size)])
    prefixes = list(itertools.combinations_with_replacement(range(part.size), d - 1))
    stacks = [masks[[prefix[k] for prefix in prefixes]] for k in range(d - 1)]
    w = np.reshape(gradient_of_nested(f, theta, stacks), (len(prefixes), -1))
    columns = {prefix: group_sum(row * u, part) for prefix, row in zip(prefixes, w)}
    kept, compared = set(summary_rows(part.size, d)), 0
    for idx in itertools.product(range(part.size), repeat=d):
        srt = sorted(idx)
        old = columns[tuple(srt[1:])][srt[0]]
        if tuple(srt[1:]) in kept:
            assert entries[idx].tobytes() == old.tobytes(), idx
            compared += 1
        assert abs(entries[idx] - old) <= 1e-14 * np.max(np.abs(entries))
    assert 0 < compared < part.size ** d


# pseudo-gradient / pseudo-Hessian -------------------------------------------

def test_pseudo_gradient_examples():
    # direct summation of squared entries per group
    t = var("theta", (3,))
    f = dot(const(np.array([0.5, 1.0, 1.5])), t * t)  # gradient (1,2,3) at theta=1
    theta = np.ones(3)
    part = custom_partition([(0, 1), (2,)])
    assert np.allclose(pseudo_gradient(f, theta, part), [5.0, 9.0], rtol=1e-14)
    assert np.allclose(pseudo_gradient(f, theta, trivial_partition(3)), [14.0], rtol=1e-14)


def test_pseudo_gradient_zero_at_stationary_point():
    f = quadratic_expr(np.diag([1.0, 2.0]), c=np.array([0.3, 0.4]))
    part = discrete_partition(2)
    assert np.array_equal(pseudo_gradient(f, np.array([0.3, 0.4]), part), np.zeros(2))


def test_pseudo_hessian_worked_example():
    f = quadratic_expr(np.diag([1.0, 2.0]))
    theta = np.array([1.0, 1.0])  # gradient (1, 2)
    sys_d = pseudo_hessian(f, theta, discrete_partition(2))
    assert np.allclose(sys_d.hbar, [[1.0, 0.0], [0.0, 8.0]], atol=1e-14)
    assert np.allclose(sys_d.gbar, [1.0, 4.0], atol=1e-14)

    sys_t = pseudo_hessian(f, theta, trivial_partition(2))
    assert np.allclose(sys_t.hbar, [[9.0]], atol=1e-14)
    assert np.allclose(sys_t.gbar, [5.0], atol=1e-14)


def test_pseudo_hessian_zero_gradient_point():
    f = quadratic_expr(np.diag([1.0, 2.0]), c=np.array([1.5, -2.0]))
    sys0 = pseudo_hessian(f, np.array([1.5, -2.0]), discrete_partition(2))
    assert np.array_equal(sys0.hbar, np.zeros((2, 2)))
    assert np.array_equal(sys0.gbar, np.zeros(2))


def test_pseudo_hessian_symmetry_and_gbar_sum():
    rng = np.random.default_rng(7)
    t = var("theta", (5,))
    f = reduce_sum(engine.softplus(t)) + dot(t, engine.tanh(0.5 * t))
    theta = rng.normal(size=5)
    part = custom_partition([(0, 3), (1,), (2, 4)])
    sys_c = pseudo_hessian(f, theta, part)
    assert np.array_equal(sys_c.hbar, sys_c.hbar.T)
    g = engine.gradient(f, theta)
    assert np.sum(sys_c.gbar) == pytest.approx(float(g @ g), rel=1e-14)
    assert np.all(sys_c.gbar >= 0)


def test_pseudo_hessian_matches_fd_oracle():
    rng = np.random.default_rng(21)
    p = 5
    A = rng.normal(size=(p, p))
    A = A + A.T + 4 * np.eye(p)
    t = var("theta", (p,))
    f = 0.5 * dot(t, matmul(const(A), t)) + reduce_sum(engine.tanh(t))
    theta = rng.normal(size=p)
    part = custom_partition([(0, 2), (1, 4), (3,)])
    sys_c = pseudo_hessian(f, theta, part)

    ref = fd_pseudo_hessian(f, theta, part, engine.gradient(f, theta))
    assert np.all(np.abs(sys_c.hbar - ref) <= 1e-5 * (1.0 + np.abs(ref)))


def test_footnote_identity_hbar_is_order2_summary_at_gradient():
    rng = np.random.default_rng(13)
    t = var("theta", (4,))
    f = reduce_sum(engine.exp(0.3 * t)) + 0.5 * dot(t, t)
    theta = rng.normal(size=4)
    part = custom_partition([(0, 1), (2, 3)])
    g = engine.gradient(f, theta)
    sys_c = pseudo_hessian(f, theta, part)
    st2 = summary_tensor(f, theta, g, part, 2)
    st1 = summary_tensor(f, theta, g, part, 1)
    assert rel_err(sys_c.hbar, st2.entries) <= 1e-10
    assert rel_err(pseudo_gradient(f, theta, part), st1.entries) <= 1e-10


def test_pass_accounting():
    rng = np.random.default_rng(3)
    t = var("theta", (6,))
    f = reduce_sum(engine.tanh(t)) + dot(t, t)
    theta = rng.normal(size=6)
    part = custom_partition([(0, 1), (2, 3), (4, 5)])
    s = part.size

    before = engine.counter.snapshot()
    pseudo_hessian(f, theta, part)
    delta = engine.counter.snapshot() - before
    assert delta.passes == s + 1

    for d in (1, 2, 3):
        before = engine.counter.snapshot()
        summary_tensor(f, theta, rng.normal(size=6), part, d)
        delta = engine.counter.snapshot() - before
        assert delta.passes <= s ** (d - 1) + s + 1


def test_pseudo_system_json():
    f = quadratic_expr(np.diag([1.0, 2.0]))
    sys_d = pseudo_hessian(f, np.array([1.0, 1.0]), discrete_partition(2))
    obj = __import__("json").loads(sys_d.to_json())
    assert obj["hbar"] == [[1.0, 0.0], [0.0, 8.0]]
    assert obj["gbar"] == [1.0, 4.0]


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    return __import__("json").loads(text, parse_constant=refuse)


def test_non_finite_values_serialize_as_null():
    system = PseudoSystem(np.array([[np.nan, np.inf], [-np.inf, 1.5]]),
                          np.array([np.inf, 2.0]), discrete_partition(2))
    assert _strict_json(system.to_json()) == {
        "hbar": [[None, None], [None, 1.5]], "gbar": [None, 2.0], "labels": None}
    tensor = SummaryTensor(1, 3, np.array([np.nan, np.inf, -0.5]))
    assert _strict_json(tensor.to_json())["entries"] == [None, None, -0.5]
    back = SummaryTensor.from_json(tensor.to_json())  # null reads back as NaN
    assert back.entries.dtype == np.float64
    assert np.array_equal(back.entries, [np.nan, np.nan, -0.5], equal_nan=True)
    with pytest.raises(ValueError, match="non-JSON token NaN"):
        _strict_json(__import__("json").dumps([np.nan]))


# regularization vector ------------------------------------------------------

def test_regularization_zero_on_quadratics():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(3, 3))
    A = A + A.T
    f = quadratic_expr(A)
    r = regularization_vector(f, rng.normal(size=3), custom_partition([(0, 1), (2,)]))
    assert np.array_equal(r.values, np.zeros(2))
    assert r.mode == "exact" and not r.lower_bound


def test_regularization_cubic_worked_example():
    t = var("theta", (1,))
    f = reduce_sum(t ** 3)
    r = regularization_vector(f, np.array([0.5]), trivial_partition(1))
    assert r.values[0] == pytest.approx(6.0 ** (2.0 / 3.0), rel=1e-12)


def test_regularization_exp_plus_square():
    t = var("theta", (2,))
    f = reduce_sum(engine.exp(engine.segment(t, 0, 1))) + reduce_sum(engine.segment(t, 1, 2) ** 2)
    r = regularization_vector(f, np.zeros(2), custom_partition([(0,), (1,)]))
    assert np.allclose(r.values, [1.0, 0.0], atol=1e-12)


def test_regularization_exact_mode_refuses_large_groups():
    t = var("theta", (6,))
    f = dot(t, t)
    with pytest.raises(ValueError, match="sampled"):
        regularization_vector(f, np.zeros(6), trivial_partition(6), n_max=4)


def test_regularization_sampled_is_lower_bound_and_flagged():
    rng = np.random.default_rng(9)
    t = var("theta", (5,))
    f = reduce_sum(t ** 3) + reduce_sum(engine.tanh(t))
    theta = rng.normal(size=5)
    part = trivial_partition(5)
    exact = regularization_vector(f, theta, part, mode="exact")
    sampled = regularization_vector(f, theta, part, mode="sampled", samples=40, seed=4)
    assert sampled.lower_bound
    assert sampled.samples == 40
    assert np.all(np.asarray(sampled) <= np.asarray(exact) + 1e-12)


def _small_mlp_with_custom_groups():
    f, theta0 = make_mlp(MlpSpec((2, 3, 2), seed=1), synth_dataset("moons", 12, seed=3))
    order = np.random.default_rng(5).permutation(theta0.size)
    part = custom_partition([order[:4], order[4:11], order[11:]])
    return f, theta0.values, part


def test_regularization_modes_equal_the_max_over_their_rows():
    """Reference: exact mode as one gradient_of_nested call per index pair,
    sampled mode as one nested_directional call per triple, same draws."""
    f, theta, part = _small_mlp_with_custom_groups()

    def unit(q):
        e = np.zeros(part.total)
        e[q] = 1.0
        return e

    exact, sampled = np.zeros(part.size), np.zeros(part.size)
    rng = np.random.default_rng(11)
    for s, grp in enumerate(part.groups):
        idx = np.asarray(grp)
        for j, k in itertools.combinations_with_replacement(grp, 2):
            w = engine.gradient_of_nested(f, theta, [unit(j), unit(k)])
            exact[s] = max(exact[s], float(np.max(np.abs(w[idx]))))
        for _ in range(30):
            i, j, k = rng.choice(idx, size=3)
            entry = engine.nested_directional(f, theta, [unit(i), unit(j), unit(k)])
            sampled[s] = max(sampled[s], abs(entry))

    r_exact = regularization_vector(f, theta, part)
    r_sampled = regularization_vector(f, theta, part, mode="sampled", samples=30, seed=11)
    assert np.array_equal(r_exact.values, np.power(exact, 2.0 / 3.0))
    assert np.array_equal(r_sampled.values, np.power(sampled, 2.0 / 3.0))
    assert np.all(r_exact.values > 0)


def test_regularization_sampled_mode_reads_order2_rows(monkeypatch):
    """Sampled mode costs one order-2 gradient pass per triple and builds no
    order-3 chain in the loss's program."""
    def refuse(*args, **kwargs):
        raise AssertionError("nested_directional called")

    monkeypatch.setattr(summaries, "nested_directional", refuse)
    monkeypatch.setattr(engine, "nested_directional", refuse)
    f, theta, part = _small_mlp_with_custom_groups()
    before = engine.counter.own()
    regularization_vector(f, theta, part, mode="sampled", samples=7)
    used = engine.counter.own() - before
    assert (used.passes, used.backward) == (7 * part.size, 3 * 7 * part.size)
    chain_orders = {key[0] for _, key in f.program.derived if isinstance(key, tuple)}
    assert chain_orders == {1, 2}
