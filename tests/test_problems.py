import numpy as np
import pytest

from grouphess import engine
from grouphess.engine import ParamVector, evaluate, gradient
from grouphess.fd import fd_gradient, fd_hessian, fd_nested_directional
from grouphess.partition import canonical_partition
from grouphess.problems import (
    CsvSchema,
    DataError,
    Dataset,
    MlpSpec,
    QuadraticProblem,
    QuadraticSpec,
    dataset_to_csv,
    load_csv,
    make_mlp,
    make_quadratic,
    make_rosenbrock,
    mlp_labels,
    mlp_shapes,
    synth_dataset,
)
from grouphess.summaries import taylor_term


# quadratics ------------------------------------------------------------------

def test_quadratic_diag_worked_example():
    prob = QuadraticProblem(np.diag([1.0, 2.0]), np.zeros(2), QuadraticSpec())
    f = prob.expr()
    assert np.allclose(gradient(f, np.array([1.0, 1.0])), [1.0, 2.0], rtol=1e-15)


def test_quadratic_zero_at_minimizer():
    f, c = make_quadratic(5, QuadraticSpec(seed=3))
    assert evaluate(f, c) == pytest.approx(0.0, abs=1e-18)
    assert np.allclose(gradient(f, c), 0.0, atol=1e-15)


def test_quadratic_hessian_is_matrix():
    prob = QuadraticProblem.generate(4, QuadraticSpec(seed=9))
    f = prob.expr()
    h = fd_hessian(f, np.random.default_rng(0).normal(size=4))
    assert np.all(np.abs(h - prob.A) <= 1e-5 * (1.0 + np.abs(prob.A)))


def test_quadratic_invalid_eig_range():
    with pytest.raises(ValueError):
        QuadraticSpec(eig_lo=-1.0)
    with pytest.raises(ValueError):
        QuadraticSpec(eig_lo=2.0, eig_hi=1.0)


def test_quadratic_pd_by_construction():
    prob = QuadraticProblem.generate(6, QuadraticSpec(eig_lo=0.1, eig_hi=10.0, seed=1))
    eigs = np.linalg.eigvalsh(prob.A)
    assert eigs.min() > 0.0
    assert np.array_equal(prob.A, prob.A.T)


# rosenbrock -------------------------------------------------------------------

def test_rosenbrock_values():
    f = make_rosenbrock()
    assert evaluate(f, np.array([1.0, 1.0])) == 0.0
    assert np.allclose(gradient(f, np.array([1.0, 1.0])), 0.0)
    assert evaluate(f, np.array([0.0, 0.0])) == 1.0
    assert evaluate(f, np.array([-1.2, 1.0])) == pytest.approx(24.2, rel=1e-15)


def test_rosenbrock_derivative_checks():
    f = make_rosenbrock()
    theta = np.array([-0.7, 0.4])
    ref = fd_gradient(f, theta)
    assert np.all(np.abs(gradient(f, theta) - ref) <= 1e-6 * (1.0 + np.abs(ref)))
    # analytic Hessian: [[2 + 1200x^2 - 400y, -400x], [-400x, 200]]
    x, y = theta
    h_exact = np.array([[2 + 1200 * x * x - 400 * y, -400 * x], [-400 * x, 200.0]])
    h_fd = fd_hessian(f, theta)
    assert np.all(np.abs(h_fd - h_exact) <= 1e-5 * (1.0 + np.abs(h_exact)))


# datasets ---------------------------------------------------------------------

def test_synth_dataset_deterministic():
    a = synth_dataset("blobs", 100, seed=7)
    b = synth_dataset("blobs", 100, seed=7)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)
    assert a.content_hash() == b.content_hash()
    c = synth_dataset("blobs", 100, seed=8)
    assert c.content_hash() != a.content_hash()


def test_synth_dataset_moons_labels_and_balance():
    ds = synth_dataset("moons", 101, seed=0)
    assert set(np.unique(ds.targets)) == {0, 1}
    counts = np.bincount(ds.targets)
    assert abs(int(counts[0]) - int(counts[1])) <= 1


def test_synth_dataset_noisy_moons():
    noisy = synth_dataset("moons", 40, seed=3, noise=0.1)
    again = synth_dataset("moons", 40, seed=3, noise=0.1)
    clean = synth_dataset("moons", 40, seed=3)
    assert np.array_equal(noisy.features, again.features)
    assert np.array_equal(noisy.targets, again.targets)
    assert not np.array_equal(noisy.features, clean.features)
    assert noisy.provenance["noise"] == 0.1
    assert clean.provenance["noise"] == 0.0


def test_synth_dataset_invalid_kind():
    with pytest.raises(ValueError, match="kind"):
        synth_dataset("spirals", 10, seed=0)


def test_dataset_rejects_nan():
    with pytest.raises(DataError):
        Dataset(np.array([[1.0, np.nan]]), np.array([0]))


def test_load_csv_round_trip(tmp_path):
    ds = synth_dataset("blobs", 9, seed=2)
    path = tmp_path / "data.csv"
    dataset_to_csv(ds, path)
    back = load_csv(path, CsvSchema(label_column="label"))
    assert back.n == 9
    assert np.array_equal(back.targets, ds.targets)
    assert np.allclose(back.features, ds.features, rtol=0, atol=0)


def test_load_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x1,x2,label\n1.0,2.0,0\n3.0,nan,1\n")
    with pytest.raises(DataError, match="row 3.*x2"):
        load_csv(p, CsvSchema(label_column="label"))

    p.write_text("x1,x2,label\n1.0,2.0,0\n3.0,oops,1\n")
    with pytest.raises(DataError, match="non-numeric.*row 3"):
        load_csv(p, CsvSchema(label_column="label"))

    p.write_text("x1,x2\n1.0,2.0\n")
    with pytest.raises(DataError, match="label column 'y'"):
        load_csv(p, CsvSchema(label_column="y"))

    p.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_csv(p, CsvSchema(label_column="label"))

    p.write_bytes(b"x1,x2,label\n1.0,\xff\xfe,0\n")
    with pytest.raises(DataError, match="bad.csv: not UTF-8"):
        load_csv(p, CsvSchema(label_column="label"))


def test_csv_three_rows(tmp_path):
    p = tmp_path / "three.csv"
    p.write_text("a,b,label\n1,2,0\n3,4,1\n5,6,0\n")
    ds = load_csv(p, CsvSchema(label_column="label"))
    assert ds.n == 3
    assert ds.classification


# mlp ----------------------------------------------------------------------------

def test_mlp_parameter_count_and_canonical_partition():
    spec = MlpSpec(widths=(2, 3, 2))
    data = synth_dataset("blobs", 20, seed=1)
    f, theta0 = make_mlp(spec, data)
    assert theta0.size == (2 * 3 + 3) + (3 * 2 + 2) == 17
    part = canonical_partition(theta0.shapes, mlp_labels(spec.widths))
    assert part.size == 4
    assert part.labels == ("layer1/weight", "layer1/bias", "layer2/weight", "layer2/bias")
    assert mlp_shapes(spec.widths) == [(2, 3), (3,), (3, 2), (2,)]


def test_mlp_zero_output_layer_zero_targets_gives_zero_loss():
    ds = Dataset(np.array([[0.5, -0.5], [1.0, 2.0]]), np.zeros((2, 2)))
    spec = MlpSpec(widths=(2, 3, 2), loss="mse", seed=0)
    f, theta0 = make_mlp(spec, ds)
    tensors = theta0.tensors()
    tensors[2] = np.zeros_like(tensors[2])
    tensors[3] = np.zeros_like(tensors[3])
    theta = ParamVector.from_tensors(tensors)
    assert evaluate(f, theta) == 0.0


def test_mlp_gradient_matches_finite_differences():
    spec = MlpSpec(widths=(2, 3, 2), seed=4)
    data = synth_dataset("moons", 16, seed=3)
    f, theta0 = make_mlp(spec, data)
    g = gradient(f, theta0)
    ref = fd_gradient(f, theta0.values)
    assert np.all(np.abs(g - ref) <= 1e-6 * (1.0 + np.abs(ref)))


def test_mlp_softplus_and_cross_entropy_gradient():
    spec = MlpSpec(widths=(2, 4, 2), activation="softplus",
                   loss="softmax-cross-entropy", seed=5)
    data = synth_dataset("blobs", 12, seed=6)
    f, theta0 = make_mlp(spec, data)
    g = gradient(f, theta0)
    ref = fd_gradient(f, theta0.values)
    assert np.all(np.abs(g - ref) <= 1e-6 * (1.0 + np.abs(ref)))


def test_mlp_third_order_matches_finite_differences():
    spec = MlpSpec(widths=(2, 3, 2), seed=8)
    data = synth_dataset("moons", 10, seed=8)
    f, theta0 = make_mlp(spec, data)
    rng = np.random.default_rng(2)
    u = rng.normal(size=theta0.size)
    u /= np.linalg.norm(u)
    exact = taylor_term(f, theta0, u, 3)
    approx = fd_nested_directional(f, theta0.values, [u, u, u], h=1e-2)
    assert abs(exact - approx) <= 1e-3 * (1.0 + abs(exact))


def test_mlp_subset_restricts_rows():
    spec = MlpSpec(widths=(2, 3, 2), seed=1)
    data = synth_dataset("blobs", 30, seed=1)
    f_full, theta0 = make_mlp(spec, data)
    f_sub, _ = make_mlp(spec, data, subset=range(10))
    assert evaluate(f_full, theta0) != evaluate(f_sub, theta0)


def test_mlp_validation():
    data = synth_dataset("blobs", 10, seed=0)
    with pytest.raises(ValueError):
        MlpSpec(widths=(2, 2))  # no hidden layer
    with pytest.raises(ValueError):
        MlpSpec(widths=(2, 3, 2), activation="relu")
    with pytest.raises(ValueError):
        make_mlp(MlpSpec(widths=(3, 4, 2)), data)  # feature mismatch
    with pytest.raises(ValueError):
        make_mlp(MlpSpec(widths=(2, 4, 1)), data)  # class out of range


def test_mlp_init_deterministic():
    spec = MlpSpec(widths=(2, 5, 2), seed=12)
    data = synth_dataset("blobs", 8, seed=0)
    _, a = make_mlp(spec, data)
    _, b = make_mlp(spec, data)
    assert np.array_equal(a.values, b.values)


def test_mlp_init_is_kept_per_spec_while_alive():
    data = synth_dataset("blobs", 8, seed=0)
    _, a = make_mlp(MlpSpec(widths=(2, 5, 2), seed=13), data)
    _, b = make_mlp(MlpSpec(widths=(2, 5, 2), seed=13), data)
    assert b is a and not a.values.flags.writeable
    kept = a.values.copy()
    del a, b
    _, c = make_mlp(MlpSpec(widths=(2, 5, 2), seed=13), data)  # built again
    assert c.values.tobytes() == kept.tobytes()
