import numpy as np
import pytest

from pddopt import objective as ob


def seeded_points(dim, n=20, scale=1.0, seed=1234):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, size=(n, dim))


def fgh(obj, x):
    """(value, gradient, Hessian) of a factory-built objective at x."""
    return obj.value(x), obj.gradient(x), obj.hessian(x)


def fg(obj, x):
    return obj.value(x), obj.gradient(x)


# ---------------------------------------------------------------------------
# quadratic
# ---------------------------------------------------------------------------

def test_quadratic_eval_examples():
    f, g, H = fgh(ob.quadratic(np.eye(2)), np.zeros(2))
    assert f == 0.0 and np.all(g == 0.0)

    f, g, H = fgh(ob.quadratic(np.diag([1.0, 4.0])), np.array([1.0, 1.0]))
    assert f == pytest.approx(2.5)
    np.testing.assert_allclose(g, [1.0, 4.0])
    np.testing.assert_allclose(H, np.diag([1.0, 4.0]))

    f, g, _ = fgh(ob.quadratic(np.eye(2)), np.array([3.0, 4.0]))
    assert f == pytest.approx(12.5)
    np.testing.assert_allclose(g, [3.0, 4.0])


def test_quadratic_rejects_bad_Q():
    with pytest.raises(ValueError):
        fgh(ob.quadratic(np.array([[1.0, 2.0], [0.0, 1.0]])), np.zeros(2))
    with pytest.raises(ValueError):
        ob.quadratic(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        fgh(ob.quadratic(np.eye(3)), np.zeros(2))


# ---------------------------------------------------------------------------
# regularized log-sum-exp
# ---------------------------------------------------------------------------

def test_lse_at_zero():
    n = 7
    Q = ob.make_diag_dominant_Q(n, seed=3)
    f, g, _ = fgh(ob.reg_log_sum_exp(Q), np.zeros(n))
    assert f == pytest.approx(np.log(n))
    np.testing.assert_allclose(g, Q @ np.full(n, 1.0 / n), atol=1e-14)


def test_lse_scalar_example():
    f, g, H = fgh(ob.reg_log_sum_exp(np.array([[2.0]])), np.array([1.0]))
    assert f == pytest.approx(3.0)
    assert g[0] == pytest.approx(4.0)


def test_lse_no_overflow_at_huge_arguments():
    n = 5
    Q = ob.make_diag_dominant_Q(n, seed=0)
    # pick x with Q x = 1000 * ones, so every exponent is 1000
    x = np.linalg.solve(Q, np.full(n, 1000.0))
    f, g, H = fgh(ob.reg_log_sum_exp(Q), x)
    assert np.isfinite(f)
    assert np.all(np.isfinite(g)) and np.all(np.isfinite(H))
    assert f == pytest.approx(1000.0 + np.log(n) + 0.5 * x @ Q @ x)


def _lse_reference(Q, x):
    # the method-call formulas with fresh temporaries, as written before the
    # kernel used ufunc reductions and in-place exp, divide and add
    z = Q @ x
    m = float(z.max())
    e = np.exp(z - m)
    se = float(e.sum())
    f = m + float(np.log(se)) + 0.5 * float(x @ z)
    g = Q @ (e / se) + z
    s = e / se
    H = Q @ (np.diag(s) - np.outer(s, s)) @ Q + Q
    return f, g, 0.5 * (H + H.T)


@pytest.mark.parametrize("n", [1, 5, 100])
def test_lse_kernel_is_bitwise_the_method_formula(n):
    rng = np.random.default_rng(n)
    Q = ob.make_diag_dominant_Q(n, seed=n)
    obj = ob.reg_log_sum_exp(Q)
    points = [rng.standard_normal(n) * s for s in (1e-3, 1.0, 30.0)]
    # |Q x| around 1e3, so the max shift is what keeps exp finite
    points += [np.linalg.solve(Q, rng.uniform(-1e3, 1e3, n)) for _ in range(3)]
    for x in points:
        f, g, H = _lse_reference(Q, x)
        assert np.float64(obj.value(x)).tobytes() == np.float64(f).tobytes()
        assert obj.gradient(x).tobytes() == g.tobytes()
        assert obj.hessian(x).tobytes() == H.tobytes()


def test_eval_dimension_mismatches_raise():
    cases = [(ob.reg_log_sum_exp(ob.make_diag_dominant_Q(3, 0)), np.zeros(4)),
             (ob.quad_minus_cos(np.array([1.0, 0.5])), np.zeros(3)),
             (ob.ackley(), np.zeros(3)),
             (ob.rosenbrock(1.0, 100.0, 4), np.zeros(3))]
    for obj, x in cases:
        for evaluate in (obj.value, obj.gradient, obj.hessian_at):
            with pytest.raises(ValueError):
                evaluate(x)


def test_lse_hessian_spd_at_seeded_points():
    n = 10
    Q = ob.make_diag_dominant_Q(n, seed=11)
    for x in seeded_points(n, scale=0.7, seed=5):
        H = fgh(ob.reg_log_sum_exp(Q), x)[2]
        w = np.linalg.eigvalsh(H)
        assert w[0] > 0


# ---------------------------------------------------------------------------
# quadratic minus cosine
# ---------------------------------------------------------------------------

def make_c(dim, seed=2, norm2=1.9):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(dim)
    return c * np.sqrt(norm2) / np.linalg.norm(c)


def test_quad_minus_cos_examples():
    c = make_c(8)
    f, g, _ = fgh(ob.quad_minus_cos(c), np.zeros(8))
    assert f == pytest.approx(-1.0)
    np.testing.assert_allclose(g, 0.0, atol=1e-15)

    f, g, _ = fgh(ob.quad_minus_cos(np.array([1.0])), np.array([np.pi / 2]))
    assert g[0] == pytest.approx(np.pi + 1.0)


def test_quad_minus_cos_hessian_eig_bounds():
    c = make_c(6)
    for x in seeded_points(6, seed=17):
        w = np.linalg.eigvalsh(fgh(ob.quad_minus_cos(c), x)[2])
        assert w[0] >= 0.1 - 1e-12
        assert w[-1] <= 3.9 + 1e-12


def test_quad_minus_cos_warns_for_large_c():
    with pytest.warns(UserWarning):
        ob.quad_minus_cos(np.array([2.0]))


# ---------------------------------------------------------------------------
# rosenbrock / ackley
# ---------------------------------------------------------------------------

def test_rosenbrock_examples():
    f, g = fg(ob.rosenbrock(1.0, 100.0, 2), np.array([1.0, 1.0]))
    assert f == 0.0
    np.testing.assert_allclose(g, 0.0)

    f, g = fg(ob.rosenbrock(1.0, 100.0, 2), np.zeros(2))
    assert f == pytest.approx(1.0)
    np.testing.assert_allclose(g, [-2.0, 0.0])

    f, _ = fg(ob.rosenbrock(1.0, 100.0, 100), np.zeros(100))
    assert f == pytest.approx(99.0)

    with pytest.raises(ValueError):
        fg(ob.rosenbrock(1.0, 100.0, 1), np.zeros(1))


def test_ackley_examples():
    f, g = fg(ob.ackley(), np.zeros(2))
    assert f == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(g, 0.0)

    f, _ = fg(ob.ackley(), np.array([1.0, 1.0]))
    assert f == pytest.approx(20.0 * (1.0 - np.exp(-0.2)))


def test_ackley_symmetries():
    rng = np.random.default_rng(99)
    for _ in range(10):
        x, y = rng.uniform(-4, 4, size=2)
        f1, _ = fg(ob.ackley(), np.array([x, y]))
        f2, _ = fg(ob.ackley(), np.array([y, x]))
        f3, _ = fg(ob.ackley(), np.array([-x, -y]))
        assert f1 == pytest.approx(f2)
        assert f1 == pytest.approx(f3)


# ---------------------------------------------------------------------------
# diagonally dominant generator
# ---------------------------------------------------------------------------

def test_make_diag_dominant_Q():
    Q = ob.make_diag_dominant_Q(1, seed=0)
    assert Q.shape == (1, 1) and Q[0, 0] > 0

    Q = ob.make_diag_dominant_Q(100, seed=0)
    off = np.sum(np.abs(Q), axis=1) - np.abs(np.diag(Q))
    assert np.all(np.diag(Q) > off)
    np.testing.assert_allclose(Q, Q.T)

    np.testing.assert_array_equal(Q, ob.make_diag_dominant_Q(100, seed=0))


# ---------------------------------------------------------------------------
# finite-difference oracle and invariants
# ---------------------------------------------------------------------------

def test_check_gradient_quadratic_exact():
    Q = ob.make_diag_dominant_Q(5, seed=4)
    obj = ob.quadratic(Q)
    for x in seeded_points(5, n=5, seed=21):
        assert ob.check_gradient(obj, x, h=1e-5) <= 1e-9


def test_check_gradient_rosenbrock_and_ackley():
    assert ob.check_gradient(ob.rosenbrock(), np.array([-3.0, -4.0]), h=1e-6) <= 1e-5
    assert ob.check_gradient(ob.ackley(), np.array([2.5, 4.0]), h=1e-6) <= 1e-5


@pytest.fixture(params=["quadratic", "logsumexp", "quadcos", "rosenbrock2d",
                        "rosenbrockNd", "ackley"])
def builtin(request):
    name = request.param
    if name == "quadratic":
        return ob.quadratic(ob.make_diag_dominant_Q(6, seed=8))
    if name == "logsumexp":
        return ob.reg_log_sum_exp(ob.make_diag_dominant_Q(6, seed=9))
    if name == "quadcos":
        return ob.quad_minus_cos(make_c(6))
    if name == "rosenbrock2d":
        return ob.rosenbrock(n=2)
    if name == "rosenbrockNd":
        return ob.rosenbrock(n=20)
    return ob.ackley()


def test_declared_minimizers_are_stationary(builtin):
    if builtin.minimizer is not None:
        assert np.linalg.norm(builtin.gradient(builtin.minimizer)) <= 1e-10


def test_gradients_match_finite_differences(builtin):
    scale = 0.5 if builtin.name == "ackley" else 1.0
    for x in seeded_points(builtin.dim, n=5, scale=scale, seed=31):
        assert ob.check_gradient(builtin, x, h=1e-6) <= 1e-5


def test_analytic_hessians_match_finite_differences(builtin):
    if not builtin.has_hessian:
        return
    for x in seeded_points(builtin.dim, n=20, seed=41):
        H = builtin.hessian(x)
        assert np.max(np.abs(H - H.T)) <= 1e-12
        # central differences of the gradient, matching the module contract
        d = builtin.dim
        fd = np.empty((d, d))
        h = 1e-6
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd[:, j] = (builtin.gradient(x + e) - builtin.gradient(x - e)) / (2 * h)
        assert np.max(np.abs(H - fd)) <= 1e-4


def test_objective_rejects_bogus_minimizer():
    with pytest.raises(ValueError):
        ob.Objective(1, value=lambda x: float(x[0]),
                     gradient=lambda x: np.ones(1), minimizer=np.zeros(1))


def test_hessian_at_falls_back_to_finite_differences():
    obj = ob.rosenbrock(n=2)
    x = np.array([0.3, -0.2])
    H = obj.hessian_at(x)
    # analytic Hessian of the 2-d Rosenbrock for comparison
    a, b = 1.0, 100.0
    exact = np.array([
        [2.0 - 4.0 * b * (x[1] - 3.0 * x[0] ** 2), -4.0 * b * x[0]],
        [-4.0 * b * x[0], 2.0 * b],
    ])
    assert np.max(np.abs(H - exact)) <= 1e-4
