import dataclasses
import inspect
import math

import numpy as np
import pytest

from pddopt import analysis, objective as ob, toynet
from pddopt.optimizers import (
    RULES,
    PddParams,
    PddState,
    Preconditioner,
    TrajectoryRecord,
    compute_beta2,
    pdd_step,
    run_optimizer,
    validate_method,
)


def counting(obj):
    """Wrap an objective so gradient evaluations are counted."""
    calls = {"n": 0}

    def grad(x):
        calls["n"] += 1
        return obj.gradient(x)

    wrapped = ob.Objective(obj.dim, value=obj.value, gradient=grad,
                           name=obj.name + "+count")
    return wrapped, calls


def one_d_quadratic():
    return ob.quadratic(np.array([[1.0]]), name="half-x2")


def rule_step(method, x, state, obj, **hp):
    """One step of ``RULES[method]`` from x with an explicit state dict."""
    return RULES[method].step(x, obj.gradient(x), state, hp, obj.gradient)


# ---------------------------------------------------------------------------
# pdd step
# ---------------------------------------------------------------------------

def test_pdd_fixed_point_is_exact():
    obj = ob.quadratic(np.diag([1.0, 3.0]))
    params = PddParams(tau=0.2, sigma=0.3, A=2.0, epsilon=1.0, omega=1.0)
    state = PddState(x=np.zeros(2), p=np.zeros(2))
    nxt = pdd_step(state, params, obj)
    assert np.array_equal(nxt.x, state.x)
    assert np.array_equal(nxt.p, state.p)
    assert nxt.iter == 1


def test_pdd_step_hand_values():
    # f = x^2/2, x=1, p=0, tau=sigma=0.1, A=eps=omega=1:
    # p+ = 0.1/(1+0.1) = 1/11, ptilde = 2/11, x+ = 1 - 0.1*2/11 = 54/55
    obj = one_d_quadratic()
    params = PddParams(tau=0.1, sigma=0.1, A=1.0, epsilon=1.0, omega=1.0)
    nxt = pdd_step(PddState(x=np.array([1.0]), p=np.array([0.0])), params, obj)
    assert nxt.p[0] == pytest.approx(1.0 / 11.0, rel=1e-15)
    assert nxt.x[0] == pytest.approx(54.0 / 55.0, rel=1e-15)


def test_pdd_step_matches_vector_field_to_first_order():
    # one step differs from explicit Euler on the continuous system by
    # O(sigma^2) when tau=sigma and sigma*omega is held fixed
    from pddopt.dynamics import DynParams, pdd_vector_field

    obj = ob.quadratic(np.diag([1.0, 2.0]))
    gamma, eps, A = 0.5, 1.0, 1.0
    x = np.array([0.7, -0.4])
    p = np.array([0.2, 0.1])
    dyn = DynParams(A=A, epsilon=eps, gamma=gamma)
    dx, dp = pdd_vector_field(x, p, 0.0, dyn, obj)

    def defect(sigma):
        params = PddParams(tau=sigma, sigma=sigma, A=A, epsilon=eps,
                           omega=gamma / sigma)
        nxt = pdd_step(PddState(x=x, p=p), params, obj)
        ex = x + sigma * dx
        ep = p + sigma * dp
        return np.sqrt(np.sum((nxt.x - ex) ** 2) + np.sum((nxt.p - ep) ** 2))

    d1, d2 = defect(1e-3), defect(5e-4)
    assert d1 / d2 == pytest.approx(4.0, rel=0.05)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_gd_step_examples():
    obj = one_d_quadratic()
    assert rule_step("gd", np.array([0.0]), {}, obj, tau=0.5)[0][0] == 0.0
    assert rule_step("gd", np.array([1.0]), {}, obj,
                     tau=0.5)[0][0] == pytest.approx(0.5)

    quad = ob.quadratic(np.diag([1.0, 4.0]))
    x = np.array([1.0, 1.0])
    y, _ = rule_step("gd", x, {}, quad, tau=2.0 / 5.0)
    assert y[0] == pytest.approx(0.6 * x[0])   # slow mode contracts by |1-0.4|
    assert abs(y[1]) == pytest.approx(0.6 * x[1])


def test_nag_two_steps_hand_example():
    obj = one_d_quadratic()
    x = np.array([1.0])
    state = {"y_prev": x.copy(), "y_prev2": x.copy()}
    x, state = rule_step("nag", x, state, obj, tau=0.1, beta=0.9)
    assert x[0] == pytest.approx(0.9)          # first step: no momentum
    assert state["y_prev"][0] == pytest.approx(0.9)
    x, state = rule_step("nag", x, state, obj, tau=0.1, beta=0.9)
    assert x[0] == pytest.approx(0.72)


def test_igahd_reduces_to_gd_when_damping_off():
    obj = ob.quadratic(np.diag([2.0, 1.0]))
    x = np.array([1.0, -2.0])
    g = obj.gradient(x)
    # alpha = n = 1 makes the inertia weight vanish; beta1 = 0 kills damping
    x_new, _ = rule_step("igahd", x, {"x_prev": x.copy(), "g_prev": g, "n": 1},
                         obj, tau=0.05, alpha=1.0, beta1=0.0)
    np.testing.assert_allclose(x_new, rule_step("gd", x, {}, obj, tau=0.05)[0])


def test_igahd_stationary():
    obj = ob.quadratic(np.eye(2))
    x = np.zeros(2)
    x_new, state = rule_step("igahd", x,
                             {"x_prev": x.copy(), "g_prev": np.zeros(2), "n": 3},
                             obj, tau=0.01, alpha=3.0, beta1=0.1)
    np.testing.assert_array_equal(x_new, x)
    np.testing.assert_array_equal(state["g_prev"], np.zeros(2))


def test_igahd_against_direct_transcription():
    # independent transcription of the two displayed update formulas
    obj = one_d_quadratic()
    x = np.array([1.0])
    x_prev = np.array([1.0])
    g_prev = obj.gradient(x_prev)
    n, tau, alpha = 1, 0.01, 3.0
    beta1 = 2.0 * np.sqrt(tau)

    a_n = 1.0 - alpha / n
    y = (x + a_n * (x - x_prev)
         - beta1 * np.sqrt(tau) * (obj.gradient(x) - g_prev)
         - beta1 * np.sqrt(tau) / n * g_prev)
    expected = y - tau * obj.gradient(y)

    got, _ = rule_step("igahd", x, {"x_prev": x_prev, "g_prev": g_prev, "n": n},
                       obj, tau=tau, alpha=alpha, beta1=beta1)
    np.testing.assert_allclose(got, expected, rtol=1e-15)


def test_igahd_counter_starts_at_one_and_counts_steps():
    # alpha/n needs n >= 1: init starts the counter there, each step adds one
    obj = one_d_quadratic()
    x = np.ones(1)
    state = RULES["igahd"].init(x)
    assert state["n"] == 1
    for n in range(1, 4):
        x, state = rule_step("igahd", x, state, obj, tau=0.01, alpha=3.0,
                             beta1=0.1)
        assert state["n"] == n + 1


def test_igahd_sc_examples():
    obj = one_d_quadratic()
    # stationary point
    x_new, _ = rule_step("igahd_sc", np.zeros(1),
                         {"x_prev": np.zeros(1), "g_prev": np.zeros(1)},
                         obj, m1=1.0, tau=0.1, beta2=0.5)
    assert x_new[0] == 0.0
    # m1*tau = 1 kills the momentum coefficient
    smt = 1.0
    r = (1.0 - np.sqrt(smt)) / (1.0 + np.sqrt(smt))
    assert r == 0.0
    # hand evaluation: r=1/3, x+ = 1 - (0.25/1.5) = 5/6
    x_new, _ = rule_step("igahd_sc", np.array([1.0]),
                         {"x_prev": np.array([1.0]), "g_prev": np.array([1.0])},
                         obj, m1=1.0, tau=0.25, beta2=1.0)
    assert x_new[0] == pytest.approx(5.0 / 6.0, rel=1e-15)


def test_heavy_ball_examples():
    obj = one_d_quadratic()
    x = np.array([1.0])
    assert rule_step("heavy_ball", x, {"x_prev": x}, obj, tau=0.1,
                     beta=0.5)[0][0] == pytest.approx(0.9)
    np.testing.assert_array_equal(
        rule_step("heavy_ball", np.zeros(1), {"x_prev": np.zeros(1)}, obj,
                  tau=0.1, beta=0.5)[0], np.zeros(1))
    np.testing.assert_allclose(
        rule_step("heavy_ball", x, {"x_prev": x}, obj, tau=0.1, beta=0.0)[0],
        rule_step("gd", x, {}, obj, tau=0.1)[0])


def test_compute_beta2():
    # m1 -> 0 limit is sqrt(tau)/4
    assert compute_beta2(1e-14, 0.36) == pytest.approx(0.6 / 4.0, rel=1e-6)
    # hand value
    assert compute_beta2(1.0, 1.0) == pytest.approx(0.15)
    # solves the stepsize balancing equation
    for m1, tau in [(1.0, 0.0016), (1.0, 0.55)]:
        b = compute_beta2(m1, tau)
        lhs = np.sqrt(m1) / (8.0 * b)
        rhs = (np.sqrt(m1) / (2.0 * tau) + m1 / np.sqrt(tau)) / (
            2.0 * b * m1 + 1.0 / np.sqrt(tau) + np.sqrt(m1) / 2.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# gradient-evaluation budget
# ---------------------------------------------------------------------------

def test_gradient_evaluation_budget():
    base = ob.quadratic(np.diag([1.0, 2.0]))
    x = np.array([0.5, -1.0])

    obj, calls = counting(base)
    pdd_step(PddState(x=x, p=np.zeros(2)),
             PddParams(tau=0.1, sigma=0.1, A=1.0, epsilon=1.0, omega=1.0), obj)
    assert calls["n"] == 1

    # k steps: one gradient at the start, then one per step (igahd: two)
    k = 5
    for method, hp in [
        ("gd", {"tau": 0.1}),
        ("nag", {"tau": 0.1, "beta": 0.5}),
        ("heavy_ball", {"tau": 0.1, "beta": 0.5}),
        ("igahd_sc", {"tau": 0.1, "m1": 1.0, "beta2": 0.5}),
        ("pdd", {"tau": 0.1, "sigma": 0.1, "A": 1.0, "epsilon": 1.0,
                 "omega": 1.0}),
        ("igahd", {"tau": 0.01, "alpha": 3.0, "beta1": 0.1}),
    ]:
        obj, calls = counting(base)
        traj = run_optimizer(obj, method, hp, x, max_iter=k, grad_tol=0.0)
        assert traj.records[-1].iter == k, method
        per_step = 2 if method == "igahd" else 1
        assert calls["n"] == per_step * k + 1, method


# ---------------------------------------------------------------------------
# run_optimizer
# ---------------------------------------------------------------------------

def test_run_stops_at_minimizer_immediately():
    obj = ob.quadratic(np.diag([1.0, 2.0]))
    traj = run_optimizer(obj, "gd", {"tau": 0.1}, np.zeros(2),
                         max_iter=100, grad_tol=1e-12)
    assert len(traj.records) == 1
    assert traj.records[0].iter == 0
    assert traj.records[0].grad_norm <= 1e-12


def test_gd_monotonic_gradient_decrease():
    obj = ob.quadratic(np.diag([0.1, 3.9]))
    traj = run_optimizer(obj, "gd", {"tau": 0.5}, np.array([1.0, 1.0]),
                         max_iter=200, record_every=1)
    gn = traj.column("grad_norm")
    assert np.all(np.diff(gn) <= 0)


def test_nag_beta_zero_is_bitwise_gd():
    obj = ob.quad_minus_cos(np.array([0.9, 1.0, 0.2]) /
                            np.linalg.norm([0.9, 1.0, 0.2]) * np.sqrt(1.9))
    x0 = np.array([2.0, -1.0, 0.5])
    t1 = run_optimizer(obj, "gd", {"tau": 0.2}, x0, max_iter=50)
    t2 = run_optimizer(obj, "nag", {"tau": 0.2, "beta": 0.0}, x0, max_iter=50)
    np.testing.assert_array_equal(t1.final_x, t2.final_x)
    for a, b in zip(t1.records, t2.records):
        assert a.f == b.f and a.grad_norm == b.grad_norm


def test_pdd_lyapunov_nonincreasing_with_recipe_params():
    # f = mu x^2 / 2 with the geometric-decay stepsize recipe
    mu = 1.0
    obj = ob.quadratic(np.array([[mu]]))
    recipe = analysis.theorem6_params(mu, mu, mu, delta=1.0)
    state = PddState(x=np.array([1.5]), p=np.zeros(1))
    prev = analysis.lyapunov_I(obj, state.x, state.p)
    for _ in range(1000):
        state = pdd_step(state, recipe.params, obj)
        cur = analysis.lyapunov_I(obj, state.x, state.p)
        assert cur <= prev * (1 + 1e-15)
        prev = cur


def test_divergence_sets_flag_instead_of_raising():
    obj = ob.quadratic(np.diag([1.0, 4.0]))
    traj = run_optimizer(obj, "gd", {"tau": 10.0}, np.array([1.0, 1.0]),
                         max_iter=5000, record_every=100)
    assert traj.diverged


def constant_gradient(g, dim=2):
    """An objective with f = 1 and gradient g everywhere, finite at any x."""
    return ob.Objective(dim, value=lambda x: 1.0,
                        gradient=lambda x: np.array(g, dtype=float))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_iterate_with_finite_gradient_diverges(bad):
    # C's first row sends x[0] to -inf or nan on the first step while the
    # gradient stays [1, 1]; the run stops there with one last record
    C = Preconditioner.from_callback(
        lambda x: np.array([[bad, 0.0], [0.0, 1.0]]))
    hp = {"tau": 0.5, "sigma": 1.0, "A": 1.0, "epsilon": 0.0, "omega": 0.0,
          "C": C}
    traj = run_optimizer(constant_gradient([1.0, 1.0]), "pdd", hp, np.zeros(2),
                         max_iter=10, record_every=1)
    assert traj.diverged
    gn = float(np.linalg.norm([1.0, 1.0]))
    assert traj.records == [
        TrajectoryRecord(0, 1.0, gn, 0.5 * (0.0 + gn * gn)),
        TrajectoryRecord(1, 1.0, gn, 0.5 * (2.0 + gn * gn)),
    ]
    np.testing.assert_array_equal(traj.final_x, [-bad, -0.5])


def test_huge_finite_iterate_is_not_divergence():
    # x . 0 must stay 0 for entries near the top of the float range
    x, g, tau = np.array([1e308, -1e308]), np.array([1e140, -1e140]), 1e160
    traj = run_optimizer(constant_gradient(g), "gd", {"tau": tau}, x,
                         max_iter=3, record_every=1)
    assert not traj.diverged
    assert [r.iter for r in traj.records] == [0, 1, 2, 3]
    for _ in range(3):
        x = x - tau * g
    np.testing.assert_array_equal(traj.final_x, x)
    assert abs(x[0]) > 9e307


def test_gradient_overflow_is_divergence():
    # finite entries whose squared norm overflows
    traj = run_optimizer(constant_gradient([1e200, 1e200]), "gd", {"tau": 1.0},
                         np.zeros(2), max_iter=10, record_every=5)
    assert traj.diverged
    assert [(r.iter, r.grad_norm) for r in traj.records] == [(0, math.inf)]
    np.testing.assert_array_equal(traj.final_x, np.zeros(2))


def test_run_is_deterministic():
    obj = ob.rosenbrock(n=2)
    kw = dict(max_iter=500, grad_tol=0.0, record_every=50)
    t1 = run_optimizer(obj, "pdd", {"tau": 0.005, "sigma": 0.005, "A": 5.0,
                                    "epsilon": 1.0, "omega": 1.0},
                       np.array([-3.0, -4.0]), **kw)
    t2 = run_optimizer(obj, "pdd", {"tau": 0.005, "sigma": 0.005, "A": 5.0,
                                    "epsilon": 1.0, "omega": 1.0},
                       np.array([-3.0, -4.0]), **kw)
    np.testing.assert_array_equal(t1.final_x, t2.final_x)
    assert [r.f for r in t1.records] == [r.f for r in t2.records]


def test_validate_method_rejects_bad_specs():
    with pytest.raises(ValueError):
        validate_method("sgd", {"tau": 0.1})
    with pytest.raises(ValueError):
        validate_method("gd", {})
    with pytest.raises(ValueError):
        validate_method("gd", {"tau": 0.1, "typo": 1.0})
    with pytest.raises(ValueError):
        validate_method("pdd", {"tau": 0.1, "sigma": 0.1, "A": 1.0,
                                "epsilon": "one", "omega": 1.0})
    validate_method("pdd", {"tau": 0.1, "sigma": 0.1, "A": 1.0,
                            "epsilon": 1.0, "omega": 1.0,
                            "C": Preconditioner.identity()})


def test_pdd_p0_override():
    obj = ob.quadratic(np.diag([1.0, 2.0]))
    params = {"tau": 0.05, "sigma": 0.05, "A": 1.0, "epsilon": 1.0,
              "omega": 1.0}
    p0 = np.array([0.3, -0.4])
    traj = run_optimizer(obj, "pdd", params, np.zeros(2), max_iter=1,
                         p0=p0)
    # the start is the minimizer, so the recorded functional is |p0|^2/2
    assert traj.records[0].lyapunov == pytest.approx(0.5 * float(p0 @ p0))


def test_callback_preconditioner_matches_dense():
    Q = np.diag([1.0, 4.0])
    obj = ob.quadratic(Q)
    Cmat = np.array([[0.5, 0.1], [0.1, 0.8]])
    dense = PddParams(tau=0.1, sigma=0.1, A=1.0, epsilon=1.0, omega=1.0,
                      C=Preconditioner.dense(Cmat))
    callback = PddParams(tau=0.1, sigma=0.1, A=1.0, epsilon=1.0, omega=1.0,
                         C=Preconditioner.from_callback(lambda x: Cmat))
    s0 = PddState(x=np.array([1.0, -1.0]), p=np.array([0.2, 0.1]))
    a = pdd_step(s0, dense, obj)
    b = pdd_step(s0, callback, obj)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.p, b.p)


def test_preconditioner_validation():
    with pytest.raises(ValueError):
        Preconditioner.diagonal([1.0, -2.0])
    with pytest.raises(ValueError):
        Preconditioner.dense(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        Preconditioner.dense(np.diag([1.0, -1.0]))
    P = Preconditioner.diagonal([2.0, 4.0])
    np.testing.assert_allclose(P.apply(None, np.ones(2)), [2.0, 4.0])
    np.testing.assert_allclose(P.matrix(None, 2), np.diag([2.0, 4.0]))


@pytest.mark.parametrize("method,params,name", [
    ("gd", {"tau": -1.0}, "tau"),
    ("nag", {"tau": 0.1, "beta": 1.5}, "beta"),
    ("heavy_ball", {"tau": 0.1, "beta": -0.1}, "beta"),
    ("igahd", {"tau": -0.1, "alpha": 3.0, "beta1": 0.0}, "tau"),
    ("igahd", {"tau": 0.01, "alpha": 3.0, "beta1": 0.5}, "beta1"),
    ("igahd", {"tau": 0.01, "alpha": float("nan"), "beta1": 0.0}, "alpha"),
    ("igahd_sc", {"tau": 0.1, "m1": -1.0, "beta2": 0.1}, "m1"),
    ("pdd", {"tau": 0.1, "sigma": 0.0, "A": 1.0, "epsilon": 1.0, "omega": 1.0},
     "sigma"),
    ("pdd", {"tau": 0.1, "sigma": 0.1, "A": 1.0, "epsilon": 1.0, "omega": 1.0,
             "C": "identity"}, "C"),
])
def test_out_of_range_hyperparameters_rejected_before_any_step(method, params,
                                                               name):
    with pytest.raises(ValueError, match=f"^{method}: .*{name}"):
        validate_method(method, params)
    # the start is the minimizer, so a run without the check takes no step
    obj, calls = counting(ob.quadratic(np.eye(2)))
    with pytest.raises(ValueError, match=name):
        run_optimizer(obj, method, params, np.zeros(2), 10, 1e-8)
    assert calls["n"] == 0


def _reference_run(method, hp, obj, x, steps):
    """Transcribe each method's displayed update formula, independently of
    the rule table; returns per-step (f, |g|), x, p."""
    x_prev, g_prev, y_prev, y_prev2 = x, None, x, x
    p = np.zeros_like(x)
    tau = hp["tau"]
    rows = []
    for n in range(1, steps + 2):
        g = obj.gradient(x)
        rows.append((obj.value(x), float(np.linalg.norm(g))))
        if n == steps + 1:
            break
        g_prev = g if g_prev is None else g_prev
        if method == "gd":
            x_new = x - tau * g
        elif method == "nag":
            y = x - tau * g
            x_new = y + hp["beta"] * (y_prev - y_prev2)
            y_prev, y_prev2 = y, y_prev
        elif method == "heavy_ball":
            x_new = x - tau * g + hp["beta"] * (x - x_prev)
        elif method == "igahd":
            b = hp["beta1"] * math.sqrt(tau)
            y = (x + (1.0 - hp["alpha"] / n) * (x - x_prev) - b * (g - g_prev)
                 - (b / n) * g_prev)
            x_new = y - tau * obj.gradient(y)
        elif method == "igahd_sc":
            smt = math.sqrt(hp["m1"] * tau)
            r, s = (1.0 - smt) / (1.0 + smt), 1.0 + smt
            x_new = (x + r * (x - x_prev)
                     - (hp["beta2"] * math.sqrt(tau) / s) * (g - g_prev)
                     - (tau / s) * g)
        else:
            sA = hp["sigma"] * hp["A"]
            p_new = (p + sA * g) / (1.0 + hp["sigma"] * hp["epsilon"] * hp["A"])
            pt = p_new + hp["omega"] * (p_new - p)
            if "C" in hp:  # a diagonal C scales each coordinate
                pt = hp["C"].payload * pt
            x_new, p = x - tau * pt, p_new
        x_prev, g_prev, x = x, g, x_new
    return rows, x, p if method == "pdd" else None


@pytest.mark.parametrize("method,hp", [
    ("gd", {"tau": 0.0002}),
    ("nag", {"tau": 0.0002, "beta": 0.9}),
    ("heavy_ball", {"tau": 0.0002, "beta": 0.9}),
    ("igahd", {"tau": 0.00045, "alpha": 3.0, "beta1": 0.00045 ** 0.5 / 14.0}),
    ("igahd_sc", {"tau": 5e-5, "m1": 1.0, "beta2": compute_beta2(1.0, 5e-5)}),
    ("pdd", {"tau": 0.005, "sigma": 0.005, "A": 5.0, "epsilon": 1.0,
             "omega": 1.0}),
    ("pdd", {"tau": 0.005, "sigma": 0.005, "A": 5.0, "epsilon": 1.0,
             "omega": 1.0, "C": Preconditioner.diagonal([0.5, 0.25])}),
])
def test_driver_matches_public_kernels_bitwise(method, hp):
    # the reference transcribes the formulas, so a reordered floating-point
    # operation in a rule step fails the == comparisons
    assert_run_matches_reference(method, hp, ob.rosenbrock(n=2),
                                    np.array([-3.0, -4.0]), 300)


def assert_run_matches_reference(method, hp, obj, x0, steps, p0=None):
    """``run_optimizer`` against `_reference_run`: the same (f, |g|) rows
    and the same final x and p, bit for bit; x0 and p0 are left as given."""
    given = x0.copy(), None if p0 is None else p0.copy()
    traj = run_optimizer(obj, method, hp, x0, max_iter=steps, grad_tol=0.0,
                         record_every=1, p0=p0)
    assert not traj.diverged
    rows, x, p = _reference_run(method, hp, obj, x0, steps)
    assert [(r.f, r.grad_norm) for r in traj.records] == rows
    assert traj.final_x.tobytes() == x.tobytes()
    if p is None:
        assert traj.final_p is None
    else:
        assert traj.final_p.tobytes() == p.tobytes()
    assert x0.tobytes() == given[0].tobytes()
    if p0 is not None:
        assert p0.tobytes() == given[1].tobytes()


# the rosenbrockNd preset's methods, each with a strip-fused step
STRIP_METHODS = [
    ("gd", {"tau": 0.001}),
    ("nag", {"tau": 0.0008, "beta": 0.95}),
    ("pdd", {"tau": 0.01, "sigma": 0.01, "A": 5.0, "epsilon": 0.5,
             "omega": 1.0}),
    ("igahd", {"tau": 0.0002, "alpha": 3.0, "beta1": 2.0 * 0.0002 ** 0.5}),
]


# n > strip selects the strip-fused steps; each n leaves a short last strip
@pytest.mark.parametrize("strip,n,steps", [
    (3, 41, 60), (7, 41, 60), (64, 131, 60), (None, 2 * ob._STRIP + 3, 20)])
@pytest.mark.parametrize("method,hp", STRIP_METHODS)
def test_strip_steps_match_public_kernels_bitwise(method, hp, strip, n, steps):
    x0 = np.linspace(-1.0, 1.5, n)
    p0 = np.zeros(n) if method == "pdd" else None  # updated in place, a copy
    with pytest.MonkeyPatch.context() as mp:
        if strip is not None:
            mp.setattr(ob, "_STRIP", strip)
        assert_run_matches_reference(method, hp, ob.rosenbrock(n=n), x0,
                                        steps, p0)


@pytest.mark.parametrize("method,hp", STRIP_METHODS)
def test_run_optimizer_steps_whole_arrays_up_to_one_strip(method, hp):
    calls = {"step": 0, "strip_step": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    rule = RULES[method]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ob, "_STRIP", 64)
        mp.setitem(RULES, method, dataclasses.replace(
            rule, step=counted("step", rule.step),
            strip_step=counted("strip_step", rule.strip_step)))
        for n in (2, 64, 65):
            run_optimizer(ob.rosenbrock(n=n), method, hp, np.zeros(n), 5)
    assert calls == {"step": 10, "strip_step": 5}


def test_rules_without_a_strip_step_for_their_hp_step_whole_arrays():
    x0 = np.zeros(ob._STRIP + 1)
    pdd_with_C = dict(STRIP_METHODS[2][1],
                      C=Preconditioner.diagonal(np.ones(len(x0))))
    for method, hp in [("pdd", pdd_with_C),
                       ("heavy_ball", {"tau": 0.001, "beta": 0.9}),
                       ("igahd_sc", {"tau": 0.001, "m1": 1.0, "beta2": 0.01})]:
        assert RULES[method].start(x0, hp)[1] is RULES[method].step, method


@pytest.mark.parametrize("table", [RULES, toynet._RULES],
                         ids=["optimizers", "toynet"])
def test_rule_parameter_names_match_check_signature(table):
    # validate checks names from params + optional and then calls
    # check(**hp): the two lists must agree or a valid config fails
    for method, rule in table.items():
        names = tuple(inspect.signature(rule.check).parameters)
        assert rule.params + rule.optional == names, method
