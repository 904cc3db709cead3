import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from pddopt import analysis, objective as ob, toynet
from pddopt.optimizers import (
    RULES,
    TrajectoryRecord,
    as_preconditioner,
    compute_beta2,
    compute_nag_beta,
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
    return ob.quadratic(np.array([[1.0]]))


def rule_step(method, x, state, obj, **hp):
    """One step of ``RULES[method]`` from x with an explicit state dict."""
    return RULES[method].step(x, obj.gradient(x), state, hp, obj.gradient)


# ---------------------------------------------------------------------------
# pdd step
# ---------------------------------------------------------------------------

def test_pdd_fixed_point_is_exact():
    obj = ob.quadratic(np.diag([1.0, 3.0]))
    hp = dict(tau=0.2, sigma=0.3, A=2.0, epsilon=1.0, omega=1.0)
    x, p = np.zeros(2), np.zeros(2)
    x_new, nxt = pdd_step(x, obj.gradient(x), {"p": p}, hp)
    assert np.array_equal(x_new, x)
    assert np.array_equal(nxt["p"], p)


def test_pdd_step_hand_values():
    # f = x^2/2, x=1, p=0, tau=sigma=0.1, A=eps=omega=1:
    # p+ = 0.1/(1+0.1) = 1/11, ptilde = 2/11, x+ = 1 - 0.1*2/11 = 54/55
    obj = one_d_quadratic()
    hp = dict(tau=0.1, sigma=0.1, A=1.0, epsilon=1.0, omega=1.0)
    x = np.array([1.0])
    x_new, nxt = pdd_step(x, obj.gradient(x), {"p": np.array([0.0])}, hp)
    assert nxt["p"][0] == pytest.approx(1.0 / 11.0, rel=1e-15)
    assert x_new[0] == pytest.approx(54.0 / 55.0, rel=1e-15)


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
        hp = dict(tau=sigma, sigma=sigma, A=A, epsilon=eps, omega=gamma / sigma)
        x_new, nxt = pdd_step(x, obj.gradient(x), {"p": p}, hp)
        ex = x + sigma * dx
        ep = p + sigma * dp
        return np.sqrt(np.sum((x_new - ex) ** 2) + np.sum((nxt["p"] - ep) ** 2))

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


@pytest.mark.parametrize("fn,args,message", [
    (compute_nag_beta, (1.0,), "kappa must exceed 1"),
    (compute_beta2, (0.0, 1.0), "m1 and tau must be positive"),
    # sqrt(m1 tau) = 5: 4 + 8*5 - 2*25 < 0
    (compute_beta2, (25.0, 1.0), "balancing denominator is not positive")])
def test_momentum_formulas_reject_out_of_range_constants(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)


# ---------------------------------------------------------------------------
# gradient-evaluation budget
# ---------------------------------------------------------------------------

def test_gradient_evaluation_budget():
    base = ob.quadratic(np.diag([1.0, 2.0]))
    x = np.array([0.5, -1.0])

    obj, calls = counting(base)
    pdd_step(x, obj.gradient(x), {"p": np.zeros(2)},
             dict(tau=0.1, sigma=0.1, A=1.0, epsilon=1.0, omega=1.0), obj.gradient)
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
    x, s = np.array([1.5]), {"p": np.zeros(1)}
    prev = analysis.lyapunov_I(obj, x, s["p"])
    for _ in range(1000):
        x, s = pdd_step(x, obj.gradient(x), s, recipe.params)
        cur = analysis.lyapunov_I(obj, x, s["p"])
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


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_non_finite_iterate_with_finite_gradient_diverges(bad):
    # tau C pt overflows in C's first entry, sending x[0] to -inf or inf on
    # the first step while the gradient stays [s, s]; the run stops there
    # with one last record
    s = -math.copysign(1.0, bad)
    hp = {"tau": 4.0, "sigma": 1.0, "A": 1.0, "epsilon": 0.0, "omega": 0.0,
          "C": np.array([1e308, 1.0])}
    traj = run_optimizer(constant_gradient([s, s]), "pdd", hp, np.zeros(2),
                         max_iter=10, record_every=1)
    assert traj.diverged
    gn = float(np.linalg.norm([1.0, 1.0]))
    assert traj.records == [
        TrajectoryRecord(0, 1.0, gn, 0.5 * (0.0 + gn * gn)),
        TrajectoryRecord(1, 1.0, gn, 0.5 * (2.0 + gn * gn)),
    ]
    np.testing.assert_array_equal(traj.final_x, [bad, -4.0 * s])


def test_non_finite_value_at_a_finite_iterate_diverges():
    # f turns inf at x[0] = -1 while x and the gradient stay finite
    obj = ob.Objective(2, value=lambda x: 1.0 if x[0] > -1.0 else math.inf,
                       gradient=lambda x: np.ones(2))
    traj = run_optimizer(obj, "gd", {"tau": 0.5}, np.zeros(2), max_iter=10,
                         record_every=1)
    assert traj.diverged and [(r.iter, r.f) for r in traj.records] == [
        (0, 1.0), (1, 1.0), (2, math.inf)]


@pytest.mark.parametrize("x0,message", [
    ([[0.0, 0.0]], r"x0 must be a 1-d vector, got shape \(1, 2\)"),
    ([math.nan, 0.0], "x0 contains non-finite entries")])
def test_run_optimizer_rejects_a_start_that_is_no_finite_vector(x0, message):
    with pytest.raises(ValueError, match=message):
        run_optimizer(ob.ackley(), "gd", {"tau": 0.1}, x0, max_iter=1)


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
                            "C": None})


def test_validate_method_rejects_an_int_no_float_holds():
    # math.isfinite(10**400) raised OverflowError
    with pytest.raises(ValueError, match="gd: 'tau' must be a finite number"):
        validate_method("gd", {"tau": 10 ** 400})
    # numpy scalars that a float holds are numbers, read with no cast
    # warning: abs(np.float32(v)) <= sys.float_info.max warned of an overflow
    for tau in (np.float32(0.1), np.float16(0.1), np.int64(1)):
        validate_method("gd", {"tau": tau})
        run_optimizer(ob.quadratic(np.eye(2)), "gd", {"tau": tau}, np.ones(2),
                      max_iter=np.int64(2), grad_tol=np.float32(1e-6))


@pytest.mark.parametrize("with_C", [False, True], ids=["no-C", "diagonal-C"])
def test_run_optimizer_steps_pdd_with_pdd_step(with_C):
    # one copy of the damping formula: the pdd rule's step is pdd_step, and
    # a hand loop of it from the certified recipe ends on run_optimizer's bits
    assert RULES["pdd"].step is pdd_step
    obj = ob.reg_log_sum_exp(ob.make_diag_dominant_Q(4, seed=21))
    C = np.array([1.0, 0.5, 2.0, 0.8]) if with_C else None
    x0 = np.full(4, 0.3)
    est = analysis.estimate_constants(obj, [x0, -x0], C=C)
    recipe = analysis.theorem6_params(est.mu_hat, est.L_hat,
                                      max(est.Lp_hat, est.L_hat), C=C)
    assert ("C" in recipe.params) == with_C
    k = 50
    x, s = x0, {"p": np.zeros(4)}
    for _ in range(k):
        x, s = pdd_step(x, obj.gradient(x), s, recipe.params)
    traj = run_optimizer(obj, "pdd", recipe.params, x0, max_iter=k)
    assert traj.records[-1].iter == k and not traj.diverged
    assert traj.final_x.tobytes() == x.tobytes()
    assert traj.final_p.tobytes() == s["p"].tobytes()


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"## Library example\n\n```python\n(.*?)```", readme,
                     re.DOTALL).group(1)
    ns = {}
    exec(compile(code, "README.md", "exec"), ns)
    traj = ns["traj"]
    assert not traj.diverged
    assert traj.records[-1].grad_norm < traj.records[0].grad_norm
    assert capsys.readouterr().out.count("\n") == 2


def test_preconditioner_validation():
    # C is the vector of a positive diagonal, checked once by one helper
    for bad, message in [
            ([1.0, -2.0], "C: diagonal preconditioner entries must be positive"),
            ([1.0, 0.0], "C: diagonal preconditioner entries must be positive"),
            ([1.0, np.nan], "C contains non-finite entries"),
            ([1.0, np.inf], "C contains non-finite entries"),
            (np.eye(2), r"C must be a 1-d vector, got shape \(2, 2\)"),
            (2.0, r"C must be a 1-d vector, got shape \(\)"),
            ("identity", "C must be a vector of positive reals, got 'identity'"),
            ({"diagonal": [1.0]}, "C must be a vector of positive reals")]:
        with pytest.raises(ValueError, match=message):
            as_preconditioner(bad)
    with pytest.raises(ValueError, match="C has length 2, expected 3"):
        as_preconditioner([2.0, 4.0], 3)
    C = as_preconditioner([2.0, 4.0], 2)
    assert C.dtype == np.float64
    np.testing.assert_array_equal(C, [2.0, 4.0])


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("entry", ["run_optimizer", "build_N_H",
                                   "estimate_constants"])
def test_a_C_of_the_wrong_length_is_refused_before_the_first_gradient(entry, n):
    # a 1-entry C used to broadcast over all 3 coordinates, a 4-entry one to
    # die in numpy after the first gradient; build_N_H died in np.hstack
    obj, calls = counting(ob.quadratic(np.diag([1.0, 2.0, 3.0])))
    C, x0 = np.full(n, 2.0), np.ones(3)
    hp = {"tau": 0.1, "sigma": 0.1, "A": 1.0, "epsilon": 1.0, "omega": 1.0,
          "C": C}
    with pytest.raises(ValueError, match=f"C has length {n}, expected 3"):
        if entry == "run_optimizer":
            run_optimizer(obj, "pdd", hp, x0, max_iter=50)
        elif entry == "build_N_H":
            analysis.build_N_H(obj, x0, hp)
        else:
            analysis.estimate_constants(obj, [x0], C=C)
    assert calls["n"] == 0


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
    ("igahd_sc", {"tau": 0.1, "m1": 1.0, "beta2": 2.0}, "beta2"),
    # each remaining ranged Key of RULES, so that dropping its range fails
    ("nag", {"tau": 0.0, "beta": 0.5}, "tau"),
    ("heavy_ball", {"tau": -0.1, "beta": 0.5}, "tau"),
    ("igahd", {"tau": 0.01, "alpha": 3.0, "beta1": -0.1}, "beta1"),
    ("igahd_sc", {"tau": 0.0, "m1": 1.0, "beta2": 0.1}, "tau"),
    ("pdd", {"tau": -0.1, "sigma": 0.1, "A": 1.0, "epsilon": 1.0, "omega": 1.0},
     "tau"),
    ("pdd", {"tau": 0.1, "sigma": 0.1, "A": 0.0, "epsilon": 1.0, "omega": 1.0},
     "A"),
    ("pdd", {"tau": 0.1, "sigma": 0.1, "A": 1.0, "epsilon": -1.0, "omega": 1.0},
     "epsilon"),
    ("pdd", {"tau": 0.1, "sigma": 0.1, "A": 1.0, "epsilon": 1.0, "omega": -1.0},
     "omega"),
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
                pt = hp["C"] * pt
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
             "omega": 1.0, "C": np.array([0.5, 0.25])}),
    ("pdd", {"tau": 0.005, "sigma": 0.005, "A": 5.0, "epsilon": 1.0,
             "omega": 1.0, "C": [0.5, 0.25]}),
])
def test_driver_matches_public_kernels_bitwise(method, hp):
    # the reference transcribes the formulas, so a reordered floating-point
    # operation in a rule step fails the == comparisons
    assert_run_matches_reference(method, hp, ob.rosenbrock(n=2),
                                    np.array([-3.0, -4.0]), 300)


def assert_run_matches_reference(method, hp, obj, x0, steps):
    """``run_optimizer`` against `_reference_run`: the same (f, |g|) rows
    and the same final x and p, bit for bit; x0 is left as given."""
    given = x0.copy()
    traj = run_optimizer(obj, method, hp, x0, max_iter=steps, grad_tol=0.0,
                         record_every=1)
    assert not traj.diverged
    rows, x, p = _reference_run(method, hp, obj, x0, steps)
    assert [(r.f, r.grad_norm) for r in traj.records] == rows
    assert traj.final_x.tobytes() == x.tobytes()
    if p is None:
        assert traj.final_p is None
    else:
        assert traj.final_p.tobytes() == p.tobytes()
    assert x0.tobytes() == given.tobytes()


_PDD = {"tau": 0.01, "sigma": 0.01, "A": 5.0, "epsilon": 0.5, "omega": 1.0}

# every rule: the rosenbrockNd preset's methods first, then heavy_ball,
# igahd_sc and pdd with a C as an array and as a list; a C is a function of
# the length it must have (`at_length`)
STRIP_METHODS = [
    ("gd", {"tau": 0.001}),
    ("nag", {"tau": 0.0008, "beta": 0.95}),
    ("pdd", _PDD),
    ("igahd", {"tau": 0.0002, "alpha": 3.0, "beta1": 2.0 * 0.0002 ** 0.5}),
    ("heavy_ball", {"tau": 0.0008, "beta": 0.9}),
    ("igahd_sc", {"tau": 0.0002, "m1": 1.0, "beta2": compute_beta2(1.0, 0.0002)}),
    ("pdd", dict(_PDD, C=lambda n: np.linspace(0.5, 1.5, n))),
    ("pdd", dict(_PDD, C=lambda n: np.linspace(0.5, 1.5, n).tolist())),
]


def at_length(hp, n):
    """``hp`` with its C, if any, made for vectors of length ``n``."""
    return {k: v(n) if callable(v) else v for k, v in hp.items()}


# n > strip runs the strip driver; each n leaves a short last strip
@pytest.mark.parametrize("strip,n,steps", [
    (3, 41, 60), (7, 41, 60), (64, 131, 60), (None, 2 * ob._STRIP + 3, 20)])
@pytest.mark.parametrize("method,hp", STRIP_METHODS)
def test_strip_steps_match_public_kernels_bitwise(method, hp, strip, n, steps):
    x0, hp = np.linspace(-1.0, 1.5, n), at_length(hp, n)
    C = np.array(hp.get("C"))
    with pytest.MonkeyPatch.context() as mp:
        if strip is not None:
            mp.setattr(ob, "_STRIP", strip)
        assert_run_matches_reference(method, hp, ob.rosenbrock(n=n), x0,
                                        steps)
    assert np.array(hp.get("C")).tobytes() == C.tobytes()


@pytest.mark.parametrize("method,hp", STRIP_METHODS)
def test_run_optimizer_steps_whole_arrays_up_to_one_strip(method, hp):
    # a rule with halves runs both per strip, and its step only whole
    lengths = []

    def counted(fn):
        def wrapped(x, *args):
            lengths.append(len(x))
            return fn(x, *args)
        return wrapped

    rule = RULES[method]
    halves = rule.halves and tuple(map(counted, rule.halves))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ob, "_STRIP", 64)
        mp.setitem(RULES, method, dataclasses.replace(
            rule, step=counted(rule.step), halves=halves))
        for n in (2, 64, 65, 130):
            lengths.append(n)
            run_optimizer(ob.rosenbrock(n=n), method, at_length(hp, n),
                          np.zeros(n), 3)
    per_strip = 2 if halves else 1
    assert lengths == ([2] * 4 + [64] * 4 + [65] + [64, 1] * 3 * per_strip
                       + [130] + [64, 64, 2] * 3 * per_strip)


@pytest.mark.parametrize("method,hp", STRIP_METHODS)
def test_the_strip_driver_keeps_references_and_reuses_its_buffers(method, hp):
    # what the whole-array step hands back unchanged, the driver hands back
    # as the same whole vector; each other result goes into a buffer of the
    # run's own, never x0, g or C, and the run owns at most one more vector
    # than init made
    n, strip = 130, 64
    obj, x0, hp = ob.rosenbrock(n=n), np.linspace(-1.0, 1.5, n), at_length(hp, n)
    rule, given = RULES[method], [x0.copy(), np.array(hp.get("C"))]
    hp = dict(hp, C=as_preconditioner(hp["C"], n)) if "C" in hp else hp
    theirs = [x0, hp["C"]] if "C" in hp else [x0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ob, "_STRIP", strip)
        state, step = rule.start(x0)
        vectors = sum(isinstance(v, np.ndarray) for v in state.values())
        x, written = x0, []
        for _ in range(8):
            g = obj.gradient(x)
            inputs, g_given = [x, g, *state.values()], g.copy()
            want_x, want = rule.step(x, g, state, hp, obj.gradient)
            x, state = step(x, g, state, hp, obj.gradient)
            assert x.tobytes() == want_x.tobytes() and list(state) == list(want)
            for got, v in zip([x, *state.values()], [want_x, *want.values()]):
                if any(v is w for w in inputs):
                    assert got is v
                elif isinstance(v, np.ndarray):
                    assert got.tobytes() == v.tobytes()
                    assert not any(np.shares_memory(got, w)
                                   for w in [g, *theirs])
                    written.append(got)
                else:
                    assert got == v
            assert g.tobytes() == g_given.tobytes()
    assert x0.tobytes() == given[0].tobytes()
    assert np.array(hp.get("C")).tobytes() == given[1].tobytes()
    assert 0 < len({id(v) for v in written}) <= vectors + 1


def test_the_strip_driver_steps_with_the_hp_of_each_call():
    # the driver's step has step's signature: an hp that differs from one
    # call to the next (a new C, a new tau) is cut per strip at each call
    n, x = 130, np.linspace(-1.0, 1.5, 130)
    obj, rule = ob.rosenbrock(n=n), RULES["pdd"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ob, "_STRIP", 64)
        state, step = rule.start(x)
        for k in range(4):
            hp = dict(_PDD, tau=_PDD["tau"] / (k + 1),
                      C=None if k == 2 else np.linspace(0.5, 1.5 + k, n))
            g = obj.gradient(x)
            want_x, want = rule.step(x, g, state, hp, obj.gradient)
            x, state = step(x, g, state, hp, obj.gradient)
            assert x.tobytes() == want_x.tobytes()
            assert state["p"].tobytes() == want["p"].tobytes()


@pytest.mark.parametrize("table", [RULES, toynet._RULES],
                         ids=["optimizers", "toynet"])
def test_rule_parameter_names_match_check_signature(table):
    # validate checks hp against params and then calls check(hp): a check
    # that reads a name params does not declare fails every valid config
    read = set()

    class Reads(dict):
        def __getitem__(self, k):
            read.add(k)
            return super().__getitem__(k)

        def get(self, k, default=None):
            read.add(k)
            return super().get(k, default)

    for method, rule in table.items():
        hp = {k: np.ones(2) if key.kind == "C" else 0.01
              for k, key in rule.params.items()}
        rule.validate(method, hp)
        read.clear()
        if rule.check is not None:
            rule.check(Reads(hp))
        assert read <= set(rule.params), method
