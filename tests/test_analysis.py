import numpy as np
import pytest

from pddopt import objective as ob
from pddopt.analysis import (
    build_N_H,
    continuous_lambda,
    discrete_decay_check,
    estimate_constants,
    lyapunov_I,
    optimal_gamma,
    quadratic_spectral_rate,
    theorem6_params,
)
from pddopt.optimizers import pdd_step

from oracles import assemble_quadratic_system


# ---------------------------------------------------------------------------
# Lyapunov functional
# ---------------------------------------------------------------------------

def test_lyapunov_values():
    obj = ob.quadratic(np.array([[1.0]]))
    assert lyapunov_I(obj, np.zeros(1), np.zeros(1)) == 0.0
    assert lyapunov_I(obj, np.array([1.0]), np.array([1.0])) == pytest.approx(1.0)
    # quadratic in p: I(x, 2p) - I(x, p) = 1.5 |p|^2
    x = np.array([0.7])
    p = np.array([0.4])
    diff = lyapunov_I(obj, x, 2 * p) - lyapunov_I(obj, x, p)
    assert diff == pytest.approx(1.5 * float(p @ p))
    assert lyapunov_I(obj, x, p, grad=obj.gradient(x)) == lyapunov_I(obj, x, p)


# ---------------------------------------------------------------------------
# continuous decay exponent
# ---------------------------------------------------------------------------

def test_continuous_lambda_balanced_parameters():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mu = rng.uniform(0.1, 2.0)
        L = mu + rng.uniform(0.0, 3.0)
        gamma = 1.0 / mu
        A = (mu + L) / (2.0 + (mu + L) * gamma)
        lam = continuous_lambda(mu, L, gamma, 1.0, A)
        assert abs(lam - mu / 2.0) <= 1e-14


def test_continuous_lambda_examples():
    # mu = L = 1, gamma = eps = 1 -> A = 0.5 and lambda = 0.5
    assert continuous_lambda(1.0, 1.0, 1.0, 1.0, 0.5) == pytest.approx(0.5)
    # gamma = eps = 0 certifies nothing (negative)
    assert continuous_lambda(1.0, 2.0, 0.0, 0.0, 1.0) < 0.0
    with pytest.raises(ValueError, match="need 0 < mu <= L"):
        continuous_lambda(0.0, 1.0, 1.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# stepsize recipe
# ---------------------------------------------------------------------------

def test_theorem6_recipe_values():
    r = theorem6_params(1.0, 1.0, 1.0, delta=0.0)
    p = r.params
    assert p["tau"] == pytest.approx(1.0 / 144.0)
    assert p["sigma"] == p["tau"]
    assert p["epsilon"] == 1.0
    assert p["sigma"] * p["omega"] == pytest.approx(143.0 / 144.0)  # gamma
    assert r.decay_factor == pytest.approx(1.0 - 1.0 / 1152.0)

    p = theorem6_params(0.5, 1.0, 2.0, delta=1.0).params
    assert p["tau"] == pytest.approx(0.125 / 73.0)
    assert p["sigma"] == p["tau"]
    assert p["sigma"] * p["omega"] * p["A"] < 1.0

    with pytest.raises(ValueError):
        theorem6_params(2.0, 1.0, 1.0)


def test_theorem6_recipe_names_a_mu_too_small_for_floats():
    # gamma*A = (mu+L) gamma / (2 + (mu+L) gamma) rounds to 1 here; the
    # message used to name only the violated inequalities
    with pytest.raises(ValueError, match="mu = 1e-17 is too small relative "
                                         "to L = 1 for the recipe in floating"
                                         " point"):
        theorem6_params(1e-17, 1.0, 1.0)
    theorem6_params(1e-16, 1.0, 1.0)


def test_theorem6_recipe_is_a_checked_pdd_hp_dict():
    p = theorem6_params(1.0, 2.0, 3.0).params
    assert sorted(p) == ["A", "epsilon", "omega", "sigma", "tau"]
    C = np.array([1.0, 2.0])
    assert theorem6_params(1.0, 2.0, 3.0, C=C).params["C"] is C
    with pytest.raises(ValueError, match=r"pdd: C must be a 1-d vector, got "
                                         r"shape \(2, 2\)"):
        theorem6_params(1.0, 2.0, 3.0, C=np.eye(2))


def test_theorem6_recipe_structural_invariants():
    rng = np.random.default_rng(5)
    for _ in range(20):
        mu = rng.uniform(0.05, 1.0)
        L = mu * rng.uniform(1.0, 5.0)
        Lp = L * rng.uniform(1.0, 5.0)
        r = theorem6_params(mu, L, Lp, delta=rng.uniform(0.0, 3.0))
        p = r.params
        assert p["sigma"] == p["tau"]
        assert p["epsilon"] == 1.0
        assert p["sigma"] * p["omega"] * p["A"] < 1.0
        assert 0.0 < r.decay_factor < 1.0


def test_theorem6_rejects_non_finite_constants():
    inf = float("inf")
    for mu, L, Lp in [(inf, inf, inf), (1.0, 2.0, inf), (1.0, inf, inf),
                      (float("nan"), 1.0, 1.0)]:
        with pytest.raises(ValueError):
            theorem6_params(mu, L, Lp)
    with pytest.raises(ValueError):
        theorem6_params(1.0, 2.0, 3.0, delta=inf)
    with pytest.raises(ValueError, match=r"theorem6_params: 'delta' must be a "
                                         r"finite number \(>= 0\), got -1.0"):
        theorem6_params(1.0, 2.0, 3.0, delta=-1.0)


# ---------------------------------------------------------------------------
# spectral rates on quadratics
# ---------------------------------------------------------------------------

def test_spectral_roots_satisfy_mode_quadratic():
    rep = quadratic_spectral_rate([4.0, 1.0], [1.0, 1.0], gamma=0.7, eps=0.2)
    for m in rep.modes:
        for r in m.roots:
            val = r * r + r * (0.2 * m.a + 0.7 * m.mu) + m.mu
            assert abs(val) <= 1e-10


def test_spectral_no_damping_does_not_converge():
    rep = quadratic_spectral_rate([4.0, 1.0], [1.0, 1.0], gamma=0.0, eps=0.0)
    assert rep.alpha == pytest.approx(0.0, abs=1e-14)
    assert not rep.converges
    for m in rep.modes:
        for r in m.roots:
            assert abs(r.real) <= 1e-14
            assert abs(abs(r.imag) - np.sqrt(m.mu)) <= 1e-12


def test_spectral_known_rate_at_optimal_gamma():
    gamma_star = 4.0 / np.sqrt(7.0)
    rep = quadratic_spectral_rate([4.0, 1.0], [1.0, 1.0], gamma=gamma_star, eps=0.0)
    assert rep.alpha == pytest.approx(-1.0 / np.sqrt(1.75), abs=1e-12)
    assert rep.converges


def test_spectral_tuned_eps_rate():
    # A = I, gamma <= 1/sqrt(mu1), eps = 2 sqrt(mu') - gamma mu' with
    # mu' <= mun gives alpha = -sqrt(mu') - gamma (mun - mu') / 2
    mus = [4.0, 1.0]
    mu_prime, gamma = 0.81, 0.4
    eps = 2.0 * np.sqrt(mu_prime) - gamma * mu_prime
    rep = quadratic_spectral_rate(mus, [1.0, 1.0], gamma=gamma, eps=eps)
    expect = -np.sqrt(mu_prime) - 0.5 * gamma * (1.0 - mu_prime)
    assert rep.alpha == pytest.approx(expect, abs=1e-12)


def test_spectral_rejects_nonpositive_modes():
    with pytest.raises(ValueError):
        quadratic_spectral_rate([1.0, -0.5], [1.0, 1.0], 0.1, 0.1)
    with pytest.raises(ValueError, match="mus and as_ must have the same length"):
        quadratic_spectral_rate([1.0, 0.5], [1.0], 0.1, 0.1)
    # each of these certified convergence with alpha = -inf: nan passed
    # mus <= 0, and max(-inf, nan) kept -inf
    for args, name in [
            (([np.nan], [1.0], 0.5, 1.0), "mus"),
            (([np.inf], [1.0], 0.5, 1.0), "mus"),
            (([1.0], [np.nan], 0.5, 1.0), "as_"),
            (([1.0], [1.0], np.nan, 1.0), "gamma"),
            (([1.0], [1.0], 0.5, np.nan), "eps"),
            (([], [], 0.5, 1.0), "mus")]:
        with pytest.raises(ValueError, match=name):
            quadratic_spectral_rate(*args)


def test_mode_rates_match_dense_eigenvalues():
    # 20 seeded diagonal (Q, A, B) triples; the per-mode quadratic must
    # reproduce the spectrum of the assembled block system
    rng = np.random.default_rng(42)
    for _ in range(20):
        d = int(rng.integers(2, 11))
        q = rng.uniform(0.2, 3.0, size=d)
        a = rng.uniform(0.2, 2.0, size=d)
        b = rng.uniform(0.2, 2.0, size=d)
        gamma = rng.uniform(0.0, 1.5)
        eps = rng.uniform(0.0, 1.5)
        mus = b * q * a * q
        rep = quadratic_spectral_rate(mus, a, gamma, eps)
        M = assemble_quadratic_system(np.diag(q), a, np.diag(b), gamma, eps)
        w = np.linalg.eigvals(M)
        assert abs(rep.alpha - np.max(w.real)) <= 1e-8
        # every mode root appears in the dense spectrum
        roots = np.array([r for m in rep.modes for r in m.roots])
        for r in roots:
            assert np.min(np.abs(w - r)) <= 1e-8


def test_optimal_gamma_closed_form_and_argmin():
    gamma_star, alpha = optimal_gamma(4.0, 1.0)
    assert gamma_star == pytest.approx(4.0 / np.sqrt(7.0))
    assert alpha == pytest.approx(-1.0 / np.sqrt(1.75))
    # consistency identity evaluated numerically
    kappa = 4.0
    lhs = alpha * gamma_star
    rhs = -2.0 * np.sqrt(4.0) * np.sqrt(1.0) / (
        np.sqrt(1.0 * (8.0 - 1.0)) * np.sqrt(2.0 - 1.0 / kappa))
    assert lhs == pytest.approx(rhs)

    # grid search of the numerical rate attains its minimum near gamma*
    grid = np.arange(2.0 / np.sqrt(4.0), 2.0 / np.sqrt(1.0) + 1e-9, 1e-4)
    alphas = np.array([
        quadratic_spectral_rate([4.0, 1.0], [1.0, 1.0], g, 0.0).alpha
        for g in grid])
    g_best = grid[np.argmin(alphas)]
    assert abs(g_best - gamma_star) <= 1e-3
    assert np.min(alphas) >= alpha - 1e-6
    # local minimality around gamma*
    for g in (gamma_star - 0.05, gamma_star + 0.05):
        assert quadratic_spectral_rate([4.0, 1.0], [1.0, 1.0], g, 0.0).alpha >= alpha

    with pytest.raises(ValueError):
        optimal_gamma(1.0, 1.0)


# ---------------------------------------------------------------------------
# N / H matrices
# ---------------------------------------------------------------------------

def test_N_matrix_generates_the_update():
    # (x+, p+) - (x, p) = -tau N (grad f, p) must hold exactly
    Q = ob.make_diag_dominant_Q(3, seed=6)
    obj = ob.quadratic(Q)
    params = dict(tau=0.05, sigma=0.08, A=1.3, epsilon=0.9, omega=1.1)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(3)
        p = rng.standard_normal(3)
        N, _ = build_N_H(obj, x, params)
        x_new, s = pdd_step(x, obj.gradient(x), {"p": p}, params)
        delta = np.concatenate([x_new - x, s["p"] - p])
        z = np.concatenate([obj.gradient(x), p])
        np.testing.assert_allclose(delta, -params["tau"] * N @ z,
                                   rtol=1e-12, atol=1e-14)


def test_H_is_exactly_symmetric():
    obj = ob.reg_log_sum_exp(ob.make_diag_dominant_Q(4, seed=12))
    params = dict(tau=0.01, sigma=0.01, A=1.0, epsilon=1.0, omega=1.0)
    _, H = build_N_H(obj, np.full(4, 0.2), params)
    assert np.max(np.abs(H - H.T)) == 0.0


def test_H_lower_bound_scalar_quadratic():
    # f = mu x^2 / 2 with the recipe parameters: smallest eig of H >= mu/4
    mu = 0.8
    obj = ob.quadratic(np.array([[mu]]))
    recipe = theorem6_params(mu, mu, mu, delta=1.0)
    _, H = build_N_H(obj, np.array([2.0]), recipe.params)
    assert np.linalg.eigvalsh(H)[0] >= mu / 4.0 - 1e-12


def test_N_norm_bound_on_logsumexp():
    Q = ob.make_diag_dominant_Q(8, seed=13)
    obj = ob.reg_log_sum_exp(Q)
    rng = np.random.default_rng(14)
    pts = rng.normal(0.0, 0.5, size=(20, 8))
    est = estimate_constants(obj, pts)
    recipe = theorem6_params(est.mu_hat, est.L_hat, est.Lp_hat, delta=1.0)
    p = recipe.params
    bound = (max(est.L_hat, 1.0)
             * (p["A"] * (p["sigma"] + 2.0 * p["sigma"] * p["omega"] + 2.0) + 1.0)
             / (1.0 + p["sigma"] * p["A"]))
    for x in pts:
        N, _ = build_N_H(obj, x, p)
        assert np.linalg.norm(N, 2) <= bound + 1e-10


# ---------------------------------------------------------------------------
# discrete decay report
# ---------------------------------------------------------------------------

def test_decay_check_stationary_start():
    obj = ob.quadratic(np.array([[1.0]]))
    values = [lyapunov_I(obj, np.zeros(1), np.zeros(1))] * 5
    rep = discrete_decay_check(values)
    assert rep.per_step_ratios == [0.0] * 4
    assert rep.within_bound


def test_decay_check_with_recipe():
    obj = ob.quadratic(np.array([[1.0]]))
    recipe = theorem6_params(1.0, 1.0, 1.0, delta=0.0)
    x, s = np.array([1.0]), {"p": np.zeros(1)}
    states = [(x, s["p"])]
    for _ in range(500):
        x, s = pdd_step(x, obj.gradient(x), s, recipe.params)
        states.append((x, s["p"]))
    rep = discrete_decay_check([lyapunov_I(obj, x, p) for x, p in states],
                               recipe)
    assert rep.within_bound
    assert max(rep.per_step_ratios) <= 1.0 - 1.0 / 1152.0
    assert recipe.decay_factor == pytest.approx(1.0 - 1.0 / 1152.0)
    assert recipe.lambda_bound == pytest.approx(0.25)


def test_decay_check_flags_oversized_stepsize():
    obj = ob.quadratic(np.array([[1.0]]))
    recipe = theorem6_params(1.0, 1.0, 1.0, delta=0.0)
    big = {**recipe.params, "tau": recipe.params["tau"] * 100.0}
    x, s = np.array([1.0]), {"p": np.zeros(1)}
    states = [(x, s["p"])]
    for _ in range(200):
        x, s = pdd_step(x, obj.gradient(x), s, big)
        states.append((x, s["p"]))
    rep = discrete_decay_check([lyapunov_I(obj, x, p) for x, p in states],
                               recipe)
    assert not rep.within_bound
    assert max(rep.per_step_ratios) > 1.0


@pytest.mark.parametrize("values", [[], [0.5]])
def test_decay_check_rejects_a_trajectory_without_a_step(values):
    # no step means no ratio: a certificate would rest on no evidence
    recipe = theorem6_params(1.0, 1.0, 1.0, delta=0.0)
    with pytest.raises(ValueError, match="at least one step"):
        discrete_decay_check(values, recipe)


# ---------------------------------------------------------------------------
# constant estimation
# ---------------------------------------------------------------------------

def test_estimate_constants_quadratic_identity_C():
    # Q = diag(1, 2), C = I: mu=1, L=2, L' = max eig Q^2 = 4
    obj = ob.quadratic(np.diag([1.0, 2.0]))
    rng = np.random.default_rng(20)
    pts = rng.standard_normal((5, 2))
    est = estimate_constants(obj, pts)
    assert est.mu_hat == pytest.approx(1.0, abs=1e-9)
    assert est.L_hat == pytest.approx(2.0, abs=1e-9)
    assert est.Lp_hat == pytest.approx(4.0, abs=1e-6)
    # constant Hessian, zero third derivative: estimates are point-independent
    single = estimate_constants(obj, pts[:1])
    assert (single.mu_hat, single.L_hat, single.Lp_hat) == pytest.approx(
        (est.mu_hat, est.L_hat, est.Lp_hat))


def test_estimate_constants_with_inverse_hessian_preconditioner():
    # C = Q^{-1} makes hess.C = I: mu = L = 1
    Q = np.diag([1.0, 2.0])
    obj = ob.quadratic(Q)
    C = 1.0 / np.diag(Q)
    est = estimate_constants(obj, [np.array([0.3, -0.7])], C=C)
    assert est.mu_hat == pytest.approx(1.0, abs=1e-12)
    assert est.L_hat == pytest.approx(1.0, abs=1e-12)
    # C' (hess^2) C = Q^{-1} Q^2 Q^{-1} = I
    assert est.Lp_hat == pytest.approx(1.0, abs=1e-9)


def test_estimate_constants_rejects_a_C_that_is_not_positive_definite():
    C = -np.ones(2)
    with pytest.raises(ValueError, match="C: diagonal preconditioner entries "
                                         "must be positive"):
        estimate_constants(ob.quadratic(np.eye(2)), [np.zeros(2)], C=C)


def test_estimate_constants_rejects_an_empty_sample():
    # it returned mu_hat = inf, L_hat = Lp_hat = -inf
    with pytest.raises(ValueError, match="sample_points"):
        estimate_constants(ob.quadratic(np.eye(2)), [])


def test_D0_sample_is_zero_for_quadratics():
    from pddopt.analysis import sample_D0_lower_bound

    obj = ob.quadratic(np.diag([1.0, 3.0]))
    d0 = sample_D0_lower_bound(obj, [np.array([0.4, -0.2])])
    assert 0.0 <= d0 <= 1e-5  # pure finite-difference noise
    lse = ob.reg_log_sum_exp(ob.make_diag_dominant_Q(5, seed=1))
    assert sample_D0_lower_bound(lse, [np.zeros(5)]) > 0.1


def test_estimate_constants_quad_minus_cos():
    rng = np.random.default_rng(30)
    c = rng.standard_normal(5)
    c *= np.sqrt(1.9) / np.linalg.norm(c)
    obj = ob.quad_minus_cos(c)
    pts = rng.standard_normal((50, 5))
    est = estimate_constants(obj, pts)
    assert 0.1 - 1e-9 <= est.mu_hat <= est.L_hat <= 3.9 + 1e-9
    assert np.isfinite(est.Lp_hat) and est.Lp_hat > 0


# ---------------------------------------------------------------------------
# block quadratic-form bound (simultaneously diagonalizable matrices)
# ---------------------------------------------------------------------------

def test_block_quadratic_form_bound():
    rng = np.random.default_rng(77)
    for _ in range(100):
        d = int(rng.integers(1, 8))
        lam_c = rng.uniform(-1.0, 1.0, size=d)
        lam_a = -np.abs(lam_c) / 2.0 - rng.uniform(0.0, 1.0, size=d)
        lam_b = -np.abs(lam_c) / 2.0 - rng.uniform(0.0, 1.0, size=d)
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        form = float(x @ (lam_a * x) + y @ (lam_b * y) + x @ (lam_c * y))
        assert form <= 1e-12


def test_theorem6_rejects_a_mu_whose_stepsize_underflows():
    # tau = mu / (4 (delta + 36 L')) rounded to 0, and omega = gamma / sigma
    # raised ZeroDivisionError
    with pytest.raises(ValueError, match="tau underflows to 0"):
        theorem6_params(1e-300, 1.0, 1e30)
