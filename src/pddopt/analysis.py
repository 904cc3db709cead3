"""Executable convergence-rate certificates for the damping iteration.

Everything here turns the rate theory into numbers that can be checked:

* the Lyapunov functional I(x, p) = (|p|^2 + |grad f(x)|^2) / 2 whose decay
  certifies convergence,
* closed-form continuous decay exponents for quadratic objectives
  (per-mode spectral analysis) and for general strongly convex ones,
* the discrete stepsize recipe guaranteeing a geometric decay factor, built
  from the constants mu, L (extreme eigenvalues of hess f . C) and L'
  (a bound involving the third derivative),
* the N/H matrices that drive the discrete one-step estimate.

C is pdd's primal preconditioner: a positive diagonal given as the vector
of its entries, or None for I.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .objective import Key, Objective, as_vector, check_keys
from .optimizers import as_preconditioner, lyapunov_value, validate_method

__all__ = [
    "SpectralMode",
    "SpectralReport",
    "Theorem6Recipe",
    "DiscreteRateReport",
    "ConstantEstimates",
    "lyapunov_I",
    "continuous_lambda",
    "theorem6_params",
    "quadratic_spectral_rate",
    "optimal_gamma",
    "build_N_H",
    "discrete_decay_check",
    "estimate_constants",
    "sample_D0_lower_bound",
]


def lyapunov_I(obj: Objective, x, p,
               grad: Optional[np.ndarray] = None) -> float:
    """I(x, p) = (|p|^2 + |grad f(x)|^2) / 2; evaluates the gradient unless
    a precomputed ``grad`` at ``x`` is supplied."""
    p = np.asarray(p, dtype=float)
    g = obj.gradient(np.asarray(x, dtype=float)) if grad is None else grad
    return lyapunov_value(p, float(g @ g))


# theorem6_params' constants and margin, delta at a config's default
RECIPE = dict(mu=Key("real"), L=Key("real"), Lp=Key("real"),
              delta=Key("real", 1.0, ">= 0"))
# the coefficients of quadratic_spectral_rate, and of continuous_lambda
_SPECTRAL = dict(gamma=Key("real"), eps=Key("real"))
_LAMBDA = dict(mu=RECIPE["mu"], L=RECIPE["L"], **_SPECTRAL, A=Key("real"))


def continuous_lambda(mu: float, L: float, gamma: float, eps: float,
                      A: float) -> float:
    """Continuous decay exponent: I(t) <= I(0) exp(-2 lambda t).

    lambda is the minimum of four closed-form expressions evaluated at the
    spectrum endpoints mu <= L of hess f . B . hess f. A negative return
    value means no decay is certified; the caller interprets. The
    arguments are finite numbers with 0 < mu <= L.

    With gamma = 1/mu, eps = 1 and A = (mu+L) / (2 + (mu+L) eps gamma) the
    minimum collapses to exactly mu/2.
    """
    check_keys(_LAMBDA, dict(mu=mu, L=L, gamma=gamma, eps=eps, A=A),
               "continuous_lambda")
    if not 0 < mu <= L:
        raise ValueError("need 0 < mu <= L")
    cross_mu = 0.5 * abs(A - mu * (1.0 - eps * gamma * A))
    cross_L = 0.5 * abs(A - L * (1.0 - eps * gamma * A))
    return min(
        mu * gamma * A - cross_mu,
        L * gamma * A - cross_L,
        eps * A - cross_mu,
        eps * A - cross_L,
    )


@dataclass(frozen=True)
class Theorem6Recipe:
    """Stepsize recipe with a guaranteed geometric decay factor. ``params``
    is pdd's hp dict (tau, sigma, A, epsilon, omega, and C when one was
    given), ready for ``run_optimizer(obj, "pdd", recipe.params, ...)``."""
    params: dict
    decay_factor: float
    lambda_bound: float  # certified lower bound on eig(H), mu/4
    M_bound: float       # certified upper bound on |N' hess(I) N|, 36 max(L', 1)


def theorem6_params(mu: float, L: float, Lp: float, delta: float = 1.0,
                    C: Optional[np.ndarray] = None) -> Theorem6Recipe:
    """Parameters certifying geometric decay of the Lyapunov functional.

    tau = sigma = mu / (4 (delta + 36 max(L', 1))), gamma = (1 - sigma mu)/mu,
    eps = 1, A = (mu+L) / (2 + (mu+L) gamma), omega = gamma/sigma, and the
    per-step factor 1 - (mu^2/32) / (delta + 36 max(L', 1)), for
    `RECIPE`'s finite numbers with 0 < mu <= L <= L' and delta >= 0.
    """
    check_keys(RECIPE, dict(mu=mu, L=L, Lp=Lp, delta=delta), "theorem6_params")
    if not 0 < mu <= L <= Lp:
        raise ValueError("need 0 < mu <= L <= L'")
    denom = delta + 36.0 * max(Lp, 1.0)
    tau = 0.25 * mu / denom
    if tau == 0.0:
        raise ValueError(f"mu = {mu:.6g} is too small: tau underflows to 0")
    sigma = tau
    gamma = (1.0 - sigma * mu) / mu
    eps = 1.0
    A = (mu + L) / (2.0 + (mu + L) * eps * gamma)
    omega = gamma / sigma
    decay = 1.0 - (mu * mu / 32.0) / denom
    # exact, but in floats gamma*A rounds to 1 once (mu+L) gamma passes ~1e16
    if not (gamma * A < 1.0 and sigma < 1.0 / 36.0):
        raise ValueError(f"mu = {mu:.6g} is too small relative to L = {L:.6g} "
                         "for the recipe in floating point (gamma*A rounds to 1)")
    params = {"tau": tau, "sigma": sigma, "A": A, "epsilon": eps, "omega": omega}
    if C is not None:
        params["C"] = C
    validate_method("pdd", params)
    return Theorem6Recipe(params=params, decay_factor=decay,
                          lambda_bound=mu / 4.0, M_bound=36.0 * max(Lp, 1.0))


@dataclass(frozen=True)
class SpectralMode:
    mu: float
    a: float
    roots: Tuple[complex, complex]


@dataclass
class SpectralReport:
    """Per-mode eigenvalue pairs of the quadratic linear system and the
    dominant real part alpha (negative alpha means convergence)."""
    modes: List[SpectralMode]
    alpha: float
    converges: bool


def quadratic_spectral_rate(mus: Sequence[float], as_: Sequence[float],
                            gamma: float, eps: float) -> SpectralReport:
    """Mode-wise decay rates for a quadratic objective.

    For each pair (mu_i, a_i) -- mu_i an eigenvalue of B Q A Q, a_i the
    matching eigenvalue of A in the same basis -- the system eigenvalues
    solve

        alpha^2 + alpha (eps a_i + gamma mu_i) + mu_i = 0,

    and the dominant rate is the largest real part over all roots. With
    gamma = eps = 0 every root is purely imaginary and the system does not
    converge. A spectrum with no mode or a value that is not finite, and a
    gamma or eps that is no finite number, raise ValueError naming it.
    """
    check_keys(_SPECTRAL, dict(gamma=gamma, eps=eps), "quadratic_spectral_rate")
    mus = np.asarray(mus, dtype=float)
    as_arr = np.asarray(as_, dtype=float)
    if mus.shape != as_arr.shape:
        raise ValueError("mus and as_ must have the same length")
    if mus.size == 0:
        raise ValueError("mus: the spectrum has no mode")
    for name, v in (("mus", mus), ("as_", as_arr)):
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} must be finite")
    if np.any(mus <= 0):
        raise ValueError("mode eigenvalues mu_i must be positive")
    modes = []
    alpha = -math.inf
    for mu_i, a_i in zip(mus, as_arr):
        b = eps * a_i + gamma * mu_i
        disc = cmath.sqrt(complex(b * b - 4.0 * mu_i))
        r1 = 0.5 * (-b + disc)
        r2 = 0.5 * (-b - disc)
        modes.append(SpectralMode(mu=float(mu_i), a=float(a_i), roots=(r1, r2)))
        alpha = max(alpha, r1.real, r2.real)
    return SpectralReport(modes=modes, alpha=alpha, converges=alpha < 0.0)


def optimal_gamma(mu1: float, mun: float) -> Tuple[float, float]:
    """Best extrapolation weight for a quadratic with A = I, eps = 0.

    gamma* = 2 sqrt(mu1) / sqrt(mun (2 mu1 - mun)) and the achieved rate is
    alpha = -sqrt(mun) / sqrt(2 - 1/kappa), kappa = mu1/mun > 1.
    """
    if not mu1 > mun > 0:
        raise ValueError("need mu1 > mun > 0")
    gamma_star = 2.0 * math.sqrt(mu1) / math.sqrt(mun * (2.0 * mu1 - mun))
    kappa = mu1 / mun
    alpha = -math.sqrt(mun) / math.sqrt(2.0 - 1.0 / kappa)
    return gamma_star, alpha


def build_N_H(obj: Objective, x, params: dict) -> Tuple[np.ndarray, np.ndarray]:
    """One-step update matrix N(x) and its symmetrized energy form H(x).

    (x+, p+) - (x, p) = -tau N(x) (grad f(x), p) with

        N = 1/(1 + sigma eps A) [[C (sigma A + gamma A), C (1 - eps gamma A)],
                                 [  -(sigma/tau) A I,      (sigma/tau) eps A I]]

    where gamma = sigma omega, and H = sym(diag(hess f(x), I) . N). H is
    exactly symmetric by construction. ``params`` is pdd's hp dict.
    """
    x = as_vector(x, obj.dim)
    d = obj.dim
    I = np.eye(d)
    C = params.get("C")
    Cmat = I if C is None else np.diag(as_preconditioner(C, d))
    Hess = obj.hessian_at(x)
    A, sigma, tau, eps = params["A"], params["sigma"], params["tau"], params["epsilon"]
    gamma = sigma * params["omega"]
    eta = sigma / tau
    scale = 1.0 / (1.0 + sigma * eps * A)
    N = scale * np.vstack([
        np.hstack([(sigma * A + gamma * A) * Cmat, (1.0 - eps * gamma * A) * Cmat]),
        np.hstack([-(eta * A) * I, (eta * eps * A) * I]),
    ])
    D = np.vstack([np.hstack([Hess, np.zeros((d, d))]),
                   np.hstack([np.zeros((d, d)), I])])
    M = D @ N
    H = 0.5 * (M + M.T)
    return N, H


@dataclass
class DiscreteRateReport:
    """Measured per-step Lyapunov ratios I^{n+1} / I^n, and whether each is
    within the recipe's decay factor."""
    per_step_ratios: List[float]
    within_bound: bool


def discrete_decay_check(values: Sequence[float],
                         recipe: Optional[Theorem6Recipe] = None) -> DiscreteRateReport:
    """Ratios I^{n+1} / I^n of the Lyapunov values I^n = I(x^n, p^n) along a
    damping trajectory, given in step order (the caller evaluates them, as a
    stepping loop has grad f at each state already).

    A ratio with zero denominator is reported as 0 (a stationary start stays
    stationary). When a recipe is given, ``within_bound`` says whether every
    ratio is at most its decay factor; without one the ratios are compared
    against 1. A trajectory with no step (fewer than 2 values) raises
    ValueError: it holds no ratio to certify.
    """
    values = list(values)
    if len(values) < 2:
        raise ValueError(f"decay check needs at least one step (2 Lyapunov "
                         f"values), got {len(values)}")
    ratios = []
    for prev, cur in zip(values[:-1], values[1:]):
        ratios.append(cur / prev if prev > 0.0 else 0.0)
    bound = recipe.decay_factor if recipe is not None else 1.0
    return DiscreteRateReport(per_step_ratios=ratios,
                              within_bound=all(r <= bound for r in ratios))


@dataclass(frozen=True)
class ConstantEstimates:
    """Sampled bounds: mu_hat/L_hat bracket eig(hess f . C), Lp_hat bounds
    C (d3f . grad f + hess f^2) C over the sample set."""
    mu_hat: float
    L_hat: float
    Lp_hat: float


def sample_D0_lower_bound(obj: Objective, points: Sequence,
                          seed: int = 0) -> float:
    """Sampled lower bound on the supremum of the third-derivative form of
    the Lyapunov functional (the true constant is a global supremum and is
    not computable exactly; for quadratics it is 0).

    For each sample point and each of 8 random unit directions u in
    (x, p)-space the third directional derivative of I is estimated by
    central differences of I along u, with step h = 1e-3.
    """
    rng = np.random.default_rng(seed)
    best, h = 0.0, 1e-3
    d = obj.dim
    for pt in points:
        x = as_vector(pt, d)
        p = rng.standard_normal(d)
        for _ in range(8):
            u = rng.standard_normal(2 * d)
            u /= np.linalg.norm(u)
            ux, up = u[:d], u[d:]

            def I_at(t):
                return lyapunov_I(obj, x + t * ux, p + t * up)

            third = (I_at(2 * h) - 2.0 * I_at(h)
                     + 2.0 * I_at(-h) - I_at(-2 * h)) / (2.0 * h ** 3)
            best = max(best, third)
    return best


def estimate_constants(obj: Objective, sample_points: Sequence,
                       C: Optional[np.ndarray] = None) -> ConstantEstimates:
    """Estimate the rate constants over a sample of points.

    mu_hat / L_hat are the extreme eigenvalues of hess f(x) C over the
    sample (for C = I this is just the Hessian spectrum). Lp_hat bounds
    C (d3f . grad f + hess f^2) C, with the third-derivative contraction
    approximated by a central difference of the Hessian along the gradient
    direction. C is the positive diagonal's vector, so a product with it
    scales rows or columns; None is I, taken as a vector of ones, whose
    products change no bit. Sampled estimates are lower bounds on the true
    global constants; include any points you intend to certify in the
    sample. An empty sample raises ValueError.
    """
    if len(sample_points) == 0:
        raise ValueError("sample_points: no point to estimate the constants at")
    C = np.ones(obj.dim) if C is None else as_preconditioner(C, obj.dim)
    s = np.sqrt(C)
    mu_hat = math.inf
    L_hat = -math.inf
    Lp_hat = -math.inf
    for pt in sample_points:
        x = as_vector(pt, obj.dim)
        Hess = obj.hessian_at(x)
        # eigenvalues of hess.C (= hess f . B . hess f); hess.C is similar
        # to S hess S with S = C^(1/2), which is symmetric
        w = np.linalg.eigvalsh(s[:, None] * Hess * s)
        mu_hat = min(mu_hat, float(w[0]))
        L_hat = max(L_hat, float(w[-1]))

        v = obj.gradient(x)
        h = 1e-5 * (1.0 + np.linalg.norm(x)) / (1.0 + np.linalg.norm(v))
        T = (obj.hessian_at(x + h * v) - obj.hessian_at(x - h * v)) / (2.0 * h)
        M = C[:, None] * (T + Hess @ Hess) * C
        M = 0.5 * (M + M.T)
        Lp_hat = max(Lp_hat, float(np.linalg.eigvalsh(M)[-1]))
    return ConstantEstimates(mu_hat=mu_hat, L_hat=L_hat, Lp_hat=Lp_hat)
