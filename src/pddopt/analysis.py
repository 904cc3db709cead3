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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .objective import Objective, as_vector
from .optimizers import PddParams, Preconditioner

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
    "assemble_quadratic_system",
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
    return 0.5 * (float(p @ p) + float(g @ g))


def continuous_lambda(mu: float, L: float, gamma: float, eps: float,
                      A: float) -> float:
    """Continuous decay exponent: I(t) <= I(0) exp(-2 lambda t).

    lambda is the minimum of four closed-form expressions evaluated at the
    spectrum endpoints mu <= L of hess f . B . hess f. A negative return
    value means no decay is certified; the caller interprets.

    With gamma = 1/mu, eps = 1 and A = (mu+L) / (2 + (mu+L) eps gamma) the
    minimum collapses to exactly mu/2.
    """
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
    """Stepsize recipe with a guaranteed geometric decay factor."""
    params: PddParams
    mu: float
    L: float
    Lp: float
    delta: float
    decay_factor: float
    lambda_bound: float  # certified lower bound on eig(H), mu/4
    M_bound: float       # certified upper bound on |N' hess(I) N|, 36 max(L', 1)


def theorem6_params(mu: float, L: float, Lp: float, delta: float = 1.0,
                    C: Optional[Preconditioner] = None) -> Theorem6Recipe:
    """Parameters certifying geometric decay of the Lyapunov functional.

    tau = sigma = mu / (4 (delta + 36 max(L', 1))), gamma = (1 - sigma mu)/mu,
    eps = 1, A = (mu+L) / (2 + (mu+L) gamma), omega = gamma/sigma, and the
    per-step factor 1 - (mu^2/32) / (delta + 36 max(L', 1)).
    """
    if not all(math.isfinite(v) for v in (mu, L, Lp, delta)):
        raise ValueError("mu, L, L' and delta must be finite")
    if not 0 < mu <= L <= Lp:
        raise ValueError("need 0 < mu <= L <= L'")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    denom = delta + 36.0 * max(Lp, 1.0)
    tau = 0.25 * mu / denom
    sigma = tau
    gamma = (1.0 - sigma * mu) / mu
    eps = 1.0
    A = (mu + L) / (2.0 + (mu + L) * eps * gamma)
    omega = gamma / sigma
    decay = 1.0 - (mu * mu / 32.0) / denom
    # both hold structurally for any valid input; kept as hard checks
    if not (gamma * A < 1.0 and sigma < 1.0 / 36.0):
        raise ValueError("recipe must satisfy gamma*A < 1 and sigma < 1/36")
    params = PddParams(tau=tau, sigma=sigma, A=A, epsilon=eps, omega=omega,
                       C=C or Preconditioner.identity())
    return Theorem6Recipe(params=params, mu=mu, L=L, Lp=Lp, delta=delta,
                          decay_factor=decay, lambda_bound=mu / 4.0,
                          M_bound=36.0 * max(Lp, 1.0))


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
    converge.
    """
    mus = np.asarray(mus, dtype=float)
    as_arr = np.asarray(as_, dtype=float)
    if mus.shape != as_arr.shape:
        raise ValueError("mus and as_ must have the same length")
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


def assemble_quadratic_system(Q, A, B, gamma: float, eps: float) -> np.ndarray:
    """Dense 2d x 2d generator of the linear (x, p) dynamics on a quadratic:

        [[-gamma B Q A Q,  -B Q (I - gamma eps A)],
         [        A Q,               -eps A      ]]

    ``A`` may be a scalar, a diagonal vector, or a matrix. Used as the test
    oracle for the per-mode rates.
    """
    Q = np.asarray(Q, dtype=float)
    B = np.asarray(B, dtype=float)
    d = Q.shape[0]
    A = np.asarray(A, dtype=float)
    if A.ndim == 0:
        Amat = float(A) * np.eye(d)
    elif A.ndim == 1:
        Amat = np.diag(A)
    else:
        Amat = A
    I = np.eye(d)
    top = np.hstack([-gamma * B @ Q @ Amat @ Q, -B @ Q @ (I - gamma * eps * Amat)])
    bot = np.hstack([Amat @ Q, -eps * Amat])
    return np.vstack([top, bot])


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


def build_N_H(obj: Objective, x, params: PddParams) -> Tuple[np.ndarray, np.ndarray]:
    """One-step update matrix N(x) and its symmetrized energy form H(x).

    (x+, p+) - (x, p) = -tau N(x) (grad f(x), p) with

        N = 1/(1 + sigma eps A) [[C(x)(sigma A + gamma A), C(x)(1 - eps gamma A)],
                                 [   -(sigma/tau) A I,        (sigma/tau) eps A I]]

    where gamma = sigma omega, and H = sym(diag(hess f(x), I) . N). H is
    exactly symmetric by construction.
    """
    x = as_vector(x, obj.dim)
    d = obj.dim
    Cmat = params.C.matrix(x, d)
    Hess = obj.hessian_at(x)
    A, sigma, tau, eps = params.A, params.sigma, params.tau, params.epsilon
    gamma = params.gamma
    eta = sigma / tau
    scale = 1.0 / (1.0 + sigma * eps * A)
    I = np.eye(d)
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
    """Measured per-step Lyapunov ratios, and the values I(x^n, p^n) they
    come from, against the certified bounds."""
    lambda_min_H: float
    M_bound: float
    tau_recipe: float
    decay_factor: float
    per_step_ratios: List[float]
    within_bound: bool
    lyapunov_values: List[float]


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
    within = all(r <= bound for r in ratios)
    return DiscreteRateReport(
        lambda_min_H=recipe.lambda_bound if recipe else math.nan,
        M_bound=recipe.M_bound if recipe else math.nan,
        tau_recipe=recipe.params.tau if recipe else math.nan,
        decay_factor=bound if recipe else math.nan,
        per_step_ratios=ratios,
        within_bound=within,
        lyapunov_values=values,
    )


@dataclass(frozen=True)
class ConstantEstimates:
    """Sampled bounds: mu_hat/L_hat bracket eig(hess f . C), Lp_hat bounds
    C'(d3f . grad f + hess f^2) C over the sample set."""
    mu_hat: float
    L_hat: float
    Lp_hat: float


def sample_D0_lower_bound(obj: Objective, points: Sequence, n_dirs: int = 8,
                          seed: int = 0, h: float = 1e-3) -> float:
    """Sampled lower bound on the supremum of the third-derivative form of
    the Lyapunov functional (the true constant is a global supremum and is
    not computable exactly; for quadratics it is 0).

    For each sample point and unit direction u in (x, p)-space the third
    directional derivative of I is estimated by central differences of
    I along u.
    """
    rng = np.random.default_rng(seed)
    best = 0.0
    d = obj.dim
    for pt in points:
        x = as_vector(pt, d)
        p = rng.standard_normal(d)
        for _ in range(n_dirs):
            u = rng.standard_normal(2 * d)
            u /= np.linalg.norm(u)
            ux, up = u[:d], u[d:]

            def I_at(t):
                return lyapunov_I(obj, x + t * ux, p + t * up)

            third = (I_at(2 * h) - 2.0 * I_at(h)
                     + 2.0 * I_at(-h) - I_at(-2 * h)) / (2.0 * h ** 3)
            best = max(best, third)
    return best


def _c_sqrt(C: Preconditioner, x: np.ndarray,
            dim: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """C(x) and its square root S = C(x)^{1/2} (None for C = I)."""
    Cmat = C.matrix(x, dim)
    if C.kind == "identity":
        return Cmat, None
    w, V = np.linalg.eigh(Cmat)
    if np.any(w <= 0):
        raise ValueError("preconditioner must be positive definite")
    return Cmat, (V * np.sqrt(w)) @ V.T


def estimate_constants(obj: Objective, sample_points: Sequence,
                       C: Optional[Preconditioner] = None,
                       fd_scale: float = 1e-5) -> ConstantEstimates:
    """Estimate the rate constants over a sample of points.

    mu_hat / L_hat are the extreme eigenvalues of hess f(x) C(x) over the
    sample (for C = I this is just the Hessian spectrum). Lp_hat bounds
    C' (d3f . grad f + hess f^2) C, with the third-derivative contraction
    approximated by a central difference of the Hessian along the gradient
    direction. Sampled estimates are lower bounds on the true global
    constants; include any points you intend to certify in the sample.
    A constant C is factored once, a callback C at every point.
    """
    C = C or Preconditioner.identity()
    mu_hat = math.inf
    L_hat = -math.inf
    Lp_hat = -math.inf
    factored = None
    for pt in sample_points:
        x = as_vector(pt, obj.dim)
        if factored is None or not C.is_constant:
            factored = _c_sqrt(C, x, obj.dim)
        Cmat, S = factored
        Hess = obj.hessian_at(x)
        # eigenvalues of hess.C (= hess f . B . hess f); hess.C is similar
        # to S hess S, symmetric for SPD C
        w = np.linalg.eigvalsh(Hess if S is None else S @ Hess @ S)
        mu_hat = min(mu_hat, float(w[0]))
        L_hat = max(L_hat, float(w[-1]))

        v = obj.gradient(x)
        h = fd_scale * (1.0 + np.linalg.norm(x)) / (1.0 + np.linalg.norm(v))
        T = (obj.hessian_at(x + h * v) - obj.hessian_at(x - h * v)) / (2.0 * h)
        M = Cmat.T @ (T + Hess @ Hess) @ Cmat
        M = 0.5 * (M + M.T)
        Lp_hat = max(Lp_hat, float(np.linalg.eigvalsh(M)[-1]))
    return ConstantEstimates(mu_hat=mu_hat, L_hat=L_hat, Lp_hat=Lp_hat)
