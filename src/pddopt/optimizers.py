"""Primal-dual damping iteration and the first-order baselines it is
benchmarked against.

The central update couples a primal iterate x with a constructed dual
variable p:

    p+  = (p + sigma*A*grad f(x)) / (1 + sigma*eps*A)
    pt  = p+ + omega*(p+ - p)
    x+  = x - tau * C(x) pt

with stepsizes tau, sigma, dual preconditioner scale A, regularization
eps, extrapolation omega and primal preconditioner C(x). Each step costs
exactly one gradient evaluation. Baselines: plain gradient descent,
Nesterov's accelerated gradient, the heavy-ball iteration, and the
inertial gradient algorithms with Hessian damping (general and strongly
convex variants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .objective import Objective, as_vector

__all__ = [
    "Preconditioner",
    "PddParams",
    "PddState",
    "TrajectoryRecord",
    "Trajectory",
    "pdd_step",
    "gd_step",
    "nag_step",
    "igahd_step",
    "igahd_sc_step",
    "heavy_ball_step",
    "compute_beta2",
    "compute_nag_beta",
    "run_optimizer",
    "Rule",
    "RULES",
    "validate_method",
]


class Preconditioner:
    """Primal preconditioner C(x).

    Supported kinds: identity, fixed positive diagonal, fixed symmetric
    positive definite dense matrix, or a callback x -> matrix for
    state-dependent preconditioning.
    """

    def __init__(self, kind: str, payload=None):
        if kind not in ("identity", "diagonal", "dense", "callback"):
            raise ValueError(f"unknown preconditioner kind {kind!r}")
        self.kind = kind
        if kind == "diagonal":
            d = as_vector(payload, name="diagonal")
            if np.any(d <= 0):
                raise ValueError("diagonal preconditioner entries must be positive")
            payload = d
        elif kind == "dense":
            M = np.asarray(payload, dtype=float)
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise ValueError("dense preconditioner must be square")
            if np.max(np.abs(M - M.T)) > 1e-12:
                raise ValueError("dense preconditioner must be symmetric")
            try:
                np.linalg.cholesky(M)
            except np.linalg.LinAlgError as exc:
                raise ValueError("dense preconditioner must be positive definite") from exc
            payload = M
        elif kind == "callback" and not callable(payload):
            raise ValueError("callback preconditioner needs a callable")
        self.payload = payload

    @classmethod
    def identity(cls) -> "Preconditioner":
        return cls("identity")

    @classmethod
    def diagonal(cls, d) -> "Preconditioner":
        return cls("diagonal", d)

    @classmethod
    def dense(cls, M) -> "Preconditioner":
        return cls("dense", M)

    @classmethod
    def from_callback(cls, fn: Callable[[np.ndarray], np.ndarray]) -> "Preconditioner":
        return cls("callback", fn)

    @property
    def is_constant(self) -> bool:
        return self.kind != "callback"

    def apply(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """C(x) v."""
        if self.kind == "identity":
            return v
        if self.kind == "diagonal":
            return self.payload * v
        if self.kind == "dense":
            return self.payload @ v
        return np.asarray(self.payload(x), dtype=float) @ v

    def matrix(self, x: np.ndarray, dim: int) -> np.ndarray:
        """Dense representation of C(x)."""
        if self.kind == "identity":
            return np.eye(dim)
        if self.kind == "diagonal":
            return np.diag(self.payload)
        if self.kind == "dense":
            return np.array(self.payload)
        return np.asarray(self.payload(x), dtype=float)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Preconditioner({self.kind})"


@dataclass(frozen=True)
class PddParams:
    """Scalars of the primal-dual damping step plus the preconditioner."""
    tau: float
    sigma: float
    A: float
    epsilon: float
    omega: float
    C: Preconditioner = field(default_factory=Preconditioner.identity)

    def __post_init__(self):
        _check_pdd(self.tau, self.sigma, self.A, self.epsilon, self.omega)

    @property
    def gamma(self) -> float:
        """sigma*omega, the continuous-time extrapolation weight."""
        return self.sigma * self.omega


@dataclass
class PddState:
    x: np.ndarray
    p: np.ndarray
    iter: int = 0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.x.shape != self.p.shape:
            raise ValueError("x and p must have the same shape")
        if self.iter < 0:
            raise ValueError("iter must be nonnegative")


@dataclass(frozen=True)
class TrajectoryRecord:
    iter: int
    f: float
    grad_norm: float
    lyapunov: float
    dist_to_min: Optional[float] = None


@dataclass
class Trajectory:
    """Per-run record of metrics plus the terminal state."""
    method: str
    records: List[TrajectoryRecord] = field(default_factory=list)
    final_x: Optional[np.ndarray] = None
    final_p: Optional[np.ndarray] = None
    diverged: bool = False

    @property
    def iters(self) -> np.ndarray:
        return np.array([r.iter for r in self.records], dtype=int)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records], dtype=float)


# ---------------------------------------------------------------------------
# hyperparameter range checks; each takes its rule's hyperparameters by name
# ---------------------------------------------------------------------------

def _check_tau(tau) -> None:
    if not tau > 0:
        raise ValueError("tau must be positive")


def _check_momentum(tau, beta) -> None:
    _check_tau(tau)
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")


def _check_igahd(tau, alpha, beta1) -> None:
    _check_tau(tau)
    if not 0.0 <= beta1 <= 2.0 * math.sqrt(tau):
        raise ValueError("beta1 must lie in [0, 2 sqrt(tau)]")


def _check_igahd_sc(tau, m1, beta2) -> None:
    if not (m1 > 0 and tau > 0):
        raise ValueError("m1 and tau must be positive")
    if not beta2 <= 1.0 / math.sqrt(m1) + 1e-15:
        raise ValueError("beta2 must not exceed 1/sqrt(m1)")


def _check_pdd(tau, sigma, A, epsilon, omega, C=None) -> None:
    if not (tau > 0 and sigma > 0 and A > 0 and epsilon >= 0 and omega >= 0):
        raise ValueError("need tau, sigma, A > 0 and epsilon, omega >= 0")
    if C is not None and not isinstance(C, Preconditioner):
        raise ValueError("C must be a Preconditioner")


# ---------------------------------------------------------------------------
# update formulas, unchecked; g = grad f(x)
# ---------------------------------------------------------------------------

def _pdd_update(x, p, g, tau, sigma, A, epsilon, omega,
                C: Optional[Preconditioner]) -> Tuple[np.ndarray, np.ndarray]:
    """Damping update, C = None for C = I; returns (x+, p+)."""
    p_new = (p + (sigma * A) * g) / (1.0 + sigma * epsilon * A)
    p_tilde = p_new + omega * (p_new - p)
    return x - tau * (p_tilde if C is None else C.apply(x, p_tilde)), p_new


def _gd_update(x, g, tau) -> np.ndarray:
    return x - tau * g


def _nag_update(x, g, y_prev, y_prev2, tau, beta) -> Tuple[np.ndarray, np.ndarray]:
    y_new = x - tau * g
    return y_new + beta * (y_prev - y_prev2), y_new


def _heavy_ball_update(x, g, x_prev, tau, beta) -> np.ndarray:
    return x - tau * g + beta * (x - x_prev)


def _igahd_update(x, g, x_prev, g_prev, n, tau, alpha, beta1, obj) -> np.ndarray:
    st = math.sqrt(tau)
    a_n = 1.0 - alpha / n
    y = x + a_n * (x - x_prev) - beta1 * st * (g - g_prev) - (beta1 * st / n) * g_prev
    return y - tau * obj.gradient(y)


def _igahd_sc_update(x, g, x_prev, g_prev, m1, tau, beta2) -> np.ndarray:
    smt = math.sqrt(m1 * tau)
    r = (1.0 - smt) / (1.0 + smt)
    s = 1.0 + smt
    return (x + r * (x - x_prev)
            - (beta2 * math.sqrt(tau) / s) * (g - g_prev)
            - (tau / s) * g)


# ---------------------------------------------------------------------------
# single steps: check the hyperparameters, then apply the formula
# ---------------------------------------------------------------------------

def pdd_step(state: PddState, params: PddParams, obj: Objective,
             grad: Optional[np.ndarray] = None) -> PddState:
    """One primal-dual damping update; evaluates the gradient once unless a
    precomputed ``grad`` at ``state.x`` is supplied."""
    g = obj.gradient(state.x) if grad is None else grad
    x_new, p_new = _pdd_update(state.x, state.p, g, params.tau, params.sigma,
                               params.A, params.epsilon, params.omega, params.C)
    return PddState(x=x_new, p=p_new, iter=state.iter + 1)


def gd_step(x: np.ndarray, tau: float, obj: Objective,
            grad: Optional[np.ndarray] = None) -> np.ndarray:
    """Plain gradient descent: x+ = x - tau grad f(x)."""
    _check_tau(tau)
    g = obj.gradient(x) if grad is None else grad
    return _gd_update(x, g, tau)


def nag_step(x: np.ndarray, y_prev: np.ndarray, y_prev2: np.ndarray,
             tau: float, beta: float, obj: Objective,
             grad: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Nesterov accelerated gradient: y+ = x - tau grad f(x),
    x+ = y+ + beta (y_prev - y_prev2). Returns (x+, y+)."""
    _check_momentum(tau, beta)
    g = obj.gradient(x) if grad is None else grad
    return _nag_update(x, g, y_prev, y_prev2, tau, beta)


def igahd_step(x: np.ndarray, x_prev: np.ndarray, g_prev: np.ndarray,
               n: int, tau: float, alpha: float, beta1: float, obj: Objective,
               grad: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Inertial gradient step with Hessian-driven damping.

    y = x + (1 - alpha/n)(x - x_prev) - beta1 sqrt(tau) (g - g_prev)
          - (beta1 sqrt(tau) / n) g_prev
    x+ = y - tau grad f(y)

    Two gradient evaluations per call (at x, reused as next g_prev, and at
    y). Returns (x+, g) with g = grad f(x).
    """
    if n < 1:
        raise ValueError("iteration counter n must be >= 1")
    _check_igahd(tau, alpha, beta1)
    g = obj.gradient(x) if grad is None else grad
    return _igahd_update(x, g, x_prev, g_prev, n, tau, alpha, beta1, obj), g


def igahd_sc_step(x: np.ndarray, x_prev: np.ndarray, g_prev: np.ndarray,
                  m1: float, tau: float, beta2: float, obj: Objective,
                  grad: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Strongly convex variant of the Hessian-damped inertial step.

    With r = (1 - sqrt(m1 tau)) / (1 + sqrt(m1 tau)) and
    s = 1 + sqrt(m1 tau):

    x+ = x + r (x - x_prev) - (beta2 sqrt(tau)/s)(grad f(x) - g_prev)
           - (tau/s) grad f(x)

    One gradient evaluation per call. Returns (x+, g) with g = grad f(x).
    """
    _check_igahd_sc(tau, m1, beta2)
    g = obj.gradient(x) if grad is None else grad
    return _igahd_sc_update(x, g, x_prev, g_prev, m1, tau, beta2), g


def heavy_ball_step(x: np.ndarray, x_prev: np.ndarray, tau: float, beta: float,
                    obj: Objective, grad: Optional[np.ndarray] = None) -> np.ndarray:
    """Discrete heavy-ball iteration x+ = x - tau grad f(x) + beta (x - x_prev)."""
    _check_momentum(tau, beta)
    g = obj.gradient(x) if grad is None else grad
    return _heavy_ball_update(x, g, x_prev, tau, beta)


def compute_nag_beta(kappa: float) -> float:
    """Momentum weight (sqrt(3k+1) - 2) / (sqrt(3k+1) + 2) for condition
    number k, slightly below the optimum for a pure quadratic."""
    if kappa <= 1.0:
        raise ValueError("kappa must exceed 1")
    s = math.sqrt(3.0 * kappa + 1.0)
    return (s - 2.0) / (s + 2.0)


def compute_beta2(m1: float, tau: float) -> float:
    """Damping coefficient for the strongly convex inertial method.

    beta2 = (sqrt(tau) + tau sqrt(m1)/2) / (4 + 8 sqrt(m1 tau) - 2 m1 tau),
    the solution of the stepsize balancing equation
    sqrt(m1)/(8 b) = (sqrt(m1)/(2 tau) + m1/sqrt(tau)) /
    (2 b m1 + 1/sqrt(tau) + sqrt(m1)/2).
    """
    if m1 <= 0 or tau <= 0:
        raise ValueError("m1 and tau must be positive")
    denom = 4.0 + 8.0 * math.sqrt(m1 * tau) - 2.0 * m1 * tau
    if denom <= 0:
        raise ValueError("balancing denominator is not positive")
    return (math.sqrt(tau) + tau * math.sqrt(m1) / 2.0) / denom


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """An update rule as an init/update pair, after optax's
    GradientTransformation (https://github.com/google-deepmind/optax):
    ``init(x0) -> state`` and ``step(x, g, state, hp, obj) -> (x+, state)``
    with g = grad f(x); only igahd calls ``obj.gradient`` again. ``params``
    and ``optional`` are the required and allowed extra keys of ``hp``, and
    ``check(**hp)`` raises ``ValueError`` for an out-of-range value.
    ``step`` checks nothing: it assumes hyperparameters that ``validate``
    has already accepted once per run (`validate_method`, `toynet.train`)."""
    params: Tuple[str, ...]
    init: Callable[[np.ndarray], dict]
    step: Callable[..., Tuple[np.ndarray, dict]]
    check: Callable[..., None]
    optional: Tuple[str, ...] = ()

    def validate(self, method: str, hp: dict) -> None:
        """Check the names, types and ranges of ``method``'s hyperparameters."""
        missing = [k for k in self.params if k not in hp]
        if missing:
            raise ValueError(f"{method}: missing parameters {missing}")
        allowed = set(self.params) | set(self.optional)
        extra = [k for k in hp if k not in allowed]
        if extra:
            raise ValueError(f"{method}: unknown parameters {extra}")
        for k in self.params:
            v = hp[k]
            if not isinstance(v, (int, float)) or isinstance(v, bool) \
                    or not math.isfinite(v):
                raise ValueError(f"{method}: parameter {k!r} must be a finite number")
        try:
            self.check(**hp)
        except ValueError as exc:
            raise ValueError(f"{method}: {exc}") from None


def _pdd_rule_step(x, g, s, hp, obj):
    x_new, p = _pdd_update(x, s["p"], g, hp["tau"], hp["sigma"], hp["A"],
                           hp["epsilon"], hp["omega"], hp.get("C"))
    return x_new, {"p": p}


def _nag_rule_step(x, g, s, hp, obj):
    x_new, y = _nag_update(x, g, s["y_prev"], s["y_prev2"], hp["tau"], hp["beta"])
    return x_new, {"y_prev": y, "y_prev2": s["y_prev"]}


def _igahd_rule_step(x, g, s, hp, obj):
    g_prev = g if s["g_prev"] is None else s["g_prev"]
    x_new = _igahd_update(x, g, s["x_prev"], g_prev, s["n"], hp["tau"],
                          hp["alpha"], hp["beta1"], obj)
    return x_new, {"x_prev": x, "g_prev": g, "n": s["n"] + 1}


def _igahd_sc_rule_step(x, g, s, hp, obj):
    g_prev = g if s["g_prev"] is None else s["g_prev"]
    x_new = _igahd_sc_update(x, g, s["x_prev"], g_prev, hp["m1"], hp["tau"],
                             hp["beta2"])
    return x_new, {"x_prev": x, "g_prev": g}


# method name -> its update rule; igahd's counter n starts at 1 to keep
# alpha/n finite, and the g_prev of both igahd variants starts as the first g
RULES = {
    "gd": Rule(("tau",), lambda x0: {},
               lambda x, g, s, hp, obj: (_gd_update(x, g, hp["tau"]), s),
               _check_tau),
    "nag": Rule(("tau", "beta"),
                lambda x0: {"y_prev": x0.copy(), "y_prev2": x0.copy()},
                _nag_rule_step, _check_momentum),
    "heavy_ball": Rule(
        ("tau", "beta"), lambda x0: {"x_prev": x0.copy()},
        lambda x, g, s, hp, obj: (
            _heavy_ball_update(x, g, s["x_prev"], hp["tau"], hp["beta"]),
            {"x_prev": x}),
        _check_momentum),
    "igahd": Rule(("tau", "alpha", "beta1"),
                  lambda x0: {"x_prev": x0.copy(), "g_prev": None, "n": 1},
                  _igahd_rule_step, _check_igahd),
    "igahd_sc": Rule(("tau", "m1", "beta2"),
                     lambda x0: {"x_prev": x0.copy(), "g_prev": None},
                     _igahd_sc_rule_step, _check_igahd_sc),
    "pdd": Rule(("tau", "sigma", "A", "epsilon", "omega"),
                lambda x0: {"p": np.zeros_like(x0)}, _pdd_rule_step, _check_pdd,
                optional=("C",)),
}


def validate_method(method: str, params: dict) -> None:
    """Check a method name and its hyperparameters (names, types and
    ranges) against its rule."""
    if method not in RULES:
        raise ValueError(f"unknown optimizer method {method!r}")
    RULES[method].validate(method, params)


def run_optimizer(obj: Objective, method: str, params: dict, x0,
                  max_iter: int, grad_tol: float = 0.0,
                  record_every: int = 1, p0=None,
                  label: Optional[str] = None) -> Trajectory:
    """Iterate one optimizer until the gradient norm drops to ``grad_tol``,
    ``max_iter`` is reached, or the run diverges.

    The hyperparameters are checked once, before the first step. Metrics are
    recorded every ``record_every`` iterations plus at the final iterate;
    divergence (any non-finite value, gradient, or iterate) sets a flag on
    the trajectory instead of raising, so a benchmark batch survives
    unstable hyperparameters. The dual of the pdd method starts at zero
    unless ``p0`` is given. Identical inputs always produce identical
    trajectories.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if grad_tol < 0:
        raise ValueError("grad_tol must be nonnegative")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    validate_method(method, params)
    rule = RULES[method]

    x = as_vector(x0, obj.dim, "x0")
    traj = Trajectory(method=label or method)
    state = rule.init(x)
    if p0 is not None and "p" in state:
        state["p"] = as_vector(p0, obj.dim, "p0")

    xstar = obj.minimizer

    def record(it: int, xc: np.ndarray, gc: np.ndarray) -> float:
        fval = obj.value(xc)
        gn = float(np.linalg.norm(gc))
        p = state.get("p")
        lyap = 0.5 * gn * gn if p is None else 0.5 * (float(p @ p) + gn * gn)
        dist = float(np.linalg.norm(xc - xstar)) if xstar is not None else None
        traj.records.append(TrajectoryRecord(it, fval, gn, lyap, dist))
        return fval

    it = 0
    gtol2 = grad_tol * grad_tol
    with np.errstate(all="ignore"):  # divergent runs must not spam warnings
        g = obj.gradient(x)
        while True:
            gn2 = float(g @ g)
            if not (math.isfinite(gn2) and np.isfinite(x).all()):
                traj.diverged = True
                record(it, x, g)
                break
            if it % record_every == 0 and not math.isfinite(record(it, x, g)):
                traj.diverged = True
                break
            if gn2 <= gtol2 or it >= max_iter:
                if it % record_every != 0:
                    record(it, x, g)
                break
            x, state = rule.step(x, g, state, params, obj)
            it += 1
            g = obj.gradient(x)

    traj.final_x = x.copy()
    traj.final_p = state["p"].copy() if "p" in state else None
    return traj
