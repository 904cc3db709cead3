"""Primal-dual damping iteration and the first-order baselines it is
benchmarked against.

The central update couples a primal iterate x with a constructed dual
variable p:

    p+  = (p + sigma*A*grad f(x)) / (1 + sigma*eps*A)
    pt  = p+ + omega*(p+ - p)
    x+  = x - tau * C(x) pt

with stepsizes tau, sigma, dual preconditioner scale A, regularization
eps, extrapolation omega and primal preconditioner C(x); one gradient
evaluation per step. Baselines: gradient descent, Nesterov's accelerated
gradient, heavy ball, and the inertial gradient algorithms with Hessian
damping (general and strongly convex). Each method is one entry of
`RULES`, a range check plus an init/step pair that `run_optimizer` drives;
`pdd_step` applies the damping update to a `PddState`.

Above `objective._STRIP` = 16384 entries, `run_optimizer` steps gd, nag,
pdd without C and igahd through a strip-fused twin of the rule's step (see
`Rule`): a whole-array step streams a fresh 8 MB temporary through DRAM per
numpy operation at d = 1e6. Up to 16384 entries it calls the rule's step,
because at the presets' d <= 100 every design that sent small vectors
through new code (`out=` writes, a kernel-plus-helper split, a strip loop
at every size) made them slower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import objective
from .objective import Objective, as_vector

__all__ = [
    "Preconditioner",
    "PddParams",
    "PddState",
    "TrajectoryRecord",
    "Trajectory",
    "pdd_step",
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
# update rules: each method is a range check plus an init/step pair in RULES
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """A method as an init/update pair, after optax's GradientTransformation
    (https://github.com/google-deepmind/optax): ``init(x0) -> state`` and
    ``step(x, g, state, hp, grad) -> (x+, state)`` with g = grad f(x) and
    ``grad`` the gradient as a callable (``obj.gradient``, or toynet's batch
    gradient); only igahd calls ``grad`` again. ``step`` is the one copy of
    the method's formula (pdd's is `_pdd_update`, shared with `pdd_step`)
    and checks nothing; ``validate`` checks ``hp`` once per run: its keys
    against ``params`` (required) and ``optional``, its ranges with
    ``check(**hp)``, which raises ``ValueError``.

    A rule may also carry a strip-fused step for vectors longer than
    `objective._STRIP` entries, which `start` selects: ``strip_init(x0, hp)``
    returns its state, or None where ``hp`` needs the whole-array step, and
    ``strip_step`` has ``step``'s signature. It runs the whole formula on
    one strip of `objective._STRIP` entries at a time, in ``step``'s
    operation order, so its working set stays in L2 and its result is
    bitwise equal to ``step``'s on finite data. It writes only into buffers
    its state allocated once per run, never into x, g or the caller's x0;
    x+ alternates between two of them, because `run_optimizer` hands it
    back as the next x. A nan's sign or payload is not part of a rule's
    contract: numpy picks which nan operand an add returns by the entry's
    place in its SIMD loop."""
    params: Tuple[str, ...]
    init: Callable[[np.ndarray], dict]
    step: Callable[..., Tuple[np.ndarray, dict]]
    check: Callable[..., None]
    optional: Tuple[str, ...] = ()
    strip_init: Optional[Callable[[np.ndarray, dict], Optional[dict]]] = None
    strip_step: Optional[Callable[..., Tuple[np.ndarray, dict]]] = None

    def start(self, x0: np.ndarray, hp: dict):
        """(state, step) for a run from ``x0``: the strip-fused step above
        `objective._STRIP` entries where the rule has one for ``hp``, else
        ``init`` and ``step``."""
        if len(x0) > objective._STRIP and self.strip_init is not None:
            state = self.strip_init(x0, hp)
            if state is not None:
                return state, self.strip_step
        return self.init(x0), self.step

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


def _check_tau(tau) -> None:
    if not tau > 0:
        raise ValueError("tau must be positive")


def _gd_step(x, g, s, hp, grad):
    """Plain gradient descent: x+ = x - tau grad f(x)."""
    return x - hp["tau"] * g, s


def _check_momentum(tau, beta) -> None:
    _check_tau(tau)
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")


def _nag_step(x, g, s, hp, grad):
    """Nesterov accelerated gradient: y+ = x - tau grad f(x),
    x+ = y+ + beta (y_prev - y_prev2)."""
    y_new = x - hp["tau"] * g
    return (y_new + hp["beta"] * (s["y_prev"] - s["y_prev2"]),
            {"y_prev": y_new, "y_prev2": s["y_prev"]})


def _heavy_ball_step(x, g, s, hp, grad):
    """Discrete heavy-ball iteration x+ = x - tau grad f(x) + beta (x - x_prev)."""
    return x - hp["tau"] * g + hp["beta"] * (x - s["x_prev"]), {"x_prev": x}


def _check_igahd(tau, alpha, beta1) -> None:
    _check_tau(tau)
    if not 0.0 <= beta1 <= 2.0 * math.sqrt(tau):
        raise ValueError("beta1 must lie in [0, 2 sqrt(tau)]")


def _igahd_step(x, g, s, hp, grad):
    """Inertial gradient step with Hessian-driven damping; two gradients per
    step, g = grad f(x) (the next g_prev) and grad f(y):

    y = x + (1 - alpha/n)(x - x_prev) - beta1 sqrt(tau) (g - g_prev)
          - (beta1 sqrt(tau) / n) g_prev
    x+ = y - tau grad f(y)
    """
    tau, beta1, n = hp["tau"], hp["beta1"], s["n"]
    g_prev = g if s["g_prev"] is None else s["g_prev"]
    st = math.sqrt(tau)
    a_n = 1.0 - hp["alpha"] / n
    y = (x + a_n * (x - s["x_prev"]) - beta1 * st * (g - g_prev)
         - (beta1 * st / n) * g_prev)
    return y - tau * grad(y), {"x_prev": x, "g_prev": g, "n": n + 1}


def _check_igahd_sc(tau, m1, beta2) -> None:
    if not (m1 > 0 and tau > 0):
        raise ValueError("m1 and tau must be positive")
    if not beta2 <= 1.0 / math.sqrt(m1) + 1e-15:
        raise ValueError("beta2 must not exceed 1/sqrt(m1)")


def _igahd_sc_step(x, g, s, hp, grad):
    """Strongly convex variant of the Hessian-damped inertial step, with
    r = (1 - sqrt(m1 tau)) / (1 + sqrt(m1 tau)) and s = 1 + sqrt(m1 tau):

    x+ = x + r (x - x_prev) - (beta2 sqrt(tau)/s)(grad f(x) - g_prev)
           - (tau/s) grad f(x)
    """
    g_prev = g if s["g_prev"] is None else s["g_prev"]
    smt = math.sqrt(hp["m1"] * hp["tau"])
    r = (1.0 - smt) / (1.0 + smt)
    sc = 1.0 + smt
    return (x + r * (x - s["x_prev"])
            - (hp["beta2"] * math.sqrt(hp["tau"]) / sc) * (g - g_prev)
            - (hp["tau"] / sc) * g), {"x_prev": x, "g_prev": g}


def _check_pdd(tau, sigma, A, epsilon, omega, C=None) -> None:
    if not (tau > 0 and sigma > 0 and A > 0 and epsilon >= 0 and omega >= 0):
        raise ValueError("need tau, sigma, A > 0 and epsilon, omega >= 0")
    if C is not None and not isinstance(C, Preconditioner):
        raise ValueError("C must be a Preconditioner")


def _pdd_update(x, p, g, tau, sigma, A, epsilon, omega,
                C: Optional[Preconditioner]) -> Tuple[np.ndarray, np.ndarray]:
    """Damping update, C = None for C = I; returns (x+, p+)."""
    p_new = (p + (sigma * A) * g) / (1.0 + sigma * epsilon * A)
    p_tilde = p_new + omega * (p_new - p)
    return x - tau * (p_tilde if C is None else C.apply(x, p_tilde)), p_new


def pdd_step(state: PddState, params: PddParams, obj: Objective,
             grad: Optional[np.ndarray] = None) -> PddState:
    """One primal-dual damping update; evaluates the gradient once unless a
    precomputed ``grad`` at ``state.x`` is supplied."""
    g = obj.gradient(state.x) if grad is None else grad
    x_new, p_new = _pdd_update(state.x, state.p, g, params.tau, params.sigma,
                               params.A, params.epsilon, params.omega, params.C)
    return PddState(x=x_new, p=p_new, iter=state.iter + 1)


def _pdd_rule_step(x, g, s, hp, grad):
    x_new, p = _pdd_update(x, s["p"], g, hp["tau"], hp["sigma"], hp["A"],
                           hp["epsilon"], hp["omega"], hp.get("C"))
    return x_new, {"p": p}


# -- strip-fused steps: each is its whole-array twin above, strip by strip,
# with the strip of x+ as scratch until its last write ------------------------

def _strips(n: int) -> list:
    """Slices of `objective._STRIP` entries covering range(n)."""
    size = objective._STRIP
    return [slice(lo, lo + size) for lo in range(0, n, size)]


def _strips_with_scratch(n: int) -> list:
    """``(slice, t)`` for each of `_strips(n)`, t a scratch vector of the
    strip's length; all share one allocation."""
    t = np.empty(min(n, objective._STRIP))
    return [(i, t[:min(i.stop, n) - i.start]) for i in _strips(n)]


def _out_pair(x0: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    return np.empty_like(x0), np.empty_like(x0)


def _spare(pair: Tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    """The buffer of ``pair`` that does not hold ``x``: x+ alternates
    between the two, and `run_optimizer` hands it back as the next x."""
    return pair[1] if x is pair[0] else pair[0]


def _gd_strip_step(x, g, s, hp, grad):
    out, tau = _spare(s["out"], x), hp["tau"]
    for i in s["strips"]:
        o = out[i]
        np.multiply(tau, g[i], o)
        np.subtract(x[i], o, o)
    return out, s


def _nag_strip_step(x, g, s, hp, grad):
    # y+ overwrites y_prev2 strip by strip, after the strip's last read of it
    out, tau, beta = _spare(s["out"], x), hp["tau"], hp["beta"]
    y_prev, y_new = s["y_prev"], s["y_prev2"]
    for i in s["strips"]:
        o, y = out[i], y_new[i]
        np.subtract(y_prev[i], y, o)
        np.multiply(beta, o, o)
        np.multiply(tau, g[i], y)
        np.subtract(x[i], y, y)
        np.add(y, o, o)
    s["y_prev"], s["y_prev2"] = y_new, y_prev
    return out, s


def _pdd_strip_init(x0, hp):
    if hp.get("C") is not None:
        return None
    return {"p": np.zeros_like(x0), "out": _out_pair(x0),
            "strips": _strips_with_scratch(len(x0))}


def _pdd_strip_step(x, g, s, hp, grad):
    # p+ overwrites p strip by strip, after the strip's last read of p
    out, p, tau, omega = _spare(s["out"], x), s["p"], hp["tau"], hp["omega"]
    sA = hp["sigma"] * hp["A"]
    den = 1.0 + hp["sigma"] * hp["epsilon"] * hp["A"]
    for i, p_new in s["strips"]:
        o, p_i = out[i], p[i]
        np.multiply(sA, g[i], p_new)
        np.add(p_i, p_new, p_new)
        np.divide(p_new, den, p_new)
        np.subtract(p_new, p_i, o)
        np.multiply(omega, o, o)
        np.add(p_new, o, o)
        np.multiply(tau, o, o)
        np.subtract(x[i], o, o)
        p_i[...] = p_new
    return out, s


def _igahd_strip_init(x0, hp):
    out = (x0.copy(), np.empty_like(x0))
    return {"x_prev": out[0], "g_prev": None, "n": 1, "out": out,
            "strips": _strips_with_scratch(len(x0))}


def _igahd_strip_step(x, g, s, hp, grad):
    # y goes into the spare buffer, x_prev's own on every step but the
    # second; each strip reads x_prev before writing y, and x+ overwrites y
    tau, n, x_prev = hp["tau"], s["n"], s["x_prev"]
    g_prev = g if s["g_prev"] is None else s["g_prev"]
    b = hp["beta1"] * math.sqrt(tau)
    a_n, b_n = 1.0 - hp["alpha"] / n, b / n
    y = _spare(s["out"], x)
    for i, t in s["strips"]:
        y_i = y[i]
        np.subtract(x[i], x_prev[i], y_i)
        np.multiply(a_n, y_i, y_i)
        np.add(x[i], y_i, y_i)
        np.subtract(g[i], g_prev[i], t)
        np.multiply(b, t, t)
        np.subtract(y_i, t, y_i)
        np.multiply(b_n, g_prev[i], t)
        np.subtract(y_i, t, y_i)
    g_y = grad(y)
    for i, t in s["strips"]:
        y_i = y[i]
        np.multiply(tau, g_y[i], t)
        np.subtract(y_i, t, y_i)
    s["x_prev"], s["g_prev"], s["n"] = x, g, n + 1
    return y, s


# method name -> its update rule; igahd's counter n starts at 1 to keep
# alpha/n finite, and the g_prev of both igahd variants starts as the first g
RULES = {
    "gd": Rule(("tau",), lambda x0: {}, _gd_step, _check_tau,
               strip_init=lambda x0, hp: {"out": _out_pair(x0),
                                          "strips": _strips(len(x0))},
               strip_step=_gd_strip_step),
    "nag": Rule(("tau", "beta"),
                lambda x0: {"y_prev": x0.copy(), "y_prev2": x0.copy()},
                _nag_step, _check_momentum,
                strip_init=lambda x0, hp: {
                    "y_prev": x0.copy(), "y_prev2": x0.copy(),
                    "out": _out_pair(x0), "strips": _strips(len(x0))},
                strip_step=_nag_strip_step),
    "heavy_ball": Rule(("tau", "beta"), lambda x0: {"x_prev": x0.copy()},
                       _heavy_ball_step, _check_momentum),
    "igahd": Rule(("tau", "alpha", "beta1"),
                  lambda x0: {"x_prev": x0.copy(), "g_prev": None, "n": 1},
                  _igahd_step, _check_igahd,
                  strip_init=_igahd_strip_init, strip_step=_igahd_strip_step),
    "igahd_sc": Rule(("tau", "m1", "beta2"),
                     lambda x0: {"x_prev": x0.copy(), "g_prev": None},
                     _igahd_sc_step, _check_igahd_sc),
    "pdd": Rule(("tau", "sigma", "A", "epsilon", "omega"),
                lambda x0: {"p": np.zeros_like(x0)}, _pdd_rule_step, _check_pdd,
                optional=("C",), strip_init=_pdd_strip_init,
                strip_step=_pdd_strip_step),
}


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
    if not grad_tol >= 0:  # also rejects nan, which never converges
        raise ValueError("grad_tol must be nonnegative")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    validate_method(method, params)
    rule = RULES[method]

    x = as_vector(x0, obj.dim, "x0")
    traj = Trajectory(method=label or method)
    state, step = rule.start(x, params)
    if p0 is not None and "p" in state:
        state["p"][...] = as_vector(p0, obj.dim, "p0")  # the caller keeps p0

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
    gradient = obj.gradient
    # x . 0 is +-0 while x is finite and nan once an entry is inf or nan,
    # so one finiteness test covers both the gradient and the iterate
    zero = np.zeros(obj.dim)
    with np.errstate(all="ignore"):  # divergent runs must not spam warnings
        g = gradient(x)
        while True:
            gn2 = float(g.dot(g))
            if not math.isfinite(gn2 + x.dot(zero)):
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
            x, state = step(x, g, state, params, gradient)
            it += 1
            g = gradient(x)

    traj.final_x = x.copy()
    traj.final_p = state["p"].copy() if "p" in state else None
    return traj
