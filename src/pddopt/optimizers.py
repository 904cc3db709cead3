"""Primal-dual damping iteration and the first-order baselines it is
benchmarked against.

The central update couples a primal iterate x with a constructed dual
variable p:

    p+  = (p + sigma*A*grad f(x)) / (1 + sigma*eps*A)
    pt  = p+ + omega*(p+ - p)
    x+  = x - tau * C pt

with stepsizes tau, sigma, dual preconditioner scale A, regularization
eps, extrapolation omega and primal preconditioner C; one gradient
evaluation per step. C is a positive diagonal held as the vector of its
entries (see `as_preconditioner`), so C pt is an elementwise product, and
None is C = I. Baselines: gradient descent, Nesterov's accelerated gradient,
heavy ball, and the inertial gradient algorithms with Hessian damping
(general and strongly convex). Each method is one entry of `RULES`: a
`Key` per hyperparameter, which a config's optimizer params are checked
against too, plus an init/step pair that `run_optimizer` drives; pdd's
step is `pdd_step`, which `analyze` and the consistency probe call on plain
arrays too.

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
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import objective
from .objective import Key, Objective, as_vector, check_keys

__all__ = [
    "as_preconditioner",
    "TrajectoryRecord",
    "Trajectory",
    "pdd_step",
    "lyapunov_value",
    "compute_beta2",
    "compute_nag_beta",
    "run_optimizer",
    "Rule",
    "RULES",
    "validate_method",
]


def as_preconditioner(C, dim: Optional[int] = None) -> np.ndarray:
    """pdd's primal preconditioner C, a positive diagonal, as a float64
    vector: 1-d, finite, every entry > 0 and, where ``dim`` is given, of
    length ``dim``. C = I is no vector: every caller takes ``None`` as I."""
    try:
        v = np.asarray(C, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"C must be a vector of positive reals, got {C!r}") from None
    v = as_vector(v, dim, "C")
    if not np.all(v > 0):
        raise ValueError("C: diagonal preconditioner entries must be positive")
    return v


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
# update rules: each method is its hyperparameters' Keys plus an init/step
# pair in RULES
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """A method as an init/update pair, after optax's GradientTransformation
    (https://github.com/google-deepmind/optax): ``init(x0) -> state`` and
    ``step(x, g, state, hp, grad) -> (x+, state)`` with g = grad f(x) and
    ``grad`` the gradient as a callable (``obj.gradient``, or toynet's batch
    gradient); only igahd calls ``grad`` again. ``step`` is the one copy of
    the method's formula (pdd's is `pdd_step`, which `cli.cmd_analyze` and
    `dynamics.discrete_continuous_consistency` call directly) and checks
    nothing; ``validate`` checks ``hp`` once per run: its names, kinds and
    ranges against ``params``, a `Key` per hyperparameter, with
    `objective.check_keys`, then, where the rule has one, ``check(hp)``, a
    condition that relates two of them. Both raise ``ValueError``.

    A rule may also carry a strip-fused twin of ``step``, ``strip_step``,
    with ``step``'s signature, which `start` selects for vectors longer than
    `objective._STRIP` entries when ``hp`` has no C (no twin scales by C).
    Its state is ``init(x0)`` plus two x+ buffers, "out", and "strips", a
    ``(slice, scratch)`` pair per strip of `objective._STRIP` entries. It
    runs the whole formula one strip at a time, in ``step``'s operation
    order, so its working set stays in L2 and its result is bitwise equal
    to ``step``'s on finite data. It writes only into its state's arrays,
    never into x, g or the caller's x0; x+ alternates between the two "out"
    buffers, because `run_optimizer` hands it back as the next x. A nan's
    sign or payload is not part of a rule's contract: numpy picks which nan
    operand an add returns by the entry's place in its SIMD loop."""
    params: Dict[str, Key]
    init: Callable[[np.ndarray], dict]
    step: Callable[..., Tuple[np.ndarray, dict]]
    check: Optional[Callable[[dict], None]] = None
    strip_step: Optional[Callable[..., Tuple[np.ndarray, dict]]] = None

    def start(self, x0: np.ndarray, hp: dict):
        """(state, step) for a run from ``x0``: the strip-fused step above
        `objective._STRIP` entries where the rule has one for ``hp``, else
        ``init`` and ``step``."""
        state, n, size = self.init(x0), len(x0), objective._STRIP
        if n <= size or self.strip_step is None or hp.get("C") is not None:
            return state, self.step
        # x+ buffers before the scratch: the other order ran large-d 1.1x
        # slower on a 2-vCPU host, through glibc's heap layout, not more work
        state["out"] = np.empty_like(x0), np.empty_like(x0)
        t = np.empty(size)  # one scratch vector, shared by the strips
        state["strips"] = [(slice(lo, lo + size), t[:min(size, n - lo)])
                           for lo in range(0, n, size)]
        return state, self.strip_step

    def validate(self, method: str, hp: dict) -> None:
        """Check the names, kinds and ranges of ``method``'s hyperparameters."""
        check_keys(self.params, hp, method)
        if self.check is not None:
            try:
                self.check(hp)
            except ValueError as exc:
                raise ValueError(f"{method}: {exc}") from None


def _gd_step(x, g, s, hp, grad):
    """Plain gradient descent: x+ = x - tau grad f(x)."""
    return x - hp["tau"] * g, s


def _nag_step(x, g, s, hp, grad):
    """Nesterov accelerated gradient: y+ = x - tau grad f(x),
    x+ = y+ + beta (y_prev - y_prev2)."""
    y_new = x - hp["tau"] * g
    return (y_new + hp["beta"] * (s["y_prev"] - s["y_prev2"]),
            {"y_prev": y_new, "y_prev2": s["y_prev"]})


def _heavy_ball_step(x, g, s, hp, grad):
    """Discrete heavy-ball iteration x+ = x - tau grad f(x) + beta (x - x_prev)."""
    return x - hp["tau"] * g + hp["beta"] * (x - s["x_prev"]), {"x_prev": x}


def _check_igahd(hp) -> None:
    if not hp["beta1"] <= 2.0 * math.sqrt(hp["tau"]):
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


def _check_igahd_sc(hp) -> None:
    if not hp["beta2"] <= 1.0 / math.sqrt(hp["m1"]) + 1e-15:
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


def _check_pdd(hp) -> None:
    if hp.get("C") is not None:
        as_preconditioner(hp["C"])


def pdd_step(x, g, s, hp, grad=None):
    """Primal-dual damping, with g = grad f(x) and C the positive diagonal
    ``hp["C"]``, or I where ``hp`` has no "C" (or C = None):

    p+ = (p + sigma A g) / (1 + sigma eps A),  pt = p+ + omega (p+ - p),
    x+ = x - tau C pt
    """
    p, sigma, A = s["p"], hp["sigma"], hp["A"]
    p_new = (p + (sigma * A) * g) / (1.0 + sigma * hp["epsilon"] * A)
    p_tilde = p_new + hp["omega"] * (p_new - p)
    C = hp.get("C")
    return (x - hp["tau"] * (p_tilde if C is None else C * p_tilde),
            {"p": p_new})


def lyapunov_value(p: np.ndarray, gg: float) -> float:
    """I(x, p) = (|p|^2 + |grad f(x)|^2) / 2, given gg = |grad f(x)|^2."""
    return 0.5 * (float(p @ p) + gg)


# -- strip-fused steps: each is its whole-array twin above, strip by strip,
# with the strip of x+ as scratch until its last write ------------------------

def _spare(pair: Tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    """The buffer of ``pair`` that does not hold ``x``: x+ alternates
    between the two, and `run_optimizer` hands it back as the next x."""
    return pair[1] if x is pair[0] else pair[0]


def _gd_strip_step(x, g, s, hp, grad):
    out, tau = _spare(s["out"], x), hp["tau"]
    for i, _ in s["strips"]:
        o = out[i]
        np.multiply(tau, g[i], o)
        np.subtract(x[i], o, o)
    return out, s


def _nag_strip_step(x, g, s, hp, grad):
    # y+ overwrites y_prev2 strip by strip, after the strip's last read of it
    out, tau, beta = _spare(s["out"], x), hp["tau"], hp["beta"]
    y_prev, y_new = s["y_prev"], s["y_prev2"]
    for i, _ in s["strips"]:
        o, y = out[i], y_new[i]
        np.subtract(y_prev[i], y, o)
        np.multiply(beta, o, o)
        np.multiply(tau, g[i], y)
        np.subtract(x[i], y, y)
        np.add(y, o, o)
    s["y_prev"], s["y_prev2"] = y_new, y_prev
    return out, s


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


def _igahd_strip_step(x, g, s, hp, grad):
    # y goes into the spare buffer, x_prev's own from the third step on;
    # each strip reads x_prev before writing y, and x+ overwrites y
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


_REAL, _POSITIVE = Key("real"), Key("real", range="> 0")
_NONNEGATIVE, _MOMENTUM = Key("real", range=">= 0"), Key("real", range=">= 0, < 1")

# method name -> its update rule; igahd's counter n starts at 1 to keep
# alpha/n finite, and the g_prev of both igahd variants starts as the first g.
# pdd's C (None: I) is checked by `as_preconditioner`
RULES = {
    "gd": Rule(dict(tau=_POSITIVE), lambda x0: {}, _gd_step,
               strip_step=_gd_strip_step),
    "nag": Rule(dict(tau=_POSITIVE, beta=_MOMENTUM),
                lambda x0: {"y_prev": x0.copy(), "y_prev2": x0.copy()},
                _nag_step, strip_step=_nag_strip_step),
    "heavy_ball": Rule(dict(tau=_POSITIVE, beta=_MOMENTUM),
                       lambda x0: {"x_prev": x0.copy()}, _heavy_ball_step),
    "igahd": Rule(dict(tau=_POSITIVE, alpha=_REAL, beta1=_NONNEGATIVE),
                  lambda x0: {"x_prev": x0.copy(), "g_prev": None, "n": 1},
                  _igahd_step, _check_igahd, _igahd_strip_step),
    "igahd_sc": Rule(dict(tau=_POSITIVE, m1=_POSITIVE, beta2=_REAL),
                     lambda x0: {"x_prev": x0.copy(), "g_prev": None},
                     _igahd_sc_step, _check_igahd_sc),
    "pdd": Rule(dict(tau=_POSITIVE, sigma=_POSITIVE, A=_POSITIVE,
                     epsilon=_NONNEGATIVE, omega=_NONNEGATIVE, C=Key("C", None)),
                lambda x0: {"p": np.zeros_like(x0)}, pdd_step, _check_pdd,
                _pdd_strip_step),
}

# a run's cap, gradient tolerance and recording stride, at a config's defaults
RUN_SETTINGS = dict(max_iter=Key("int", 10000, ">= 1"),
                    grad_tol=Key("real", 1e-10, ">= 0"),
                    record_every=Key("int", 10, ">= 1"))


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
    """Check a method name and its hyperparameters (names, kinds and
    ranges) against its rule."""
    if method not in RULES:
        raise ValueError(f"unknown optimizer method {method!r}")
    RULES[method].validate(method, params)


def run_optimizer(obj: Objective, method: str, params: dict, x0,
                  max_iter: int, grad_tol: float = 0.0,
                  record_every: int = 1) -> Trajectory:
    """Iterate one optimizer until the gradient norm drops to ``grad_tol``,
    ``max_iter`` is reached, or the run diverges.

    ``max_iter``, ``grad_tol`` and ``record_every`` are checked against
    `RUN_SETTINGS` (integers >= 1, and a finite number >= 0) and the
    hyperparameters against the method's rule, once, before the first
    gradient; pdd's C against the objective's dimension too. Metrics are
    recorded every ``record_every`` iterations plus at the final iterate;
    divergence (any non-finite value, gradient, or iterate) sets a flag on
    the trajectory instead of raising, so a benchmark batch survives
    unstable hyperparameters. The dual of the pdd method starts at zero.
    Identical inputs always produce identical trajectories.
    """
    check_keys(RUN_SETTINGS, dict(max_iter=max_iter, grad_tol=grad_tol,
                                  record_every=record_every), "run_optimizer")
    validate_method(method, params)
    rule = RULES[method]
    if params.get("C") is not None:
        as_preconditioner(params["C"], obj.dim)

    x = as_vector(x0, obj.dim, "x0")
    traj = Trajectory()
    state, step = rule.start(x, params)
    xstar = obj.minimizer

    def record(it: int, xc: np.ndarray, gn2: float) -> float:
        # numpy's 1-d norm is sqrt(g.dot(g)): gn is np.linalg.norm(g)'s bits
        fval = obj.value(xc)
        gn = math.sqrt(gn2)
        p = state.get("p")
        lyap = 0.5 * gn * gn if p is None else lyapunov_value(p, gn * gn)
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
                record(it, x, gn2)
                break
            if it % record_every == 0 and not math.isfinite(record(it, x, gn2)):
                traj.diverged = True
                break
            if gn2 <= gtol2 or it >= max_iter:
                if it % record_every != 0:
                    record(it, x, gn2)
                break
            x, state = step(x, g, state, params, gradient)
            it += 1
            g = gradient(x)

    traj.final_x = x.copy()
    traj.final_p = state["p"].copy() if "p" in state else None
    return traj
