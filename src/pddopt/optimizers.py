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

Above `objective._STRIP` = 16384 entries, `Rule.start` runs the rule's own
step one strip at a time (igahd's two halves around its one whole grad(y)),
writing the results into buffers the run owns: a whole-vector step streams
a fresh 8 MB temporary through DRAM per numpy operation at d = 1e6. Up to
16384 entries it calls the step on whole vectors, because at the presets'
d <= 100 every design that sent small vectors through new code (`out=`
writes, a kernel-plus-helper split, a strip loop at every size) made them
slower.
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
    "takes_C",
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

    Every ``step`` is elementwise in x, g and the state's vectors, so
    `start` can run it one strip at a time. A step that calls ``grad``
    cannot be cut that way; its rule declares ``halves``, the pair ``step``
    composes: ``y, s = first(x, g, state, hp, grad)``, then ``second(y,
    grad(y), s, hp, grad)``, each with step's signature and elementwise
    (igahd: its extrapolated point y, then gd's step from y). ``init``
    returns fresh vectors, never ``x0`` itself."""
    params: Dict[str, Key]
    init: Callable[[np.ndarray], dict]
    step: Callable[..., Tuple[np.ndarray, dict]]
    check: Optional[Callable[[dict], None]] = None
    halves: Optional[Tuple[Callable, Callable]] = None

    def start(self, x0: np.ndarray):
        """(state, step) for a run from ``x0``: ``init(x0)`` and ``step`` up
        to `objective._STRIP` entries, and above it `_by_strips`' driver,
        which takes the step's arguments too and cuts the ``hp`` of each
        call (pdd's C, a float64 vector of x's length) per strip."""
        state = self.init(x0)
        if len(x0) <= objective._STRIP:
            return state, self.step
        return state, _by_strips(self, x0, state)

    def validate(self, method: str, hp: dict) -> None:
        """Check the names, kinds and ranges of ``method``'s hyperparameters."""
        check_keys(self.params, hp, method)
        if self.check is not None:
            try:
                self.check(hp)
            except ValueError as exc:
                raise ValueError(f"{method}: {exc}") from None


def _by_strips(rule: Rule, x0: np.ndarray, state: dict):
    """``rule``'s step, or each of its ``halves`` around one whole grad(y),
    called on each strip's views of x, g, the state's vectors and ``hp``'s,
    one `objective._STRIP`-entry strip at a time, so a step's temporaries
    stay in L2 instead of streaming 8 MB vectors through DRAM at d = 1e6.
    The result is bitwise equal to the whole-vector step's on finite data;
    a nan's sign or payload is not part of a rule's contract, as numpy picks
    which nan operand an add returns by the entry's place in its SIMD loop.

    A result the step hands back unchanged (x's, g's or a state vector's
    strip) stands for that whole vector, uncopied. Every other vector result
    is written, strip by strip, into a buffer that this run owns (``init``'s
    vectors, then any it allocates) and that no result of the step refers
    to: an elementwise step has read a strip's inputs before that strip is
    written. So x0, g and C are never written, and after the first steps no
    vector is allocated."""
    n, size = len(x0), objective._STRIP
    strips = [slice(lo, lo + size) for lo in range(0, n, size)]
    owned = [v for v in state.values()
             if _is_vector(v, n) and not np.may_share_memory(v, x0)]

    def each_strip(fn, x, g, s, hp, grad):
        whole = [x, g, *s.values()]
        cut = [_is_vector(v, n) for v in whole]
        hp_cut = [k for k, v in hp.items() if _is_vector(v, n)]
        out = None
        for i in strips:
            ins = [v[i] if c else v for v, c in zip(whole, cut)]
            hp_i = dict(hp, **{k: hp[k][i] for k in hp_cut}) if hp_cut else hp
            x_i, s_i = fn(ins[0], ins[1], dict(zip(s, ins[2:])), hp_i, grad)
            res = [x_i, *s_i.values()]
            if out is None:  # the whole value each result stands for
                keys = list(s_i)
                out = [next((w for v, w in zip(ins, whole) if v is r), r)
                       for r in res]
                free = [b for b in owned if not any(b is w for w in out)]
                fresh = [j for j, r in enumerate(res)
                         if isinstance(r, np.ndarray) and out[j] is r]
                for j in fresh:
                    if not free:
                        owned.append(np.empty(n))
                        free.append(owned[-1])
                    out[j] = free.pop(0)
            for j in fresh:
                out[j][i] = res[j]
        return out[0], dict(zip(keys, out[1:]))

    if rule.halves is None:
        return lambda x, g, s, hp, grad: each_strip(rule.step, x, g, s, hp, grad)
    first, second = rule.halves

    def step(x, g, s, hp, grad):
        y, s = each_strip(first, x, g, s, hp, grad)
        return each_strip(second, y, grad(y), s, hp, grad)
    return step


def _is_vector(v, n: int) -> bool:
    return isinstance(v, np.ndarray) and v.shape == (n,)


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


def _igahd_y(x, g, s, hp, grad):
    """igahd's extrapolated point y (see `_igahd_step`) and its next state."""
    tau, beta1, n = hp["tau"], hp["beta1"], s["n"]
    g_prev = g if s["g_prev"] is None else s["g_prev"]
    st = math.sqrt(tau)
    a_n = 1.0 - hp["alpha"] / n
    y = (x + a_n * (x - s["x_prev"]) - beta1 * st * (g - g_prev)
         - (beta1 * st / n) * g_prev)
    return y, {"x_prev": x, "g_prev": g, "n": n + 1}


def _igahd_step(x, g, s, hp, grad):
    """Inertial gradient step with Hessian-driven damping; two gradients per
    step, g = grad f(x) (the next g_prev) and grad f(y):

    y = x + (1 - alpha/n)(x - x_prev) - beta1 sqrt(tau) (g - g_prev)
          - (beta1 sqrt(tau) / n) g_prev
    x+ = y - tau grad f(y), gd's step from y
    """
    y, s = _igahd_y(x, g, s, hp, grad)
    return _gd_step(y, grad(y), s, hp, grad)


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


_REAL, _POSITIVE = Key("real"), Key("real", range="> 0")
_NONNEGATIVE, _MOMENTUM = Key("real", range=">= 0"), Key("real", range=">= 0, < 1")

# method name -> its update rule; igahd's counter n starts at 1 to keep
# alpha/n finite, and the g_prev of both igahd variants starts as the first g.
# pdd's C (None: I) is checked by `as_preconditioner`
RULES = {
    "gd": Rule(dict(tau=_POSITIVE), lambda x0: {}, _gd_step),
    "nag": Rule(dict(tau=_POSITIVE, beta=_MOMENTUM),
                lambda x0: {"y_prev": x0.copy(), "y_prev2": x0.copy()},
                _nag_step),
    "heavy_ball": Rule(dict(tau=_POSITIVE, beta=_MOMENTUM),
                       lambda x0: {"x_prev": x0.copy()}, _heavy_ball_step),
    "igahd": Rule(dict(tau=_POSITIVE, alpha=_REAL, beta1=_NONNEGATIVE),
                  lambda x0: {"x_prev": x0.copy(), "g_prev": None, "n": 1},
                  _igahd_step, _check_igahd, (_igahd_y, _gd_step)),
    "igahd_sc": Rule(dict(tau=_POSITIVE, m1=_POSITIVE, beta2=_REAL),
                     lambda x0: {"x_prev": x0.copy(), "g_prev": None},
                     _igahd_sc_step, _check_igahd_sc),
    "pdd": Rule(dict(tau=_POSITIVE, sigma=_POSITIVE, A=_POSITIVE,
                     epsilon=_NONNEGATIVE, omega=_NONNEGATIVE, C=Key("C", None)),
                lambda x0: {"p": np.zeros_like(x0)}, pdd_step, _check_pdd),
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

def takes_C(method: str) -> bool:
    """Whether ``method`` is a rule with a C hyperparameter (pdd's)."""
    return method in RULES and "C" in RULES[method].params


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
    gradient; pdd's C is made a float64 vector once, by `as_preconditioner`
    against the objective's dimension, and each step uses it. Metrics are
    recorded every ``record_every`` iterations plus at the final iterate;
    divergence (any non-finite value, gradient, or iterate) sets a flag on
    the trajectory instead of raising, so a benchmark batch survives
    unstable hyperparameters. The dual of the pdd method starts at zero.
    Identical inputs always produce identical trajectories.
    """
    check_keys(RUN_SETTINGS, dict(max_iter=max_iter, grad_tol=grad_tol,
                                  record_every=record_every), "run_optimizer")
    if takes_C(method) and params.get("C") is not None:
        # converted once: every step, and each strip, scales by this vector;
        # a method that takes no C refuses it by name in validate_method
        params = dict(params, C=as_preconditioner(params["C"], obj.dim))
    validate_method(method, params)
    rule = RULES[method]

    x = as_vector(x0, obj.dim, "x0")
    traj = Trajectory()
    state, step = rule.start(x)
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
