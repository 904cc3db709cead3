"""Continuous-time limit of the primal-dual damping iteration.

As the stepsizes shrink with sigma*omega -> gamma, the iteration follows
the first-order system

    dp/dt = A grad f(x) - eps A p
    dx/dt = -C (p + gamma (A grad f(x) - eps A p))

which is equivalent to the second-order equation

    x'' + (eps A I + gamma C A hess f(x)) x' + C A grad f(x) = 0.

This module takes C = I and a scalar dual preconditioner A. With A = 1
the classical special cases are plain `DynParams` values: Hessian-driven
damping ``DynParams(1.0, eps, gamma)`` with gamma > 0, the heavy ball
equation ``DynParams(1.0, eps, 0.0)``, and the Nesterov equation
``DynParams(1.0, "3/t", 0.0)``, eps(t) = 3/t. `SETTINGS`, a config's
dynamics section, declares what `DynParams` and `integrate_rk4` take.

`integrate_rk4` makes its four stage vectors, one work vector and the
trajectory array once per integration. Each stage input, stage result and
RK4 combination is written into them through numpy's ``out=``, and each new
state goes straight into its row of the trajectory, so a step allocates
only what the gradient returns. The operations and their order are those
of the allocating formula, so the results are bitwise equal to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .objective import Key, Objective, as_vector, check_keys
from .optimizers import pdd_step

__all__ = [
    "DynParams",
    "OdeTrajectory",
    "pdd_vector_field",
    "integrate_rk4",
    "second_order_residual",
    "discrete_continuous_consistency",
]

TRAJECTORY_CAP_BYTES = 2 ** 30  # `integrate_rk4`'s largest trajectory

# DynParams' coefficients and integrate_rk4's span and step
SETTINGS = dict(
    A=Key("real", 1.0, "> 0"), epsilon=Key("epsilon", 1.0, ">= 0"),
    gamma=Key("real", 0.0, ">= 0"), t_end=Key("real", 10.0, "> 0"),
    dt=Key("real", 1e-3, "> 0"))


def _operand(v) -> np.ndarray:
    """A read-only 0-d float64 array holding v."""
    a = np.array(v, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DynParams:
    """Coefficients of the continuous-time system.

    A > 0, gamma >= 0 and ``epsilon``, a finite number >= 0 or "3/t" for
    eps(t) = 3/t, as `SETTINGS` declares them; "3/t" is only evaluated at
    t > 0 (integration then starts at t0 = dt). C is I.
    """
    A: float
    epsilon: Union[float, str]
    gamma: float
    # (A, gamma, eps*A) as read-only 0-d float64 arrays, eps*A None for
    # "3/t": numpy converts a Python float operand on every call, and
    # `pdd_vector_field` runs 4 times per RK4 step
    _operands: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_keys(SETTINGS, dict(A=self.A, epsilon=self.epsilon,
                                  gamma=self.gamma), "DynParams")
        epsA = None if self.epsilon == "3/t" \
            else _operand(float(self.epsilon) * self.A)
        object.__setattr__(self, "_operands",
                           (_operand(self.A), _operand(self.gamma), epsA))

    def eps_at(self, t: float) -> float:
        return 3.0 / t if self.epsilon == "3/t" else float(self.epsilon)


@dataclass
class OdeTrajectory:
    """Uniformly sampled solution of the (x, p) system.

    ``grad_norms[k]`` is |grad f(xs[k])| when the integrator supplies it
    (`integrate_rk4` does); hand-built trajectories may leave it out.
    """
    times: np.ndarray
    xs: np.ndarray  # shape (n+1, d)
    ps: np.ndarray  # shape (n+1, d)
    dt: float
    diverged: bool = False
    grad_norms: Optional[np.ndarray] = None  # shape (n+1,)


def pdd_vector_field(x: np.ndarray, p: np.ndarray, t: float,
                     params: DynParams, obj: Objective,
                     grad: Optional[np.ndarray] = None,
                     out: Optional[np.ndarray] = None
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Right-hand side (dx, dp) of the damping system at state (x, p).

    ``grad`` is grad f(x) when the caller has it. The field is written into
    the halves of ``out``, a float64 vector of length 2d that must not
    overlap x, p or grad, and those two views come back as (dx, dp); without
    ``out`` a new vector is allocated. Either way it evaluates

        dp = A g - (eps(t) A) p,    dx = -(p + gamma dp)

    with the same operations in the same order, so the bits do not depend
    on ``out``.
    """
    g = obj.gradient(x) if grad is None else grad
    d = len(x)
    if out is None:
        out = np.empty(2 * d)
    dx, dp = out[:d], out[d:]
    A, gamma, epsA = params._operands
    if epsA is None:
        epsA = params.eps_at(t) * params.A
    np.multiply(epsA, p, out=dx)  # dx holds eps A p until dp is formed
    np.multiply(A, g, out=dp)
    np.subtract(dp, dx, out=dp)
    np.multiply(gamma, dp, out=dx)
    np.add(p, dx, out=dx)
    np.negative(dx, out=dx)
    return dx, dp


def _step_count(t_end: float, t0: float, dt: float, d: int) -> float:
    """(t_end - t0) / dt, if its RK4 trajectory fits `TRAJECTORY_CAP_BYTES`."""
    steps = (t_end - t0) / dt
    nbytes = 8.0 * (2 * d + 2) * (steps + 1.0)  # times, states and |g|^2
    if not nbytes <= TRAJECTORY_CAP_BYTES:  # also an inf or nan step count
        raise ValueError(f"t_end = {t_end!r}, dt = {dt!r} at dimension {d} need "
                         f"{nbytes:.4g} bytes, over the {TRAJECTORY_CAP_BYTES}-byte cap")
    return steps


def integrate_rk4(params: DynParams, obj: Objective, x0, p0,
                  t_end: float, dt: float) -> OdeTrajectory:
    """Classical fixed-step fourth-order Runge-Kutta integration.

    Integration starts at t0 = 0, or at t0 = dt for epsilon "3/t" so that
    eps is never evaluated at t = 0. The trajectory is flagged
    diverged (and integration stops) on the first non-finite state; its
    arrays then end at that state.

    The state advances as one stacked vector (x, p), each step writing the
    next state into its own row of one (steps + 1, 2d) array; ``xs`` and
    ``ps`` are views of that array's halves. The four stages and one work
    vector are allocated once per integration and filled through
    `pdd_vector_field`'s ``out=`` and numpy's, in the operation order of

        z + (dt/6) (k1 + 2 k2 + 2 k3 + k4),

    so the trajectory is bitwise equal to the allocating formula's. Each
    step evaluates grad f once, at stage k1, and hands it to
    `pdd_vector_field`; its norms, plus one more gradient at the last
    state, come back as ``grad_norms``. A ``t_end`` or ``dt`` that
    `SETTINGS` refuses, or a trajectory over `TRAJECTORY_CAP_BYTES`, raises
    ValueError first.
    """
    check_keys(SETTINGS, dict(t_end=t_end, dt=dt), "integrate_rk4")
    t0 = dt if params.epsilon == "3/t" else 0.0
    if not t_end >= t0 + dt:
        raise ValueError("t_end must allow at least one step")
    d = obj.dim
    n_steps = round(_step_count(t_end, t0, dt, d))
    x0 = as_vector(x0, d, "x0")
    p0 = as_vector(p0, d, "p0")

    times = t0 + dt * np.arange(n_steps + 1)
    zs = np.empty((n_steps + 1, 2 * d))
    zs[0, :d] = x0
    zs[0, d:] = p0
    sq_norms = np.empty(n_steps + 1)
    diverged = False

    k1, k2, k3, k4, w = np.empty((5, 2 * d))
    wx, wp = w[:d], w[d:]
    half, full, sixth, two = (_operand(v) for v in (0.5 * dt, dt, dt / 6.0, 2.0))
    # z . 0 is +-0 while z is finite and nan once an entry is inf or nan
    zero = np.zeros(2 * d)
    z = zs[0]
    with np.errstate(all="ignore"):
        for k in range(n_steps):
            t = times[k]
            x = z[:d]
            g = obj.gradient(x)
            sq_norms[k] = g.dot(g)
            pdd_vector_field(x, z[d:], t, params, obj, grad=g, out=k1)
            np.multiply(half, k1, out=w)
            np.add(z, w, out=w)
            pdd_vector_field(wx, wp, t + 0.5 * dt, params, obj, out=k2)
            np.multiply(half, k2, out=w)
            np.add(z, w, out=w)
            pdd_vector_field(wx, wp, t + 0.5 * dt, params, obj, out=k3)
            np.multiply(full, k3, out=w)
            np.add(z, w, out=w)
            pdd_vector_field(wx, wp, t + dt, params, obj, out=k4)
            np.multiply(two, k2, out=w)
            np.add(k1, w, out=w)
            np.multiply(two, k3, out=k3)
            np.add(w, k3, out=w)
            np.add(w, k4, out=w)
            np.multiply(sixth, w, out=w)
            z = np.add(z, w, out=zs[k + 1])
            if not math.isfinite(z.dot(zero)):
                diverged = True
                n_steps = k + 1
                break
        g = obj.gradient(z[:d])
        sq_norms[n_steps] = g.dot(g)

    n = n_steps + 1
    return OdeTrajectory(times=times[:n], xs=zs[:n, :d], ps=zs[:n, d:], dt=dt,
                         diverged=diverged, grad_norms=np.sqrt(sq_norms[:n]))


def second_order_residual(traj: OdeTrajectory, params: DynParams,
                          obj: Objective) -> float:
    """Max norm, over interior samples, of the second-order equation residual

        x'' + (eps A I + gamma A hess f(x)) x' + A grad f(x)

    with x'' and x' approximated by central differences of the stored x(t).
    Requires a Hessian (analytic or finite-difference).
    """
    if traj.xs.shape[0] < 3:
        raise ValueError("need at least 3 samples for central differences")
    A = params.A
    dt = traj.dt
    worst = 0.0
    for k in range(1, traj.xs.shape[0] - 1):
        xk = traj.xs[k]
        v = (traj.xs[k + 1] - traj.xs[k - 1]) / (2.0 * dt)
        a = (traj.xs[k + 1] - 2.0 * xk + traj.xs[k - 1]) / (dt * dt)
        eps_k = params.eps_at(float(traj.times[k]))
        H = obj.hessian_at(xk)
        r = (a + eps_k * A * v + params.gamma * A * (H @ v)
             + A * obj.gradient(xk))
        worst = max(worst, float(np.linalg.norm(r)))
    return worst


def discrete_continuous_consistency(obj: Objective, taus: Sequence[float],
                                    gamma: float, eps: float, A: float,
                                    x0, p0, t_end: float) -> List[float]:
    """Distance between the discrete iteration and its continuous limit.

    For each tau (with sigma = tau and omega = gamma/sigma held so that
    sigma*omega stays fixed) the discrete iterates at times n*tau are
    compared against one Runge-Kutta reference, integrated once with step
    min(taus)/20 and read at every tau's grid points; returned is
    the max-over-time state distance per tau. The taus must nest: each is
    an integer multiple of the smallest (up to rounding), else ValueError;
    a reference that diverges, or is over `integrate_rk4`'s cap, does too.
    The error is first order, so halving tau should roughly halve it.
    """
    x0 = as_vector(x0, obj.dim, "x0")
    p0 = as_vector(p0, obj.dim, "p0")
    tau_min = min(taus)
    if not tau_min > 0:
        raise ValueError("taus must be positive")
    ref_refine = 20  # RK4 steps per smallest tau
    dt = tau_min / ref_refine
    _step_count(t_end, 0.0, dt, obj.dim)
    plan = []  # (tau, pdd steps, reference steps per pdd step)
    for tau in taus:
        m = round(tau / tau_min)
        if abs(tau / tau_min - m) > 1e-9 * m:
            raise ValueError(f"taus must be integer multiples of the smallest, "
                             f"{tau_min!r}; {tau!r} is not")
        plan.append((tau, int(round(t_end / tau)), m * ref_refine))
    ref_steps = max(n * stride for _, n, stride in plan)
    ref = integrate_rk4(DynParams(A=A, epsilon=eps, gamma=gamma), obj,
                        x0, p0, t_end=ref_steps * dt, dt=dt)
    if ref.diverged:
        raise ValueError(f"the RK4 reference (dt = {dt!r}) diverged at "
                         f"t = {float(ref.times[-1])!r}; shorten t_end")
    errors = []
    for tau, n, stride in plan:
        hp = {"tau": tau, "sigma": tau, "A": A, "epsilon": eps,
              "omega": gamma / tau}
        x, s = x0, {"p": p0}
        worst = 0.0
        for k in range(1, n + 1):
            x, s = pdd_step(x, obj.gradient(x), s, hp)
            rx = ref.xs[k * stride]
            rp = ref.ps[k * stride]
            err = np.sqrt(float(np.sum((x - rx) ** 2)
                                + np.sum((s["p"] - rp) ** 2)))
            worst = max(worst, err)
        errors.append(worst)
    return errors
