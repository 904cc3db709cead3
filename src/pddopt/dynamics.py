"""Continuous-time limit of the primal-dual damping iteration.

As the stepsizes shrink with sigma*omega -> gamma, the iteration follows
the first-order system

    dp/dt = A grad f(x) - eps A p
    dx/dt = -C(x) (p + gamma (A grad f(x) - eps A p))

which is equivalent (for constant C) to the second-order equation

    x'' + (eps A I + gamma C A hess f(x)) x' + C A grad f(x) = 0.

Choosing C = A = I recovers the classical special cases: Hessian-driven
damping (gamma > 0), the heavy ball equation (gamma = 0), and the
Nesterov equation (gamma = 0, eps(t) = 3/t). Only scalar dual
preconditioners A are supported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .objective import Objective, as_vector
from .optimizers import PddParams, PddState, Preconditioner, pdd_step

__all__ = [
    "DynParams",
    "OdeTrajectory",
    "pdd_vector_field",
    "make_special_case",
    "integrate_rk4",
    "second_order_residual",
    "discrete_continuous_consistency",
]

EpsLike = Union[float, Callable[[float], float]]


@dataclass(frozen=True)
class DynParams:
    """Coefficients of the continuous-time system.

    ``epsilon`` may be a constant or a map t -> eps(t); time-dependent
    choices are only evaluated at t > 0 (start integration at t0 = dt).
    """
    A: float
    epsilon: EpsLike
    gamma: float
    C: Preconditioner = field(default_factory=Preconditioner.identity)

    def __post_init__(self):
        if self.A <= 0:
            raise ValueError("A must be strictly positive")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if not callable(self.epsilon) and self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")

    def eps_at(self, t: float) -> float:
        return float(self.epsilon(t)) if callable(self.epsilon) else float(self.epsilon)


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

    def norms(self) -> np.ndarray:
        """Euclidean norm of the stacked state (x, p) at each time."""
        return np.sqrt(np.sum(self.xs ** 2, axis=1) + np.sum(self.ps ** 2, axis=1))


def pdd_vector_field(x: np.ndarray, p: np.ndarray, t: float,
                     params: DynParams, obj: Objective,
                     grad: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Right-hand side (dx, dp) of the damping system at state (x, p)."""
    g = obj.gradient(x) if grad is None else grad
    A = params.A
    dp = A * g - (params.eps_at(t) * A) * p
    dx = -params.C.apply(x, p + params.gamma * dp)
    return dx, dp


def make_special_case(kind: str, eps: float = 1.0, gamma: float = 1.0) -> DynParams:
    """Named parameter sets with C = A = I.

    hessian_damping: given eps and gamma (gamma must be nonzero);
    heavy_ball: gamma = 0 with constant eps;
    nesterov: gamma = 0 and eps(t) = 3/t (the eps argument is ignored).
    """
    if kind == "hessian_damping":
        if gamma == 0:
            raise ValueError("hessian_damping requires gamma != 0")
        return DynParams(A=1.0, epsilon=float(eps), gamma=float(gamma))
    if kind == "heavy_ball":
        return DynParams(A=1.0, epsilon=float(eps), gamma=0.0)
    if kind == "nesterov":
        return DynParams(A=1.0, epsilon=lambda t: 3.0 / t, gamma=0.0)
    raise ValueError(f"unknown special case {kind!r}")


def integrate_rk4(params: DynParams, obj: Objective, x0, p0,
                  t_end: float, dt: float,
                  t0: Optional[float] = None) -> OdeTrajectory:
    """Classical fixed-step fourth-order Runge-Kutta integration.

    For time-dependent epsilon the start time defaults to t0 = dt so that
    eps is never evaluated at t = 0. The trajectory is flagged diverged (and
    integration stops) on the first non-finite state; its arrays then end
    at that state.

    The state advances as one stacked vector (x, p); ``xs`` and ``ps`` are
    views of its halves. Each step evaluates grad f once, at stage k1, and
    hands it to `pdd_vector_field`; its norms, plus one more gradient at the
    last state, come back as ``grad_norms``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t0 is None:
        t0 = dt if callable(params.epsilon) else 0.0
    if t_end < t0 + dt:
        raise ValueError("t_end must allow at least one step")
    d = obj.dim
    z = np.concatenate((as_vector(x0, d, "x0"), as_vector(p0, d, "p0")))

    n_steps = int(round((t_end - t0) / dt))
    times = t0 + dt * np.arange(n_steps + 1)
    zs = np.empty((n_steps + 1, 2 * d))
    zs[0] = z
    sq_norms = np.empty(n_steps + 1)
    diverged = False

    def f(t, z, grad=None):
        return np.concatenate(pdd_vector_field(z[:d], z[d:], t, params, obj,
                                               grad=grad))

    with np.errstate(all="ignore"):
        for k in range(n_steps):
            t = times[k]
            g = obj.gradient(z[:d])
            sq_norms[k] = g.dot(g)
            k1 = f(t, z, g)
            k2 = f(t + 0.5 * dt, z + 0.5 * dt * k1)
            k3 = f(t + 0.5 * dt, z + 0.5 * dt * k2)
            k4 = f(t + dt, z + dt * k3)
            z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            zs[k + 1] = z
            if not np.isfinite(z).all():
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

        x'' + (eps A I + gamma C A hess f(x)) x' + C A grad f(x)

    with x'' and x' approximated by central differences of the stored x(t).
    Requires a constant C (its time derivative term is dropped) and a
    Hessian (analytic or finite-difference).
    """
    if not params.C.is_constant:
        raise ValueError("residual check requires a constant preconditioner")
    if traj.xs.shape[0] < 3:
        raise ValueError("need at least 3 samples for central differences")
    d = traj.xs.shape[1]
    Cmat = params.C.matrix(traj.xs[0], d)
    A = params.A
    dt = traj.dt
    worst = 0.0
    for k in range(1, traj.xs.shape[0] - 1):
        xk = traj.xs[k]
        v = (traj.xs[k + 1] - traj.xs[k - 1]) / (2.0 * dt)
        a = (traj.xs[k + 1] - 2.0 * xk + traj.xs[k - 1]) / (dt * dt)
        eps_k = params.eps_at(float(traj.times[k]))
        H = obj.hessian_at(xk)
        r = (a + eps_k * A * v + params.gamma * A * (Cmat @ (H @ v))
             + A * (Cmat @ obj.gradient(xk)))
        worst = max(worst, float(np.linalg.norm(r)))
    return worst


def discrete_continuous_consistency(obj: Objective, taus: Sequence[float],
                                    gamma: float, eps: float, A: float,
                                    x0, p0, t_end: float,
                                    C: Optional[Preconditioner] = None,
                                    ref_refine: int = 20) -> List[float]:
    """Distance between the discrete iteration and its continuous limit.

    For each tau (with sigma = tau and omega = gamma/sigma held so that
    sigma*omega stays fixed) the discrete iterates at times n*tau are
    compared against one Runge-Kutta reference, integrated once with step
    min(taus)/ref_refine and read at every tau's grid points; returned is
    the max-over-time state distance per tau. The taus must nest: each is
    an integer multiple of the smallest (up to rounding), else ValueError;
    a reference that diverges before t_end also raises ValueError.
    The error is first order, so halving tau should roughly halve it.
    """
    C = C or Preconditioner.identity()
    x0 = as_vector(x0, obj.dim, "x0")
    p0 = as_vector(p0, obj.dim, "p0")
    tau_min = min(taus)
    if not tau_min > 0:
        raise ValueError("taus must be positive")
    plan = []  # (tau, pdd steps, reference steps per pdd step)
    for tau in taus:
        m = round(tau / tau_min)
        if abs(tau / tau_min - m) > 1e-9 * m:
            raise ValueError(f"taus must be integer multiples of the smallest, "
                             f"{tau_min!r}; {tau!r} is not")
        plan.append((tau, int(round(t_end / tau)), m * ref_refine))
    dt = tau_min / ref_refine
    ref_steps = max(n * stride for _, n, stride in plan)
    ref = integrate_rk4(DynParams(A=A, epsilon=eps, gamma=gamma, C=C), obj,
                        x0, p0, t_end=ref_steps * dt, dt=dt, t0=0.0)
    if ref.diverged:
        raise ValueError(f"the RK4 reference (dt = {dt!r}) diverged at "
                         f"t = {float(ref.times[-1])!r}; raise ref_refine "
                         f"or shorten t_end")
    errors = []
    for tau, n, stride in plan:
        params = PddParams(tau=tau, sigma=tau, A=A, epsilon=eps,
                           omega=gamma / tau, C=C)
        state = PddState(x=x0.copy(), p=p0.copy())
        worst = 0.0
        for k in range(1, n + 1):
            state = pdd_step(state, params, obj)
            rx = ref.xs[k * stride]
            rp = ref.ps[k * stride]
            err = np.sqrt(float(np.sum((state.x - rx) ** 2)
                                + np.sum((state.p - rp) ** 2)))
            worst = max(worst, err)
        errors.append(worst)
    return errors
