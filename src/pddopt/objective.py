"""Differentiable scalar objectives with analytic gradients.

Every test problem used by the optimizer benchmarks lives here, together
with a finite-difference oracle for checking analytic derivatives. All
evaluation is pure and objectives are immutable after construction, so they
are safe to share between concurrent runs.
"""

from __future__ import annotations

import warnings
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Objective",
    "MissingHessianError",
    "as_vector",
    "make_diag_dominant_Q",
    "quadratic",
    "reg_log_sum_exp",
    "quad_minus_cos",
    "rosenbrock",
    "ackley",
    "check_gradient",
    "check_hessian",
]


class MissingHessianError(RuntimeError):
    """Raised when an analytic Hessian is requested but not available."""


def as_vector(x, dim: Optional[int] = None, name: str = "x") -> np.ndarray:
    """Validate and return ``x`` as a finite 1-d float64 array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"{name} has length {v.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _check_symmetric(M: np.ndarray, tol: float, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.max(np.abs(M - M.T)) > tol:
        raise ValueError(f"{name} is not symmetric (tol {tol})")
    return M


class Objective:
    """A C^1 (optionally C^2) scalar objective on R^d.

    Parameters
    ----------
    dim : int
        Dimension of the domain.
    value : callable
        Maps a vector to the objective value.
    gradient : callable
        Maps a vector to the analytic gradient (length ``dim``).
    hessian : callable, optional
        Maps a vector to the analytic d x d Hessian. Problems without a
        cheap Hessian omit it; consumers fall back to finite differences
        via `hessian_at`.
    minimizer : array_like, optional
        Known global minimizer. Checked to be (near-)stationary at
        construction.
    name : str
        Label used in reports and plots.
    """

    def __init__(self, dim, value, gradient, hessian=None, minimizer=None,
                 name="objective"):
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        self.dim = int(dim)
        self._value: Callable[[np.ndarray], float] = value
        self._gradient: Callable[[np.ndarray], np.ndarray] = gradient
        self._hessian = hessian
        self.name = str(name)
        if minimizer is not None:
            m = as_vector(minimizer, self.dim, "minimizer")
            gm = np.linalg.norm(self._gradient(m))
            if gm > 1e-10:
                raise ValueError(
                    f"declared minimizer is not stationary: |grad| = {gm:.3e}")
            self.minimizer: Optional[np.ndarray] = m
        else:
            self.minimizer = None

    @property
    def has_hessian(self) -> bool:
        return self._hessian is not None

    def _point(self, x) -> np.ndarray:
        # shape only: run_optimizer passes non-finite iterates to detect divergence
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"{self.name}: x has shape {x.shape}, "
                             f"expected ({self.dim},)")
        return x

    def value(self, x) -> float:
        return float(self._value(self._point(x)))

    def gradient(self, x) -> np.ndarray:
        return np.asarray(self._gradient(self._point(x)), dtype=float)

    def hessian(self, x) -> np.ndarray:
        if self._hessian is None:
            raise MissingHessianError(f"{self.name} has no analytic Hessian")
        return np.asarray(self._hessian(self._point(x)), dtype=float)

    def hessian_at(self, x, h: Optional[float] = None) -> np.ndarray:
        """Hessian at ``x``: analytic when available, otherwise a central
        finite difference of the gradient (symmetrized)."""
        x = self._point(x)
        if self._hessian is not None:
            return self.hessian(x)
        if h is None:
            h = 1e-6 * (1.0 + np.linalg.norm(x, np.inf))
        H = np.empty((self.dim, self.dim))
        for j in range(self.dim):
            e = np.zeros(self.dim)
            e[j] = h
            H[:, j] = (self._gradient(x + e) - self._gradient(x - e)) / (2.0 * h)
        return 0.5 * (H + H.T)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Objective({self.name!r}, dim={self.dim})"


# ---------------------------------------------------------------------------
# evaluation kernels
# ---------------------------------------------------------------------------

def _lse_softmax(z: np.ndarray):
    # max-shifted: finite for |z_i| up to ~1e4 and beyond
    m = float(np.max(z))
    e = np.exp(z - m)
    se = float(np.sum(e))
    return e / se, m + float(np.log(se))


def _lse_value(Q: np.ndarray, x: np.ndarray) -> float:
    z = Q @ x
    _, lse = _lse_softmax(z)
    return lse + 0.5 * float(x @ z)


def _lse_grad(Q: np.ndarray, x: np.ndarray) -> np.ndarray:
    z = Q @ x
    s, _ = _lse_softmax(z)
    return Q @ s + z


def _lse_hess(Q: np.ndarray, x: np.ndarray) -> np.ndarray:
    s, _ = _lse_softmax(Q @ x)
    H = Q @ (np.diag(s) - np.outer(s, s)) @ Q + Q
    return 0.5 * (H + H.T)


def _rosenbrock_value(a: float, b: float, x: np.ndarray) -> float:
    d = x[1:] - x[:-1] ** 2
    return float(np.sum((a - x[:-1]) ** 2) + b * np.sum(d * d))


def _rosenbrock_grad(a: float, b: float, x: np.ndarray) -> np.ndarray:
    g = np.zeros(x.shape)
    d = x[1:] - x[:-1] ** 2
    g[:-1] = -2.0 * (a - x[:-1]) - 4.0 * b * x[:-1] * d
    g[1:] += 2.0 * b * d
    return g


_ACKLEY_E = float(np.e)


def _ackley_value(x: np.ndarray) -> float:
    r = np.sqrt(0.5 * (x[0] ** 2 + x[1] ** 2))
    cs = 0.5 * (np.cos(2.0 * np.pi * x[0]) + np.cos(2.0 * np.pi * x[1]))
    return float(-20.0 * np.exp(-0.2 * r) - np.exp(cs) + _ACKLEY_E + 20.0)


def _ackley_grad(x: np.ndarray) -> np.ndarray:
    r = np.sqrt(0.5 * (x[0] ** 2 + x[1] ** 2))
    if r == 0.0:
        # radial term is nonsmooth at the origin, which is also the global
        # minimum; 0 lies in the subdifferential there
        return np.zeros(2)
    cs = 0.5 * (np.cos(2.0 * np.pi * x[0]) + np.cos(2.0 * np.pi * x[1]))
    ecs = np.exp(cs)
    g = 2.0 * np.exp(-0.2 * r) / r * x
    g[0] += np.pi * np.sin(2.0 * np.pi * x[0]) * ecs
    g[1] += np.pi * np.sin(2.0 * np.pi * x[1]) * ecs
    return g


def make_diag_dominant_Q(n: int, seed: int) -> np.ndarray:
    """Random symmetric strictly diagonally dominant matrix.

    Off-diagonals are uniform(-1, 1)/n symmetrized; each diagonal entry is
    the absolute row sum plus uniform(1, 2), so dominance is strict and the
    condition number stays moderate. Deterministic per seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    M = rng.uniform(-1.0, 1.0, size=(n, n)) / n
    off = 0.5 * (M + M.T)
    np.fill_diagonal(off, 0.0)
    diag = np.sum(np.abs(off), axis=1) + rng.uniform(1.0, 2.0, size=n)
    return off + np.diag(diag)


# ---------------------------------------------------------------------------
# objective factories
# ---------------------------------------------------------------------------

def quadratic(Q, name: str = "quadratic") -> Objective:
    """f = x'Qx/2 with gradient Qx and Hessian Q; Q symmetric pos. definite."""
    Q = _check_symmetric(Q, 1e-12, "Q")
    try:
        np.linalg.cholesky(Q)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Q must be positive definite") from exc
    n = Q.shape[0]
    return Objective(
        n,
        value=lambda x: 0.5 * float(x @ (Q @ x)),
        gradient=lambda x: Q @ x,
        hessian=lambda x: Q,
        minimizer=np.zeros(n),
        name=name,
    )


def reg_log_sum_exp(Q, name: str = "logsumexp") -> Objective:
    """f = log sum_i exp(q_i'x) + x'Qx/2 with q_i' the i-th row of Q, finite
    for |q_i'x| up to ~1e4 because the exponents are max-shifted."""
    Q = _check_symmetric(Q, 1e-12, "Q")
    dom = np.diag(Q) - (np.sum(np.abs(Q), axis=1) - np.abs(np.diag(Q)))
    if np.any(np.diag(Q) <= 0) or np.any(dom <= 0):
        raise ValueError("Q must be diagonally dominant with positive diagonal")
    return Objective(
        Q.shape[0],
        value=lambda x: _lse_value(Q, x),
        gradient=lambda x: _lse_grad(Q, x),
        hessian=lambda x: _lse_hess(Q, x),
        name=name,
    )


def quad_minus_cos(c, name: str = "quadcos") -> Objective:
    """f = |x|^2 - cos(c'x); gradient 2x + sin(c'x) c; Hessian 2I + cos(c'x) cc'."""
    c = as_vector(c, name="c")
    if float(c @ c) >= 2.0:
        warnings.warn("|c|^2 >= 2 makes the Hessian lose positive "
                      "definiteness somewhere", stacklevel=2)
    n = c.shape[0]
    return Objective(
        n,
        value=lambda x: float(x @ x) - np.cos(float(c @ x)),
        gradient=lambda x: 2.0 * x + np.sin(float(c @ x)) * c,
        hessian=lambda x: 2.0 * np.eye(n) + np.cos(float(c @ x)) * np.outer(c, c),
        minimizer=np.zeros(n),
        name=name,
    )


def rosenbrock(a: float = 1.0, b: float = 100.0, n: int = 2,
               name: Optional[str] = None) -> Objective:
    """f = sum_{i<n} (a - x_i)^2 + b (x_{i+1} - x_i^2)^2. Exposes the gradient
    only; the Hessian is obtained by finite differences where analysis needs it."""
    if n < 2:
        raise ValueError("rosenbrock needs n >= 2")
    if n == 2:
        minimizer = np.array([a, a * a])
    elif a == 1.0:
        minimizer = np.ones(n)
    else:
        minimizer = None
    return Objective(
        n,
        value=lambda x: _rosenbrock_value(a, b, x),
        gradient=lambda x: _rosenbrock_grad(a, b, x),
        minimizer=minimizer,
        name=name or f"rosenbrock{n}d",
    )


def ackley(name: str = "ackley") -> Objective:
    """Two-dimensional Ackley function, gradient 0 at the origin by convention."""
    return Objective(
        2,
        value=_ackley_value,
        gradient=_ackley_grad,
        minimizer=np.zeros(2),
        name=name,
    )


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def _rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    scale = np.maximum(1.0, np.maximum(np.abs(approx), np.abs(exact)))
    return float(np.max(np.abs(approx - exact) / scale))


def check_gradient(obj: Objective, x, h: float = 1e-6) -> float:
    """Max relative error, over coordinates, of the analytic gradient
    against central differences (f(x+he_i) - f(x-he_i)) / 2h."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = as_vector(x, obj.dim)
    g = obj.gradient(x)
    fd = np.empty(obj.dim)
    for i in range(obj.dim):
        e = np.zeros(obj.dim)
        e[i] = h
        fd[i] = (obj.value(x + e) - obj.value(x - e)) / (2.0 * h)
    return _rel_err(fd, g)


def check_hessian(obj: Objective, x, h: float = 1e-6) -> float:
    """Same contract as `check_gradient`, for the analytic Hessian against
    central differences of the gradient."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = as_vector(x, obj.dim)
    H = obj.hessian(x)
    fd = np.empty((obj.dim, obj.dim))
    for j in range(obj.dim):
        e = np.zeros(obj.dim)
        e[j] = h
        fd[:, j] = (obj.gradient(x + e) - obj.gradient(x - e)) / (2.0 * h)
    return _rel_err(fd, H)
