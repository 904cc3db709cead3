"""Differentiable scalar objectives with analytic gradients.

Every test problem used by the optimizer benchmarks lives here, together
with a finite-difference oracle for checking analytic derivatives. All
evaluation is pure and objectives are immutable after construction, so they
are safe to share between concurrent runs.

The optimizers call `Objective.gradient` once per step on vectors of 2 to
100 entries, where numpy's per-call dispatch outweighs the arithmetic. The
2-d Rosenbrock gradient is therefore evaluated in Python floats, with the
array formula's operations in its order, when `x0 + x1` is finite; any
inf or nan, or a sum that overflows, takes the array path. So the result
is bitwise equal to the array formula's, ±0 and the sign of a nan
included. Ackley stays on numpy: `math.cos` raises on inf, and numpy's
float64 exp/sin/cos loops are not guaranteed to round like libm, so a
float transcription could move its pinned values.

For n > 2 the Rosenbrock gradient runs one loop over strips of `_STRIP` =
16384 entries. A whole-array pass at n = 1e6 streams each 8 MB temporary
through DRAM; a strip's temporaries are 128 KB each, so the few a strip
makes stay in a 2 MB L2. Every strip applies the whole-array formula's
operations in its order, and the 2b d term a strip adds one slot to the
right is added only after the next strip has written that slot, so the
result is bitwise equal to the whole-array formula's, ±0, inf and the sign
of a nan included. The nan sign needs one more condition. When both
operands of an add or multiply are nan, numpy returns one of them, chosen
by where the entry sits in its SIMD loop (inside an 8-wide block, in a
tail, or in an array of fewer than 8 entries), so strips of 1 to 7 entries
can flip it. Every strip but the last therefore holds `_STRIP` entries, a
multiple of 64, and a last strip shorter than 64 joins the one before it.
There is no option and no second path: n <= 16385 is one strip.
"""

from __future__ import annotations

import functools
import math
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
        self._shape = (self.dim,)
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
        # `_point` inlined: the optimizers call this once per step
        x = np.asarray(x, dtype=float)
        if x.shape != self._shape:
            self._point(x)
        return np.asarray(self._gradient(x), dtype=float)

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

def _lse_exp(z: np.ndarray):
    """exp(z - m), m = max(z), and its sum; max-shifted, so finite for
    |z_i| up to ~1e4 and beyond. log sum exp(z) = m + log(sum).

    The ufunc reductions are the ones `z.max()` and `e.sum()` call, without
    the method wrappers, and exp runs in place on the shifted copy, so the
    bits are those of the method form."""
    m = float(np.maximum.reduce(z))
    e = np.subtract(z, m)
    np.exp(e, out=e)
    return e, m, float(np.add.reduce(e))


def _lse_value(Q: np.ndarray, x: np.ndarray) -> float:
    z = Q @ x
    _, m, se = _lse_exp(z)
    return m + float(np.log(se)) + 0.5 * float(x @ z)


def _lse_grad(Q: np.ndarray, x: np.ndarray) -> np.ndarray:
    z = Q @ x
    e, _, se = _lse_exp(z)
    np.divide(e, se, out=e)
    g = Q @ e
    np.add(g, z, out=g)
    return g


def _lse_hess(Q: np.ndarray, x: np.ndarray) -> np.ndarray:
    e, _, se = _lse_exp(Q @ x)
    s = e / se
    H = Q @ (np.diag(s) - np.outer(s, s)) @ Q + Q
    return 0.5 * (H + H.T)


def _rosenbrock_value(a: float, b: float, x: np.ndarray) -> float:
    d = x[1:] - x[:-1] ** 2
    return float(np.sum((a - x[:-1]) ** 2) + b * np.sum(d * d))


# Entries per strip of the N-d Rosenbrock gradient: 128 KB per temporary,
# so a strip's few temporaries stay in a 2 MB L2 however long x is. A
# multiple of _MIN_STRIP, like every strip but a merged last one.
_STRIP = 16384
_MIN_STRIP = 64
# a 0-d operand skips numpy's per-call conversion of a Python float
_MINUS_TWO = np.array(-2.0)


def _rosenbrock_grad(a: float, b: float, x: np.ndarray) -> np.ndarray:
    if x.shape == (2,):
        x0, x1 = x.tolist()
        if math.isfinite(x0 + x1):
            # the array path below in Python floats, operation for operation;
            # `0.0 +` turns a -0.0 into +0.0 as `tail +=` on a zero does
            d = x1 - x0 * x0
            return np.array((-2.0 * (a - x0) - 4.0 * b * x0 * d,
                             0.0 + 2.0 * b * d))
    # g_i = -2 (a - x_i) - 4b x_i d_i + 2b d_{i-1}, d_i = x_{i+1} - x_i^2,
    # one strip at a time. A strip's 2b d terms land one slot to the right,
    # the last on the next strip's first slot, so they are added once that
    # strip's base has been written. The in-place products swap operands,
    # which rounds the same, and `head * head` is `head ** 2`.
    n = len(x) - 1
    g = np.empty(n + 1)
    tail = None
    lo = 0
    while lo < n:
        hi = lo + _STRIP
        if n - hi < _MIN_STRIP:  # the last strip, with any short remainder
            hi = n
        head = x[lo:hi]
        d = x[lo + 1:hi + 1] - head * head
        base = g[lo:hi]
        np.subtract(a, head, base)
        base *= _MINUS_TWO
        t = 4.0 * b * head
        t *= d
        base -= t
        if tail is not None:
            tail += term
        tail, term = g[lo + 1:hi + 1], d
        term *= 2.0 * b
        lo = hi
    g[-1] = 0.0
    tail += term
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
        gradient=functools.partial(_rosenbrock_grad, a, b),
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

