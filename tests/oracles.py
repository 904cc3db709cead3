"""Reference implementations that only the tests use."""

import numpy as np


def assemble_quadratic_system(Q, A, B, gamma: float, eps: float) -> np.ndarray:
    """Dense 2d x 2d generator of the linear (x, p) dynamics on a quadratic:

        [[-gamma B Q A Q,  -B Q (I - gamma eps A)],
         [        A Q,               -eps A      ]]

    ``A`` may be a scalar, a diagonal vector, or a matrix. Used as the test
    oracle for the per-mode rates (acceptance criterion 1).
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
