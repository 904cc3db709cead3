"""Primal-dual damping optimization toolkit.

Modules:
    objective  -- test problems with analytic derivatives + FD oracle
    optimizers -- the damping iteration and first-order baselines
    dynamics   -- continuous-time limit, RK4 integration, residual checks
    analysis   -- Lyapunov functional, spectral rates, stepsize recipes
    harness    -- experiment presets, CSV/SVG emission, config handling
    toynet     -- small MLP trained with the stochastic variants
"""

from .objective import (
    Objective,
    quadratic,
    reg_log_sum_exp,
    quad_minus_cos,
    rosenbrock,
    ackley,
    make_diag_dominant_Q,
    check_gradient,
)
from .optimizers import (
    Trajectory,
    pdd_step,
    run_optimizer,
    compute_beta2,
)
from .dynamics import DynParams, integrate_rk4, pdd_vector_field
from .analysis import (
    lyapunov_I,
    continuous_lambda,
    theorem6_params,
    quadratic_spectral_rate,
    optimal_gamma,
    estimate_constants,
)

__version__ = "0.1.0"
