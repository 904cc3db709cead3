import math

import numpy as np
import pytest

from pddopt import analysis, objective as ob
from pddopt.dynamics import (
    DynParams,
    discrete_continuous_consistency,
    integrate_rk4,
    pdd_vector_field,
    second_order_residual,
)
from pddopt.optimizers import pdd_step

from oracles import assemble_quadratic_system


def state_norms(traj):
    """Euclidean norm of the stacked state (x, p) at each time."""
    return np.sqrt(np.sum(traj.xs ** 2, axis=1) + np.sum(traj.ps ** 2, axis=1))


def test_field_vanishes_at_stationary_state():
    obj = ob.quad_minus_cos(np.array([1.0, 0.3, -0.9]) /
                            np.linalg.norm([1.0, 0.3, -0.9]) * np.sqrt(1.9))
    params = DynParams(A=2.0, epsilon=0.7, gamma=0.4)
    dx, dp = pdd_vector_field(obj.minimizer, np.zeros(3), 0.0, params, obj)
    np.testing.assert_array_equal(dx, np.zeros(3))
    np.testing.assert_array_equal(dp, np.zeros(3))


def test_pure_rotation_when_undamped():
    # eps = gamma = 0, C = A = I, f = x^2/2: (dx, dp) = (-p, x)
    obj = ob.quadratic(np.array([[1.0]]))
    params = DynParams(A=1.0, epsilon=0.0, gamma=0.0)
    dx, dp = pdd_vector_field(np.array([3.0]), np.array([2.0]), 0.0, params, obj)
    assert dx[0] == -2.0 and dp[0] == 3.0


def test_field_matches_quadratic_block_matrix():
    # constant C = I and A: the field is the linear map of the block system
    rng = np.random.default_rng(7)
    Q = ob.make_diag_dominant_Q(4, seed=2)
    obj = ob.quadratic(Q)
    A, eps, gamma = 1.7, 0.6, 0.3
    B = np.linalg.inv(Q)  # C = B hess f
    M = assemble_quadratic_system(Q, A, B, gamma, eps)
    params = DynParams(A=A, epsilon=eps, gamma=gamma)
    for _ in range(20):
        x = rng.standard_normal(4)
        p = rng.standard_normal(4)
        dx, dp = pdd_vector_field(x, p, 0.0, params, obj)
        ref = M @ np.concatenate([x, p])
        np.testing.assert_allclose(np.concatenate([dx, dp]), ref,
                                   rtol=1e-12, atol=1e-12)


def test_rk4_constant_at_stationary_start():
    obj = ob.quadratic(np.diag([1.0, 2.0]))
    params = DynParams(A=1.0, epsilon=1.0, gamma=0.5)
    traj = integrate_rk4(params, obj, np.zeros(2), np.zeros(2),
                         t_end=1.0, dt=0.01)
    assert not traj.diverged
    np.testing.assert_array_equal(traj.xs, np.zeros_like(traj.xs))
    np.testing.assert_array_equal(traj.ps, np.zeros_like(traj.ps))


def test_rk4_grad_norms_are_the_gradient_norms_of_the_states():
    obj = ob.reg_log_sum_exp(ob.make_diag_dominant_Q(6, seed=1))
    params = DynParams(A=1.0, epsilon=1.0, gamma=0.5)
    traj = integrate_rk4(params, obj, np.linspace(-1.0, 1.0, 6), np.zeros(6),
                         t_end=1.0, dt=0.01)
    assert traj.grad_norms.shape == traj.times.shape == (101,)
    for k in range(traj.times.shape[0]):
        assert traj.grad_norms[k] == np.linalg.norm(obj.gradient(traj.xs[k]))


def test_rk4_grad_norms_of_a_diverging_run_end_with_its_arrays():
    # dt far beyond RK4's stability limit on a stiff quadratic overflows
    obj = ob.quadratic(np.diag([1.0, 1e3]))
    params = DynParams(A=1.0, epsilon=1.0, gamma=0.0)
    traj = integrate_rk4(params, obj, np.array([1.0, 1.0]), np.zeros(2),
                         t_end=1e3, dt=1.0)
    assert traj.diverged
    n = traj.times.shape[0]
    assert n < 1001
    assert traj.xs.shape[0] == traj.ps.shape[0] == traj.grad_norms.shape[0] == n
    with np.errstate(all="ignore"):
        expected = [np.linalg.norm(obj.gradient(x)) for x in traj.xs]
    np.testing.assert_array_equal(traj.grad_norms, expected)


# The allocating formulas `pdd_vector_field` and `integrate_rk4` were
# written as before they wrote into buffers made once per call; the
# buffered versions must give the same bits.

def allocating_field(x, p, t, params, obj, grad=None):
    g = obj.gradient(x) if grad is None else grad
    A = params.A
    dp = A * g - (params.eps_at(t) * A) * p
    v = p + params.gamma * dp
    return -v, dp


def allocating_rk4(params, obj, x0, p0, t_end, dt):
    t0 = dt if params.epsilon == "3/t" else 0.0
    d = obj.dim
    z = np.concatenate((x0, p0))
    n_steps = int(round((t_end - t0) / dt))
    times = t0 + dt * np.arange(n_steps + 1)
    zs = np.empty((n_steps + 1, 2 * d))
    zs[0] = z
    sq_norms = np.empty(n_steps + 1)
    diverged = False

    def f(t, z, grad=None):
        return np.concatenate(allocating_field(z[:d], z[d:], t, params, obj,
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
    return (times[:n], zs[:n, :d], zs[:n, d:], np.sqrt(sq_norms[:n]),
            diverged)


def trajectory_fields(traj):
    return traj.times, traj.xs, traj.ps, traj.grad_norms, traj.diverged


def assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        else:
            assert a == b


@pytest.mark.parametrize("eps", [0.7, "3/t"])
def test_rk4_is_bitwise_the_allocating_loop(eps):
    rng = np.random.default_rng(0)
    d = 6
    obj = ob.reg_log_sum_exp(ob.make_diag_dominant_Q(d, seed=1))
    params = DynParams(A=1.3, gamma=0.4, epsilon=eps)
    x0 = rng.standard_normal(d)
    p0 = rng.standard_normal(d)
    given = x0.tobytes(), p0.tobytes()
    traj = integrate_rk4(params, obj, x0, p0, t_end=2.0, dt=0.01)
    assert (x0.tobytes(), p0.tobytes()) == given
    assert traj.times.shape == (200 if eps == "3/t" else 201,)
    assert_same_bits(trajectory_fields(traj),
                     allocating_rk4(params, obj, x0, p0, t_end=2.0, dt=0.01))


@pytest.mark.parametrize("dt", [0.05, 1.0])
def test_rk4_diverging_run_is_bitwise_the_allocating_loop(dt):
    # dt beyond RK4's stability limit: the run overflows to inf (dt = 1) or
    # nan (dt = 0.05) and must stop at the same step
    obj = ob.quadratic(np.diag([1.0, 100.0, 1e4]))
    params = DynParams(A=1.0, epsilon=0.1, gamma=0.5)
    traj = integrate_rk4(params, obj, np.ones(3), np.zeros(3),
                         t_end=2000.0, dt=dt)
    assert traj.diverged and traj.times.shape[0] < 100
    assert_same_bits(trajectory_fields(traj),
                     allocating_rk4(params, obj, np.ones(3), np.zeros(3),
                                    t_end=2000.0, dt=dt))


def test_rk4_integrations_share_no_memory():
    obj = ob.reg_log_sum_exp(ob.make_diag_dominant_Q(4, seed=2))
    params = DynParams(A=1.0, epsilon=1.0, gamma=0.5)
    first = trajectory_fields(integrate_rk4(
        params, obj, np.ones(4), np.zeros(4), t_end=0.5, dt=0.01))[:4]
    kept = [a.copy() for a in first]
    second = trajectory_fields(integrate_rk4(
        params, obj, -np.ones(4), np.ones(4), t_end=0.5, dt=0.01))[:4]
    for a in first:
        assert not any(np.shares_memory(a, b) for b in second)
    assert_same_bits(first, kept)


@pytest.mark.parametrize("with_grad", [False, True])
def test_vector_field_out_is_the_allocating_field(with_grad):
    rng = np.random.default_rng(10)
    d = 5
    obj = ob.reg_log_sum_exp(ob.make_diag_dominant_Q(d, seed=3))
    params = DynParams(A=0.8, epsilon="3/t", gamma=0.3)
    x, p = rng.standard_normal(d), rng.standard_normal(d)
    g = obj.gradient(x) if with_grad else None
    inputs = [a.tobytes() for a in (x, p, g) if a is not None]
    want = np.concatenate(allocating_field(x, p, 0.7, params, obj, grad=g))

    fenced = np.full(2 * d + 2, 7.0)  # one sentinel on each side of out
    buf = fenced[1:-1]
    dx, dp = pdd_vector_field(x, p, 0.7, params, obj, grad=g, out=buf)
    assert buf.tobytes() == want.tobytes()
    assert fenced[0] == fenced[-1] == 7.0
    assert [a.tobytes() for a in (x, p, g) if a is not None] == inputs
    assert dx.shape == dp.shape == (d,)
    assert dx.ctypes.data == buf.ctypes.data
    assert dp.ctypes.data == buf[d:].ctypes.data

    dx, dp = pdd_vector_field(x, p, 0.7, params, obj, grad=g)
    assert np.concatenate((dx, dp)).tobytes() == want.tobytes()


def test_rk4_conserves_harmonic_rotation():
    obj = ob.quadratic(np.array([[1.0]]))
    params = DynParams(A=1.0, epsilon=0.0, gamma=0.0)
    traj = integrate_rk4(params, obj, np.array([1.0]), np.array([0.0]),
                         t_end=10.0, dt=1e-3)
    norms = state_norms(traj)
    assert np.max(np.abs(norms - norms[0])) <= 10.0 * 1e-3 ** 4 * 10.0


def test_rk4_empirical_order():
    # endpoint error against a dt/8 reference shrinks ~16x per halving
    obj = ob.quadratic(np.diag([1.0, 2.0]))
    params = DynParams(A=1.0, epsilon=1.0, gamma=0.4)
    x0 = np.array([1.0, -1.0])
    p0 = np.array([0.2, 0.3])

    def endpoint(dt):
        t = integrate_rk4(params, obj, x0, p0, t_end=2.0, dt=dt)
        return np.concatenate([t.xs[-1], t.ps[-1]])

    ref = endpoint(0.02 / 8.0)
    e1 = np.linalg.norm(endpoint(0.02) - ref)
    e2 = np.linalg.norm(endpoint(0.01) - ref)
    order = np.log2(e1 / e2)
    assert order >= 3.8


def test_nesterov_integration_starts_after_zero():
    obj = ob.quadratic(np.eye(2))
    params = DynParams(A=1.0, epsilon="3/t", gamma=0.0)
    assert params == DynParams(A=1.0, epsilon="3/t", gamma=0.0)
    assert params.eps_at(3.0) == 1.0
    traj = integrate_rk4(params, obj, np.array([1.0, 1.0]), np.zeros(2),
                         t_end=5.0, dt=0.01)
    assert traj.times[0] == pytest.approx(0.01)
    assert not traj.diverged
    # the damped system must have lost energy
    norms = state_norms(traj)
    assert norms[-1] < norms[0]


def test_second_order_residual_orders():
    obj = ob.quadratic(np.diag([1.0, 2.0]))
    params = DynParams(A=1.0, epsilon=1.0, gamma=0.5)
    x0 = np.array([1.0, -1.0])
    p0 = np.zeros(2)

    def residual(dt):
        traj = integrate_rk4(params, obj, x0, p0, t_end=3.0, dt=dt)
        return second_order_residual(traj, params, obj)

    r_coarse = residual(1e-2)
    r_fine = residual(1e-3)
    scale = 1.0  # |x| <= 1.5 along this run
    assert r_coarse <= 100.0 * 1e-2 ** 2 * scale
    assert r_fine <= 100.0 * 1e-3 ** 2 * scale
    assert 50.0 <= r_coarse / r_fine <= 200.0


def test_residual_on_exact_damped_oscillator():
    # x'' + x' + x = 0 has a closed-form solution; sampling it at dt and
    # evaluating the residual must give O(dt^2)
    obj = ob.quadratic(np.array([[1.0]]))
    params = DynParams(A=1.0, epsilon=1.0, gamma=0.0)

    def closed_form(t):
        # x(0)=1, x'(0)=0
        w = np.sqrt(3.0) / 2.0
        return np.exp(-0.5 * t) * (np.cos(w * t) + (0.5 / w) * np.sin(w * t))

    for dt in (1e-2, 1e-3):
        times = np.arange(0.0, 3.0 + dt / 2, dt)
        xs = closed_form(times)[:, None]
        from pddopt.dynamics import OdeTrajectory
        traj = OdeTrajectory(times=times, xs=xs, ps=np.zeros_like(xs), dt=dt)
        res = second_order_residual(traj, params, obj)
        assert res <= 2.0 * dt ** 2


def test_residual_requires_enough_samples_and_constant_C():
    obj = ob.quadratic(np.array([[1.0]]))
    params = DynParams(A=1.0, epsilon=1.0, gamma=0.0)
    from pddopt.dynamics import OdeTrajectory
    tiny = OdeTrajectory(times=np.array([0.0, 0.1]), xs=np.zeros((2, 1)),
                         ps=np.zeros((2, 1)), dt=0.1)
    with pytest.raises(ValueError):
        second_order_residual(tiny, params, obj)
    # C = I is constant, as the residual needs
    damped = DynParams(A=1.0, epsilon=1.0, gamma=0.5)
    ok = OdeTrajectory(times=np.array([0.0, 0.1, 0.2]), xs=np.zeros((3, 1)),
                       ps=np.zeros((3, 1)), dt=0.1)
    assert second_order_residual(ok, damped, obj) == 0.0


def test_discrete_continuous_consistency_first_order():
    obj = ob.quadratic(np.array([[1.0]]))
    errs = discrete_continuous_consistency(
        obj, taus=[0.1, 0.05, 0.025], gamma=0.5, eps=1.0, A=1.0,
        x0=np.array([1.0]), p0=np.array([0.0]), t_end=4.0)
    assert errs[0] > errs[1] > errs[2]
    for e1, e2 in zip(errs[:-1], errs[1:]):
        assert 1.7 <= e1 / e2 <= 2.3


def per_tau_reference_consistency(obj, taus, gamma, eps, A, x0, p0, t_end,
                                  ref_refine=20):
    # the probe as it was before it shared one reference: a fresh RK4
    # reference on each tau's own grid
    dyn = DynParams(A=A, epsilon=eps, gamma=gamma)
    errors = []
    for tau in taus:
        n = int(round(t_end / tau))
        ref = integrate_rk4(dyn, obj, x0, p0, t_end=n * tau,
                            dt=tau / ref_refine)
        hp = dict(tau=tau, sigma=tau, A=A, epsilon=eps, omega=gamma / tau)
        x, s = x0, {"p": p0}
        worst = 0.0
        for k in range(1, n + 1):
            x, s = pdd_step(x, obj.gradient(x), s, hp)
            rx = ref.xs[k * ref_refine]
            rp = ref.ps[k * ref_refine]
            err = np.sqrt(float(np.sum((x - rx) ** 2)
                                + np.sum((s["p"] - rp) ** 2)))
            worst = max(worst, err)
        errors.append(worst)
    return errors


@pytest.mark.parametrize("obj, taus, gamma, x0, p0, t_end", [
    (ob.quadratic(np.array([[1.0]])), [0.1, 0.05, 0.025, 0.0125], 0.5,
     np.array([1.0]), np.array([0.0]), 4.0),
    (ob.rosenbrock(n=2), [0.002, 0.001, 0.0005], 0.005,
     np.array([-0.5, 0.5]), np.zeros(2), 1.0),
], ids=["quadratic-1d", "rosenbrock"])
def test_consistency_shared_reference_matches_per_tau_references(
        obj, taus, gamma, x0, p0, t_end):
    # a coarser tau now reads a finer RK4 reference; RK4's own error is far
    # below the first-order discrete error, and the finest reference is the
    # same integration as before
    args = dict(taus=taus, gamma=gamma, eps=1.0, A=1.0, x0=x0, p0=p0,
                t_end=t_end)
    errs = discrete_continuous_consistency(obj, **args)
    ref = per_tau_reference_consistency(obj, **args)
    np.testing.assert_allclose(errs, ref, rtol=1e-6, atol=0.0)
    assert errs[-1] == ref[-1]


@pytest.mark.parametrize("bad", [
    {"A": np.nan}, {"gamma": np.nan}, {"epsilon": np.nan}, {"A": 0.0},
    {"gamma": -1.0}, {"epsilon": -1.0}, {"epsilon": "2/t"}, {"epsilon": "x"},
    {"epsilon": lambda t: 3.0 / t}])
def test_dyn_params_reject_out_of_range_and_nan_coefficients(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        DynParams(**{"A": 1.0, "epsilon": 1.0, "gamma": 0.5, **bad})


@pytest.mark.parametrize("t_end,dt,message", [
    (1.0, float("nan"), "integrate_rk4: 'dt' must be a finite number"),
    (float("nan"), 0.1, "integrate_rk4: 't_end' must be a finite number")],
    ids=["dt", "t_end"])
def test_integrate_rk4_rejects_a_nan_dt_or_t_end(t_end, dt, message):
    obj = ob.quadratic(np.array([[1.0]]))
    params = DynParams(A=1.0, epsilon=1.0, gamma=0.5)
    with pytest.raises(ValueError, match=message):
        integrate_rk4(params, obj, np.ones(1), np.zeros(1), t_end=t_end,
                      dt=dt)


def test_consistency_rejects_taus_that_do_not_nest():
    obj = ob.quadratic(np.array([[1.0]]))
    with pytest.raises(ValueError, match="integer multiples"):
        discrete_continuous_consistency(
            obj, taus=(0.1, 0.03), gamma=0.5, eps=1.0, A=1.0,
            x0=np.array([1.0]), p0=np.array([0.0]), t_end=1.0)


def test_consistency_rejects_a_zero_tau():
    obj = ob.quadratic(np.array([[1.0]]))
    with pytest.raises(ValueError, match="taus must be positive"):
        discrete_continuous_consistency(
            obj, taus=(0.1, 0.0), gamma=0.5, eps=1.0, A=1.0,
            x0=np.array([1.0]), p0=np.array([0.0]), t_end=1.0)


def test_consistency_rejects_a_diverged_reference():
    # dt = 0.5/20 = 0.025 is far outside RK4's stability region for the 1e4
    # mode: the reference overflows to nan at t = 1.1, long before t_end
    obj = ob.quadratic(np.diag([1.0, 1e4]))
    with pytest.raises(ValueError, match=r"reference .* diverged at t = 1\.1;"):
        discrete_continuous_consistency(
            obj, taus=[1.0, 0.5], gamma=0.5, eps=1.0, A=1.0,
            x0=np.ones(2), p0=np.zeros(2), t_end=2000.0)


def test_consistency_zero_from_stationary_start():
    obj = ob.quadratic(np.eye(2))
    errs = discrete_continuous_consistency(
        obj, taus=[0.1, 0.05], gamma=0.5, eps=1.0, A=1.0,
        x0=np.zeros(2), p0=np.zeros(2), t_end=1.0)
    assert max(errs) == 0.0


def test_consistency_on_rosenbrock_short_horizon():
    obj = ob.rosenbrock(n=2)
    errs = discrete_continuous_consistency(
        obj, taus=[0.002, 0.001, 0.0005], gamma=0.005, eps=1.0, A=1.0,
        x0=np.array([-0.5, 0.5]), p0=np.zeros(2), t_end=1.0)
    assert errs[0] > errs[1] > errs[2]


def test_lyapunov_decay_continuous():
    # quadratic with hess spectrum [mu, L]; with gamma = 1/mu, eps = 1 and
    # the balanced A the sampled functional decays at least like exp(-mu t)
    mu, L = 0.5, 2.0
    obj = ob.quadratic(np.diag([mu, L]))
    gamma = 1.0 / mu
    A = (mu + L) / (2.0 + (mu + L) * gamma)
    params = DynParams(A=A, epsilon=1.0, gamma=gamma)
    traj = integrate_rk4(params, obj, np.array([1.0, 1.0]), np.zeros(2),
                         t_end=10.0, dt=1e-3)
    I0 = analysis.lyapunov_I(obj, traj.xs[0], traj.ps[0])
    for k in range(0, traj.xs.shape[0], 100):
        It = analysis.lyapunov_I(obj, traj.xs[k], traj.ps[k])
        assert It <= 1.05 * I0 * np.exp(-mu * traj.times[k])


@pytest.mark.parametrize("t_end,dt", [(1e300, 1e-10), (10.0, 1e-6),
                                      (math.inf, 1.0), (5e3, 1e-3)])
def test_rk4_refuses_a_trajectory_over_the_cap_before_allocating(t_end, dt):
    # 1e300 / 1e-10 overflowed int(round(.)); 10 / 1e-6 at d = 100 asked
    # np.empty for 16 GB; an infinite t_end is no finite number, as a
    # config's dynamics section declares t_end
    obj = ob.quadratic(np.eye(100))
    with pytest.raises(ValueError, match="'t_end' must be a finite number"
                       if math.isinf(t_end) else r"dt = .* at dimension 100 "
                       r"need .* bytes, over the 1073741824-byte"):
        integrate_rk4(DynParams(A=1.0, epsilon=1.0, gamma=0.5), obj,
                      np.ones(100), np.zeros(100), t_end=t_end, dt=dt)


@pytest.mark.parametrize("t_end", [1e300, math.inf])
def test_consistency_probe_obeys_the_trajectory_cap(t_end):
    obj = ob.quadratic(np.eye(2))
    with pytest.raises(ValueError, match="byte cap"):
        discrete_continuous_consistency(obj, [0.1, 0.05], gamma=0.5, eps=1.0,
                                        A=1.0, x0=np.ones(2), p0=np.zeros(2),
                                        t_end=t_end)
