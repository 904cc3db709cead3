"""Property tests of the update-rule table over random hyperparameters and
of the config round trip."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pddopt import harness
from pddopt import objective as ob
from pddopt.optimizers import RULES, run_optimizer

positive = st.floats(1e-3, 10.0)
nonnegative = st.floats(0.0, 10.0)
unit = st.floats(0.0, 0.999)


@st.composite
def hyperparams(draw, method):
    """Parameters inside the range each kernel accepts."""
    tau = draw(positive)
    if method == "gd":
        return {"tau": tau}
    if method in ("nag", "heavy_ball"):
        return {"tau": tau, "beta": draw(unit)}
    if method == "igahd":
        return {"tau": tau, "alpha": draw(nonnegative),
                "beta1": draw(st.floats(0.0, 2.0 * math.sqrt(tau)))}
    if method == "igahd_sc":
        m1 = draw(positive)
        return {"tau": tau, "m1": m1, "beta2": draw(st.floats(0.0, 1.0 / math.sqrt(m1)))}
    return {"tau": tau, "sigma": draw(positive), "A": draw(positive),
            "epsilon": draw(nonnegative), "omega": draw(nonnegative)}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), diag=st.lists(positive, min_size=1, max_size=5))
def test_stationary_point_is_a_fixed_point_of_every_rule(data, diag):
    obj = ob.quadratic(np.diag(diag))
    x = np.zeros(len(diag))
    for method, rule in RULES.items():
        hp = data.draw(hyperparams(method), label=method)
        rule.validate(method, hp)
        x_new, _ = rule.step(x, obj.gradient(x), rule.init(x), hp,
                             obj.gradient)
        assert x_new.tobytes() == x.tobytes(), method


vectors = st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3).map(np.array)


@settings(max_examples=100, deadline=None)
@given(sigma=positive, A=positive, eps=nonnegative, g=vectors, p=vectors)
def test_pdd_dual_update_closed_form(sigma, A, eps, g, p):
    hp = {"tau": 0.1, "sigma": sigma, "A": A, "epsilon": eps, "omega": 1.0}
    _, state = RULES["pdd"].step(np.zeros(3), g, {"p": p}, hp, None)
    np.testing.assert_array_equal(state["p"], (p + sigma * A * g) / (1 + sigma * eps * A))


# ---------------------------------------------------------------------------
# Rosenbrock gradient: the 2-d float path and the strip loop
# ---------------------------------------------------------------------------

def rosenbrock_grad_reference(a, b, x):
    """The whole-array formula, transcribed; the kernel's n = 2 float path
    and its strip loop must match it bit for bit."""
    g = np.zeros(x.shape)
    d = x[1:] - x[:-1] ** 2
    g[:-1] = -2.0 * (a - x[:-1]) - 4.0 * b * x[:-1] * d
    g[1:] += 2.0 * b * d
    return g


# moderate values, where a reordered product rounds differently, and
# magnitudes up to 1e160, where x_i^2 and the products overflow to inf
entries = (st.floats(-10.0, 10.0)
           | st.floats(1e-5, 1e160) | st.floats(-1e160, -1e-5)
           | st.sampled_from((0.0, -0.0, math.inf, -math.inf,
                              math.nan, -math.nan)))
coefficients = st.floats(-1e3, 1e3)


# strips of 1 to 7 entries put strip boundaries, one-entry last strips and
# special values next to a boundary inside n <= 40; the real strip size
# covers the one-strip case
@settings(max_examples=300, deadline=None)
@given(a=coefficients, b=coefficients, data=st.data(),
       n=st.integers(2, 40) | st.just(100),
       strip=st.sampled_from((1, 2, 3, 7, ob._STRIP)))
def test_rosenbrock_grad_matches_the_array_formula(a, b, data, n, strip):
    x = data.draw(hnp.arrays(np.float64, n, elements=entries), label="x")
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(ob, "_STRIP", strip)
        got = ob._rosenbrock_grad(a, b, x)
        want = rosenbrock_grad_reference(a, b, x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # +-0, +-nan


def test_rosenbrock_runs_across_strips_match_the_array_formula():
    # n - 1 = 32770 differences: two full strips and a 2-entry last one,
    # whose last 2b d term lands on g[-1]
    n = 2 * ob._STRIP + 3
    a, b = 1.0, 100.0
    strips = ob.rosenbrock(a, b, n)
    reference = ob.Objective(
        n, value=strips.value,
        gradient=lambda x: rosenbrock_grad_reference(a, b, x),
        minimizer=strips.minimizer, name=strips.name)
    x0 = np.linspace(-1.0, 1.5, n)
    for spec in harness.preset("rosenbrockNd").optimizers:
        runs = [run_optimizer(obj, spec.method, spec.params, x0, max_iter=30)
                for obj in (strips, reference)]
        assert not runs[0].diverged, spec.method
        assert runs[0].records == runs[1].records, spec.method
        assert runs[0].final_x.tobytes() == runs[1].final_x.tobytes()


# ---------------------------------------------------------------------------
# config round trip
# ---------------------------------------------------------------------------

numbers = st.floats(allow_nan=False, allow_infinity=False)
small_ints = st.integers(0, 10**6)


def section(keys):
    """A dict over a subset of ``keys`` with JSON-exact values."""
    if not keys:
        return st.just({})
    return st.dictionaries(st.sampled_from(keys), numbers | small_ints)


problems = st.sampled_from(sorted(harness._PROBLEM_PARAMS)).flatmap(
    lambda name: st.builds(harness.ProblemSpec, st.just(name),
                           section(harness._PROBLEM_PARAMS[name]),
                           small_ints))
optimizer_specs = st.builds(
    harness.OptimizerSpec, st.sampled_from(sorted(RULES)),
    st.from_regex(r"[A-Za-z0-9._-]{1,12}", fullmatch=True),
    st.dictionaries(st.sampled_from(("tau", "beta", "sigma", "C")),
                    numbers | st.just("identity")))
configs = st.builds(
    harness.ExperimentConfig, problems,
    st.lists(optimizer_specs, min_size=1, max_size=4),
    st.lists(numbers, max_size=5) | st.builds(dict, fill=numbers),
    max_iter=st.integers(1, 10**7), grad_tol=numbers,
    record_every=st.integers(1, 1000),
    outputs=st.sampled_from([("csv", "svg"), ("csv",), ("svg",), ()]),
    output_dir=st.none() | st.text(min_size=1, max_size=10),
    analysis=section(harness._ANALYSIS_KEYS),
    dynamics=section(harness._DYNAMICS_KEYS))


@settings(max_examples=60, deadline=None)
@given(config=configs)
def test_config_round_trip(config):
    assert harness.config_from_dict(harness.config_to_dict(config)) == config
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        harness.save_config(config, path)
        assert harness.load_config(path) == config
