"""Property tests of the update-rule table over random hyperparameters."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pddopt import objective as ob
from pddopt.optimizers import RULES

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
        x_new, _ = rule.step(x, obj.gradient(x), rule.init(x), hp, obj)
        assert x_new.tobytes() == x.tobytes(), method


vectors = st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3).map(np.array)


@settings(max_examples=100, deadline=None)
@given(sigma=positive, A=positive, eps=nonnegative, g=vectors, p=vectors)
def test_pdd_dual_update_closed_form(sigma, A, eps, g, p):
    hp = {"tau": 0.1, "sigma": sigma, "A": A, "epsilon": eps, "omega": 1.0}
    _, state = RULES["pdd"].step(np.zeros(3), g, {"p": p}, hp, None)
    np.testing.assert_array_equal(state["p"], (p + sigma * A * g) / (1 + sigma * eps * A))
