"""Property tests of the update-rule table over random hyperparameters, of
the config round trip, and of the CLI on drawn configs."""

import json
import math
import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pddopt import analysis, cli, dynamics, harness, toynet
from pddopt import objective as ob
from pddopt.optimizers import RULES, RUN_SETTINGS, run_optimizer

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


# strips of 64 and 128 entries put strip boundaries, merged last strips and
# special values next to a boundary inside n <= 400; the real strip size
# covers the one-strip case. Strips are multiples of 64 because no numpy
# strip loop can match the array formula's nan signs with strips of 1 to 7
# entries (objective's docstring says why), and the kernel runs none.
arrays = st.integers(2, 400).flatmap(
    lambda n: hnp.arrays(np.float64, n, elements=entries))


# pinned: the n = 2 float path meeting an inf and a nan, and a 2-entry last
# strip, which must join the previous one to keep a nan's sign
@settings(max_examples=300, deadline=None)
@example(a=0.0, b=0.0, x=np.array([math.inf, math.nan]), strip=ob._STRIP)
@example(a=1.0, b=100.0, strip=64,
         x=np.r_[np.full(64, math.inf), math.nan, math.inf, math.inf])
@given(a=coefficients, b=coefficients, x=arrays,
       strip=st.sampled_from((64, 128, ob._STRIP)))
def test_rosenbrock_grad_matches_the_array_formula(a, b, x, strip):
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(ob, "_STRIP", strip)
        got = ob._rosenbrock_grad(a, b, x)
        want = rosenbrock_grad_reference(a, b, x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # +-0, +-nan


def test_rosenbrock_runs_across_strips_match_the_array_formula():
    # n - 1 = 32770 differences: a full strip, then one that takes the
    # 2-entry remainder and whose last 2b d term lands on g[-1]
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


def dense_C_constants(obj, points, c):
    """`analysis.estimate_constants` as it was with C a dense matrix:
    S hess S with S = diag(sqrt(c)) and C' M C with C = diag(c), as matmuls."""
    S, Cm = np.diag(np.sqrt(c)), np.diag(c)
    mu, L, Lp = math.inf, -math.inf, -math.inf
    for x in points:
        Hess = obj.hessian_at(x)
        w = np.linalg.eigvalsh(S @ Hess @ S)
        mu, L = min(mu, float(w[0])), max(L, float(w[-1]))
        v = obj.gradient(x)
        h = 1e-5 * (1.0 + np.linalg.norm(x)) / (1.0 + np.linalg.norm(v))
        T = (obj.hessian_at(x + h * v) - obj.hessian_at(x - h * v)) / (2.0 * h)
        M = Cm @ (T + Hess @ Hess) @ Cm
        M = 0.5 * (M + M.T)
        Lp = max(Lp, float(np.linalg.eigvalsh(M)[-1]))
    return mu, L, Lp


# no subnormal or signed zero entry: a product with an exact zero of
# diag(...) may then differ from the elementwise one in a zero's sign
entries = st.floats(-1e3, 1e3).map(lambda v: 0.0 if abs(v) < 1e-6 else v)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), d=st.integers(1, 5), k=st.integers(1, 3))
def test_estimate_constants_with_a_vector_C_is_the_dense_diagonal(data, d, k):
    # f = x'Hx/2 + sum(x^4)/12: hess f = H + diag(x^2), so the third
    # derivative term is not zero
    B = data.draw(hnp.arrays(float, (d, d), elements=entries), label="H")
    H = np.tril(B) + np.tril(B, -1).T
    c = data.draw(hnp.arrays(float, d, elements=st.floats(1e-3, 1e3)),
                  label="c")
    points = data.draw(st.lists(hnp.arrays(float, d, elements=st.floats(
        -10.0, 10.0).map(lambda v: v + 0.0)), min_size=k, max_size=k),
        label="points")
    obj = ob.Objective(d, value=lambda x: 0.5 * x @ H @ x + np.sum(x ** 4) / 12,
                       gradient=lambda x: H @ x + x ** 3 / 3,
                       hessian=lambda x: H + np.diag(x * x))
    est = analysis.estimate_constants(obj, points, C=c)
    assert (est.mu_hat, est.L_hat, est.Lp_hat) == dense_C_constants(obj, points, c)


# ---------------------------------------------------------------------------
# config round trip, every section drawn from harness's declarations
# ---------------------------------------------------------------------------

INTEGRAL = ("int", "ints", "seeds")
reals = st.floats(allow_nan=False, allow_infinity=False)
labels = st.from_regex(r"[A-Za-z0-9._-]{1,12}", fullmatch=True)


def bounds(rng):
    """(low, high, low excluded, high excluded) of a range such as
    ">= 0, < 2"; a missing bound is None."""
    lo = hi = None
    lo_open = hi_open = False
    for cond in filter(None, rng.split(",")):
        op, bound = cond.split()
        if op.startswith(">"):
            lo, lo_open = float(bound), op == ">"
        else:
            hi, hi_open = float(bound), op == "<"
    return lo, hi, lo_open, hi_open


def in_range(key):
    """Numbers of the key's kind (or of its entries) inside its range."""
    lo, hi, lo_open, hi_open = bounds(key.range)
    if key.kind in INTEGRAL:
        return st.integers(
            None if lo is None else math.floor(lo) + 1 if lo_open else math.ceil(lo),
            None if hi is None else math.ceil(hi) - 1 if hi_open else math.floor(hi))
    return st.floats(lo, hi, exclude_min=lo_open, exclude_max=hi_open,
                     allow_nan=False, allow_infinity=False)


def out_of_range(key):
    """Numbers outside the key's range; nothing if it has none."""
    lo, hi, lo_open, hi_open = bounds(key.range)
    outside = []
    if key.kind in INTEGRAL:
        if lo is not None:
            outside.append(st.integers(max_value=math.floor(lo) if lo_open
                                       else math.ceil(lo) - 1))
        if hi is not None:
            outside.append(st.integers(min_value=math.ceil(hi) if hi_open
                                       else math.floor(hi) + 1))
    else:
        if lo is not None:
            outside.append(st.floats(max_value=lo, exclude_max=not lo_open))
        if hi is not None:
            outside.append(st.floats(min_value=hi, exclude_min=not hi_open))
        # an excluded bound itself, which a draw from a range rarely hits
        outside += [st.just(b) for b, open_ in ((lo, lo_open), (hi, hi_open))
                    if open_]
    return st.one_of(outside) if outside else st.nothing()


def valid(key):
    """A JSON-exact value of the key's kind inside its range."""
    num = in_range(key)
    return {
        "int": num, "real": num,
        "vector": st.lists(reals, max_size=5),
        "ints": st.lists(num, max_size=4),
        "seeds": st.lists(num, min_size=1, max_size=4),
        "x0": st.lists(reals, max_size=5) | st.builds(dict, fill=reals),
        "epsilon": num | st.just("3/t"),
        "str": st.text(max_size=10), "label": labels,
        "path": st.none() | st.text(min_size=1, max_size=10),
    }[key.kind]


def invalid(key):
    """Values the key must reject: a bool, a string where the kind takes
    no free string, and a number outside its kind or range."""
    bad = st.booleans()
    if key.kind == "label":
        bad |= st.sampled_from(["", "a/b", "a<b&c"])
    elif key.kind not in ("str", "path"):
        bad |= st.text(max_size=5).filter(lambda s: s != "3/t")
    if key.kind in INTEGRAL:
        bad |= st.floats(allow_nan=False)  # 5.0 is no integer either
    if key.kind in ("real", "epsilon"):
        bad |= st.sampled_from([math.nan, math.inf, -math.inf])
    outside = out_of_range(key)
    if key.kind in ("ints", "seeds", "vector"):
        outside = st.lists(outside, min_size=1, max_size=3)
    return bad | outside


def section(table):
    """A dict over a subset of ``table``'s keys, each with a valid value."""
    return st.fixed_dictionaries(
        {}, optional={k: valid(key) for k, key in table.items()})


TOP, PROBLEM, OPTIMIZER = (harness.SECTIONS[s]
                           for s in ("config", "problem", "optimizer"))


def tables(name):
    """The config and optimizer tables a problem's config is read with:
    toynet's hold only the keys it reads."""
    toy = "toynet " if name == "toynet" else ""
    return harness.SECTIONS[toy + "config"], harness.SECTIONS[toy + "optimizer"]


problems = st.sampled_from(sorted(harness.PROBLEM_PARAMS)).flatmap(
    lambda name: st.builds(harness.ProblemSpec, st.just(name),
                           section(harness.PROBLEM_PARAMS[name]).filter(
                               lambda p: not {"diag", "n"} <= set(p)),
                           valid(PROBLEM["seed"])))


def configs_of(problem):
    """Configs of ``problem`` that set each key its tables declare."""
    top, opt = tables(problem.name)
    spec = st.builds(
        harness.OptimizerSpec, st.sampled_from(sorted(RULES)),
        valid(opt["label"]) if "label" in opt else st.none(),
        st.dictionaries(st.sampled_from(("tau", "beta", "sigma", "C")),
                        reals | st.just("identity")))
    return st.builds(
        harness.ExperimentConfig, problem=st.just(problem),
        optimizers=st.lists(spec, min_size=1, max_size=4),
        **{k: section(harness.SECTIONS[k]) if key.kind == "section"
           else valid(key) for k, key in top.items()
           if k not in ("problem", "optimizers")})


configs = problems.flatmap(configs_of)


@settings(max_examples=60, deadline=None)
@given(config=configs)
def test_config_round_trip(config):
    assert harness.config_from_dict(harness.config_to_dict(config)) == config
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        harness.save_config(config, path)
        assert harness.load_config(path) == config


@settings(max_examples=200, deadline=None)
@given(config=configs, data=st.data())
def test_a_bool_string_or_out_of_range_value_is_rejected(config, data):
    d = harness.config_to_dict(config)
    name = d["problem"]["name"]
    top, opt = tables(name)
    where, target, table = data.draw(st.sampled_from([
        ("config", d, top), ("problem", d["problem"], PROBLEM),
        ("optimizers[0]", d["optimizers"][0], opt),
        (f"problem {name!r} params", d["problem"]["params"],
         harness.PROBLEM_PARAMS[name])] + [
        (s, d[s], harness.SECTIONS[s]) for s in ("analysis", "dynamics")
        if s in d]).filter(lambda s: s[2]), label="section")
    key = data.draw(st.sampled_from(sorted(table)), label="key")
    target[key] = data.draw(invalid(table[key]), label="value")
    with pytest.raises(ValueError) as err:
        harness.config_from_dict(d)
    # a section that is not an object is named as itself
    assert (key in str(err.value)
            and (where in str(err.value) or table[key].kind == "section"))


# ---------------------------------------------------------------------------
# the library refuses what a config refuses: one Key per setting
# ---------------------------------------------------------------------------

def test_each_setting_a_config_shares_with_the_library_is_the_library_key():
    shared = [(harness.SECTIONS["config"], RUN_SETTINGS),
              (harness.SECTIONS["dynamics"], dynamics.SETTINGS),
              (harness.PROBLEM_PARAMS["toynet"], toynet.TRAIN_KEYS),
              (harness.SECTIONS["analysis"], {"delta": analysis.RECIPE["delta"]})]
    for table, library in shared:
        for name, key in library.items():
            assert table[name] is key, name


class Reached(Exception):
    """A library call passed its checks: it asked for a gradient or data."""


def reached(*args, **kwargs):
    raise Reached


STOP = ob.Objective(2, value=reached, gradient=reached)


def train(values, **config):
    toynet.train(toynet.TrainConfig(**{"methods": ("sgd",), **config, **values}))


def hp_keys(rule):
    """A rule's Keys but pdd's C, which `as_preconditioner` checks."""
    return {k: key for k, key in rule.params.items() if key.kind != "C"}


# (library table, valid values for it, a call that takes them and stops at
# its first gradient or data)
LIBRARY = [
    (hp_keys(rule), dict.fromkeys(hp_keys(rule), 0.01),
     lambda hp, m=method: run_optimizer(STOP, m, hp, np.zeros(2), max_iter=1))
    for method, rule in RULES.items()] + [
    (toynet._RULES["adam"].params, dict.fromkeys(toynet._RULES["adam"].params, 0.01),
     lambda hp: train({}, methods=("adam",), hyperparams={"adam": hp})),
    (RUN_SETTINGS, {"max_iter": 1, "grad_tol": 0.0, "record_every": 1},
     lambda v: run_optimizer(STOP, "gd", {"tau": 0.1}, np.zeros(2), **v)),
    (dynamics.SETTINGS, {"A": 1.0, "epsilon": 1.0, "gamma": 0.0, "t_end": 1.0,
                         "dt": 0.1},
     lambda v: dynamics.integrate_rk4(
         dynamics.DynParams(v["A"], v["epsilon"], v["gamma"]), STOP,
         np.zeros(2), np.zeros(2), t_end=v["t_end"], dt=v["dt"])),
    (toynet.TRAIN_KEYS, {k: key.default for k, key in toynet.TRAIN_KEYS.items()},
     train),
    (analysis.RECIPE, {"mu": 1.0, "L": 2.0, "Lp": 3.0, "delta": 1.0},
     lambda v: analysis.theorem6_params(**v)),
]


def refused_by_its_key(exc, key, name):
    return f"{name!r} must be {ob.KINDS[key.kind][0]}" in str(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_library_refuses_what_a_config_refuses(data):
    # a value a config refuses is refused by the library code that takes it,
    # by its Key, before any gradient or data; a value a config takes is
    # refused at most by a test that relates it to another value
    table, base, call = data.draw(st.sampled_from(LIBRARY), label="library")
    name = data.draw(st.sampled_from(sorted(table)), label="key")
    bad = data.draw(st.booleans(), label="bad")
    value = data.draw(invalid(table[name]) if bad else valid(table[name]),
                      label="value")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(toynet, "make_blobs", reached)
        mp.setattr(dynamics, "_step_count", reached)
        try:
            call({**base, name: value})
        except Reached:
            assert not bad
        except ValueError as exc:
            assert refused_by_its_key(exc, table[name], name) == bad, exc
        else:
            assert not bad


@pytest.mark.parametrize("name,call", [
    ("A", lambda: dynamics.DynParams(A=math.inf, epsilon=1.0, gamma=0.0)),
    ("gamma", lambda: dynamics.DynParams(A=1.0, epsilon=1.0, gamma=math.inf)),
    ("epsilon", lambda: dynamics.DynParams(A=1.0, epsilon=True, gamma=0.0)),
    ("A", lambda: dynamics.DynParams(A=True, epsilon=1.0, gamma=0.0)),
    ("gamma", lambda: analysis.continuous_lambda(1.0, 2.0, math.nan, 1.0, 1.0)),
    ("A", lambda: analysis.continuous_lambda(1.0, 2.0, 1.0, 1.0, math.inf)),
    ("grad_tol", lambda: run_optimizer(STOP, "gd", {"tau": 0.1}, np.zeros(2),
                                       max_iter=5, grad_tol=math.inf)),
    ("mu", lambda: analysis.theorem6_params(True, True, True)),
    ("gamma", lambda: analysis.quadratic_spectral_rate([1.0], [1.0], True, 1.0)),
    ("hidden", lambda: train({"hidden": (0,)})),
    ("spread", lambda: train({"spread": -1.0})),
    ("epochs", lambda: train({"epochs": True})),
    ("batch_size", lambda: train({"batch_size": 2.5})),
    ("t_end", lambda: dynamics.integrate_rk4(
        dynamics.DynParams(1.0, 1.0, 0.0), STOP, np.zeros(2), np.zeros(2),
        t_end=True, dt=0.5)),
], ids=["A-inf", "gamma-inf", "epsilon-True", "A-True", "lambda-gamma-nan",
        "lambda-A-inf", "grad_tol-inf", "theorem6-True", "spectral-gamma-True",
        "hidden-0", "spread-negative", "epochs-True", "batch_size-2.5",
        "t_end-True"])
def test_the_library_refuses_inputs_a_config_refused(monkeypatch, name, call):
    # each was accepted, or failed late with a foreign error, while a config
    # refused it on load
    monkeypatch.setattr(toynet, "make_blobs", reached)
    with pytest.raises(ValueError, match=f"'{name}' must be"):
        call()


# ---------------------------------------------------------------------------
# the CLI on drawn configs: each command runs, or raises ValueError having
# written nothing
# ---------------------------------------------------------------------------

small = st.floats(-3.0, 3.0)


def vector_of(n, elements=small):
    return st.lists(elements, min_size=n, max_size=n)


@st.composite
def small_problem_params(draw, name, dim):
    """Valid params of problem ``name`` at dimension ``dim`` (d <= 4); a
    quadratic gets a positive diag or an n, never both."""
    if name == "quadratic":
        return draw(st.sampled_from([{"n": dim}, {}]) | st.builds(
            dict, diag=vector_of(dim, st.floats(0.1, 10.0))))
    if name == "logsumexp":
        return {"n": dim, "scale": draw(st.floats(0.1, 10.0))}
    if name == "quadcos":
        return {"dim": dim, "c_norm2": draw(st.floats(0.0, 1.99))}
    if name.startswith("rosenbrock"):
        ab = {"a": draw(small), "b": draw(st.floats(-10.0, 100.0))}
        return {**ab, "n": dim} if name == "rosenbrockNd" else ab
    if name == "toynet":
        return {"n": 40, "d_in": 2, "k": 2, "epochs": 1, "batch_size": 16,
                "hidden": [3], "seeds": [0]}
    return {}


@st.composite
def small_configs(draw, names, with_pdd=False):
    """(config dict, dimension) of a valid config of one of the problems
    ``names`` whose commands finish in milliseconds; ``with_pdd`` puts a
    pdd first among its optimizers. A toynet config holds only the keys
    toynet reads."""
    name = draw(st.sampled_from(names))
    dim = draw(st.integers(2 if name == "rosenbrockNd" else 1, 4))
    params = draw(small_problem_params(name, dim))
    if name in ("rosenbrock2d", "ackley"):
        dim = 2
    elif name == "quadratic":
        dim = len(params["diag"]) if "diag" in params else params.get("n", 10)
    if name == "toynet":
        methods = draw(st.lists(st.sampled_from(toynet.METHODS), min_size=1,
                                max_size=2, unique=True))
        optimizers = [{"method": m, "params": {}} for m in methods]
    else:
        methods = ["pdd"] * with_pdd + draw(st.lists(
            st.sampled_from(sorted(RULES)), min_size=1 - with_pdd, max_size=3))
        optimizers = []
        for i, method in enumerate(methods):
            hp = draw(hyperparams(method))
            if method == "pdd" and draw(st.booleans()):
                hp["C"] = draw(st.sampled_from(
                    [None, {"diagonal": [0.5 + k for k in range(dim)]}]
                    + ["diag_inv_q"] * (name in ("quadratic", "logsumexp"))))
            optimizers.append({"method": method, "label": f"{method}{i}",
                               "params": hp})
    d = {"problem": {"name": name, "params": params,
                     "seed": draw(st.integers(0, 3))},
         "optimizers": optimizers}
    if name == "toynet":
        return d, dim
    d.update({
         "x0": draw(st.builds(dict, fill=small) | vector_of(dim)),
         "max_iter": draw(st.integers(1, 30)),
         "record_every": draw(st.integers(1, 10)),
         "analysis": draw(st.fixed_dictionaries({}, optional={
             "num_samples": st.integers(1, 3), "pdd_steps": st.integers(1, 20),
             "delta": st.floats(0.0, 2.0), "seed": st.integers(0, 3)})),
         # t_end >= 2 dt: one step even from t0 = dt, as "3/t" starts; the
         # defaults, t_end 10 and dt 1e-3, would take 10^4 steps
         "dynamics": draw(st.fixed_dictionaries({
             "t_end": st.floats(0.11, 0.5), "dt": st.floats(0.005, 0.05)},
             optional={"A": st.floats(0.1, 3.0), "gamma": st.floats(0.0, 2.0),
                       "epsilon": st.floats(0.0, 3.0) | st.just("3/t")}))})
    return d, dim


# a value of the wrong kind for any key, JSON can carry each
odd_values = st.sampled_from([None, True, "x", [], {}, [1.0, "x"], -1, 0,
                              10 ** 400, math.nan, math.inf, -1e308])
# C specs that no problem without Q accepts; the fuzzer draws from them, and
# `test_every_bad_C_spec_is_refused_before_a_run` checks each on every run
BAD_C = [
    "bogus", "identity", "diag_inv_q", {"diagonal": [-1.0]}, {"diagonal": "x"},
    {"diagonal": [1.0, math.nan]}, {"diagonal": [1.0], "scale": 2.0},
    {"diag": [1.0]}, {"diagonal": [[1.0]]}, {"diagonal": []}, 3, 0.5, [1.0],
    True]
# the change each example makes to its valid config: none, a value (invalid
# for its key, or odd), a vector length, pdd's C, an optimizer's params, a
# dynamics span over the trajectory cap, a problem seed of -1, or a key
# toynet does not read
CHANGES = ("none", "invalid", "odd", "length", "C", "hp", "span", "seed",
           "unread")
NO_TOYNET = ("length", "C", "span")  # each needs a problem with a dimension


def names_for(kind):
    """The problems a config for the change ``kind`` is drawn from."""
    return ["toynet"] if kind == "unread" else [
        n for n in sorted(harness.PROBLEM_PARAMS)
        if n != "toynet" or kind not in NO_TOYNET]


def named(key):
    """The pattern of a refusal that names ``key``: the check of its Key,
    or of the section it names."""
    return rf"\b{re.escape(key)}'? must be"


@st.composite
def changed(draw, kind, d, dim):
    """(``d`` with the one change ``kind`` names, the pattern of the message
    of the check that the change targets); "none" leaves ``d`` as it is and
    has no pattern."""
    problem, params, opts = d["problem"], d["problem"]["params"], d["optimizers"]
    pattern = None
    if kind == "seed":
        problem["seed"] = -1
        pattern = "problem: 'seed' must be"
    elif kind == "span":
        # always over integrate_rk4's cap, so no long integration runs
        d["dynamics"].update(t_end=draw(st.floats(1e7, 1e300)), dt=draw(
            st.floats(0.0, 1e-3, exclude_min=True)))
        pattern = "byte cap"
    elif kind in ("invalid", "odd"):
        top, opt = tables(problem["name"])
        # a rule's hyperparameters too, but for toynet, whose params hold
        # none until one replaces its method's defaults
        hps = [] if problem["name"] == "toynet" else [
            (o["params"], hp_keys(RULES[o["method"]])) for o in opts]
        target, table = draw(st.sampled_from([(t, table) for t, table in [
            (d, top), (problem, PROBLEM),
            (params, harness.PROBLEM_PARAMS[problem["name"]])]
            + [(d[s], harness.SECTIONS[s]) for s in ("analysis", "dynamics")
               if s in d]
            + [(o, opt) for o in opts] + hps if table]))
        key = draw(st.sampled_from(sorted(table)))
        # 10**400 is an in-range size for an int key, which nothing bounds
        target[key] = draw(invalid(table[key]) if kind == "invalid" else
                           odd_values.filter(lambda v: v != 10 ** 400)
                           if table[key].kind in INTEGRAL else odd_values)
        pattern = named(key)
    elif kind == "length":
        wrong = vector_of(draw(st.sampled_from([0, dim - 1, dim + 1])))
        pdds = [o for o in opts if o["method"] == "pdd"]
        where = draw(st.sampled_from(["x0"] + ["C"] * bool(pdds)
                                     + ["diag"] * ("diag" in params)))
        if where == "x0":
            d["x0"] = draw(wrong)
        elif where == "diag":  # a start of the old length no longer fits
            params["diag"] = draw(vector_of(dim + 1, st.floats(0.1, 3.0)))
            d["x0"] = draw(vector_of(dim))
        else:
            draw(st.sampled_from(pdds))["params"]["C"] = {
                "diagonal": [abs(v) + 0.5 for v in draw(wrong)]}
        pattern = r"has length \d+, expected \d+"
    elif kind == "C":  # the first is a pdd; a zero entry passes the length
        # diag_inv_q is a valid C where the problem generates Q
        has_q = problem["name"] in ("quadratic", "logsumexp")
        zero_entry = st.integers(0, dim - 1).map(
            lambda k: {"diagonal": [float(i != k) for i in range(dim)]})
        opts[0]["params"]["C"] = draw(
            st.sampled_from(BAD_C).filter(lambda C: not has_q or C != "diag_inv_q")
            | zero_entry)
        pattern = r"preconditioner|diag_inv_q|C has length"
    elif kind == "hp":
        o = draw(st.sampled_from(opts))
        key = draw(st.sampled_from(sorted(o["params"]) + ["tau", "bogus"]))
        if draw(st.booleans()):
            o["params"].pop(key, None)
        else:
            o["params"][key] = draw(odd_values | st.floats(-2.0, 2.0))
        # toynet names the method alone
        pattern = rf"^(optimizers\[\d+\] \(|{o['method']}: )"
    elif kind == "unread":  # d is a toynet config; any value is refused
        key = draw(st.sampled_from(harness.TOYNET_UNREAD))
        if key == "label":
            draw(st.sampled_from(opts))[key] = draw(valid(OPTIMIZER[key]))
        else:
            d[key] = draw(section(harness.SECTIONS[key])
                          if TOP[key].kind == "section" else valid(TOP[key]))
        pattern = r"unknown keys \["
    return d, pattern


def run_commands(tmp_path, d):
    """Each command's ValueError on the config ``d``, or None where it ran;
    a refused command must have written nothing."""
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    path = work / "config.json"
    path.write_text(json.dumps(d))
    errors = []
    for command in ("run", "analyze", "dynamics"):
        out = work / command
        try:
            code = cli.main([command, str(path), "--out", str(out)])
        except ValueError as exc:
            assert not out.exists() or not any(out.iterdir()), command
            errors.append(exc)
        else:
            assert code in (0, 1), command
            errors.append(None)
    return errors


# no shrinking: a failure reports in seconds, not after minutes of it
@settings(max_examples=10, deadline=3000,
          phases=[Phase.explicit, Phase.reuse, Phase.generate],
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_command_runs_or_raises_value_error_before_writing(tmp_path, data):
    # each example makes every change, each to a config of its own: a drawn
    # change clustered, so some kinds got no example in a run
    for kind in CHANGES:
        d, dim = data.draw(small_configs(names_for(kind), with_pdd=kind == "C"),
                           label=f"{kind} config")
        d, _ = data.draw(changed(kind, d, dim), label=kind)
        for command, exc in zip(("run", "analyze", "dynamics"),
                                run_commands(tmp_path, d)):
            assert exc is not None or kind not in ("unread", "seed", "C"), (
                kind, command)


# kind -> the least share of its calls that the check it targets refuses:
# all, for a change no config survives; an hp or odd change may leave a
# valid config, so those two have a floor, which a check that most of the
# kind's values no longer reach falls below. hypothesis mixes constants of
# the loaded pddopt and benchmarks modules into its draws, so one seed's
# draws move with the code and with the tests collected: each floor is
# below the least share at any seed from 0 to 89 (`reach_at`)
REACH = {"seed": 1.0, "unread": 1.0, "invalid": 1.0, "length": 1.0, "C": 1.0,
         "hp": 0.45, "odd": 0.75}


def each_bad_C(d):
    """``d`` with each `BAD_C` spec that its problem refuses as its first
    pdd's C."""
    pdd, has_q = d["optimizers"][0], d["problem"]["name"] in ("quadratic",
                                                               "logsumexp")
    for C in BAD_C:
        if not (has_q and C == "diag_inv_q"):
            yield {**d, "optimizers": [{**pdd, "params": {**pdd["params"], "C": C}},
                                       *d["optimizers"][1:]]}


def reach_at(at, tmp_path) -> dict:
    """Each `REACH` kind's share of calls that the check it targets refuses,
    over the fuzzer's changes drawn at seed ``at``; hp and odd are drawn
    three times an example, to narrow their shares' spread."""
    calls, hits = Counter(), Counter()

    @seed(at)
    @settings(max_examples=12, database=None, deadline=None,
              phases=[Phase.generate],
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def draw(data):
        for kind in [k for k in REACH for _ in range(3 if k in ("hp", "odd") else 1)]:
            d, dim = data.draw(small_configs(names_for(kind),
                                             with_pdd=kind == "C"))
            d, pattern = data.draw(changed(kind, d, dim))
            # the drawn C, and once every bad spec: one seed draws few
            for d in [d, *each_bad_C(d)] if kind == "C" and not calls[kind] \
                    else [d]:
                for exc in run_commands(tmp_path, d):
                    calls[kind] += 1
                    hits[kind] += exc is not None and bool(re.search(pattern, str(exc)))

    draw()
    return {kind: hits[kind] / calls[kind] for kind in REACH}


def test_each_change_reaches_the_check_it_targets(tmp_path):
    reach = reach_at(20, tmp_path)
    assert all(reach[kind] >= REACH[kind] for kind in REACH), reach


@pytest.mark.parametrize("C", BAD_C, ids=repr)
def test_every_bad_C_spec_is_refused_before_a_run(tmp_path, C):
    # the fuzzer draws each spec in few of its runs: with "identity"
    # accepted again, most of its runs passed
    d = {"problem": {"name": "rosenbrock2d"}, "x0": [0.0, 0.0], "max_iter": 2,
         "optimizers": [{"method": "pdd", "label": "pdd", "params": {
             "tau": 0.01, "sigma": 0.01, "A": 1.0, "epsilon": 1.0,
             "omega": 1.0, "C": None}}]}
    harness.prepare(harness.config_from_dict(d))  # C = I: the config is valid
    d["optimizers"][0]["params"]["C"] = C
    with pytest.raises(ValueError):
        harness.prepare(harness.config_from_dict(d))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(d))
    out = tmp_path / "out"
    with pytest.raises(ValueError):
        cli.main(["run", str(path), "--out", str(out)])
    assert not out.exists()
