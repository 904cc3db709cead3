"""Property tests of the update-rule table over random hyperparameters, of
the config round trip, and of the CLI on drawn configs."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pddopt import cli, harness, toynet
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
        "outputs": st.lists(st.sampled_from(["csv", "svg"]),
                            unique=True).map(tuple),
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
                    [None, "identity", {"diagonal": [0.5 + k for k in range(dim)]}]
                    + ["diag_inv_q"] * (name in ("quadratic", "logsumexp"))))
            optimizers.append({"method": method, "label": f"{method}{i}",
                               "params": hp})
    d = {"problem": {"name": name, "params": params,
                     "seed": draw(st.integers(0, 3))},
         "optimizers": optimizers,
         "outputs": list(draw(valid(TOP["outputs"])))}
    if name == "toynet":
        return d, dim
    d.update({
         "x0": draw(st.builds(dict, fill=small) | vector_of(dim)),
         "record_every": draw(st.integers(1, 10)),
         "analysis": draw(st.fixed_dictionaries({}, optional={
             "num_samples": st.integers(1, 3), "pdd_steps": st.integers(1, 20),
             "sample_scale": st.floats(0.0, 1.0), "delta": st.floats(0.0, 2.0),
             "seed": st.integers(0, 3)})),
         # t_end >= 2 dt: one step even from t0 = dt, as "3/t" starts
         "dynamics": draw(st.fixed_dictionaries({}, optional={
             "A": st.floats(0.1, 3.0), "gamma": st.floats(0.0, 2.0),
             "epsilon": st.floats(0.0, 3.0) | st.just("3/t"),
             "t_end": st.floats(0.11, 0.5), "dt": st.floats(0.005, 0.05),
             "p0": vector_of(dim)}))})
    return d, dim


# a value of the wrong kind for any key, JSON can carry each
odd_values = st.sampled_from([None, True, "x", [], {}, [1.0, "x"], -1, 0,
                              10 ** 400, math.nan, math.inf, -1e308])
bad_C = st.sampled_from([
    "bogus", "diag_inv_q", {"diagonal": [-1.0]}, {"diagonal": "x"},
    {"diagonal": [1.0, math.nan]}, {"diagonal": [1.0], "scale": 2.0},
    {"diag": [1.0]}, {"diagonal": [[1.0]]}, {"diagonal": []}, 3, 0.5, [1.0],
    True])
# the change each example makes to its valid config: none, a value (invalid
# for its key, or odd), a vector length, pdd's C, an optimizer's params, a
# dynamics span over the trajectory cap, a --seed of -1, or a key toynet
# does not read
CHANGES = ("none", "invalid", "odd", "length", "C", "hp", "span", "seed",
           "unread")
NO_TOYNET = ("length", "C", "span")  # each needs a problem with a dimension


@st.composite
def changed(draw, kind, d, dim):
    """``d`` with the one change ``kind`` names ("none" and "seed" leave
    it as it is)."""
    problem, params, opts = d["problem"], d["problem"]["params"], d["optimizers"]
    if kind == "span":
        # always over integrate_rk4's cap, so no long integration runs
        d["dynamics"].update(t_end=draw(st.floats(1e7, 1e300)), dt=draw(
            st.floats(0.0, 1e-3, exclude_min=True)))
    elif kind in ("invalid", "odd"):
        top, opt = tables(problem["name"])
        target, table = draw(st.sampled_from([(t, table) for t, table in [
            (d, top), (problem, PROBLEM),
            (params, harness.PROBLEM_PARAMS[problem["name"]])]
            + [(d[s], harness.SECTIONS[s]) for s in ("analysis", "dynamics")
               if s in d]
            + [(o, opt) for o in opts] if table]))
        key = draw(st.sampled_from(sorted(table)))
        # 10**400 is an in-range size for an int key, which nothing bounds
        target[key] = draw(invalid(table[key]) if kind == "invalid" else
                           odd_values.filter(lambda v: v != 10 ** 400)
                           if table[key].kind in INTEGRAL else odd_values)
    elif kind == "length":
        wrong = vector_of(draw(st.sampled_from([0, dim - 1, dim + 1])))
        pdds = [o for o in opts if o["method"] == "pdd"]
        where = draw(st.sampled_from(["x0", "p0"] + ["C"] * bool(pdds)
                                     + ["diag"] * ("diag" in params)))
        if where == "x0":
            d["x0"] = draw(wrong)
        elif where == "p0":
            d["dynamics"]["p0"] = draw(wrong)
        elif where == "diag":
            params["diag"] = draw(vector_of(dim + 1, st.floats(0.1, 3.0)))
        else:
            draw(st.sampled_from(pdds))["params"]["C"] = {
                "diagonal": [abs(v) + 0.5 for v in draw(wrong)]}
    elif kind == "C":
        opts[0]["params"]["C"] = draw(bad_C)  # the first is a pdd
    elif kind == "hp":
        hp = draw(st.sampled_from(opts))["params"]
        key = draw(st.sampled_from(sorted(hp) + ["tau", "bogus"]))
        if draw(st.booleans()):
            hp.pop(key, None)
        else:
            hp[key] = draw(odd_values | st.floats(-2.0, 2.0))
    elif kind == "unread":  # d is a toynet config; any value is refused
        key = draw(st.sampled_from(harness.TOYNET_UNREAD))
        if key == "label":
            draw(st.sampled_from(opts))[key] = draw(valid(OPTIMIZER[key]))
        else:
            d[key] = draw(section(harness.SECTIONS[key])
                          if TOP[key].kind == "section" else valid(TOP[key]))
    return d


# no shrinking: a failure reports in seconds, not after minutes of it
@settings(max_examples=10, deadline=3000,
          phases=[Phase.explicit, Phase.reuse, Phase.generate],
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_command_runs_or_raises_value_error_before_writing(tmp_path, data):
    # each example makes every change, each to a config of its own: a drawn
    # change clustered, so some kinds got no example in a run
    for kind in CHANGES:
        names = ["toynet"] if kind == "unread" else [
            n for n in sorted(harness.PROBLEM_PARAMS)
            if n != "toynet" or kind not in NO_TOYNET]
        d, dim = data.draw(small_configs(names, with_pdd=kind == "C"),
                           label=f"{kind} config")
        d = data.draw(changed(kind, d, dim), label=kind)
        toy = d["problem"]["name"] == "toynet"
        seed = -1 if kind == "seed" else data.draw(
            st.none() | st.integers(0, 3), label=f"{kind} seed")
        flags = [] if seed is None else ["--seed", str(seed)]
        # only run takes --max-iter; 0 is tested as a CLI override. A toynet
        # config refuses it, so it gets it in some examples only.
        max_iter = [] if toy and not data.draw(
            st.booleans(), label=f"{kind} toynet --max-iter") else [
            "--max-iter", str(data.draw(st.integers(1, 30),
                                        label=f"{kind} max_iter"))]
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        path = work / "config.json"
        path.write_text(json.dumps(d))
        for command in ("run", "analyze", "dynamics"):
            out = work / command
            extra = max_iter if command == "run" else []
            try:
                code = cli.main([command, str(path), "--out", str(out), *flags,
                                 *extra])
            except ValueError:
                assert not out.exists() or not any(out.iterdir()), (kind, command)
            else:
                assert code in (0, 1), (kind, command)
                assert not (kind == "unread" or toy and extra), (kind, command)
