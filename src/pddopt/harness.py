"""Experiment presets, configuration handling, and CSV/SVG emission.

A config names one problem, a shared start, and a list of optimizers; a
run writes one CSV per optimizer plus a combined log-log convergence plot
(gradient norm against iteration). Plots are plain SVG written directly,
so the benchmark has no plotting dependency. Identical configs produce
byte-identical outputs.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import numbers
import operator
import os
import re
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from html import escape
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import toynet
from .objective import (
    Objective,
    ackley,
    as_vector,
    make_diag_dominant_Q,
    quad_minus_cos,
    quadratic,
    reg_log_sum_exp,
    rosenbrock,
)
from .optimizers import (Preconditioner, Trajectory, compute_beta2,
                         compute_nag_beta, run_optimizer, validate_method)

__all__ = [
    "ProblemSpec",
    "OptimizerSpec",
    "ExperimentConfig",
    "RunArtifact",
    "PRESET_NAMES",
    "preset",
    "build_problem",
    "prepare",
    "run_experiment",
    "write_csv",
    "emit_csv",
    "emit_svg",
    "load_config",
    "save_config",
]

PRESET_NAMES = ("logsumexp", "quadcos", "rosenbrock2d", "rosenbrockNd",
                "ackley", "toynet")

DEFAULT_OUT_ROOT_ENV = "PDD_OUT_DIR"

# labels name the CSV files and key the trajectories
_LABEL_RE = re.compile(r"[A-Za-z0-9._-]+")


@dataclass
class ProblemSpec:
    name: str
    params: dict = field(default_factory=dict)
    seed: int = 0


@dataclass
class OptimizerSpec:
    method: str
    label: Optional[str] = None  # None only for toynet, which keys by method
    params: dict = field(default_factory=dict)


@dataclass
class ExperimentConfig:
    problem: ProblemSpec
    optimizers: List[OptimizerSpec]
    x0: Union[List[float], Dict[str, float], None] = None  # None only for toynet
    max_iter: int = 10000
    grad_tol: float = 1e-10
    record_every: int = 10
    outputs: Tuple[str, ...] = ("csv", "svg")
    output_dir: Optional[str] = None
    analysis: dict = field(default_factory=dict)
    dynamics: dict = field(default_factory=dict)


@dataclass
class RunArtifact:
    config: ExperimentConfig
    trajectories: Dict[str, Trajectory]
    wall_clock: Dict[str, float]
    files: List[str]
    any_diverged: bool


# ---------------------------------------------------------------------------
# configuration: one declaration per key
# ---------------------------------------------------------------------------

def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) \
        and abs(v) <= sys.float_info.max  # not nan, inf or 10**400


def _list_of(item, min_len: int = 0):
    return lambda v: (isinstance(v, (list, tuple, np.ndarray))
                      and len(v) >= min_len and all(map(item, v)))


# kind -> (what a value must be, its test); a section is a JSON object that
# is checked when it is read against its own table
KINDS = {
    "int": ("an integer", _is_int),
    "real": ("a finite number", _is_real),
    "vector": ("a list of finite numbers", _list_of(_is_real)),
    "ints": ("a list of integers", _list_of(_is_int)),
    "seeds": ("a non-empty list of integers", _list_of(_is_int, 1)),
    "x0": ('a list of finite numbers or {"fill": number}',
           lambda v: _list_of(_is_real)(v) or isinstance(v, dict)
           and list(v) == ["fill"] and _is_real(v["fill"])),
    "epsilon": ('a finite number or "3/t"', lambda v: v == "3/t" or _is_real(v)),
    "outputs": ('a list of distinct values from ["csv", "svg"]',
                lambda v: _list_of(("csv", "svg").__contains__)(v)
                and len(set(v)) == len(v)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "label": (f"a string matching {_LABEL_RE.pattern}",
              lambda v: isinstance(v, str) and bool(_LABEL_RE.fullmatch(v))),
    "path": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "object": ("a JSON object", lambda v: isinstance(v, dict)),
    "list": ("a non-empty list", _list_of(lambda item: True, 1)),
    "section": ("a JSON object", None),
}
_OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


class Key(NamedTuple):
    """A config key's kind (a `KINDS` name), default (MISSING: required) and
    range ("" or bounds such as ">= 0, < 2" on a number or each list entry)."""
    kind: str
    default: object = MISSING
    range: str = ""


def _in_range(v, rng: str) -> bool:
    if isinstance(v, (list, tuple, np.ndarray)):
        return all(_in_range(e, rng) for e in v)
    return isinstance(v, str) or all(  # a string such as "3/t" has no range
        _OPS[op](v, float(b)) for op, b in (c.split() for c in rng.split(",") if c))


def _field_defaults(*classes) -> dict:
    return {f.name: f.default if f.default_factory is MISSING
            else f.default_factory() for cls in classes for f in fields(cls)}


def _defaults_from(cls, **keys: Key) -> Dict[str, Key]:
    """``keys``, each defaulting as the same-named field of ``cls`` does."""
    default = _field_defaults(cls)
    return {k: key._replace(default=default[k]) for k, key in keys.items()}


# toynet's tables refuse these: it reads no start, cap, tolerance, stride,
# certificate or label
TOYNET_UNREAD = ("x0", "max_iter", "grad_tol", "record_every", "analysis",
                 "dynamics", "label")

SECTIONS = {
    # an objective needs a start and a CSV a name; only toynet's are None
    "config": {**_defaults_from(
        ExperimentConfig, problem=Key("section"), optimizers=Key("list"),
        x0=Key("x0"), max_iter=Key("int", range=">= 1"),
        grad_tol=Key("real", range=">= 0"), record_every=Key("int", range=">= 1"),
        outputs=Key("outputs"), output_dir=Key("path"),
        analysis=Key("section"), dynamics=Key("section")), "x0": Key("x0")},
    "problem": _defaults_from(ProblemSpec, name=Key("str"), params=Key("section"),
                              seed=Key("int", range=">= 0")),
    "optimizer": {**_defaults_from(OptimizerSpec, method=Key("str"),
                                   label=Key("label"), params=Key("object")),
                  "label": Key("label")},
    # read by `pddopt analyze`; a seed of None is the problem's
    "analysis": dict(
        delta=Key("real", 1.0, ">= 0"), num_samples=Key("int", 20, ">= 1"),
        sample_scale=Key("real", 0.5, ">= 0"), pdd_steps=Key("int", 2000, ">= 1"),
        seed=Key("int", None, ">= 0")),
    # read by `pddopt dynamics`; a p0 of None is the zero vector
    "dynamics": dict(
        A=Key("real", 1.0, "> 0"), epsilon=Key("epsilon", 1.0, ">= 0"),
        gamma=Key("real", 0.0, ">= 0"), p0=Key("vector", None),
        t_end=Key("real", 10.0, "> 0"), dt=Key("real", 1e-3, "> 0")),
}
_ROSENBROCK = dict(a=Key("real", 1.0), b=Key("real", 100.0))
# problem name -> its params; a quadratic's diag of None generates Q
PROBLEM_PARAMS = {
    "quadratic": dict(diag=Key("vector", None), n=Key("int", 10, ">= 1")),
    "logsumexp": dict(n=Key("int", 100, ">= 1"), scale=Key("real", 1.0, "> 0")),
    "quadcos": dict(dim=Key("int", 100, ">= 1"),
                    c_norm2=Key("real", 1.9, ">= 0, < 2")),
    "rosenbrock2d": _ROSENBROCK,
    "rosenbrockNd": dict(**_ROSENBROCK, n=Key("int", 100, ">= 2")),
    "ackley": {},
    "toynet": _defaults_from(
        toynet.TrainConfig, n=Key("int", range=">= 1"),
        d_in=Key("int", range=">= 1"), k=Key("int", range=">= 2"),
        spread=Key("real", range=">= 0"), epochs=Key("int", range=">= 1"),
        batch_size=Key("int", range=">= 1"), hidden=Key("ints", range=">= 1"),
        seeds=Key("seeds", range=">= 0")),
}
SECTIONS.update({f"toynet {name}": {k: key for k, key in SECTIONS[name].items()
                                     if k not in TOYNET_UNREAD}
                 for name in ("config", "optimizer")})


def read_section(name: str, d, where: Optional[str] = None) -> dict:
    """Check ``d``'s keys, and each value's kind and range, against the table
    `SECTIONS[name]` (or `PROBLEM_PARAMS[name]`). Returns every key's value,
    reals as float and integers as int, absent keys at their defaults.
    Errors name ``where`` (default ``name``) and the key."""
    table = SECTIONS[name] if name in SECTIONS else PROBLEM_PARAMS[name]
    where = where or name
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, not {type(d).__name__}")
    required = [k for k, key in table.items() if key.default is MISSING]
    missing = [k for k in required if k not in d]
    if missing:
        raise ValueError(f"{where}: missing keys {missing}; "
                         f"required keys are {required}")
    unknown = [k for k in d if k not in table]
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}; "
                         f"valid keys are {list(table)}")
    out = {k: copy.copy(key.default) for k, key in table.items() if k not in d}
    for k, v in d.items():
        key = table[k]
        what, test = KINDS[key.kind]
        if test is not None and not (test(v) and _in_range(v, key.range)):
            bound = f" ({key.range})" if key.range else ""
            raise ValueError(f"{where}: {k!r} must be {what}{bound}, got {v!r}")
        out[k] = float(v) if key.kind == "real" else int(v) if key.kind == "int" \
            else v
    return out


def problem_params(spec: ProblemSpec) -> dict:
    """The named problem's params, read by `read_section`; a quadratic's
    diag sets its dimension, so it takes no n beside it."""
    if spec.name not in PROBLEM_PARAMS:
        raise ValueError(f"unknown problem {spec.name!r}; "
                         f"choose from {list(PROBLEM_PARAMS)}")
    where = f"problem {spec.name!r} params"
    p = read_section(spec.name, spec.params, where)
    if spec.name == "quadratic" and {"diag", "n"} <= set(spec.params):
        raise ValueError(f"{where}: give 'diag' or 'n', not both")
    return p


def config_to_dict(config: ExperimentConfig) -> dict:
    """``config`` as JSON values; a toynet config leaves out each
    `TOYNET_UNREAD` key while it holds its field's default."""
    d = {**asdict(config), "outputs": list(config.outputs)}
    if config.problem.name != "toynet":
        return d
    default = _field_defaults(ExperimentConfig, OptimizerSpec)

    def read_keys(section):
        return {k: v for k, v in section.items() if k not in TOYNET_UNREAD
                or type(v) is not type(default[k]) or v != default[k]}
    return {**read_keys(d), "optimizers": [read_keys(o) for o in d["optimizers"]]}


def config_from_dict(d: dict) -> ExperimentConfig:
    """Check every section of ``d`` and build the config; its dict sections
    keep exactly the keys they were given. A toynet config is read against
    the toynet tables, which refuse the `TOYNET_UNREAD` keys."""
    problem = d.get("problem") if isinstance(d, dict) else None
    if isinstance(problem, dict):  # checked first, as its name picks the tables
        problem = ProblemSpec(**read_section("problem", problem))
        problem_params(problem)
    toy = "toynet " if getattr(problem, "name", "") == "toynet" else ""
    c = read_section(toy + "config", d, "config")
    config = ExperimentConfig(**{
        **c, "outputs": tuple(c["outputs"]),
        "problem": ProblemSpec(**read_section("problem", c["problem"])),
        "optimizers": [OptimizerSpec(**read_section(toy + "optimizer", o,
                                                    f"optimizers[{i}]"))
                       for i, o in enumerate(c["optimizers"])]})
    read_section("analysis", config.analysis)
    read_section("dynamics", config.dynamics)
    return config


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(config_to_dict(config), fh, indent=2)
        fh.write("\n")


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# problems and starts
# ---------------------------------------------------------------------------

def build_problem(spec: ProblemSpec) -> Tuple[Objective, dict]:
    """Instantiate the objective named by a problem spec.

    Returns the objective plus a context dict, holding the generated Q of a
    quadratic or logsumexp problem. Rejects ``params`` that `PROBLEM_PARAMS`
    does not declare for the problem.
    """
    name, seed = spec.name, spec.seed
    if name == "toynet":
        raise ValueError("problem 'toynet' has no objective: run_experiment "
                         "trains it")
    p = problem_params(spec)
    ctx: dict = {}
    if name == "quadratic":
        Q = np.diag(np.asarray(p["diag"], dtype=float)) if p["diag"] is not None \
            else make_diag_dominant_Q(p["n"], seed)
        ctx["Q"] = Q
        return quadratic(Q), ctx
    if name == "logsumexp":
        # scale > 1 reproduces the magnitude of a matrix whose off-diagonals
        # are uniform(-1, 1) without the 1/n normalization
        Q = p["scale"] * make_diag_dominant_Q(p["n"], seed)
        ctx["Q"] = Q
        return reg_log_sum_exp(Q), ctx
    if name == "quadcos":
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(p["dim"])
        c *= math.sqrt(p["c_norm2"]) / np.linalg.norm(c)
        return quad_minus_cos(c), ctx
    if name.startswith("rosenbrock"):
        return rosenbrock(**p), ctx  # rosenbrock2d leaves n at 2
    return ackley(), ctx


def materialize_x0(x0, dim: int) -> np.ndarray:
    if isinstance(x0, dict):
        return np.full(dim, float(x0["fill"]))
    return as_vector(x0, dim, "x0")


def resolve_preconditioner(spec, ctx: dict, dim: int) -> Optional[Preconditioner]:
    """Turn a config-level C spec into a Preconditioner on R^``dim``.

    Accepted: null and "identity" (C = I, as None), "diag_inv_q" (inverse
    diagonal of the generated Q), or {"diagonal": [...]} with ``dim`` entries.
    """
    if spec is None or spec == "identity":
        return None
    if spec == "diag_inv_q":
        Q = ctx.get("Q")
        if Q is None:
            raise ValueError("diag_inv_q needs a problem that generates Q")
        return Preconditioner.diagonal(1.0 / np.diag(Q))
    if not (isinstance(spec, dict) and list(spec) == ["diagonal"]
            and KINDS["vector"][1](spec["diagonal"])):
        raise ValueError(f"unknown preconditioner spec {spec!r}")
    return Preconditioner.diagonal(as_vector(spec["diagonal"], dim, "C's diagonal"))


# ---------------------------------------------------------------------------
# presets: the experiment suite with its published parameter choices
# ---------------------------------------------------------------------------

def _opt(method: str, label: Optional[str] = None, **params) -> OptimizerSpec:
    return OptimizerSpec(method, label or method, params)


def preset(name: str, out_dir: Optional[str] = None,
           seed: Optional[int] = None) -> ExperimentConfig:
    """Named experiment configurations with the reference hyperparameters."""
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")

    def config(params, default_seed, opts, **top):
        problem = ProblemSpec(name, params,
                              default_seed if seed is None else seed)
        return ExperimentConfig(problem, opts, output_dir=out_dir, **top)

    if name == "toynet":
        # TrainConfig's defaults, with ten training seeds
        params = problem_params(ProblemSpec("toynet"))
        params.update(hidden=list(params["hidden"]), seeds=list(range(10)))
        return config(params, 0, [OptimizerSpec(m) for m in toynet.METHODS])

    if name == "logsumexp":
        # the dual preconditioner scale A = 10 is only stable at the
        # reference matrix magnitude, hence scale = n/2
        cfg = config({"n": 100, "scale": 50.0}, 7, [], x0={"fill": 0.1},
                     max_iter=20000)
        w = np.linalg.eigvalsh(build_problem(cfg.problem)[1]["Q"])
        lmin, lmax = float(w[0]), float(w[-1])
        tau_att = 0.0016
        cfg.optimizers = [
            _opt("gd", tau=2.0 / (3.0 * lmax + lmin)),
            _opt("nag", tau=4.0 / (30.0 * lmax + lmin),
                 beta=compute_nag_beta(10.0 * lmax / lmin)),
            _opt("pdd", "pdd-identity", tau=2.0 / (lmax + lmin),
                 sigma=2.0 / (lmax + lmin), A=10.0, epsilon=1.0, omega=1.0),
            _opt("pdd", "pdd-diagonal", tau=0.5, sigma=0.5, A=1.0, epsilon=1.0,
                 omega=1.0, C="diag_inv_q"),
            _opt("igahd_sc", "igahd-sc", tau=tau_att, m1=lmin,
                 beta2=compute_beta2(lmin, tau_att)),
        ]
        return cfg

    if name == "quadcos":
        tau_att = 0.55
        return config({"dim": 100}, 3, [
            _opt("gd", tau=0.5),
            _opt("nag", tau=4.0 / (3.0 * 3.9 + 0.1),
                 beta=compute_nag_beta(3.9 / 0.1)),
            _opt("pdd", tau=0.5, sigma=0.5, A=1.0, epsilon=1.0, omega=1.0),
            _opt("igahd_sc", "igahd-sc", tau=tau_att, m1=0.1,
                 beta2=compute_beta2(0.1, tau_att)),
        ], x0={"fill": 5.0}, max_iter=20000)

    if name == "rosenbrock2d":
        tau_att = 0.00045
        return config({}, 0, [
            _opt("gd", tau=0.0002), _opt("nag", tau=0.0002, beta=0.9),
            _opt("pdd", tau=0.005, sigma=0.005, A=5.0, epsilon=1.0, omega=1.0),
            _opt("igahd", tau=tau_att, alpha=3.0, beta1=math.sqrt(tau_att) / 14.0),
        ], x0=[-3.0, -4.0], max_iter=1_000_000, grad_tol=1e-8,
            record_every=2000)

    if name == "rosenbrockNd":
        tau_att = 0.0002
        return config({"n": 100}, 0, [
            _opt("gd", tau=0.001), _opt("nag", tau=0.0008, beta=0.95),
            _opt("pdd", tau=0.01, sigma=0.01, A=5.0, epsilon=0.5, omega=1.0),
            _opt("igahd", tau=tau_att, alpha=3.0, beta1=2.0 * math.sqrt(tau_att)),
        ], x0={"fill": 0.0}, max_iter=200000, grad_tol=1e-8, record_every=200)

    # ackley
    tau_att = 0.01
    return config({}, 0, [
        _opt("gd", tau=0.002), _opt("nag", tau=0.002, beta=0.9),
        _opt("pdd", tau=0.002, sigma=0.002, A=1.0, epsilon=1.0, omega=1.0),
        _opt("igahd", tau=tau_att, alpha=3.0, beta1=2.0 * math.sqrt(tau_att)),
    ], x0=[2.5, 4.0], max_iter=100000, record_every=100)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _fmt(v: Optional[float]) -> str:
    return "" if v is None else format(v, ".17g")


def write_csv(path, header: Sequence, rows):
    """Write ``header`` and then ``rows`` to ``path`` with LF endings, and
    return ``path``. Values are written as ``str`` gives them, so pass
    floats through `_fmt` or ``format(v, ".17g")`` to keep every bit."""
    try:
        with open(path, "w", newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc
    return path


def emit_csv(traj: Trajectory, path) -> None:
    """Columns: iter,f,grad_norm,lyapunov,dist_to_min (blank when there is
    no known minimizer). '.' decimals, LF endings."""
    if not traj.records:
        raise ValueError("refusing to emit an empty trajectory")
    write_csv(path, ("iter", "f", "grad_norm", "lyapunov", "dist_to_min"),
              ((r.iter, _fmt(r.f), _fmt(r.grad_norm), _fmt(r.lyapunov),
                _fmt(r.dist_to_min)) for r in traj.records))


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _log_ticks(lo: float, hi: float) -> List[int]:
    return list(range(math.floor(lo), math.ceil(hi) + 1))


def emit_svg(series: Sequence[Tuple[str, np.ndarray, np.ndarray]], path,
             xlabel: str = "iteration", ylabel: str = "gradient norm",
             title: str = "") -> None:
    """Log-log convergence plot: one polyline per labelled (x, y) series.

    Points with nonpositive coordinates cannot be drawn on log axes and are
    skipped (iteration 0 is shown at 1). Output is deterministic.
    """
    # SVG is XML: escape all caller-supplied text
    title, xlabel, ylabel = (escape(t, quote=False) for t in (title, xlabel, ylabel))
    W, H = 720, 520
    ml, mr, mt, mb = 70, 160, 40, 55
    pw, ph = W - ml - mr, H - mt - mb

    pts = []
    for label, xs, ys in series:
        xs = np.maximum(np.asarray(xs, dtype=float), 1.0)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(ys) & (ys > 0.0)
        pts.append((escape(label, quote=False), np.log10(xs[keep]),
                    np.log10(ys[keep])))
    drawable = [(l, x, y) for l, x, y in pts if x.size > 0]
    if not drawable:
        raise ValueError("nothing to plot: no positive finite samples")
    xlo = min(float(np.min(x)) for _, x, _ in drawable)
    xhi = max(float(np.max(x)) for _, x, _ in drawable)
    ylo = min(float(np.min(y)) for _, _, y in drawable)
    yhi = max(float(np.max(y)) for _, _, y in drawable)
    if xhi - xlo < 1e-9:
        xhi = xlo + 1.0
    if yhi - ylo < 1e-9:
        yhi = ylo + 1.0

    def sx(v):
        return ml + (v - xlo) / (xhi - xlo) * pw

    def sy(v):
        return mt + (yhi - v) / (yhi - ylo) * ph

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
           f'viewBox="0 0 {W} {H}">',
           f'<rect width="{W}" height="{H}" fill="white"/>']
    if title:
        out.append(f'<text x="{ml + pw / 2:.1f}" y="24" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="15">{title}</text>')
    # frame
    out.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
               f'fill="none" stroke="black"/>')
    for t in _log_ticks(xlo, xhi):
        if xlo <= t <= xhi:
            X = sx(t)
            out.append(f'<line x1="{X:.1f}" y1="{mt + ph}" x2="{X:.1f}" '
                       f'y2="{mt + ph + 5}" stroke="black"/>')
            out.append(f'<text x="{X:.1f}" y="{mt + ph + 20}" '
                       f'text-anchor="middle" font-family="sans-serif" '
                       f'font-size="11">1e{t}</text>')
    for t in _log_ticks(ylo, yhi):
        if ylo <= t <= yhi:
            Y = sy(t)
            out.append(f'<line x1="{ml - 5}" y1="{Y:.1f}" x2="{ml}" '
                       f'y2="{Y:.1f}" stroke="black"/>')
            out.append(f'<text x="{ml - 8}" y="{Y + 4:.1f}" text-anchor="end" '
                       f'font-family="sans-serif" font-size="11">1e{t}</text>')
    out.append(f'<text x="{ml + pw / 2:.1f}" y="{H - 12}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13">{xlabel} (log)</text>')
    out.append(f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{ylabel} (log)</text>')

    for i, (label, lx, ly) in enumerate(drawable):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(lx, ly))
        out.append(f'<polyline points="{coords}" fill="none" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        ly_leg = mt + 16 + 18 * i
        out.append(f'<line x1="{ml + pw + 10}" y1="{ly_leg - 4}" '
                   f'x2="{ml + pw + 34}" y2="{ly_leg - 4}" stroke="{color}" '
                   f'stroke-width="2"/>')
        out.append(f'<text x="{ml + pw + 40}" y="{ly_leg}" '
                   f'font-family="sans-serif" font-size="12">{label}</text>')
    out.append("</svg>")
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(out) + "\n")
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

def resolve_output_dir(config: ExperimentConfig, override: Optional[str] = None,
                       tag: str = "run") -> Path:
    if override or config.output_dir:
        root = Path(override or config.output_dir)
    else:
        base = os.environ.get(DEFAULT_OUT_ROOT_ENV) or "pdd_out"
        root = Path(base) / f"{config.problem.name}-{tag}"
    root.mkdir(parents=True, exist_ok=True)
    return root


def validate_config(config: ExperimentConfig) -> None:
    """Check every section, as loading does (so CLI overrides too), and that
    the labels are unique."""
    config_from_dict(config_to_dict(config))
    labels = [o.label for o in config.optimizers if o.label is not None]
    if len(set(labels)) < len(labels):
        raise ValueError(f"duplicate optimizer label in {labels}")


def prepare(config: ExperimentConfig) -> tuple:
    """Check all of ``config`` and build (objective, context, x0, each
    optimizer's params with C resolved against the problem) before anything
    is written. A toynet config raises ValueError: it has no objective."""
    validate_config(config)
    obj, ctx = build_problem(config.problem)
    x0 = materialize_x0(config.x0, obj.dim)
    resolved = []
    for i, spec in enumerate(config.optimizers):
        params = dict(spec.params)
        try:
            if "C" in params:
                params["C"] = resolve_preconditioner(params["C"], ctx, obj.dim)
            validate_method(spec.method, params)
        except ValueError as exc:
            raise ValueError(f"optimizers[{i}] ({spec.label}): {exc}") from None
        resolved.append(params)
    return obj, ctx, x0, resolved


def _run_toynet(config: ExperimentConfig,
                out_dir_override: Optional[str]) -> RunArtifact:
    validate_config(config)
    p = problem_params(config.problem)
    cfg = toynet.TrainConfig(
        data_seed=config.problem.seed,
        **{**p, "hidden": tuple(p["hidden"]), "seeds": tuple(p["seeds"])},
        methods=tuple(o.method for o in config.optimizers),
        # an empty params dict keeps the method's DEFAULT_HYPERPARAMS
        hyperparams={o.method: dict(o.params)
                     for o in config.optimizers if o.params} or None,
    )
    t0 = time.perf_counter()
    rows = toynet.train(cfg)
    wall = time.perf_counter() - t0
    out_dir = resolve_output_dir(config, out_dir_override)  # once training ran
    files = []
    if "csv" in config.outputs:
        files.append(str(out_dir / "toynet_metrics.csv"))
        write_csv(files[-1], ("epoch", "method", "seed", "train_loss",
                              "test_acc"),
                  ((r["epoch"], r["method"], r["seed"], _fmt(r["train_loss"]),
                    _fmt(r["test_acc"])) for r in rows))
    if "svg" in config.outputs:
        losses: Dict[str, Dict[int, List[float]]] = {}  # method, epoch
        for r in rows:
            if math.isfinite(r["train_loss"]):
                losses.setdefault(r["method"], {}).setdefault(
                    r["epoch"], []).append(r["train_loss"])
        series = [(m, np.array(sorted(losses[m]), dtype=float) + 1.0,
                   np.array([np.mean(v) for _, v in sorted(losses[m].items())]))
                  for m in cfg.methods if m in losses]
        if series:  # empty when every run diverged in its first epoch
            files.append(str(out_dir / "toynet_loss.svg"))
            emit_svg(series, files[-1], xlabel="epoch", ylabel="train loss",
                     title="toynet mean train loss")
    diverged = any(not math.isfinite(r["train_loss"]) for r in rows)
    return RunArtifact(config=config, trajectories={}, wall_clock={"toynet": wall},
                       files=files, any_diverged=diverged)


def run_experiment(config: ExperimentConfig,
                   out_dir_override: Optional[str] = None) -> RunArtifact:
    """Run every optimizer in the config on the shared problem and start.

    Writes one CSV per optimizer and a combined SVG convergence plot, left
    out when no run recorded a positive finite gradient norm. The artifact
    lists every file written; ``any_diverged`` reflects whether some run
    blew up (the CLI exits nonzero in that case). `prepare` checks the
    whole config before the first run, so a bad config writes nothing.
    """
    if config.problem.name == "toynet":
        return _run_toynet(config, out_dir_override)

    obj, _, x0, resolved = prepare(config)
    out_dir = resolve_output_dir(config, out_dir_override)

    trajectories: Dict[str, Trajectory] = {}
    wall: Dict[str, float] = {}
    files: List[str] = []
    for spec, params in zip(config.optimizers, resolved):
        t0 = time.perf_counter()
        traj = run_optimizer(obj, spec.method, params, x0, max_iter=config.max_iter,
                             grad_tol=config.grad_tol,
                             record_every=config.record_every, label=spec.label)
        wall[spec.label] = time.perf_counter() - t0
        trajectories[spec.label] = traj
        if "csv" in config.outputs:
            path = out_dir / f"{spec.label}.csv"
            emit_csv(traj, path)
            files.append(str(path))

    if "svg" in config.outputs:
        series = [(label, t.iters, t.column("grad_norm"))
                  for label, t in trajectories.items()]
        if any(np.any(np.isfinite(y) & (y > 0.0)) for _, _, y in series):
            path = out_dir / "convergence.svg"
            emit_svg(series, path, title=f"{config.problem.name}")
            files.append(str(path))

    any_diverged = any(t.diverged for t in trajectories.values())
    return RunArtifact(config=config, trajectories=trajectories,
                       wall_clock=wall, files=files, any_diverged=any_diverged)
