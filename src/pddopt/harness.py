"""Experiment presets, configuration handling, and CSV/SVG emission.

A config names one problem, a shared start, and a list of optimizers; a
run writes one CSV per optimizer plus a combined log-log convergence plot
(gradient norm against iteration). Plots are plain SVG written directly,
so the benchmark has no plotting dependency. Identical configs produce
byte-identical outputs.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from dataclasses import asdict, dataclass, field
from html import escape
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import toynet
from .objective import (
    Objective,
    ackley,
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
    "run_experiment",
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
    label: str
    params: dict = field(default_factory=dict)


@dataclass
class ExperimentConfig:
    problem: ProblemSpec
    optimizers: List[OptimizerSpec]
    x0: Union[List[float], Dict[str, float]]
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
# configuration files
# ---------------------------------------------------------------------------

def config_to_dict(config: ExperimentConfig) -> dict:
    d = asdict(config)
    d["outputs"] = list(config.outputs)
    return d


def config_from_dict(d: dict) -> ExperimentConfig:
    prob = ProblemSpec(**d["problem"])
    opts = [OptimizerSpec(**o) for o in d["optimizers"]]
    return ExperimentConfig(
        problem=prob,
        optimizers=opts,
        x0=d["x0"],
        max_iter=int(d.get("max_iter", 10000)),
        grad_tol=float(d.get("grad_tol", 1e-10)),
        record_every=int(d.get("record_every", 10)),
        outputs=tuple(d.get("outputs", ("csv", "svg"))),
        output_dir=d.get("output_dir"),
        analysis=d.get("analysis", {}),
        dynamics=d.get("dynamics", {}),
    )


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

    Returns the objective plus a context dict (generated matrices and
    spectral data the preset stepsizes derive from).
    """
    name, p, seed = spec.name, spec.params, spec.seed
    ctx: dict = {}
    if name == "quadratic":
        diag = p.get("diag")
        Q = np.diag(np.asarray(diag, dtype=float)) if diag is not None \
            else make_diag_dominant_Q(int(p.get("n", 10)), seed)
        ctx["Q"] = Q
        return quadratic(Q), ctx
    if name == "logsumexp":
        n = int(p.get("n", 100))
        # scale > 1 reproduces the magnitude of a matrix whose off-diagonals
        # are uniform(-1, 1) without the 1/n normalization
        Q = float(p.get("scale", 1.0)) * make_diag_dominant_Q(n, seed)
        ctx["Q"] = Q
        w = np.linalg.eigvalsh(Q)
        ctx["lambda_min"], ctx["lambda_max"] = float(w[0]), float(w[-1])
        return reg_log_sum_exp(Q), ctx
    if name == "quadcos":
        d = int(p.get("dim", 100))
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(d)
        c *= math.sqrt(p.get("c_norm2", 1.9)) / np.linalg.norm(c)
        ctx["c"] = c
        return quad_minus_cos(c), ctx
    if name == "rosenbrock2d":
        return rosenbrock(a=float(p.get("a", 1.0)), b=float(p.get("b", 100.0)),
                          n=2), ctx
    if name == "rosenbrockNd":
        return rosenbrock(a=float(p.get("a", 1.0)), b=float(p.get("b", 100.0)),
                          n=int(p.get("n", 100))), ctx
    if name == "ackley":
        return ackley(), ctx
    raise ValueError(f"unknown problem {spec.name!r}")


def materialize_x0(x0, dim: int) -> np.ndarray:
    if isinstance(x0, dict):
        if "fill" in x0:
            return np.full(dim, float(x0["fill"]))
        raise ValueError(f"unknown x0 rule {x0!r}")
    v = np.asarray(x0, dtype=float)
    if v.shape != (dim,):
        raise ValueError(f"x0 has shape {v.shape}, problem dimension is {dim}")
    return v


def resolve_preconditioner(spec, ctx: dict) -> Optional[Preconditioner]:
    """Turn a config-level C spec into a Preconditioner.

    Accepted: "identity", "diag_inv_q" (inverse diagonal of the generated
    Q), or {"diagonal": [...]}.
    """
    if spec is None or isinstance(spec, Preconditioner):
        return spec
    if spec == "identity":
        return Preconditioner.identity()
    if spec == "diag_inv_q":
        Q = ctx.get("Q")
        if Q is None:
            raise ValueError("diag_inv_q needs a problem that generates Q")
        return Preconditioner.diagonal(1.0 / np.diag(Q))
    if isinstance(spec, dict) and "diagonal" in spec:
        return Preconditioner.diagonal(np.asarray(spec["diagonal"], dtype=float))
    raise ValueError(f"unknown preconditioner spec {spec!r}")


# ---------------------------------------------------------------------------
# presets: the experiment suite with its published parameter choices
# ---------------------------------------------------------------------------

def preset(name: str, out_dir: Optional[str] = None,
           seed: Optional[int] = None) -> ExperimentConfig:
    """Named experiment configurations with the reference hyperparameters."""
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")

    if name == "toynet":
        prob = ProblemSpec(name="toynet", params={
            "n": 2000, "d_in": 20, "k": 5, "spread": 0.5,
            "epochs": 30, "batch_size": 32, "hidden": [16, 16],
            "seeds": list(range(10)),
        }, seed=seed if seed is not None else 0)
        return ExperimentConfig(problem=prob, optimizers=[
            OptimizerSpec(method=m, label=m, params={}) for m in toynet.METHODS
        ], x0=[], max_iter=1, outputs=("csv", "svg"), output_dir=out_dir)

    if name == "logsumexp":
        # the dual preconditioner scale A = 10 is only stable at the
        # reference matrix magnitude, hence scale = n/2
        prob = ProblemSpec(name="logsumexp", params={"n": 100, "scale": 50.0},
                           seed=seed if seed is not None else 7)
        _, ctx = build_problem(prob)
        lmin, lmax = ctx["lambda_min"], ctx["lambda_max"]
        kappa_p = 10.0 * lmax / lmin
        beta_nag = compute_nag_beta(kappa_p)
        tau_att = 0.0016
        m1 = lmin
        opts = [
            OptimizerSpec("gd", "gd", {"tau": 2.0 / (3.0 * lmax + lmin)}),
            OptimizerSpec("nag", "nag", {"tau": 4.0 / (30.0 * lmax + lmin),
                                         "beta": beta_nag}),
            OptimizerSpec("pdd", "pdd-identity",
                          {"tau": 2.0 / (lmax + lmin), "sigma": 2.0 / (lmax + lmin),
                           "A": 10.0, "epsilon": 1.0, "omega": 1.0}),
            OptimizerSpec("pdd", "pdd-diagonal",
                          {"tau": 0.5, "sigma": 0.5, "A": 1.0, "epsilon": 1.0,
                           "omega": 1.0, "C": "diag_inv_q"}),
            OptimizerSpec("igahd_sc", "igahd-sc",
                          {"tau": tau_att, "m1": m1,
                           "beta2": compute_beta2(m1, tau_att)}),
        ]
        return ExperimentConfig(problem=prob, optimizers=opts,
                                x0={"fill": 0.1}, max_iter=20000,
                                grad_tol=1e-10, record_every=10,
                                output_dir=out_dir)

    if name == "quadcos":
        prob = ProblemSpec(name="quadcos", params={"dim": 100},
                           seed=seed if seed is not None else 3)
        tau_att = 0.55
        opts = [
            OptimizerSpec("gd", "gd", {"tau": 0.5}),
            OptimizerSpec("nag", "nag", {"tau": 4.0 / (3.0 * 3.9 + 0.1),
                                         "beta": compute_nag_beta(3.9 / 0.1)}),
            OptimizerSpec("pdd", "pdd", {"tau": 0.5, "sigma": 0.5, "A": 1.0,
                                         "epsilon": 1.0, "omega": 1.0}),
            OptimizerSpec("igahd_sc", "igahd-sc",
                          {"tau": tau_att, "m1": 0.1,
                           "beta2": compute_beta2(0.1, tau_att)}),
        ]
        return ExperimentConfig(problem=prob, optimizers=opts,
                                x0={"fill": 5.0}, max_iter=20000,
                                grad_tol=1e-10, record_every=10,
                                output_dir=out_dir)

    if name == "rosenbrock2d":
        tau_att = 0.00045
        opts = [
            OptimizerSpec("gd", "gd", {"tau": 0.0002}),
            OptimizerSpec("nag", "nag", {"tau": 0.0002, "beta": 0.9}),
            OptimizerSpec("pdd", "pdd", {"tau": 0.005, "sigma": 0.005,
                                         "A": 5.0, "epsilon": 1.0, "omega": 1.0}),
            OptimizerSpec("igahd", "igahd", {"tau": tau_att, "alpha": 3.0,
                                             "beta1": math.sqrt(tau_att) / 14.0}),
        ]
        return ExperimentConfig(
            problem=ProblemSpec(name="rosenbrock2d"),
            optimizers=opts, x0=[-3.0, -4.0], max_iter=1_000_000,
            grad_tol=1e-8, record_every=2000, output_dir=out_dir)

    if name == "rosenbrockNd":
        tau_att = 0.0002
        opts = [
            OptimizerSpec("gd", "gd", {"tau": 0.001}),
            OptimizerSpec("nag", "nag", {"tau": 0.0008, "beta": 0.95}),
            OptimizerSpec("pdd", "pdd", {"tau": 0.01, "sigma": 0.01,
                                         "A": 5.0, "epsilon": 0.5, "omega": 1.0}),
            OptimizerSpec("igahd", "igahd", {"tau": tau_att, "alpha": 3.0,
                                             "beta1": 2.0 * math.sqrt(tau_att)}),
        ]
        return ExperimentConfig(
            problem=ProblemSpec(name="rosenbrockNd", params={"n": 100}),
            optimizers=opts, x0={"fill": 0.0}, max_iter=200000,
            grad_tol=1e-8, record_every=200, output_dir=out_dir)

    # ackley
    tau_att = 0.01
    opts = [
        OptimizerSpec("gd", "gd", {"tau": 0.002}),
        OptimizerSpec("nag", "nag", {"tau": 0.002, "beta": 0.9}),
        OptimizerSpec("pdd", "pdd", {"tau": 0.002, "sigma": 0.002, "A": 1.0,
                                     "epsilon": 1.0, "omega": 1.0}),
        OptimizerSpec("igahd", "igahd", {"tau": tau_att, "alpha": 3.0,
                                         "beta1": 2.0 * math.sqrt(tau_att)}),
    ]
    return ExperimentConfig(
        problem=ProblemSpec(name="ackley"),
        optimizers=opts, x0=[2.5, 4.0], max_iter=100000,
        grad_tol=1e-10, record_every=100, output_dir=out_dir)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _fmt(v: Optional[float]) -> str:
    if v is None:
        return ""
    return format(v, ".17g")


def emit_csv(traj: Trajectory, path) -> None:
    """Columns: iter,f,grad_norm,lyapunov,dist_to_min (blank when there is
    no known minimizer). '.' decimals, LF endings."""
    if not traj.records:
        raise ValueError("refusing to emit an empty trajectory")
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("iter,f,grad_norm,lyapunov,dist_to_min\n")
            for r in traj.records:
                fh.write(f"{r.iter},{_fmt(r.f)},{_fmt(r.grad_norm)},"
                         f"{_fmt(r.lyapunov)},{_fmt(r.dist_to_min)}\n")
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc


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
    if override:
        root = Path(override)
    elif config.output_dir:
        root = Path(config.output_dir)
    else:
        env = os.environ.get(DEFAULT_OUT_ROOT_ENV)
        base = Path(env) if env else Path("pdd_out")
        root = base / f"{config.problem.name}-{tag}"
    root.mkdir(parents=True, exist_ok=True)
    return root


def validate_config(config: ExperimentConfig) -> None:
    if not config.optimizers:
        raise ValueError("config needs at least one optimizer")
    seen = set()
    for o in config.optimizers:
        if not isinstance(o.label, str) or not _LABEL_RE.fullmatch(o.label):
            raise ValueError(f"optimizer label {o.label!r} must match "
                             f"{_LABEL_RE.pattern}")
        if o.label in seen:
            raise ValueError(f"duplicate optimizer label {o.label!r}")
        seen.add(o.label)
    if config.problem.name == "toynet":
        for o in config.optimizers:
            if o.method not in toynet.METHODS:
                raise ValueError(f"unknown stochastic method {o.method!r}")
        return
    for o in config.optimizers:
        params = dict(o.params)
        if "C" in params:
            params["C"] = Preconditioner.identity()  # placeholder for schema check
        validate_method(o.method, params)


def _run_toynet(config: ExperimentConfig, out_dir: Path) -> RunArtifact:
    p = config.problem.params
    cfg = toynet.TrainConfig(
        data_seed=config.problem.seed,
        n=int(p.get("n", 2000)), d_in=int(p.get("d_in", 20)),
        k=int(p.get("k", 5)), spread=float(p.get("spread", 0.5)),
        hidden=tuple(p.get("hidden", (16, 16))),
        epochs=int(p.get("epochs", 30)), batch_size=int(p.get("batch_size", 32)),
        methods=tuple(o.method for o in config.optimizers),
        seeds=tuple(p.get("seeds", [0])),
    )
    t0 = time.perf_counter()
    rows = toynet.train(cfg)
    wall = time.perf_counter() - t0
    files = []
    csv_path = out_dir / "toynet_metrics.csv"
    toynet.write_metrics_csv(rows, csv_path)
    files.append(str(csv_path))
    if "svg" in config.outputs:
        series = []
        for m in cfg.methods:
            per_epoch = {}
            for r in rows:
                if r["method"] == m and math.isfinite(r["train_loss"]):
                    per_epoch.setdefault(r["epoch"], []).append(r["train_loss"])
            if per_epoch:
                es = np.array(sorted(per_epoch), dtype=float)
                ls = np.array([np.mean(per_epoch[e]) for e in sorted(per_epoch)])
                series.append((m, es + 1.0, ls))
        svg_path = out_dir / "toynet_loss.svg"
        emit_svg(series, svg_path, xlabel="epoch", ylabel="train loss",
                 title="toynet mean train loss")
        files.append(str(svg_path))
    diverged = any(not math.isfinite(r["train_loss"]) for r in rows)
    return RunArtifact(config=config, trajectories={},
                       wall_clock={"toynet": wall}, files=files,
                       any_diverged=diverged)


def run_experiment(config: ExperimentConfig,
                   out_dir_override: Optional[str] = None) -> RunArtifact:
    """Run every optimizer in the config on the shared problem and start.

    Writes one CSV per optimizer and a combined SVG convergence plot. The
    artifact lists every file written; ``any_diverged`` reflects whether
    some run blew up (the CLI exits nonzero in that case).
    """
    validate_config(config)
    out_dir = resolve_output_dir(config, out_dir_override)
    if config.problem.name == "toynet":
        return _run_toynet(config, out_dir)

    obj, ctx = build_problem(config.problem)
    x0 = materialize_x0(config.x0, obj.dim)

    trajectories: Dict[str, Trajectory] = {}
    wall: Dict[str, float] = {}
    files: List[str] = []
    for spec in config.optimizers:
        params = dict(spec.params)
        if "C" in params:
            params["C"] = resolve_preconditioner(params["C"], ctx)
        t0 = time.perf_counter()
        traj = run_optimizer(obj, spec.method, params, x0,
                             max_iter=config.max_iter,
                             grad_tol=config.grad_tol,
                             record_every=config.record_every,
                             label=spec.label)
        wall[spec.label] = time.perf_counter() - t0
        trajectories[spec.label] = traj
        if "csv" in config.outputs:
            path = out_dir / f"{spec.label}.csv"
            emit_csv(traj, path)
            files.append(str(path))

    if "svg" in config.outputs:
        series = [(label, t.iters, t.column("grad_norm"))
                  for label, t in trajectories.items()]
        path = out_dir / "convergence.svg"
        emit_svg(series, path, title=f"{config.problem.name}")
        files.append(str(path))

    any_diverged = any(t.diverged for t in trajectories.values())
    return RunArtifact(config=config, trajectories=trajectories,
                       wall_clock=wall, files=files, any_diverged=any_diverged)
