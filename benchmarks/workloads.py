"""The four benchmark workloads.

Each workload is a ``setup`` that builds the inputs from the seed (timed as
set-up), a ``body`` that runs one pass through pddopt's public entry points
(timed as the pass), and a ``check`` that verifies the pass's outputs
(untimed). The caller is one closed loop: the next pass starts when the
previous one has been checked.

``tiny`` shrinks every input so the self-test can run all workloads in a few
seconds; the measured runs always use the full inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from pddopt import cli, dynamics, harness, optimizers, toynet
from pddopt.harness import ExperimentConfig, OptimizerSpec, ProblemSpec


@dataclass
class Checked:
    """One pass's work in unit steps and its operations checked."""
    steps: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, bool, Path], object]
    body: Callable[[object], object]
    check: Callable[[object, object], Checked]


# -- presets -----------------------------------------------------------------

DETERMINISTIC_PRESETS = ("logsumexp", "quadcos", "rosenbrock2d",
                         "rosenbrockNd", "ackley")
CSV_TOL = 1e-12


def setup_presets(seed: int, tiny: bool, workdir: Path) -> List[ExperimentConfig]:
    names = DETERMINISTIC_PRESETS[:2] if tiny else DETERMINISTIC_PRESETS
    return [harness.preset(n, out_dir=str(workdir / n), seed=seed) for n in names]


def body_presets(configs: List[ExperimentConfig]):
    return [harness.run_experiment(cfg) for cfg in configs]


def _close(a: float, b: float) -> bool:
    return a == b or math.isclose(a, b, rel_tol=CSV_TOL, abs_tol=CSV_TOL)


def csv_round_trips(traj, path: Path) -> bool:
    """The emitted CSV reads back as the trajectory's records."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(traj.records):
        return False
    for row, rec in zip(rows, traj.records):
        if int(row["iter"]) != rec.iter:
            return False
        for key in ("f", "grad_norm", "lyapunov", "dist_to_min"):
            want = getattr(rec, key)
            if want is None:
                if row[key] != "":
                    return False
            elif not _close(float(row[key]), want):
                return False
    return True


def parses_as_xml(path: Path) -> bool:
    try:
        ET.parse(path)
    except ET.ParseError:
        return False
    return True


def check_presets(configs, artifacts) -> Checked:
    res = Checked()
    for cfg, art in zip(configs, artifacts):
        out = Path(cfg.output_dir)
        for label, traj in art.trajectories.items():
            last = traj.records[-1]
            res.steps += last.iter
            res.op(not traj.diverged and last.grad_norm <= cfg.grad_tol
                   and csv_round_trips(traj, out / f"{label}.csv"),
                   f"{cfg.problem.name}/{label}")
        res.op(parses_as_xml(out / "convergence.svg"),
               f"{cfg.problem.name}/convergence.svg")
    return res


# -- large-d -----------------------------------------------------------------

LARGE_D_N = 1_000_000   # 8 MB per vector: above L2, far below the shared L3
LARGE_D_ITERS = 10


@dataclass
class LargeD:
    obj: object
    x0: np.ndarray
    runs: List[Tuple[str, str, dict]]
    iters: int


def setup_large_d(seed: int, tiny: bool, workdir: Path) -> LargeD:
    # rosenbrock has no random data, so the seed does not enter
    cfg = harness.preset("rosenbrockNd")
    cfg.problem.params["n"] = 1000 if tiny else LARGE_D_N
    obj, _ = harness.build_problem(cfg.problem)
    x0 = harness.materialize_x0(cfg.x0, obj.dim)
    runs = [(o.label, o.method, dict(o.params)) for o in cfg.optimizers]
    return LargeD(obj, x0, runs, 3 if tiny else LARGE_D_ITERS)


def body_large_d(inp: LargeD):
    return [optimizers.run_optimizer(inp.obj, method, params, inp.x0,
                                     inp.iters, 0.0, inp.iters)
            for _, method, params in inp.runs]


def check_large_d(inp: LargeD, trajs) -> Checked:
    res = Checked()
    for (label, _, _), traj in zip(inp.runs, trajs):
        first, last = traj.records[0], traj.records[-1]
        res.steps += last.iter
        res.op(not traj.diverged and math.isfinite(last.f) and last.f < first.f,
               f"large-d/{label}")
    return res


# -- toynet ------------------------------------------------------------------

TOYNET_SEEDS_PER_PASS = 2


@dataclass
class Toynet:
    config: toynet.TrainConfig
    batches_per_epoch: int


def setup_toynet(seed: int, tiny: bool, workdir: Path) -> Toynet:
    cfg = harness.preset("toynet", seed=seed)
    p = cfg.problem.params
    if tiny:
        p.update(n=200, epochs=2)
    tc = toynet.TrainConfig(
        data_seed=cfg.problem.seed, n=p["n"], d_in=p["d_in"], k=p["k"],
        spread=p["spread"], hidden=tuple(p["hidden"]), epochs=p["epochs"],
        batch_size=p["batch_size"],
        methods=tuple(o.method for o in cfg.optimizers),
        seeds=tuple(p["seeds"][:1 if tiny else TOYNET_SEEDS_PER_PASS]))
    data = toynet.make_blobs(tc.data_seed, tc.n, tc.d_in, tc.k, tc.spread)
    return Toynet(tc, math.ceil(len(data.train_idx) / tc.batch_size))


def body_toynet(inp: Toynet):
    return toynet.train(inp.config)


def check_toynet(inp: Toynet, rows) -> Checked:
    res = Checked()
    tc = inp.config
    final: Dict[str, List[float]] = {}
    for method in tc.methods:
        for seed in tc.seeds:
            run = [r for r in rows if r["method"] == method and r["seed"] == seed]
            finite = [r for r in run if math.isfinite(r["train_loss"])]
            res.steps += len(finite) * inp.batches_per_epoch
            res.op(len(run) == tc.epochs and len(finite) == len(run),
                   f"toynet/{method}/{seed}")
            if run:
                final.setdefault(method, []).append(run[-1]["train_loss"])
    res.op(np.mean(final["pdd"]) <= np.mean(final["sgd"]),
           "toynet: mean final pdd loss above sgd")
    return res


# -- certify -----------------------------------------------------------------

CONSISTENCY = dict(taus=(0.1, 0.05, 0.025, 0.0125), gamma=0.5, eps=1.0, A=1.0,
                   t_end=4.0)
CONSISTENCY_REF_REFINE = 20  # RK4 substeps per pdd step, the library default
HALVING_RATIO = (1.7, 2.3)


@dataclass
class Certify:
    workdir: Path
    lse_config: Path
    quad_config: Path
    obj: object
    x0: np.ndarray
    t_end: float


def setup_certify(seed: int, tiny: bool, workdir: Path) -> Certify:
    workdir.mkdir(parents=True, exist_ok=True)
    lse = harness.preset("logsumexp", seed=seed)
    lse.analysis = {"seed": seed}
    lse.dynamics = {"A": 1.0, "epsilon": 1.0, "gamma": 0.5, "t_end": 10.0,
                    "dt": 1e-3}
    quad = ExperimentConfig(
        problem=ProblemSpec("quadratic", {"n": 100}, seed=seed),
        optimizers=[OptimizerSpec("pdd", "pdd", {"tau": 0.5, "sigma": 0.5,
                                                 "A": 1.0, "epsilon": 1.0,
                                                 "omega": 1.0})],
        x0={"fill": 5.0}, analysis={"seed": seed})
    t_end = CONSISTENCY["t_end"]
    if tiny:
        lse.problem.params.update(n=10, scale=5.0)
        quad.problem.params["n"] = 10
        for cfg in (lse, quad):
            cfg.analysis.update(num_samples=3, pdd_steps=100)
        lse.dynamics["t_end"] = 1.0
        t_end = 1.0
    paths = workdir / "logsumexp.json", workdir / "quadratic.json"
    harness.save_config(lse, paths[0])
    harness.save_config(quad, paths[1])
    obj, _ = harness.build_problem(quad.problem)
    x0 = harness.materialize_x0(quad.x0, obj.dim)
    return Certify(workdir, paths[0], paths[1], obj, x0, t_end)


def body_certify(inp: Certify):
    out = inp.workdir
    with contextlib.redirect_stdout(io.StringIO()):
        codes = (
            cli.main(["analyze", str(inp.lse_config), "--out", str(out / "an-lse")]),
            cli.main(["analyze", str(inp.quad_config), "--out", str(out / "an-quad")]),
            cli.main(["dynamics", str(inp.lse_config), "--out", str(out / "dyn")]),
        )
    errors = dynamics.discrete_continuous_consistency(
        inp.obj, taus=CONSISTENCY["taus"], gamma=CONSISTENCY["gamma"],
        eps=CONSISTENCY["eps"], A=CONSISTENCY["A"], x0=inp.x0,
        p0=np.zeros(inp.obj.dim), t_end=inp.t_end)
    return codes, errors


def _csv_rows(path: Path) -> List[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_certify(inp: Certify, result) -> Checked:
    (rc_lse, rc_quad, rc_dyn), errors = result
    out = inp.workdir
    res = Checked()
    for rc, tag in ((rc_lse, "an-lse"), (rc_quad, "an-quad")):
        summary = _csv_rows(out / tag / "rate_summary.csv")
        res.op(rc == 0 and summary[0]["within_bound"] == "1",
               f"certify/{tag}: ratios not within the certified bound")
        res.steps += len(_csv_rows(out / tag / "rate_report.csv")) - 1
    spectral = _csv_rows(out / "an-quad" / "spectral.csv")
    res.op(bool(spectral) and all(r["converges"] == "1" for r in spectral),
           "certify/an-quad: spectral path does not converge")
    res.op(rc_dyn == 0, "certify/dyn: dynamics diverged")
    res.steps += len(_csv_rows(out / "dyn" / "dynamics.csv")) - 1
    ratios = [float(a / b) for a, b in zip(errors[:-1], errors[1:])]
    lo, hi = HALVING_RATIO
    res.op(all(lo <= r <= hi for r in ratios),
           f"certify/consistency: halving ratios {ratios}")
    for tau in CONSISTENCY["taus"]:
        n = int(round(inp.t_end / tau))
        res.steps += n * (1 + CONSISTENCY_REF_REFINE)
    return res


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("presets", setup_presets, body_presets, check_presets),
    Workload("large-d", setup_large_d, body_large_d, check_large_d),
    Workload("toynet", setup_toynet, body_toynet, check_toynet),
    Workload("certify", setup_certify, body_certify, check_certify),
)}
