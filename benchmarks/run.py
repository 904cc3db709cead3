#!/usr/bin/env python3
"""pddopt benchmark: one workload, one closed-loop caller, one process.

    python3 benchmarks/run.py --workload presets --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from ``src/``. With
``--trace 0`` the run sets up several times and then runs passes back to
back for ``--seconds`` seconds with nothing wrapped, and reports the
end-to-end metrics. With ``--trace 1`` it spends half the time on untraced
passes and half on traced ones (see ``tracing.py``) and reports the
per-layer metrics. The last line of standard output is the result as one
JSON object; the lines before it describe the machine and each metric's
samples. Spans and the full result are written under ``.bench_out/``.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported: single-threaded
# runs are what the workloads measure, and 1 is at most nproc anywhere.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("presets", "large-d", "toynet", "certify")
SETUP_REPS = 5

END_TO_END_UNITS = {"wall_s": "s", "steps_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
PDDOPT_MODULES = ("__init__", "analysis", "cli", "dynamics", "harness",
                  "objective", "optimizers", "toynet")

GRADS_PER_STEP_METHODS = ("gd", "nag", "pdd", "igahd", "igahd_sc")
PRESET_LABELS = {
    "logsumexp": ("gd", "nag", "pdd-identity", "pdd-diagonal", "igahd-sc"),
    "quadcos": ("gd", "nag", "pdd", "igahd-sc"),
    "rosenbrock2d": ("gd", "nag", "pdd", "igahd"),
    "rosenbrockNd": ("gd", "nag", "pdd", "igahd"),
    "ackley": ("gd", "nag", "pdd", "igahd"),
}


def per_layer_units() -> dict:
    """Every per-layer metric the traced run emits, with its unit."""
    u = {
        "objective.grad_calls": "count", "objective.value_calls": "count",
        "objective.grad_us": "us", "objective.grad_share": "frac",
        "optimizers.self_us_per_step": "us", "optimizers.steps": "count",
    }
    for m in GRADS_PER_STEP_METHODS:
        u[f"optimizers.grads_per_step.{m}"] = "grads/step"
    for preset, labels in PRESET_LABELS.items():
        for label in labels:
            u[f"optimizers.iters.{preset}.{label}"] = "count"
    u.update({
        "harness.setup_s": "s", "harness.emit_csv_s": "s",
        "harness.emit_svg_s": "s", "harness.records": "count",
        "harness.bytes_written": "B", "harness.self_s": "s",
        "toynet.loss_grad_calls": "count", "toynet.loss_grad_self_s": "s",
        "toynet.step_self_s": "s", "toynet.accuracy_s": "s",
        "toynet.batches": "count",
        "dynamics.rk4_steps": "count", "dynamics.vector_field_calls": "count",
        "dynamics.integrate_rk4_s": "s", "dynamics.consistency_s": "s",
        "analysis.estimate_constants_s": "s", "analysis.hessian_calls": "count",
        "analysis.decay_check_s": "s", "analysis.grad_calls_per_pdd_step": "grads/step",
        "cli.analyze_self_s": "s", "cli.dynamics_self_s": "s",
        "trace.overhead_frac": "frac",
    })
    for mod in PDDOPT_MODULES:
        u[f"{mod.strip('_')}.lines"] = "lines"
    u["src.lines"] = "lines"
    return u


# -- environment ---------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def cache_bytes(level: int) -> int:
    """Size of cpu0's unified or data cache at ``level``, from sysfs."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        if _read(str(idx / "level")) == str(level) and \
                _read(str(idx / "type")) in ("Unified", "Data"):
            size = _read(str(idx / "size"))
            mult = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
            return int(size.rstrip("KM")) * mult
    return 0


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment(loadavg: str) -> dict:
    return {
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": cache_bytes(2), "l3_bytes": cache_bytes(3),
        "blas_threads": BLAS_THREADS, "loadavg_start": loadavg,
    }


# -- measuring -----------------------------------------------------------------

def high_percentile(samples) -> tuple:
    """Highest of p99.9/p99/p95/p90/p75 with at least ten samples beyond
    it, as (percentile, value); (None, None) when no such percentile exists."""
    xs = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(xs) * (1.0 - p / 100.0) >= 10.0:
            return p, xs[min(len(xs) - 1, int(p / 100.0 * len(xs)))]
    return None, None


def import_seconds() -> float:
    """Time to import pddopt (numpy included) in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import pddopt; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def run_passes(workload, inputs, seconds: float, totals):
    """Closed loop: pass, check, repeat while another pass fits in
    ``seconds`` (always at least one). Returns the pass wall times."""
    walls = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = workload.body(inputs)
        walls.append(time.perf_counter() - t0)
        checked = workload.check(inputs, out)
        totals["steps"].append(checked.steps)
        totals["attempted"] += checked.attempted
        totals["failed"] += checked.failed
        totals["problems"].extend(checked.problems)
        if time.perf_counter() - t_start + walls[-1] > seconds:
            return walls


def layer_metrics(tracer, first: int, walls, untraced_walls) -> dict:
    """Per-pass layer numbers from the spans of the traced passes."""
    from tracing import SpanTable

    S = SpanTable(tracer, first)
    n = len(walls)
    c = tracer.counts
    m = {}

    def ratio(a, b):
        return a / b if b else 0.0

    grads = S.calls("objective.gradient")
    grad_self = S.self_of("objective.gradient")
    m["objective.grad_calls"] = grads / n
    m["objective.value_calls"] = S.calls("objective.value") / n
    m["objective.grad_us"] = ratio(grad_self, grads) * 1e6
    m["objective.grad_share"] = grad_self / sum(walls)

    steps = c["optimizers.steps"] + S.calls("optimizers.pdd_step")
    opt_self = S.self_of("optimizers.run_optimizer") + S.self_of("optimizers.pdd_step")
    m["optimizers.self_us_per_step"] = ratio(opt_self, steps) * 1e6
    m["optimizers.steps"] = steps / n
    grad_parent = S.parent[S.mask("objective.gradient")]
    for method in GRADS_PER_STEP_METHODS:
        runs = [i for i, tag in tracer.tags.items() if tag == method and i >= first]
        in_runs = int(np.isin(grad_parent, runs).sum())
        m[f"optimizers.grads_per_step.{method}"] = ratio(
            in_runs - len(runs), c[f"iters_by_method.{method}"])
    for preset, labels in PRESET_LABELS.items():
        for label in labels:
            key = f"optimizers.iters.{preset}.{label}"
            m[key] = c[key]

    setup_roots = (S.parent[:first] == -1) & np.array(
        [S.names[k].startswith("harness.") for k in S.name[:first]], dtype=bool)
    m["harness.setup_s"] = float(S.dur[:first][setup_roots].sum())
    m["harness.emit_csv_s"] = S.total("harness.emit_csv") / n
    m["harness.emit_svg_s"] = S.total("harness.emit_svg") / n
    m["harness.records"] = c["harness.records"] / n
    m["harness.bytes_written"] = c["harness.bytes_written"] / n
    m["harness.self_s"] = sum(
        S.self_of(name) for name in S.names if name.startswith("harness.")
        and name not in ("harness.emit_csv", "harness.emit_svg")) / n

    m["toynet.loss_grad_calls"] = S.calls("toynet.mlp_loss_grad") / n
    m["toynet.loss_grad_self_s"] = S.self_of("toynet.mlp_loss_grad") / n
    m["toynet.step_self_s"] = S.self_of("toynet.stochastic_step") / n
    m["toynet.accuracy_s"] = S.total("toynet.accuracy") / n
    m["toynet.batches"] = S.calls("toynet.stochastic_step") / n

    m["dynamics.rk4_steps"] = c["dynamics.rk4_steps"] / n
    m["dynamics.vector_field_calls"] = S.calls("dynamics.pdd_vector_field") / n
    m["dynamics.integrate_rk4_s"] = S.total("dynamics.integrate_rk4") / n
    m["dynamics.consistency_s"] = S.total("dynamics.discrete_continuous_consistency") / n

    m["analysis.estimate_constants_s"] = S.total("analysis.estimate_constants") / n
    m["analysis.hessian_calls"] = S.calls("objective.hessian_at") / n
    m["analysis.decay_check_s"] = S.total("analysis.discrete_decay_check") / n
    # gradients of the analyze loop proper: the pdd steps, the decay check
    # and the rate report, not the constant and D0 sampling
    analyze = S.under("cli.cmd_analyze")
    sampling = S.under("analysis.estimate_constants") | S.under(
        "analysis.sample_D0_lower_bound")
    loop_grads = int((S.mask("objective.gradient") & analyze & ~sampling).sum())
    m["analysis.grad_calls_per_pdd_step"] = ratio(
        loop_grads, int((S.mask("optimizers.pdd_step") & analyze).sum()))

    m["cli.analyze_self_s"] = S.self_of("cli.cmd_analyze") / n
    m["cli.dynamics_self_s"] = S.self_of("cli.cmd_dynamics") / n
    m["trace.overhead_frac"] = (statistics.median(walls)
                                / statistics.median(untraced_walls) - 1.0)

    total = 0
    for mod in PDDOPT_MODULES:
        with open(SRC / "pddopt" / f"{mod}.py") as fh:
            lines = sum(1 for _ in fh)
        m[f"{mod.strip('_')}.lines"] = lines
        total += lines
    m["src.lines"] = total
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the self-test only")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "pddopt" / "__init__.py").is_file():
        print(f"pddopt sources not found under {SRC}", file=sys.stderr)
        return 2

    loadavg = _read("/proc/loadavg")
    sys.path.insert(0, str(SRC))
    import workloads  # imports pddopt

    workload = workloads.WORKLOADS[args.workload]
    tiny = args.scale == "tiny"
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    totals = {"steps": [], "attempted": 0, "failed": 0, "problems": []}
    samples = {}
    try:
        if args.trace == 0:
            imports = [import_seconds() for _ in range(SETUP_REPS)]
            builds = []
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                inputs = workload.setup(args.seed, tiny, workdir)
                builds.append(time.perf_counter() - t0)
            walls = run_passes(workload, inputs, args.seconds, totals)
            rates = [s / w for s, w in zip(totals["steps"], walls)]
            samples = {"wall_s": walls, "steps_per_s": rates,
                       "setup_s.import": imports, "setup_s.build": builds}
            metrics = {
                "wall_s": statistics.median(walls),
                "steps_per_s": statistics.median(rates),
                "setup_s": statistics.median(imports) + statistics.median(builds),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
        else:
            import tracing
            inputs = workload.setup(args.seed, tiny, workdir)
            untraced = run_passes(workload, inputs, args.seconds / 2, totals)
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                inputs = workload.setup(args.seed, tiny, workdir)
                first = len(tracer)
                traced = run_passes(workload, inputs, args.seconds / 2, totals)
            tracer.save(OUT / f"trace-{args.workload}.npz")
            samples = {"wall_s.untraced": untraced, "wall_s.traced": traced}
            metrics = layer_metrics(tracer, first, traced, untraced)
            units = per_layer_units()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(loadavg)
    print("env " + json.dumps(env, sort_keys=True))
    for name, xs in samples.items():
        p, v = high_percentile(xs)
        tail = f"p{p:g}={v:.6g}" if p else "no percentile has 10 samples beyond it"
        print(f"{args.workload} {name}: median={statistics.median(xs):.6g} "
              f"{tail} n={len(xs)}")
    failed_frac = totals["failed"] / max(1, totals["attempted"])
    print(f"{args.workload} failed_frac: {failed_frac:.6g} "
          f"({totals['failed']} of {totals['attempted']} operations)")
    for problem in sorted(set(totals["problems"])):
        print(f"  failed: {problem}", file=sys.stderr)
    result = {
        "correct": totals["failed"] == 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {k: {"value": float(metrics[k]), "unit": u}
                    for k, u in units.items()},
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"env": env, "samples": samples, "failed_frac": failed_frac,
                   "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
