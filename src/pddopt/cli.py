"""Command-line interface.

Subcommands:
    run <config.json>     run the optimizers described by a config file
    preset <name>         build a named experiment and run it
    analyze <config.json> estimated constants, stepsize recipe, decay report
                          (and mode-wise spectral rates for quadratics)
    dynamics <config.json> integrate the continuous system, emit CSV
    toynet                train the small network with every stochastic method

Common flags: --out, --seed, --max-iter, --grad-tol. The environment
variable PDD_OUT_DIR sets the default output root. Exit status is nonzero
when any run diverges.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import analysis, harness
from .dynamics import DynParams, integrate_rk4
from .objective import as_vector
from .optimizers import PddState, Preconditioner, pdd_step


def _apply_overrides(config, args):
    """``config`` with the command line's values, checked."""
    if getattr(args, "seed", None) is not None:
        config.problem.seed = args.seed
    if getattr(args, "max_iter", None) is not None:
        config.max_iter = args.max_iter
    if getattr(args, "grad_tol", None) is not None:
        config.grad_tol = args.grad_tol
    harness.validate_config(config)
    return config


def _write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    return path


def _report_artifact(artifact) -> int:
    for label, traj in artifact.trajectories.items():
        last = traj.records[-1]
        state = "DIVERGED" if traj.diverged else "ok"
        print(f"  {label:14s} iters={last.iter:<9d} f={last.f:.6e} "
              f"|grad|={last.grad_norm:.6e} [{state}] "
              f"({artifact.wall_clock[label]:.2f}s)")
    for f in artifact.files:
        print(f"  wrote {f}")
    if artifact.any_diverged:
        print("  at least one run diverged", file=sys.stderr)
        return 1
    return 0


def cmd_run(args) -> int:
    config = _apply_overrides(harness.load_config(args.config), args)
    artifact = harness.run_experiment(config, out_dir_override=args.out)
    return _report_artifact(artifact)


def cmd_preset(args) -> int:
    config = _apply_overrides(
        harness.preset(args.name, out_dir=args.out, seed=args.seed), args)
    if args.dump_config:
        harness.save_config(config, args.dump_config)
        print(f"  wrote {args.dump_config}")
    artifact = harness.run_experiment(config, out_dir_override=args.out)
    return _report_artifact(artifact)


def cmd_analyze(args) -> int:
    config = _apply_overrides(harness.load_config(args.config), args)
    opts = harness.read_section(
        "analysis", {"seed": config.problem.seed, **config.analysis})
    obj, ctx = harness.build_problem(config.problem)
    x0 = harness.materialize_x0(config.x0, obj.dim)
    C = next((harness.resolve_preconditioner(o.params["C"], ctx)
              for o in config.optimizers if o.method == "pdd" and "C" in o.params),
             Preconditioner.identity())

    rng = np.random.default_rng(opts["seed"])
    pts = np.vstack([x0, x0 + opts["sample_scale"] * rng.standard_normal(
        (opts["num_samples"], obj.dim))])
    est = analysis.estimate_constants(obj, pts, C=C)
    recipe = analysis.theorem6_params(est.mu_hat, est.L_hat,
                                      max(est.Lp_hat, est.L_hat),
                                      delta=opts["delta"], C=C)

    # one gradient per state: it drives the next step and gives I(x, p)
    state = PddState(x=x0.copy(), p=np.zeros(obj.dim))
    g = obj.gradient(state.x)
    values = [analysis.lyapunov_I(obj, state.x, state.p, grad=g)]
    for _ in range(opts["pdd_steps"]):
        state = pdd_step(state, recipe.params, obj, grad=g)
        g = obj.gradient(state.x)
        values.append(analysis.lyapunov_I(obj, state.x, state.p, grad=g))
    report = analysis.discrete_decay_check(values, recipe)
    d0 = analysis.sample_D0_lower_bound(obj, pts[:5], seed=opts["seed"])

    p = recipe.params
    out_dir = harness.resolve_output_dir(config, args.out, tag="analyze")
    summary = _write_csv(out_dir / "rate_summary.csv", [
        "mu_hat", "L_hat", "Lp_hat", "tau", "gamma", "A", "epsilon", "omega",
        "decay_factor", "lambda_min_H", "M_bound", "D0_sample_lb",
        "within_bound"], [[
            est.mu_hat, est.L_hat, est.Lp_hat, p.tau, p.gamma, p.A, p.epsilon,
            p.omega, recipe.decay_factor, report.lambda_min_H, report.M_bound,
            d0, int(report.within_bound)]])
    cells = [""] + [format(r, ".17g") for r in report.per_step_ratios]
    ratios = _write_csv(out_dir / "rate_report.csv", ["step", "lyapunov", "ratio"],
                        ([n, format(val, ".17g"), r] for n, (val, r) in
                         enumerate(zip(report.lyapunov_values, cells))))
    print(f"  constants: mu={est.mu_hat:.6g} L={est.L_hat:.6g} "
          f"L'={est.Lp_hat:.6g}")
    print(f"  recipe: tau=sigma={recipe.params.tau:.6g} "
          f"decay_factor={recipe.decay_factor:.12g} "
          f"ratios within bound: {report.within_bound}")
    print(f"  wrote {summary}\n  wrote {ratios}")

    if config.problem.name == "quadratic":
        Q = ctx["Q"]
        Cmat = C.matrix(x0, obj.dim)
        B = Cmat @ np.linalg.inv(Q)
        A_scalar = recipe.params.A
        mus = np.linalg.eigvals(B @ Q @ (A_scalar * np.eye(obj.dim)) @ Q).real
        rep = analysis.quadratic_spectral_rate(
            np.sort(mus)[::-1], np.full(obj.dim, A_scalar),
            gamma=recipe.params.gamma, eps=recipe.params.epsilon)
        spath = _write_csv(
            out_dir / "spectral.csv", ["mu", "a", "root1_re", "root1_im",
                                       "root2_re", "root2_im", "alpha",
                                       "converges"],
            ([m.mu, m.a, m.roots[0].real, m.roots[0].imag, m.roots[1].real,
              m.roots[1].imag, rep.alpha, int(rep.converges)]
             for m in rep.modes))
        print(f"  spectral alpha={rep.alpha:.6g} converges={rep.converges}")
        print(f"  wrote {spath}")
    return 0


def cmd_dynamics(args) -> int:
    config = _apply_overrides(harness.load_config(args.config), args)
    d = harness.read_section("dynamics", config.dynamics)
    obj, _ = harness.build_problem(config.problem)
    x0 = harness.materialize_x0(config.x0, obj.dim)

    params = DynParams(A=d["A"], gamma=d["gamma"], epsilon=(lambda t: 3.0 / t)
                       if d["epsilon"] == "3/t" else float(d["epsilon"]))
    p0 = np.zeros(obj.dim) if d["p0"] is None \
        else as_vector(d["p0"], obj.dim, "dynamics p0")

    traj = integrate_rk4(params, obj, x0, p0, t_end=d["t_end"], dt=d["dt"])
    out_dir = harness.resolve_output_dir(config, args.out, tag="dynamics")
    path = _write_csv(
        out_dir / "dynamics.csv", ["t", "f", "grad_norm", "lyapunov"],
        ([format(v, ".17g") for v in (t, obj.value(x), gn,
                                      0.5 * (float(p @ p) + gn * gn))]
         for t, x, p, gn in zip(traj.times, traj.xs, traj.ps,
                                traj.grad_norms.tolist())))
    print(f"  integrated to t={traj.times[-1]:.4g} "
          f"({'diverged' if traj.diverged else 'ok'})")
    print(f"  wrote {path}")
    return 1 if traj.diverged else 0


def cmd_toynet(args) -> int:
    config = harness.preset("toynet", out_dir=args.out, seed=args.seed)
    p = config.problem.params
    if args.seeds is not None:
        p["seeds"] = list(range(args.seeds))
    if args.epochs is not None:
        p["epochs"] = args.epochs
    artifact = harness.run_experiment(config, out_dir_override=args.out)
    print(f"  trained {len(p['seeds'])} seeds x {len(config.optimizers)} methods "
          f"({artifact.wall_clock['toynet']:.1f}s)")
    return _report_artifact(artifact)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pddopt",
        description="primal-dual damping optimization benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, config_arg=True, overrides=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        if config_arg:
            p.add_argument("config", help="path to a JSON experiment config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="problem seed (toynet: the dataset's)")
        if overrides:
            p.add_argument("--max-iter", type=int, default=None, dest="max_iter")
            p.add_argument("--grad-tol", type=float, default=None, dest="grad_tol")
        return p

    command("run", cmd_run, "run a config file")
    p = command("preset", cmd_preset, "run a named experiment", config_arg=False)
    p.add_argument("name", choices=harness.PRESET_NAMES)
    p.add_argument("--dump-config", default=None,
                   help="also write the materialized config JSON here")
    command("analyze", cmd_analyze, "rate certificates for a config")
    command("dynamics", cmd_dynamics, "integrate the continuous system")
    p = command("toynet", cmd_toynet, "stochastic training comparison",
                config_arg=False, overrides=False)
    p.add_argument("--seeds", type=int, default=None,
                   help="train seeds 0..seeds-1 (default: the preset's)")
    p.add_argument("--epochs", type=int, default=None)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
