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
    if getattr(args, "seed", None) is not None:
        config.problem.seed = args.seed
    if getattr(args, "max_iter", None) is not None:
        config.max_iter = args.max_iter
    if getattr(args, "grad_tol", None) is not None:
        config.grad_tol = args.grad_tol
    return config


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
    config = harness.preset(args.name, out_dir=args.out, seed=args.seed)
    config = _apply_overrides(config, args)
    if args.dump_config:
        harness.save_config(config, args.dump_config)
        print(f"  wrote {args.dump_config}")
    artifact = harness.run_experiment(config, out_dir_override=args.out)
    return _report_artifact(artifact)


def cmd_analyze(args) -> int:
    config = _apply_overrides(harness.load_config(args.config), args)
    opts = config.analysis
    n_steps = opts.get("pdd_steps", 2000)
    # a decay certificate needs at least one measured ratio
    if not isinstance(n_steps, int) or isinstance(n_steps, bool) or n_steps < 1:
        raise ValueError(f"analysis.pdd_steps must be an integer >= 1, "
                         f"got {n_steps!r}")
    out_dir = harness.resolve_output_dir(config, args.out, tag="analyze")
    obj, ctx = harness.build_problem(config.problem)
    x0 = harness.materialize_x0(config.x0, obj.dim)

    delta = float(opts.get("delta", 1.0))
    n_samples = int(opts.get("num_samples", 20))
    scale = float(opts.get("sample_scale", 0.5))
    seed = int(opts.get("seed", config.problem.seed))

    C = Preconditioner.identity()
    for o in config.optimizers:
        if o.method == "pdd" and "C" in o.params:
            C = harness.resolve_preconditioner(o.params["C"], ctx)
            break

    rng = np.random.default_rng(seed)
    pts = x0 + scale * rng.standard_normal((n_samples, obj.dim))
    pts = np.vstack([x0, pts])
    est = analysis.estimate_constants(obj, pts, C=C)
    recipe = analysis.theorem6_params(est.mu_hat, est.L_hat,
                                      max(est.Lp_hat, est.L_hat), delta=delta, C=C)

    # one gradient per state: it drives the next step and gives I(x, p)
    state = PddState(x=x0.copy(), p=np.zeros(obj.dim))
    g = obj.gradient(state.x)
    values = [analysis.lyapunov_I(obj, state.x, state.p, grad=g)]
    for _ in range(n_steps):
        state = pdd_step(state, recipe.params, obj, grad=g)
        g = obj.gradient(state.x)
        values.append(analysis.lyapunov_I(obj, state.x, state.p, grad=g))
    report = analysis.discrete_decay_check(values, recipe)
    d0 = analysis.sample_D0_lower_bound(obj, pts[:5], seed=seed)

    summary = out_dir / "rate_summary.csv"
    with open(summary, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["mu_hat", "L_hat", "Lp_hat", "tau", "gamma", "A",
                    "epsilon", "omega", "decay_factor", "lambda_min_H",
                    "M_bound", "D0_sample_lb", "within_bound"])
        p = recipe.params
        w.writerow([est.mu_hat, est.L_hat, est.Lp_hat, p.tau, p.gamma, p.A,
                    p.epsilon, p.omega, recipe.decay_factor,
                    report.lambda_min_H, report.M_bound, d0,
                    int(report.within_bound)])
    ratios = out_dir / "rate_report.csv"
    with open(ratios, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["step", "lyapunov", "ratio"])
        cells = [""] + [format(r, ".17g") for r in report.per_step_ratios]
        for n, (val, r) in enumerate(zip(report.lyapunov_values, cells)):
            w.writerow([n, format(val, ".17g"), r])
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
        spath = out_dir / "spectral.csv"
        with open(spath, "w", newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["mu", "a", "root1_re", "root1_im", "root2_re",
                        "root2_im", "alpha", "converges"])
            for m in rep.modes:
                w.writerow([m.mu, m.a, m.roots[0].real, m.roots[0].imag,
                            m.roots[1].real, m.roots[1].imag, rep.alpha,
                            int(rep.converges)])
        print(f"  spectral alpha={rep.alpha:.6g} converges={rep.converges}")
        print(f"  wrote {spath}")
    return 0


def cmd_dynamics(args) -> int:
    config = _apply_overrides(harness.load_config(args.config), args)
    out_dir = harness.resolve_output_dir(config, args.out, tag="dynamics")
    obj, _ = harness.build_problem(config.problem)
    x0 = harness.materialize_x0(config.x0, obj.dim)

    d = config.dynamics
    eps_spec = d.get("epsilon", 1.0)
    epsilon = (lambda t: 3.0 / t) if eps_spec == "3/t" else float(eps_spec)
    params = DynParams(A=float(d.get("A", 1.0)), epsilon=epsilon,
                       gamma=float(d.get("gamma", 0.0)))
    p0 = as_vector(d["p0"], obj.dim) if "p0" in d else np.zeros(obj.dim)
    t_end = float(d.get("t_end", 10.0))
    dt = float(d.get("dt", 1e-3))

    traj = integrate_rk4(params, obj, x0, p0, t_end=t_end, dt=dt)
    path = out_dir / "dynamics.csv"
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "f", "grad_norm", "lyapunov"])
        for k, gn in enumerate(traj.grad_norms.tolist()):
            lyap = 0.5 * (float(traj.ps[k] @ traj.ps[k]) + gn * gn)
            w.writerow([format(traj.times[k], ".17g"),
                        format(obj.value(traj.xs[k]), ".17g"),
                        format(gn, ".17g"), format(lyap, ".17g")])
    print(f"  integrated to t={traj.times[-1]:.4g} "
          f"({'diverged' if traj.diverged else 'ok'})")
    print(f"  wrote {path}")
    return 1 if traj.diverged else 0


def cmd_toynet(args) -> int:
    config = harness.preset("toynet", out_dir=args.out)
    config.problem.params["seeds"] = list(range(args.seeds))
    config.problem.params["epochs"] = args.epochs
    if args.seed is not None:
        config.problem.seed = args.seed
    artifact = harness.run_experiment(config, out_dir_override=args.out)
    print(f"  trained {args.seeds} seeds x {len(config.optimizers)} methods "
          f"({artifact.wall_clock['toynet']:.1f}s)")
    for f in artifact.files:
        print(f"  wrote {f}")
    return 1 if artifact.any_diverged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pddopt",
        description="primal-dual damping optimization benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_arg=True):
        if config_arg:
            p.add_argument("config", help="path to a JSON experiment config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--max-iter", type=int, default=None, dest="max_iter")
        p.add_argument("--grad-tol", type=float, default=None, dest="grad_tol")

    p = sub.add_parser("run", help="run a config file")
    common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("preset", help="run a named experiment")
    p.add_argument("name", choices=harness.PRESET_NAMES)
    common(p, config_arg=False)
    p.add_argument("--dump-config", default=None,
                   help="also write the materialized config JSON here")
    p.set_defaults(fn=cmd_preset)

    p = sub.add_parser("analyze", help="rate certificates for a config")
    common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("dynamics", help="integrate the continuous system")
    common(p)
    p.set_defaults(fn=cmd_dynamics)

    p = sub.add_parser("toynet", help="stochastic training comparison")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="dataset seed (training seeds are 0..seeds-1)")
    p.set_defaults(fn=cmd_toynet)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
