"""Command-line interface.

Subcommands:
    run <config.json>     run the optimizers described by a config file
    preset <name>         build a named experiment and run it
    analyze <config.json> estimated constants, stepsize recipe, decay report
                          (and mode-wise spectral rates for quadratics)
    dynamics <config.json> integrate the continuous system, emit CSV

Flags: --out (written into the config's output_dir), and for preset --seed
(the problem seed, which also sizes logsumexp's steps) and --dump-config;
every other setting is a config key. The environment variable PDD_OUT_DIR
sets the default output root. Exit status is nonzero when any run diverges.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import analysis, harness
from .dynamics import DynParams, integrate_rk4
from .optimizers import lyapunov_value, pdd_step

SAMPLE_SCALE = 0.5  # analyze's sample points are x0 + 0.5 N(0, I)


def _load(args) -> harness.ExperimentConfig:
    """The config a command reads: the named preset at --seed, or the file;
    --out, where given, is its output_dir."""
    config = harness.preset(args.name, seed=args.seed) \
        if args.command == "preset" else harness.load_config(args.config)
    config.output_dir = args.out or config.output_dir
    return config


def _report_artifact(artifact) -> int:
    if artifact.config.problem.name == "toynet":
        seeds = harness.problem_params(artifact.config.problem)["seeds"]
        print(f"  trained {len(seeds)} seeds x {len(artifact.config.optimizers)} "
              f"methods ({artifact.wall_clock['toynet']:.1f}s)")
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
    """`run` a config file, or a `preset`; --dump-config writes only a config
    that the run accepted."""
    config = _load(args)
    artifact = harness.run_experiment(config)
    if getattr(args, "dump_config", None):
        harness.save_config(config, args.dump_config)
        print(f"  wrote {args.dump_config}")
    return _report_artifact(artifact)


def cmd_analyze(args) -> int:
    config = _load(args)
    obj, ctx, x0, params = harness.prepare(config)
    opts = harness.read_section(
        "analysis", {"seed": config.problem.seed, **config.analysis})
    # pdd's C: the first one given in the config, else I
    C = next((hp["C"] for hp in params if hp.get("C") is not None), None)

    rng = np.random.default_rng(opts["seed"])
    pts = np.vstack([x0, x0 + SAMPLE_SCALE * rng.standard_normal(
        (opts["num_samples"], obj.dim))])
    est = analysis.estimate_constants(obj, pts, C=C)
    if not est.mu_hat > 0:
        raise ValueError(f"mu_hat = {est.mu_hat:.6g}: the objective is not "
                         "strongly convex over the sampled points")
    recipe = analysis.theorem6_params(est.mu_hat, est.L_hat,
                                      max(est.Lp_hat, est.L_hat),
                                      delta=opts["delta"], C=C)

    # one gradient per state: it drives the next step and gives I(x, p)
    p = recipe.params
    x, s = x0, {"p": np.zeros(obj.dim)}
    g = obj.gradient(x)
    values = [analysis.lyapunov_I(obj, x, s["p"], grad=g)]
    for _ in range(opts["pdd_steps"]):
        x, s = pdd_step(x, g, s, p)
        g = obj.gradient(x)
        values.append(analysis.lyapunov_I(obj, x, s["p"], grad=g))
    report = analysis.discrete_decay_check(values, recipe)
    d0 = analysis.sample_D0_lower_bound(obj, pts[:5], seed=opts["seed"])

    gamma = p["sigma"] * p["omega"]
    out_dir = harness.resolve_output_dir(config, tag="analyze")
    summary = harness.write_csv(out_dir / "rate_summary.csv", [
        "mu_hat", "L_hat", "Lp_hat", "tau", "gamma", "A", "epsilon", "omega",
        "decay_factor", "lambda_min_H", "M_bound", "D0_sample_lb",
        "within_bound"], [[
            est.mu_hat, est.L_hat, est.Lp_hat, p["tau"], gamma, p["A"],
            p["epsilon"], p["omega"], recipe.decay_factor, recipe.lambda_bound,
            recipe.M_bound, d0, int(report.within_bound)]])
    cells = [""] + [format(r, ".17g") for r in report.per_step_ratios]
    ratios = harness.write_csv(
        out_dir / "rate_report.csv", ["step", "lyapunov", "ratio"],
        ([n, format(val, ".17g"), r] for n, (val, r) in
         enumerate(zip(values, cells))))
    print(f"  constants: mu={est.mu_hat:.6g} L={est.L_hat:.6g} "
          f"L'={est.Lp_hat:.6g}")
    print(f"  recipe: tau=sigma={p['tau']:.6g} "
          f"decay_factor={recipe.decay_factor:.12g} "
          f"ratios within bound: {report.within_bound}")
    print(f"  wrote {summary}\n  wrote {ratios}")

    if config.problem.name == "quadratic":
        # the modes of B Q A Q = A C Q (B = C Q^-1) are A times the
        # eigenvalues of S Q S, S = C^(1/2), which is symmetric
        s = np.sqrt(np.ones(obj.dim) if C is None else C)
        rep = analysis.quadratic_spectral_rate(
            p["A"] * np.linalg.eigvalsh(s[:, None] * ctx["Q"] * s)[::-1],
            np.full(obj.dim, p["A"]), gamma=gamma, eps=p["epsilon"])
        spath = harness.write_csv(
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
    config = _load(args)
    obj, _, x0, hps = harness.prepare(config)
    d = harness.read_section("dynamics", config.dynamics)
    params = DynParams(A=d["A"], epsilon=d["epsilon"], gamma=d["gamma"])
    traj = integrate_rk4(params, obj, x0, np.zeros(obj.dim), t_end=d["t_end"],
                         dt=d["dt"])
    out_dir = harness.resolve_output_dir(config, tag="dynamics")
    with np.errstate(all="ignore"):  # f may overflow near a divergence
        path = harness.write_csv(
            out_dir / "dynamics.csv", ["t", "f", "grad_norm", "lyapunov"],
            ([format(v, ".17g") for v in (t, obj.value(x), gn,
                                          lyapunov_value(p, gn * gn))]
             for t, x, p, gn in zip(traj.times, traj.xs, traj.ps,
                                    traj.grad_norms.tolist())))
    unused = "" if all(hp.get("C") is None for hp in hps) \
        else "; the config's pdd C is unused"
    print(f"  integrated to t={traj.times[-1]:.4g} "
          f"({'diverged' if traj.diverged else 'ok'}) with A={d['A']}, "
          f"epsilon={d['epsilon']}, gamma={d['gamma']} and C = I{unused}")
    print(f"  wrote {path}")
    return 1 if traj.diverged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pddopt",
        description="primal-dual damping optimization benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, help in (
            ("run", cmd_run, "run a config file"),
            ("preset", cmd_run, "run a named experiment"),
            ("analyze", cmd_analyze, "rate certificates for a config"),
            ("dynamics", cmd_dynamics, "integrate the continuous system")):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        if name == "preset":
            p.add_argument("name", choices=harness.PRESET_NAMES)
            p.add_argument("--dump-config", default=None,
                           help="also write the materialized config JSON here")
            p.add_argument("--seed", type=int, default=None, help="problem "
                           "seed (toynet: the data's, not params.seeds)")
        else:
            p.add_argument("config", help="path to a JSON experiment config")
        p.add_argument("--out", default=None, help="output directory")

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
