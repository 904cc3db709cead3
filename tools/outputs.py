"""Compare what two trees of pddopt write, file by file, on a fixed corpus.

    python tools/outputs.py --base REV

exports REV with ``git archive``, then builds the corpus below twice: once
with REV's ``src/`` and once with the ``src/`` of the working tree this
script sits in, each in a fresh process and directory. For every file it
prints "identical", or how many cells differ with the largest absolute and
relative gap between two numbers. A cell is a CSV field, or a token of
any other file split at blanks, commas, quotes, "=", "<" and ">". The
"output_dir" of a dumped config names the directory each tree wrote to,
so it is excused. The exit status is 0 only when every file is identical.

The corpus:
  - the five deterministic presets' CSVs, SVG and dumped configs;
  - toynet with seeds [0, 1] for 3 epochs;
  - run, analyze and dynamics on the seed-1 logsumexp dump, as dumped and
    with dynamics "epsilon": "3/t";
  - run, analyze and dynamics on the seed-11 100-d quadratic with pdd
    "C": "diag_inv_q" (dynamics "epsilon": "3/t", t_end 2, dt 1e-3);
  - the consistency probe's errors on that quadratic, and the records of
    10 steps of each rosenbrockNd preset optimizer at n = 1e6, as .17g.

It uses only the standard library and git; the whole comparison takes
about 12 s on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run in each tree as `python -c BUILD OUT`, with that tree's src first on
# sys.path; it may use only what both trees have
BUILD = r'''
import contextlib, io, json, sys
from pathlib import Path

import numpy as np

from pddopt import cli, dynamics, harness, optimizers

out = Path(sys.argv[1])


def main(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main([str(a) for a in argv])


def commands(config, name):
    for command in ("run", "analyze", "dynamics"):
        main(command, config, "--out", out / name / command)


def write_g(name, header, rows):
    harness.write_csv(out / name, header,
                      ([format(v, ".17g") for v in row] for row in rows))


for name in ("logsumexp", "quadcos", "rosenbrock2d", "rosenbrockNd", "ackley"):
    main("preset", name, "--out", out / "presets" / name,
         "--dump-config", out / "presets" / f"{name}.json")

toy = harness.config_to_dict(harness.preset("toynet"))
toy["problem"]["params"].update(seeds=[0, 1], epochs=3)
(out / "toynet.json").write_text(json.dumps(toy, indent=2) + "\n")
main("run", out / "toynet.json", "--out", out / "toynet")

lse = harness.config_to_dict(harness.preset("logsumexp", seed=1))
for name, dyn in (("logsumexp", {}), ("logsumexp-3t", {"epsilon": "3/t"})):
    (out / f"{name}.json").write_text(json.dumps({**lse, "dynamics": dyn}))
    commands(out / f"{name}.json", name)

quad = {"problem": {"name": "quadratic", "params": {"n": 100}, "seed": 11},
        "optimizers": [{"method": "pdd", "label": "pdd", "params": {
            "tau": 0.5, "sigma": 0.5, "A": 1.0, "epsilon": 1.0, "omega": 1.0,
            "C": "diag_inv_q"}}],
        "x0": {"fill": 5.0},
        "dynamics": {"epsilon": "3/t", "t_end": 2.0, "dt": 1e-3}}
(out / "quadratic.json").write_text(json.dumps(quad))
commands(out / "quadratic.json", "quadratic")

config = harness.load_config(out / "quadratic.json")
obj, _ = harness.build_problem(config.problem)
x0 = harness.materialize_x0(config.x0, obj.dim)
taus = (0.1, 0.05, 0.025, 0.0125)
errors = dynamics.discrete_continuous_consistency(
    obj, taus=taus, gamma=0.5, eps=1.0, A=1.0, x0=x0, p0=np.zeros(obj.dim),
    t_end=4.0)
write_g("consistency.csv", ["tau", "error"], zip(taus, errors))

config = harness.preset("rosenbrockNd")
config.problem.params["n"] = 1_000_000
obj, _ = harness.build_problem(config.problem)
x0 = harness.materialize_x0(config.x0, obj.dim)
for spec in config.optimizers:
    traj = optimizers.run_optimizer(obj, spec.method, spec.params, x0, 10, 0.0, 10)
    write_g(f"large-d-{spec.label}.csv", ["iter", "f", "grad_norm", "lyapunov",
                                         "dist_to_min"],
            ([r.iter, r.f, r.grad_norm, r.lyapunov, r.dist_to_min]
             for r in traj.records))
'''


def build(src: Path, out: Path) -> None:
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PDD_OUT_DIR", None)
    subprocess.run([sys.executable, "-c", BUILD, str(out)], env=env, cwd=out,
                   check=True)


def export(rev: str, dest: Path) -> None:
    """The tree of ``rev`` under ``dest``, by `git archive`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def cells(path: Path) -> list:
    text = path.read_text()
    if path.suffix == ".json":
        d = json.loads(text)
        d.pop("output_dir", None)  # each tree writes to its own directory
        text = json.dumps(d, indent=2)
    if path.suffix == ".csv":
        return [c for row in csv.reader(io.StringIO(text)) for c in row]
    return [c for c in re.split(r'[\s,"=<>]+', text) if c]


def number(cell: str):
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def compare(a: Path, b: Path) -> str:
    """The verdict on ``b`` against ``a``: identical, or how they differ."""
    if a.read_bytes() == b.read_bytes():
        return "identical"
    ca, cb = cells(a), cells(b)
    if ca == cb:
        return "identical (output_dir excused)"
    n = abs(len(ca) - len(cb))
    gap_abs = gap_rel = 0.0
    for x, y in zip(ca, cb):
        if x == y:
            continue
        n += 1
        u, v = number(x), number(y)
        if u is not None and v is not None:
            gap_abs = max(gap_abs, abs(u - v))
            gap_rel = max(gap_rel, abs(u - v) / (max(abs(u), abs(v)) or 1.0))
    return (f"{n} of {max(len(ca), len(cb))} cells differ, largest gap "
            f"{gap_abs:.3g} absolute, {gap_rel:.3g} relative")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="the git revision to compare the working tree with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="pddopt-outputs-") as tmp:
        tmp = Path(tmp)
        export(args.base, tmp / "base-tree")
        build(tmp / "base-tree" / "src", tmp / "base")
        build(ROOT / "src", tmp / "work")
        names = sorted({p.relative_to(tmp / side).as_posix()
                        for side in ("base", "work")
                        for p in (tmp / side).rglob("*") if p.is_file()})
        same = True
        for name in names:
            a, b = tmp / "base" / name, tmp / "work" / name
            if not (a.exists() and b.exists()):
                verdict = f"only in {'base' if a.exists() else 'the working tree'}"
            else:
                verdict = compare(a, b)
            same &= verdict.startswith("identical")
            print(f"{name}: {verdict}")
    print("every file identical" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
