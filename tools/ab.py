"""Run the benchmark on two trees of pddopt in alternating pairs.

    python tools/ab.py --base REV --workload large-d --pairs 10 [--out FILE]

exports REV and the working tree (its tracked files, staged new files
included) with ``git archive`` and runs ``benchmarks/run.py`` of each tree,
unchanged and in a fresh process, ``--pairs`` times per workload at
``--trace 0``. Pair k runs both trees with seed k + 1 and the run length of
BENCHMARK.json. The two trees sit in two
directories whose paths have the same length; from one pair to the next
they swap directories and which of them runs first, because the
benchmark's numbers move with the checkout's path and with run order.

For each end-to-end metric of BENCHMARK.json it prints the base's median
and quartiles, the working tree's median, the median over pairs of the
ratio working tree / base, how many pairs the working tree won (ties
count for neither side), and "resolved" when the two medians differ by
more than the base's interquartile range, else "unresolved". With
``--out`` it writes both revisions, the machine, every sample, each
tree's ``src/`` line count and these verdicts as JSON.

It uses only the standard library and git.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from outputs import ROOT, export

SIDES = ("base", "work")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((tree / "src").rglob("*.py")))


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its result line, parsed."""
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def verdict(base: list, work: list, better: str) -> dict:
    """Paired comparison of one metric; ``better`` is "lower" or "higher"."""
    sign = 1.0 if better == "higher" else -1.0
    q1, _, q3 = statistics.quantiles(base, n=4)
    med_b, med_w = statistics.median(base), statistics.median(work)
    return {
        "base_median": med_b, "base_quartiles": [q1, q3], "work_median": med_w,
        "paired_ratio": statistics.median(w / b for b, w in zip(base, work)),
        "wins": sum(sign * (w - b) > 0 for b, w in zip(base, work)),
        "pairs": len(base),
        "resolved": abs(med_w - med_b) > q3 - q1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="the git revision to compare the working tree with")
    parser.add_argument("--workload", required=True, action="append",
                        help="a benchmark workload; repeat for several")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", help="write the samples and verdicts here")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    revs = {"base": git("rev-parse", args.base),
            "work": git("stash", "create") or git("rev-parse", "HEAD")}
    report = {"revisions": revs, "seconds": seconds, "machine": {
        "platform": platform.platform(), "python": platform.python_version(),
        "cpus": os.cpu_count()}, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="pddopt-ab-") as tmp:
        tmp = Path(tmp)
        trees = {side: tmp / f"tree-{side}" for side in SIDES}
        for side in SIDES:
            export(revs[side], trees[side])
        report["src.lines"] = {side: src_lines(trees[side]) for side in SIDES}
        slots = (tmp / "x", tmp / "y")  # paths of the same length
        for workload in args.workload:
            samples = {side: {"metrics": {m: [] for m in metrics},
                              "failed": 0, "attempted": 0} for side in SIDES}
            for k in range(args.pairs):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                where = dict(zip(order, slots))  # the first runs from "x"
                for side in order:
                    trees[side].rename(where[side])
                try:
                    for side in order:
                        res = run(where[side], workload, k + 1, seconds)
                        s = samples[side]
                        s["failed"] += res["failed"]
                        s["attempted"] += res["attempted"]
                        for m in metrics:
                            s["metrics"][m].append(res["metrics"][m]["value"])
                finally:
                    for side in order:
                        where[side].rename(trees[side])
                print(f"{workload} pair {k + 1}: " + "; ".join(
                    f"{m} {samples['base']['metrics'][m][-1]:.4g}/"
                    f"{samples['work']['metrics'][m][-1]:.4g}" for m in metrics),
                    flush=True)
            verdicts = {m: verdict(samples["base"]["metrics"][m],
                                   samples["work"]["metrics"][m], better)
                        for m, better in metrics.items()}
            report["workloads"][workload] = {"samples": samples,
                                             "verdicts": verdicts}
            for side in SIDES:
                print(f"{workload} {side}: {samples[side]['failed']} of "
                      f"{samples[side]['attempted']} operations failed")
            for m, v in verdicts.items():
                q1, q3 = v["base_quartiles"]
                print(f"{workload} {m}: base {v['base_median']:.4g} "
                      f"[{q1:.4g}, {q3:.4g}] -> {v['work_median']:.4g}, "
                      f"paired {v['paired_ratio']:.3f}x, work better in "
                      f"{v['wins']}/{v['pairs']}, "
                      f"{'resolved' if v['resolved'] else 'unresolved'}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
