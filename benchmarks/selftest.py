#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

    python3 benchmarks/selftest.py

Run from the repository root. It checks that:

* every workload runs with ``--scale tiny``, untraced and traced, and its
  result line carries exactly the metrics BENCHMARK.json names, each with
  its unit, and no failed operation;
* a deliberately unstable config (gd with tau = 1.0 on rosenbrock2d) is
  counted as failed by the presets check, so the check can fail;
* the benchmark exits nonzero without a result line in a directory that
  holds only BENCHMARK.json and the benchmark's files.

Exits 0 when every check holds and prints what failed otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "benchmarks" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=180)


def check_result_lines(spec: dict) -> list:
    problems = []
    for workload in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            tag = f"{workload['name']} --trace {trace}"
            out = run_bench(ROOT, "--workload", workload["name"], "--seed", "0",
                            "--seconds", "1", "--trace", str(trace),
                            "--scale", "tiny")
            if out.returncode != 0:
                problems.append(f"{tag}: exit {out.returncode}: {out.stderr[-500:]}")
                continue
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if set(res) != RESULT_KEYS:
                problems.append(f"{tag}: result keys {sorted(res)}")
                continue
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if got.get(k, want[k]) != want[k]]}")
            values = [v["value"] for v in res["metrics"].values()]
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
                problems.append(f"{tag}: non-finite metric value")
            if section == "end_to_end" and not all(v > 0 for v in values):
                problems.append(f"{tag}: an end-to-end metric is not positive")
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                problems.append(f"{tag}: {res['failed']} of {res['attempted']} failed")
    return problems


def check_unstable_config_fails() -> list:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import workloads
    from pddopt import harness
    from pddopt.harness import OptimizerSpec

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as d:
        cfg = harness.preset("rosenbrock2d", out_dir=d)
        cfg.optimizers = [OptimizerSpec("gd", "gd", {"tau": 1.0})]
        checked = workloads.check_presets([cfg], workloads.body_presets([cfg]))
    if checked.failed == 0:
        return ["unstable gd (tau = 1.0) on rosenbrock2d passed the presets check"]
    return []


def check_refuses_without_sources() -> list:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as d:
        bare = Path(d)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "benchmarks", bare / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run_bench(bare, "--workload", "presets", "--seed", "0",
                        "--seconds", "1", "--trace", "0")
    if out.returncode == 0 or '"metrics"' in out.stdout:
        return ["benchmark ran without the package sources"]
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = (check_result_lines(spec) + check_unstable_config_fails()
                + check_refuses_without_sources())
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
