import contextlib
import importlib.util
import io
import sys
from collections import Counter
from pathlib import Path

import pytest

from pddopt import analysis, cli, dynamics, harness
from pddopt.harness import (ExperimentConfig, OptimizerSpec, ProblemSpec,
                            save_config)
from pddopt.objective import Objective

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_benchmark_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", [
    (module, attr) for module, attr, _, _ in
    load_benchmark_module("tracing").BOUNDARIES],
    ids=lambda v: getattr(v, "__name__", v))
def test_traced_boundary_is_a_module_callable(module, attr):
    # the benchmark tracer wraps these attributes by name; a refactor that
    # drops or renames one fails here, not only in a traced benchmark run
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


# The benchmark's per-layer metrics divide counts taken at these boundaries:
# dynamics.vector_field_calls is 4 per RK4 step, and
# analysis.grad_calls_per_pdd_step divides the analyze loop's gradients by
# its cli.pdd_step calls. These tests pin both counts with plain counters.

def count_calls(monkeypatch, owner, attr, counts, key, when=lambda: True):
    fn = getattr(owner, attr)

    def counted(*args, **kwargs):
        if when():
            counts[key] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, attr, counted)


def test_dynamics_makes_four_field_calls_and_four_gradients_per_rk4_step(
        tmp_path, monkeypatch):
    cfg = ExperimentConfig(
        problem=ProblemSpec("logsumexp", {"n": 5, "scale": 5.0}, seed=3),
        optimizers=[OptimizerSpec("gd", "gd", {"tau": 0.1})],
        x0={"fill": 1.0},
        dynamics={"A": 1.0, "epsilon": 1.0, "gamma": 0.5, "t_end": 0.5,
                  "dt": 0.01},
        output_dir=str(tmp_path / "dyn"))
    save_config(cfg, tmp_path / "cfg.json")
    counts = Counter()
    count_calls(monkeypatch, dynamics, "pdd_vector_field", counts, "field")
    count_calls(monkeypatch, Objective, "gradient", counts, "grad")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["dynamics", str(tmp_path / "cfg.json")]) == 0
    with open(tmp_path / "dyn" / "dynamics.csv") as fh:
        steps = sum(1 for _ in fh) - 2  # header and the start state
    assert steps == 50
    assert counts["field"] == 4 * steps
    # one gradient per stage, the k1 one reused for grad_norm, and one at
    # the last state; writing dynamics.csv evaluates none
    assert counts["grad"] == 4 * steps + 1


def test_analyze_makes_one_pdd_step_and_one_gradient_per_step(
        tmp_path, monkeypatch):
    cfg = harness.preset("logsumexp", out_dir=str(tmp_path / "an"))
    cfg.problem.params.update(n=5, scale=5.0)
    cfg.analysis = {"num_samples": 3, "pdd_steps": 40}
    save_config(cfg, tmp_path / "cfg.json")
    counts = Counter()
    sampling = []

    def flag(owner, attr):
        fn = getattr(owner, attr)

        def flagged(*args, **kwargs):
            sampling.append(attr)
            try:
                return fn(*args, **kwargs)
            finally:
                sampling.pop()
        monkeypatch.setattr(owner, attr, flagged)

    # the constant and D0 sampling is not the stepping loop
    flag(analysis, "estimate_constants")
    flag(analysis, "sample_D0_lower_bound")
    count_calls(monkeypatch, cli, "pdd_step", counts, "step")
    count_calls(monkeypatch, Objective, "gradient", counts, "grad",
                when=lambda: not sampling)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["analyze", str(tmp_path / "cfg.json")]) == 0
    assert counts["step"] == 40
    assert counts["grad"] == 40 + 1


def test_large_d_workload_passes_its_check_at_full_size(tmp_path):
    # the benchmark's large-d pass (4 methods, n = 1e6, 10 steps each) as
    # run.py runs it; a gradient change that breaks it fails here first
    large_d = load_benchmark_module("workloads").WORKLOADS["large-d"]
    inp = large_d.setup(1, False, tmp_path)
    assert inp.obj.dim == 1_000_000
    res = large_d.check(inp, large_d.body(inp))
    assert res.attempted == 4 and res.failed == 0, res.problems
