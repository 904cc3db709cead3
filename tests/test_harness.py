import csv
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from pddopt import harness
from pddopt.harness import (
    ExperimentConfig,
    OptimizerSpec,
    ProblemSpec,
    build_problem,
    emit_csv,
    emit_svg,
    load_config,
    preset,
    run_experiment,
    save_config,
)
from pddopt.optimizers import Trajectory, TrajectoryRecord


def test_preset_parameter_pins():
    cfg = preset("rosenbrock2d")
    pdd = next(o for o in cfg.optimizers if o.method == "pdd")
    assert pdd.params["A"] == 5.0
    assert pdd.params["tau"] == pdd.params["sigma"] == 0.005

    cfg = preset("ackley")
    assert cfg.x0 == [2.5, 4.0]
    gd = next(o for o in cfg.optimizers if o.method == "gd")
    assert gd.params["tau"] == 0.002

    # same seed -> identical generated problem
    q1 = build_problem(preset("logsumexp").problem)[1]["Q"]
    q2 = build_problem(preset("logsumexp").problem)[1]["Q"]
    np.testing.assert_array_equal(q1, q2)

    with pytest.raises(ValueError):
        preset("nonexistent")


def test_config_json_round_trip(tmp_path):
    cfg = preset("quadcos", out_dir=str(tmp_path / "out"))
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    back = load_config(path)
    assert back.problem.name == cfg.problem.name
    assert back.max_iter == cfg.max_iter
    assert [o.label for o in back.optimizers] == [o.label for o in cfg.optimizers]
    assert back.optimizers[0].params == cfg.optimizers[0].params


def test_validation_rejects_empty_optimizer_list(tmp_path):
    cfg = ExperimentConfig(problem=ProblemSpec(name="ackley"), optimizers=[],
                           x0=[2.5, 4.0], output_dir=str(tmp_path))
    with pytest.raises(ValueError):
        run_experiment(cfg)


def test_validation_rejects_unknown_methods(tmp_path):
    cfg = ExperimentConfig(
        problem=ProblemSpec(name="ackley"),
        optimizers=[OptimizerSpec("newton", "newton", {"tau": 1.0})],
        x0=[2.5, 4.0], output_dir=str(tmp_path))
    with pytest.raises(ValueError):
        run_experiment(cfg)
    toy = ExperimentConfig(
        problem=ProblemSpec(name="toynet"),
        optimizers=[OptimizerSpec("lbfgs", "lbfgs", {})],
        x0=[], output_dir=str(tmp_path))
    with pytest.raises(ValueError):
        run_experiment(toy)


def test_quadcos_preset_run_produces_outputs(tmp_path):
    cfg = preset("quadcos", out_dir=str(tmp_path))
    cfg.max_iter = 3000
    artifact = run_experiment(cfg)
    assert not artifact.any_diverged
    csvs = [f for f in artifact.files if f.endswith(".csv")]
    svgs = [f for f in artifact.files if f.endswith(".svg")]
    assert len(csvs) == 4 and len(svgs) == 1
    ET.parse(svgs[0])  # well-formed XML


def test_csv_round_trip_precision(tmp_path):
    traj = Trajectory(method="t", records=[
        TrajectoryRecord(0, 1.2345678901234567e-3, 9.87e2, 0.5, None),
        TrajectoryRecord(7, math.pi, math.e, 1.0 / 3.0, 2.0 ** -40),
    ])
    path = tmp_path / "t.csv"
    emit_csv(traj, path)
    rows = list(csv.DictReader(open(path)))
    assert rows[0]["dist_to_min"] == ""
    for row, rec in zip(rows, traj.records):
        assert int(row["iter"]) == rec.iter
        assert abs(float(row["f"]) - rec.f) <= 1e-12 * max(1.0, abs(rec.f))
        assert float(row["grad_norm"]) == rec.grad_norm
        assert float(row["lyapunov"]) == rec.lyapunov
    assert float(rows[1]["dist_to_min"]) == 2.0 ** -40


def test_csv_single_record_two_lines(tmp_path):
    traj = Trajectory(method="t",
                      records=[TrajectoryRecord(0, 1.0, 1.0, 0.5, 0.1)])
    path = tmp_path / "one.csv"
    emit_csv(traj, path)
    lines = open(path, "rb").read().split(b"\n")
    assert len([l for l in lines if l]) == 2
    assert b"\r" not in open(path, "rb").read()


def test_reproducible_bytes(tmp_path):
    cfg = preset("quadcos")
    cfg.max_iter = 500
    a1 = run_experiment(cfg, out_dir_override=str(tmp_path / "a"))
    a2 = run_experiment(cfg, out_dir_override=str(tmp_path / "b"))
    for f1, f2 in zip(sorted(a1.files), sorted(a2.files)):
        assert open(f1, "rb").read() == open(f2, "rb").read()


def test_divergent_stepsize_flags_artifact(tmp_path):
    cfg = ExperimentConfig(
        problem=ProblemSpec(name="quadcos", params={"dim": 20}, seed=3),
        optimizers=[OptimizerSpec("gd", "gd-too-big", {"tau": 10.0})],
        x0={"fill": 5.0}, max_iter=3000, record_every=100,
        output_dir=str(tmp_path))
    artifact = run_experiment(cfg)
    assert artifact.any_diverged
    assert artifact.trajectories["gd-too-big"].diverged


def test_every_preset_completes_without_divergence(tmp_path):
    # full rosenbrock2d / ackley horizons are exercised by the acceptance
    # suite; here every preset runs a truncated budget
    for name in ("logsumexp", "quadcos", "rosenbrockNd", "rosenbrock2d",
                 "ackley"):
        cfg = preset(name, out_dir=str(tmp_path / name))
        cfg.max_iter = min(cfg.max_iter, 3000)
        artifact = run_experiment(cfg)
        assert not artifact.any_diverged, name


def test_validation_rejects_out_of_range_hyperparameters(tmp_path):
    cfg = preset("quadcos", out_dir=str(tmp_path / "out"))
    cfg.optimizers[1].params["beta"] = 1.5  # nag
    with pytest.raises(ValueError, match="nag: beta"):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("labels", [("gd", "gd"), ("a/b",), ("a<b&c",), ("",)])
def test_validation_rejects_unsafe_labels(tmp_path, labels):
    cfg = ExperimentConfig(
        problem=ProblemSpec(name="ackley"),
        optimizers=[OptimizerSpec("gd", lab, {"tau": 0.002}) for lab in labels],
        x0=[2.5, 4.0], max_iter=10, output_dir=str(tmp_path / "out"))
    with pytest.raises(ValueError, match="label"):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


def test_svg_escapes_text(tmp_path):
    xs = np.array([1, 10, 100])
    ys = np.array([1.0, 0.1, 0.01])
    path = tmp_path / "p.svg"
    emit_svg([("a<b&c", xs, ys)], path, xlabel="x<1>", ylabel="y & z",
             title="t<&>")
    root = ET.parse(path).getroot()
    texts = [t.text for t in root.findall("{http://www.w3.org/2000/svg}text")]
    for want in ("a<b&c", "x<1> (log)", "y & z (log)", "t<&>"):
        assert want in texts


def test_svg_axes_and_legend(tmp_path):
    xs = np.array([1, 10, 100, 1000])
    ys = np.array([1.0, 0.1, 0.01, 0.001])
    path = tmp_path / "p.svg"
    emit_svg([("alpha", xs, ys), ("beta", xs, 2 * ys)], path)
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f"{ns}polyline")
    assert len(polylines) == 2
    texts = [t.text for t in root.findall(f"{ns}text")]
    assert "alpha" in texts and "beta" in texts

    with pytest.raises(ValueError):
        emit_svg([("empty", np.array([1.0]), np.array([-1.0]))],
                 tmp_path / "bad.svg")


def test_output_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("PDD_OUT_DIR", str(tmp_path / "envroot"))
    cfg = ExperimentConfig(
        problem=ProblemSpec(name="ackley"),
        optimizers=[OptimizerSpec("gd", "gd", {"tau": 0.002})],
        x0=[2.5, 4.0], max_iter=50, record_every=10)
    artifact = run_experiment(cfg)
    assert all(str(tmp_path / "envroot") in f for f in artifact.files)


def test_materialize_x0_rules():
    assert np.array_equal(harness.materialize_x0({"fill": 0.1}, 3),
                          np.full(3, 0.1))
    assert np.array_equal(harness.materialize_x0([1.0, 2.0], 2),
                          np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        harness.materialize_x0([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        harness.materialize_x0({"spam": 1}, 2)


def test_cli_run_and_analyze(tmp_path, capsys):
    from pddopt.cli import main

    cfg = preset("quadcos", out_dir=str(tmp_path / "run"))
    cfg.max_iter = 2000
    cfg.analysis = {"num_samples": 5, "pdd_steps": 200, "sample_scale": 0.3}
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg, cfg_path)

    assert main(["run", str(cfg_path)]) == 0
    assert main(["analyze", str(cfg_path), "--out", str(tmp_path / "an")]) == 0
    out = capsys.readouterr().out
    assert "decay_factor" in out
    assert (tmp_path / "an" / "rate_summary.csv").exists()
    assert (tmp_path / "an" / "rate_report.csv").exists()


def test_cli_dynamics_and_spectral(tmp_path):
    from pddopt.cli import main

    cfg = ExperimentConfig(
        problem=ProblemSpec(name="quadratic", params={"diag": [0.5, 2.0]}),
        optimizers=[OptimizerSpec("gd", "gd", {"tau": 0.1})],
        x0=[1.0, -1.0],
        dynamics={"A": 1.0, "epsilon": 1.0, "gamma": 0.5, "t_end": 2.0,
                  "dt": 0.01},
        analysis={"num_samples": 3, "pdd_steps": 100},
        output_dir=str(tmp_path / "d"))
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg, cfg_path)
    assert main(["dynamics", str(cfg_path)]) == 0
    rows = list(csv.DictReader(open(tmp_path / "d" / "dynamics.csv")))
    assert float(rows[-1]["grad_norm"]) < float(rows[0]["grad_norm"])

    assert main(["analyze", str(cfg_path), "--out", str(tmp_path / "an2")]) == 0
    spath = tmp_path / "an2" / "spectral.csv"
    assert spath.exists()
    srows = list(csv.DictReader(open(spath)))
    assert len(srows) == 2
    assert all(int(r["converges"]) == 1 for r in srows)


def test_cli_preset_with_dump_config(tmp_path):
    from pddopt.cli import main

    dump = tmp_path / "dumped.json"
    assert main(["preset", "quadcos", "--out", str(tmp_path / "o"),
                 "--max-iter", "500", "--dump-config", str(dump)]) == 0
    cfg = load_config(dump)
    assert cfg.problem.name == "quadcos"
    assert (tmp_path / "o" / "convergence.svg").exists()


def test_cli_toynet(tmp_path):
    from pddopt.cli import main

    assert main(["toynet", "--seeds", "2", "--epochs", "2",
                 "--out", str(tmp_path)]) == 0
    rows = list(csv.DictReader(open(tmp_path / "toynet_metrics.csv")))
    assert {r["method"] for r in rows} == {"sgd", "nag_momentum", "pdd",
                                           "igahd", "adam"}
    assert {r["seed"] for r in rows} == {"0", "1"}
    ET.parse(tmp_path / "toynet_loss.svg")


def test_cli_exit_code_on_divergence(tmp_path):
    from pddopt.cli import main

    cfg = ExperimentConfig(
        problem=ProblemSpec(name="quadcos", params={"dim": 10}, seed=1),
        optimizers=[OptimizerSpec("gd", "gd", {"tau": 10.0})],
        x0={"fill": 5.0}, max_iter=2000, record_every=100,
        output_dir=str(tmp_path))
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg, cfg_path)
    assert main(["run", str(cfg_path)]) == 1
