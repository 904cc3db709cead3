import csv
import math
import xml.etree.ElementTree as ET
from pathlib import Path

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


# final iteration of each preset run (what the traced optimizers.iters.*
# metrics report); the three longest runs are left out to keep the suite
# fast: gd on rosenbrock2d (214,268) and rosenbrockNd (51,502) and igahd on
# rosenbrockNd (37,119)
PRESET_FINAL_ITERS = {
    "logsumexp": {"gd": 52, "nag": 146, "pdd-identity": 242,
                  "pdd-diagonal": 78, "igahd-sc": 79},
    "quadcos": {"gd": 454, "nag": 75, "pdd": 26, "igahd-sc": 67},
    "ackley": {"gd": 286, "nag": 387, "pdd": 22426, "igahd": 42},
    "rosenbrock2d": {"nag": 27083, "pdd": 9317, "igahd": 19458},
    "rosenbrockNd": {"nag": 2409, "pdd": 2126},
}


@pytest.mark.parametrize("name", sorted(PRESET_FINAL_ITERS))
def test_preset_final_iterations_are_pinned(name, tmp_path):
    pinned = PRESET_FINAL_ITERS[name]
    cfg = preset(name)
    cfg.optimizers = [o for o in cfg.optimizers if o.label in pinned]
    cfg.outputs = ()
    art = run_experiment(cfg, str(tmp_path))
    assert not art.any_diverged
    assert {label: t.records[-1].iter
            for label, t in art.trajectories.items()} == pinned


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


def test_bad_preconditioner_fails_before_any_run(tmp_path):
    # gd runs first, so a C resolved only when pdd starts would write gd.csv
    cfg = preset("rosenbrock2d", out_dir=str(tmp_path / "out"))
    cfg.optimizers = [
        OptimizerSpec("gd", "gd", {"tau": 0.0002}),
        OptimizerSpec("pdd", "pdd", {"tau": 0.005, "sigma": 0.005, "A": 5.0,
                                     "epsilon": 1.0, "omega": 1.0,
                                     "C": "diag_inv_q"}),
    ]
    cfg.max_iter = 10
    with pytest.raises(ValueError, match="diag_inv_q"):
        run_experiment(cfg)
    assert not list(tmp_path.rglob("*.csv"))


def _toynet_config(tmp_path, optimizers, **params):
    prob = ProblemSpec(name="toynet", params={
        "n": 200, "d_in": 5, "k": 3, "epochs": 1, "hidden": [4],
        "seeds": [0], **params})
    return ExperimentConfig(problem=prob, optimizers=optimizers, x0=[],
                            outputs=("csv",), output_dir=str(tmp_path / "out"))


def test_toynet_config_checks_params_before_any_batch(tmp_path, monkeypatch):
    def no_batch(*args, **kwargs):
        raise AssertionError("a batch ran before the check")

    monkeypatch.setattr(harness.toynet, "stochastic_step", no_batch)
    cfg = _toynet_config(tmp_path, [
        OptimizerSpec("sgd", "sgd", {"tau": -1.0, "bogus": 3})])
    with pytest.raises(ValueError):
        run_experiment(cfg)


def test_toynet_config_passes_its_params(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(harness.toynet, "train",
                        lambda cfg: seen.append(cfg.hyperparams) or [])
    monkeypatch.setattr(harness.toynet, "write_metrics_csv",
                        lambda rows, path: None)
    run_experiment(_toynet_config(tmp_path, [
        OptimizerSpec("sgd", "sgd", {"tau": 0.05}),
        OptimizerSpec("adam", "adam", {})]))
    run_experiment(_toynet_config(tmp_path, [
        OptimizerSpec("sgd", "sgd", {})]))
    # an empty params dict keeps the defaults
    assert seen == [{"sgd": {"tau": 0.05}}, None]


def test_toynet_config_rejects_unread_params_and_repeated_methods(tmp_path):
    with pytest.raises(ValueError, match="epoch.*valid keys"):
        run_experiment(_toynet_config(
            tmp_path, [OptimizerSpec("sgd", "sgd", {})], epoch=3))
    with pytest.raises(ValueError, match="sgd"):
        run_experiment(_toynet_config(
            tmp_path, [OptimizerSpec("sgd", "a", {}),
                       OptimizerSpec("sgd", "b", {"tau": 0.01})]))


def test_toynet_config_rejects_label_other_than_method(tmp_path):
    # rows, toynet_metrics.csv and the legend are keyed by method, so the
    # label my-sgd would be dropped silently
    with pytest.raises(ValueError, match="my-sgd"):
        run_experiment(_toynet_config(
            tmp_path, [OptimizerSpec("sgd", "my-sgd", {})]))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where,key", [
    (None, "max_iters"), ("problem", "parmas"), ("optimizer", "lable")])
def test_config_from_dict_rejects_unknown_keys(where, key):
    d = harness.config_to_dict(preset("quadcos"))
    target = {None: d, "problem": d["problem"],
              "optimizer": d["optimizers"][1]}[where]
    target[key] = 5
    with pytest.raises(ValueError, match=f"{key}.*valid keys"):
        harness.config_from_dict(d)


@pytest.mark.parametrize("where,key", [
    (None, "problem"), (None, "optimizers"), (None, "x0"), ("problem", "name"),
    ("optimizer", "method"), ("optimizer", "label")])
def test_config_from_dict_names_missing_required_keys(where, key):
    d = harness.config_to_dict(preset("quadcos"))
    target = {None: d, "problem": d["problem"],
              "optimizer": d["optimizers"][1]}[where]
    del target[key]
    section = {None: "config", "problem": "problem",
               "optimizer": r"optimizers\[1\]"}[where]
    with pytest.raises(ValueError, match=f"{section}: missing keys.*{key}"
                                         ".*required keys"):
        harness.config_from_dict(d)


@pytest.mark.parametrize("key,value,where", [
    ("analysis", None, "analysis"), ("problem", "quadcos", "problem"),
    ("optimizers", ["gd"], r"optimizers\[0\]")])
def test_config_from_dict_rejects_sections_that_are_not_objects(key, value,
                                                                where):
    d = harness.config_to_dict(preset("quadcos"))
    d[key] = value
    with pytest.raises(ValueError, match=f"{where} must be a JSON object"):
        harness.config_from_dict(d)


def test_analyze_rejects_unknown_analysis_and_dynamics_keys(tmp_path):
    from pddopt.cli import main

    cfg = preset("quadcos", out_dir=str(tmp_path / "out"))
    cfg.problem.params["dim"] = 5
    cfg.analysis = {"pdd_step": 5, "num_samples": 2}  # typo of pdd_steps
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg, cfg_path)
    with pytest.raises(ValueError, match="analysis.*pdd_step.*valid keys"):
        main(["analyze", str(cfg_path)])
    assert not (tmp_path / "out").exists()

    d = harness.config_to_dict(cfg)
    d["analysis"] = {}
    d["dynamics"] = {"t_end": 1.0, "tend": 2.0}
    with pytest.raises(ValueError, match="dynamics.*tend.*valid keys"):
        harness.config_from_dict(d)


@pytest.mark.parametrize("pdd_steps", [0, -3, 2.7, 5.0, "5", True, None])
def test_analyze_rejects_pdd_steps_that_are_not_a_positive_integer(
        tmp_path, pdd_steps):
    # 0 steps used to write within_bound = 1 after checking no ratio, and
    # 2.7 ran 2 steps
    from pddopt.cli import main

    cfg = preset("quadcos", out_dir=str(tmp_path / "out"))
    cfg.analysis = {"pdd_steps": pdd_steps, "num_samples": 2}
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg, cfg_path)
    with pytest.raises(ValueError, match="analysis: 'pdd_steps' must be an integer"):
        main(["analyze", str(cfg_path)])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name,params", [
    ("quadcos", {"dimm": 3}),
    ("rosenbrock2d", {"n": 5}),
    ("logsumexp", {"dim": 10}),
    ("ackley", {"n": 3}),
])
def test_build_problem_rejects_params_it_does_not_read(name, params):
    with pytest.raises(ValueError, match="valid keys"):
        build_problem(ProblemSpec(name=name, params=params))


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


@pytest.mark.parametrize("key,value", [
    ("max_iter", 2.5), ("max_iter", True), ("max_iter", "10"),
    ("record_every", 1.5), ("record_every", None),
    ("grad_tol", "1e-3"), ("grad_tol", False)])
def test_config_from_dict_rejects_counts_and_tolerances_of_the_wrong_type(
        key, value):
    # int() truncated 2.5 to 2 and took True as 1; float() parsed "1e-3"
    d = harness.config_to_dict(preset("quadcos"))
    d[key] = value
    with pytest.raises(ValueError, match=f"config: '{key}' must be"):
        harness.config_from_dict(d)


def test_config_from_dict_takes_an_integral_grad_tol():
    d = harness.config_to_dict(preset("quadcos"))
    d["grad_tol"] = 0
    cfg = harness.config_from_dict(d)
    assert cfg.grad_tol == 0.0 and type(cfg.grad_tol) is float


@pytest.mark.parametrize("name,key", [
    ("quadratic", "n"), ("logsumexp", "n"), ("quadcos", "dim"),
    ("rosenbrockNd", "n")])
def test_build_problem_rejects_a_non_integral_dimension(name, key):
    # int() truncated 3.9 to 3
    with pytest.raises(ValueError, match=f"problem '{name}' params: '{key}'"):
        build_problem(ProblemSpec(name=name, params={key: 3.9}))


# ---------------------------------------------------------------------------
# typed sections: each value is checked against its declaration at load time
# ---------------------------------------------------------------------------

def _config_dict(name="quadcos", **top):
    return {**harness.config_to_dict(preset(name)), **top}


@pytest.mark.parametrize("name,key,value", [
    ("rosenbrock2d", "a", "1.0"), ("rosenbrock2d", "b", True),
    ("rosenbrockNd", "a", "1.0"), ("logsumexp", "scale", "2")])
def test_problem_params_of_the_wrong_type_are_rejected(name, key, value):
    # float() parsed "1.0" and "2", and took True as 1.0
    where = f"problem '{name}' params: '{key}' must be a finite number"
    with pytest.raises(ValueError, match=where):
        build_problem(ProblemSpec(name=name, params={key: value}))
    d = _config_dict(name)
    d["problem"]["params"][key] = value
    with pytest.raises(ValueError, match=where):
        harness.config_from_dict(d)


@pytest.mark.parametrize("key,value", [("epochs", 1.7), ("n", 200.9)])
def test_toynet_counts_that_are_not_integers_are_rejected(key, value):
    # int() truncated both in the run
    d = _config_dict("toynet")
    d["problem"]["params"][key] = value
    with pytest.raises(ValueError,
                       match=f"problem 'toynet' params: '{key}' must be an integer"):
        harness.config_from_dict(d)


@pytest.mark.parametrize("flag,key", [("--seeds", "seeds"),
                                      ("--epochs", "epochs")])
def test_cli_toynet_rejects_zero_seeds_or_epochs_before_writing(
        tmp_path, flag, key):
    from pddopt.cli import main

    out = tmp_path / "out"
    with pytest.raises(ValueError,
                       match=f"problem 'toynet' params: '{key}' must be"):
        main(["toynet", flag, "0", "--out", str(out)])
    assert not out.exists()


def test_analyze_rejects_zero_samples_before_writing(tmp_path):
    # num_samples = 0 used to certify from x0 alone and exit 0
    from pddopt.cli import main

    cfg = preset("quadcos", out_dir=str(tmp_path / "out"))
    cfg.analysis = {"num_samples": 0}
    save_config(cfg, tmp_path / "cfg.json")
    with pytest.raises(ValueError, match=r"analysis: 'num_samples' must be an "
                                         r"integer \(>= 1\), got 0"):
        main(["analyze", str(tmp_path / "cfg.json")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [
    ("t_end", "3"), ("dt", 0), ("A", -1.0), ("epsilon", "3/s"),
    ("p0", [1.0, True])])
def test_dynamics_values_are_checked_at_load_time(key, value):
    d = _config_dict(dynamics={key: value})
    with pytest.raises(ValueError, match=f"dynamics: '{key}' must be"):
        harness.config_from_dict(d)


def test_dynamics_takes_epsilon_3_over_t():
    cfg = harness.config_from_dict(_config_dict(dynamics={"epsilon": "3/t"}))
    assert cfg.dynamics == {"epsilon": "3/t"}


@pytest.mark.parametrize("flag,value,where", [
    ("--grad-tol", "nan", "config: 'grad_tol'"),
    ("--grad-tol", "-1", "config: 'grad_tol'"),
    ("--max-iter", "0", "config: 'max_iter'"),
    ("--seed", "-1", "problem: 'seed'")])
def test_cli_overrides_are_checked_before_any_run_or_directory(
        tmp_path, flag, value, where):
    # a nan grad_tol never converged: every optimizer ran to max_iter and the
    # preset exited 0
    from pddopt.cli import main

    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"{where} must be"):
        main(["preset", "quadcos", "--out", str(out), flag, value])
    assert not out.exists()


def test_run_optimizer_rejects_a_nan_grad_tol():
    from pddopt.optimizers import run_optimizer

    obj, _ = build_problem(ProblemSpec("rosenbrock2d"))
    with pytest.raises(ValueError, match="grad_tol"):
        run_optimizer(obj, "gd", {"tau": 1e-3}, [0.0, 0.0], max_iter=5,
                      grad_tol=math.nan)


@pytest.mark.parametrize("outputs", ["csv", ["png"], ["csv", "csv"], None])
def test_outputs_must_be_distinct_csv_or_svg(outputs):
    # "csv" became ('c', 's', 'v') and ["png"] wrote nothing, both exiting 0
    with pytest.raises(ValueError, match="config: 'outputs' must be a list of "
                                         "distinct values"):
        harness.config_from_dict(_config_dict(outputs=outputs))


def test_outputs_set_on_a_config_are_checked_before_writing(tmp_path):
    cfg = preset("quadcos", out_dir=str(tmp_path / "out"))
    cfg.outputs = "svg"
    with pytest.raises(ValueError, match="'outputs'"):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("x0", [
    {"fill": True}, {"fill": "1"}, {"fill": 1.0, "junk": 2}, {}, [1.0, "2"],
    [True, 1.0], "5"])
def test_x0_must_be_a_vector_or_a_fill(x0):
    with pytest.raises(ValueError, match="config: 'x0' must be"):
        harness.config_from_dict(_config_dict(x0=x0))


@pytest.mark.parametrize("seed", [1.5, "3", -1, True])
def test_problem_seed_must_be_a_nonnegative_integer(seed):
    # 1.5 and "3" got as far as numpy's SeedSequence and raised TypeError
    d = _config_dict()
    d["problem"]["seed"] = seed
    with pytest.raises(ValueError, match="problem: 'seed' must be an integer"):
        harness.config_from_dict(d)


@pytest.mark.parametrize("optimizers", [{"method": "gd", "label": "gd"}, []])
def test_optimizers_must_be_a_non_empty_list(optimizers):
    d = _config_dict(optimizers=optimizers)
    with pytest.raises(ValueError,
                       match="config: 'optimizers' must be a non-empty list"):
        harness.config_from_dict(d)


def test_an_unknown_problem_is_rejected_at_load_time():
    d = _config_dict()
    d["problem"]["name"] = "quadcoss"
    with pytest.raises(ValueError, match="unknown problem 'quadcoss'"):
        harness.config_from_dict(d)


def test_a_saved_config_keeps_exactly_its_keys(tmp_path):
    cfg = preset("quadcos")
    cfg.analysis = {"num_samples": 3}
    save_config(cfg, tmp_path / "cfg.json")
    back = load_config(tmp_path / "cfg.json")
    assert back == cfg
    assert back.analysis == {"num_samples": 3} and back.problem.params == {"dim": 100}


def _readme_config_table():
    """(section, key, kind) of each row of README's config key table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = set()
    for line in readme.split("## Config format", 1)[1].splitlines():
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if line.startswith("|") and len(cells) == 5:
            rows.add(tuple(cells[:3]))
    return rows


def test_readme_lists_every_declared_key_with_its_kind():
    declared = {(section, k, key.kind)
                for section, table in harness.SECTIONS.items()
                for k, key in table.items()}
    declared |= {(f"{name} params", k, key.kind)
                 for name, table in harness.PROBLEM_PARAMS.items()
                 for k, key in table.items()}
    assert declared <= _readme_config_table()


def test_toynet_writes_only_the_outputs_it_is_given(tmp_path):
    # the metrics CSV used to be written whatever outputs said
    cfg = _toynet_config(tmp_path, [OptimizerSpec("sgd", "sgd", {})])
    cfg.outputs = ("svg",)
    art = run_experiment(cfg)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["toynet_loss.svg"]
    assert art.files == [str(tmp_path / "out" / "toynet_loss.svg")]


@pytest.mark.parametrize("command,change,message", [
    ("analyze", {"x0": [1.0, 2.0]}, "x0 has shape"),
    ("dynamics", {"dynamics": {"t_end": 1e-4, "dt": 1e-3}}, "t_end")])
def test_analyze_and_dynamics_make_no_directory_when_they_fail(
        tmp_path, command, change, message):
    # the output directory used to be made before the problem was built
    from pddopt.cli import main

    d = {**_config_dict(output_dir=str(tmp_path / "out")), **change}
    d["problem"]["params"]["dim"] = 5
    save_config(harness.config_from_dict(d), tmp_path / "cfg.json")
    with pytest.raises(ValueError, match=message):
        main([command, str(tmp_path / "cfg.json")])
    assert not (tmp_path / "out").exists()


def test_toynet_makes_no_directory_when_training_fails(tmp_path):
    # make_blobs needs n >= 10 k; the directory used to be made first
    cfg = _toynet_config(tmp_path, [OptimizerSpec("sgd", "sgd", {})], n=20, k=5)
    with pytest.raises(ValueError, match="n >= 10k"):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()
