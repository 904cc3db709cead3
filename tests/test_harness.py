import csv
import importlib
import inspect
import json
import math
import re
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
    cfg.output_dir = str(tmp_path)
    art = run_experiment(cfg)
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
    toy = ExperimentConfig(problem=ProblemSpec(name="toynet"),
                           optimizers=[OptimizerSpec("lbfgs")],
                           output_dir=str(tmp_path))
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
    traj = Trajectory(records=[
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
    traj = Trajectory(records=[TrajectoryRecord(0, 1.0, 1.0, 0.5, 0.1)])
    path = tmp_path / "one.csv"
    emit_csv(traj, path)
    lines = open(path, "rb").read().split(b"\n")
    assert len([l for l in lines if l]) == 2
    assert b"\r" not in open(path, "rb").read()


def test_reproducible_bytes(tmp_path):
    cfg = preset("quadcos")
    cfg.max_iter = 500
    cfg.output_dir = str(tmp_path / "a")
    a1 = run_experiment(cfg)
    cfg.output_dir = str(tmp_path / "b")
    a2 = run_experiment(cfg)
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
    with pytest.raises(ValueError, match="nag: 'beta' must be"):
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
    return ExperimentConfig(problem=prob, optimizers=optimizers,
                            output_dir=str(tmp_path / "out"))


def test_toynet_config_checks_params_before_any_batch(tmp_path, monkeypatch):
    def no_batch(*args, **kwargs):
        raise AssertionError("a batch ran before the check")

    monkeypatch.setattr(harness.toynet, "stochastic_step", no_batch)
    cfg = _toynet_config(tmp_path, [
        OptimizerSpec("sgd", params={"tau": -1.0, "bogus": 3})])
    with pytest.raises(ValueError):
        run_experiment(cfg)


def test_toynet_config_passes_its_params(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(harness.toynet, "train",
                        lambda cfg: seen.append(cfg.hyperparams) or [])
    run_experiment(_toynet_config(tmp_path, [
        OptimizerSpec("sgd", params={"tau": 0.05}), OptimizerSpec("adam")]))
    run_experiment(_toynet_config(tmp_path, [OptimizerSpec("sgd")]))
    # an empty params dict keeps the defaults
    assert seen == [{"sgd": {"tau": 0.05}}, None]


def test_toynet_config_rejects_unread_params_and_repeated_methods(tmp_path):
    with pytest.raises(ValueError, match="epoch.*valid keys"):
        run_experiment(_toynet_config(tmp_path, [OptimizerSpec("sgd")], epoch=3))
    # toynet.train refuses the repeat, since its rows are keyed by method
    with pytest.raises(ValueError, match=r"methods .*\('sgd', 'sgd'\)"):
        run_experiment(_toynet_config(
            tmp_path, [OptimizerSpec("sgd"), OptimizerSpec("sgd", params={
                "tau": 0.01})]))
    assert not (tmp_path / "out").exists()


def _toynet_file(tmp_path, seeds, epochs, **top):
    """The toynet preset's config with ``seeds``, ``epochs`` and ``top``,
    saved as ``pddopt preset toynet --dump-config`` writes it; returns its
    path."""
    d = harness.config_to_dict(preset("toynet"))
    d["problem"]["params"].update(seeds=seeds, epochs=epochs)
    path = tmp_path / "toynet.json"
    path.write_text(json.dumps({**d, **top}))
    return str(path)


@pytest.mark.parametrize("key,top", [
    ("x0", {"x0": [1.0]}), ("max_iter", {"max_iter": 10000}),
    ("grad_tol", {"grad_tol": 1e-10}), ("record_every", {"record_every": 10}),
    ("analysis", {"analysis": {}}), ("dynamics", {"dynamics": {}}),
    ("label", {"optimizers": [{"method": "sgd", "label": "sgd", "params": {}}]})],
    ids=["x0", "max_iter", "grad_tol", "record_every", "analysis", "dynamics",
         "label"])
def test_toynet_config_refuses_the_keys_it_does_not_read(tmp_path, key, top):
    # each was accepted and had no effect; a file refuses one even at its
    # default, and an optimizer a label even when it equals its method
    from pddopt.cli import main

    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"unknown keys \\['{key}'\\]"):
        main(["run", _toynet_file(tmp_path, [0], 1, **top), "--out", str(out)])
    assert not out.exists()


def test_toynet_run_writes_nothing_for_a_repeated_seed(tmp_path):
    # 20 CSV rows with 10 distinct (epoch, method, seed) keys used to be written
    from pddopt.cli import main

    out = tmp_path / "out"
    with pytest.raises(ValueError, match=r"seeds .*\(0, 0\)"):
        main(["run", _toynet_file(tmp_path, [0, 0], 1), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("name", harness.PRESET_NAMES)
def test_every_preset_config_round_trips(tmp_path, name):
    save_config(preset(name), tmp_path / "a.json")
    save_config(load_config(tmp_path / "a.json"), tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    if name == "toynet":  # only the keys toynet reads
        d = json.loads((tmp_path / "a.json").read_text())
        assert list(d) == ["problem", "optimizers", "output_dir"]
        assert all(list(o) == ["method", "params"] for o in d["optimizers"])


def test_toynet_is_no_subcommand(capsys):
    from pddopt.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["toynet", "--seeds", "2"])
    assert exc.value.code == 2 and "invalid choice: 'toynet'" in capsys.readouterr().err


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
    with pytest.raises(ValueError, match="x0 has length 2, expected 3"):
        harness.materialize_x0([1.0, 2.0], 3)


def test_cli_run_and_analyze(tmp_path, capsys):
    from pddopt.cli import main

    cfg = preset("quadcos", out_dir=str(tmp_path / "run"))
    cfg.max_iter = 2000
    cfg.analysis = {"num_samples": 5, "pdd_steps": 200}
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
                 "--dump-config", str(dump)]) == 0
    d = json.loads(dump.read_text())
    d["max_iter"] = 500  # a setting with no flag: edit the dump, run it
    dump.write_text(json.dumps(d))
    assert main(["run", str(dump)]) == 0
    cfg = load_config(dump)
    assert cfg.problem.name == "quadcos"
    assert (tmp_path / "o" / "convergence.svg").exists()


def test_cli_toynet(tmp_path, capsys):
    from pddopt.cli import main

    assert main(["run", _toynet_file(tmp_path, [0, 1], 2),
                 "--out", str(tmp_path)]) == 0
    assert "trained 2 seeds x 5 methods" in capsys.readouterr().out
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


@pytest.mark.parametrize("key", ["seeds", "epochs"])
def test_cli_toynet_rejects_zero_seeds_or_epochs_before_writing(tmp_path, key):
    from pddopt.cli import main

    out = tmp_path / "out"
    path = _toynet_file(tmp_path, **{"seeds": [0], "epochs": 1,
                                     key: [] if key == "seeds" else 0})
    with pytest.raises(ValueError,
                       match=f"problem 'toynet' params: '{key}' must be"):
        main(["run", path, "--out", str(out)])
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
    ("t_end", "3"), ("dt", 0), ("A", -1.0), ("epsilon", "3/s")])
def test_dynamics_values_are_checked_at_load_time(key, value):
    d = _config_dict(dynamics={key: value})
    with pytest.raises(ValueError, match=f"dynamics: '{key}' must be"):
        harness.config_from_dict(d)


def test_dynamics_takes_epsilon_3_over_t():
    cfg = harness.config_from_dict(_config_dict(dynamics={"epsilon": "3/t"}))
    assert cfg.dynamics == {"epsilon": "3/t"}


@pytest.mark.parametrize("name", harness.PRESET_NAMES)
def test_cli_overrides_are_checked_before_any_run_or_directory(tmp_path, name):
    # logsumexp sized its steps from the seeded Q first, and numpy refused
    # the -1 with its own message
    from pddopt.cli import main

    out = tmp_path / "out"
    with pytest.raises(ValueError, match="problem: 'seed' must be"):
        main(["preset", name, "--out", str(out), "--seed", "-1"])
    assert not out.exists()


def test_run_optimizer_rejects_a_nan_grad_tol():
    from pddopt.optimizers import run_optimizer

    obj, _ = build_problem(ProblemSpec("rosenbrock2d"))
    with pytest.raises(ValueError, match="grad_tol"):
        run_optimizer(obj, "gd", {"tau": 1e-3}, [0.0, 0.0], max_iter=5,
                      grad_tol=math.nan)


@pytest.mark.parametrize("key", ["max_iter", "record_every"])
def test_run_optimizer_rejects_a_nan_max_iter_or_record_every(key):
    # a nan max_iter used to run until the gradient met grad_tol, or forever;
    # max_iter 2.5 ran to iteration 3, and True ran one step
    from pddopt.optimizers import run_optimizer

    obj, _ = build_problem(ProblemSpec("rosenbrock2d"))
    for value in (math.nan, 2.5, True):
        with pytest.raises(ValueError, match=key):
            run_optimizer(obj, "gd", {"tau": 1e-3}, [0.0, 0.0],
                          **{"max_iter": 5, key: value})


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


def test_a_misspelled_toynet_problem_is_named_before_the_other_keys():
    # the name picks the config tables, so it is checked first; the general
    # table would have reported the x0 that a toynet config does not hold
    d = _config_dict("toynet")
    d["problem"]["name"] = "toynett"
    with pytest.raises(ValueError, match="unknown problem 'toynett'"):
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
    # toynet's config and optimizer tables are rows of the general ones
    declared = {(section.removeprefix("toynet "), k, key.kind)
                for section, table in harness.SECTIONS.items()
                for k, key in table.items()}
    declared |= {(f"{name} params", k, key.kind)
                 for name, table in harness.PROBLEM_PARAMS.items()
                 for k, key in table.items()}
    assert declared <= _readme_config_table()


@pytest.mark.parametrize("command", ["preset", "run", "analyze", "dynamics"])
def test_readme_cli_synopsis_lists_the_flags_the_parser_takes(command, capsys):
    from pddopt.cli import main

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    line = next(l for l in block.splitlines()
                if l.startswith(f"pddopt {command} "))
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    flags = re.compile(r"--[a-z][a-z-]*")
    assert set(flags.findall(line)) == \
        set(flags.findall(capsys.readouterr().out)) - {"--help"}


def test_write_csv_names_the_path_it_could_not_write(tmp_path):
    path = tmp_path / "missing" / "x.csv"
    with pytest.raises(OSError, match=f"writing {re.escape(str(path))}: "):
        harness.write_csv(path, ["a"], [[1]])


@pytest.mark.parametrize("module", ["objective", "optimizers", "dynamics",
                                    "analysis", "harness", "toynet"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"pddopt.{module}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_package_exports_only_names_its_modules_export():
    import pddopt

    exported = {n for m in ("objective", "optimizers", "dynamics", "analysis")
                for n in importlib.import_module(f"pddopt.{m}").__all__}
    public = {n for n, v in vars(pddopt).items()
              if not n.startswith("_") and not inspect.ismodule(v)}
    assert public - exported == set()


@pytest.mark.parametrize("command,change,message", [
    ("analyze", {"x0": [1.0, 2.0]}, "x0 has length 2, expected 5"),
    ("dynamics", {"dynamics": {"t_end": 1e-4, "dt": 1e-3}}, "t_end"),
    # a C on a method that takes none is refused by name, not by its value
    ("analyze", {"optimizers": [{"method": "igahd_sc", "label": "igahd-sc",
                                 "params": {"tau": 0.01, "m1": 1.0, "beta2": 0.01,
                                            "C": {"diagonal": [1.0, -1.0, 1.0]}}}]},
     r"igahd_sc: unknown keys \['C'\]")])
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
    cfg = _toynet_config(tmp_path, [OptimizerSpec("sgd")], n=20, k=5)
    with pytest.raises(ValueError, match="n >= 10k"):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


def _quadratic_config(tmp_path, pdd_params=None, gd_tau=0.1):
    """A 5-d quadratic with a gd and a pdd optimizer, saved; returns its
    path."""
    cfg = ExperimentConfig(
        problem=ProblemSpec(name="quadratic", params={"n": 5}, seed=2),
        optimizers=[OptimizerSpec("gd", "gd", {"tau": gd_tau}),
                    OptimizerSpec("pdd", "pdd", {
                        "tau": 0.1, "sigma": 0.1, "A": 1.0, "epsilon": 1.0,
                        "omega": 1.0, **(pdd_params or {})})],
        x0={"fill": 1.0}, max_iter=50,
        analysis={"num_samples": 3, "pdd_steps": 50},
        dynamics={"t_end": 0.1, "dt": 0.01})
    save_config(cfg, tmp_path / "cfg.json")
    return str(tmp_path / "cfg.json")


def test_run_rejects_a_C_diagonal_of_the_wrong_length_before_any_file(tmp_path):
    # gd.csv used to be written before pdd died in a numpy broadcast
    from pddopt.cli import main

    cfg = preset("quadcos", out_dir=str(tmp_path / "out"))
    cfg.optimizers = [cfg.optimizers[0], OptimizerSpec("pdd", "pdd", {
        **cfg.optimizers[2].params, "C": {"diagonal": [1.0, 2.0]}})]
    save_config(cfg, tmp_path / "cfg.json")
    with pytest.raises(ValueError, match=r"optimizers\[1\] \(pdd\): C has "
                                         r"length 2, expected 100"):
        main(["run", str(tmp_path / "cfg.json")])
    assert not (tmp_path / "out").exists()


def test_analyze_rejects_a_C_diagonal_of_the_wrong_length_before_any_file(
        tmp_path):
    # analyze used to die in a matmul inside estimate_constants
    from pddopt.cli import main

    path = _quadratic_config(tmp_path, {"C": {"diagonal": [1.0, 2.0]}})
    with pytest.raises(ValueError, match=r"optimizers\[1\] \(pdd\): C has "
                                         r"length 2, expected 5"):
        main(["analyze", path, "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_analyze_takes_a_null_C_as_the_identity(tmp_path):
    # analyze used to write two files, then fail on None.matrix in the
    # spectral path; run already took null as the identity
    from pddopt.cli import main

    outs = []
    for i, pdd_params in enumerate([{"C": None}, {}]):
        (tmp_path / str(i)).mkdir()
        outs.append(tmp_path / str(i) / "out")
        assert main(["analyze", _quadratic_config(tmp_path / str(i), pdd_params),
                     "--out", str(outs[-1])]) == 0
    names = ["rate_report.csv", "rate_summary.csv", "spectral.csv"]
    assert sorted(p.name for p in outs[0].iterdir()) == names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_dynamics_names_the_system_it_integrates(tmp_path, capsys):
    # analyze certifies with the config's pdd C while dynamics takes C = I,
    # and its summary line said neither
    from pddopt.cli import main

    lines, csvs = [], []
    for i, pdd_params in enumerate([{}, {"C": "diag_inv_q"}]):
        (tmp_path / str(i)).mkdir()
        out = tmp_path / str(i) / "out"
        assert main(["dynamics", _quadratic_config(tmp_path / str(i), pdd_params),
                     "--out", str(out)]) == 0
        lines.append(capsys.readouterr().out.splitlines()[0])
        csvs.append((out / "dynamics.csv").read_bytes())
    assert lines[0].endswith("(ok) with A=1.0, epsilon=1.0, gamma=0.0 and C = I")
    assert lines[1] == lines[0] + "; the config's pdd C is unused"
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("command", ["run", "analyze", "dynamics"])
def test_every_command_rejects_params_that_run_rejects(tmp_path, command):
    # analyze and dynamics used to ignore the optimizers' params
    from pddopt.cli import main

    path = _quadratic_config(tmp_path, gd_tau=-1.0)
    with pytest.raises(ValueError, match=r"optimizers\[0\] \(gd\): gd: 'tau' "
                                         r"must be a finite number \(> 0\), "
                                         r"got -1.0"):
        main([command, path, "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "dynamics"])
def test_analyze_and_dynamics_reject_a_toynet_config(tmp_path, command):
    from pddopt.cli import main

    save_config(preset("toynet"), tmp_path / "cfg.json")
    with pytest.raises(ValueError, match="problem 'toynet' has no objective"):
        main([command, str(tmp_path / "cfg.json"), "--out",
              str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_analyze_names_mu_hat_when_the_sample_is_not_strongly_convex(tmp_path):
    # ackley used to fail with theorem6_params' bare "need 0 < mu <= L <= L'"
    from pddopt.cli import main

    cfg = preset("ackley")
    cfg.analysis = {"num_samples": 3, "pdd_steps": 10}
    save_config(cfg, tmp_path / "cfg.json")
    with pytest.raises(ValueError, match=r"mu_hat = -[0-9.e+-]+: the objective "
                       r"is not strongly convex over the sampled points"):
        main(["analyze", str(tmp_path / "cfg.json"), "--out",
              str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_dump_config_writes_only_a_config_the_run_accepts(tmp_path):
    from pddopt.cli import main

    dump = tmp_path / "dumped.json"
    with pytest.raises(ValueError, match="problem: 'seed' must be"):
        main(["preset", "quadcos", "--out", str(tmp_path / "o"),
              "--seed", "-1", "--dump-config", str(dump)])
    assert not dump.exists() and not (tmp_path / "o").exists()
    # a dump edited to a value the run refuses is refused before any file; a
    # nan grad_tol never converged, so every optimizer ran to max_iter
    d = harness.config_to_dict(preset("quadcos"))
    for key, value in (("max_iter", 0), ("grad_tol", -1.0), ("grad_tol", math.nan)):
        dump.write_text(json.dumps({**d, key: value}))
        with pytest.raises(ValueError, match=f"config: '{key}' must be"):
            main(["run", str(dump), "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o").exists()


def test_a_run_with_nothing_to_plot_leaves_the_plot_out(tmp_path):
    # a start at the minimizer records only zero gradient norms, which log
    # axes cannot show; emit_svg used to raise after the CSV was written
    cfg = ExperimentConfig(
        problem=ProblemSpec(name="quadratic", params={"diag": [1.0, 2.0]}),
        optimizers=[OptimizerSpec("gd", "gd", {"tau": 0.1})],
        x0=[0.0, 0.0], max_iter=10, output_dir=str(tmp_path))
    art = run_experiment(cfg)
    assert art.files == [str(tmp_path / "gd.csv")] and not art.any_diverged
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gd.csv"]


def test_dynamics_writes_a_diverging_trajectory_without_warnings(tmp_path):
    # with b < 0 the trajectory runs off; f of its last finite states
    # overflowed with a RuntimeWarning while dynamics.csv was written
    from pddopt.cli import main

    d = _config_dict("rosenbrock2d", x0=[2.2, -1.8],
                     dynamics={"t_end": 2.0, "dt": 0.01})
    d["problem"]["params"] = {"a": 0.2, "b": -8.0}
    save_config(harness.config_from_dict(d), tmp_path / "cfg.json")
    assert main(["dynamics", str(tmp_path / "cfg.json"), "--out",
                 str(tmp_path / "out")]) == 1
    rows = list(csv.DictReader(open(tmp_path / "out" / "dynamics.csv")))
    assert not math.isfinite(float(rows[-1]["f"]))


@pytest.mark.parametrize("where", ["x0", "dynamics"])
def test_a_real_no_float_holds_is_rejected_at_load_time(where):
    # math.isfinite(10**400) raised OverflowError
    d = _config_dict(x0={"fill": 10 ** 400}) if where == "x0" \
        else _config_dict(dynamics={"gamma": 10 ** 400})
    with pytest.raises(ValueError, match="must be"):
        harness.config_from_dict(d)


@pytest.mark.parametrize("t_end,dt", [(1e300, 1e-10), (10.0, 1e-6)])
def test_dynamics_refuses_a_huge_trajectory_before_any_directory(tmp_path,
                                                                t_end, dt):
    # the first raised OverflowError in integrate_rk4; the second asked
    # np.empty for a (1e7 + 1) x 200 array, 16 GB
    from pddopt.cli import main

    d = _config_dict(dynamics={"t_end": t_end, "dt": dt})
    save_config(harness.config_from_dict(d), tmp_path / "cfg.json")
    with pytest.raises(ValueError, match="at dimension 100 need .* bytes"):
        main(["dynamics", str(tmp_path / "cfg.json"), "--out",
              str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_analyze_names_a_mu_too_small_for_the_recipe(tmp_path):
    from pddopt.cli import main

    cfg = ExperimentConfig(
        problem=ProblemSpec(name="quadratic", params={"diag": [1e-17, 1.0]}),
        optimizers=[OptimizerSpec("gd", "gd", {"tau": 0.1})], x0=[1.0, 1.0])
    save_config(cfg, tmp_path / "cfg.json")
    with pytest.raises(ValueError, match="mu = 1e-17 is too small relative "
                                         "to L = 1 for the recipe"):
        main(["analyze", str(tmp_path / "cfg.json"), "--out",
              str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def _pdd_quadratic(*Cs, n=5):
    """A seed-11 quadratic with one pdd per C spec (None: no C key)."""
    hp = {"tau": 0.5, "sigma": 0.5, "A": 1.0, "epsilon": 1.0, "omega": 1.0}
    return ExperimentConfig(
        problem=ProblemSpec(name="quadratic", params={"n": n}, seed=11),
        optimizers=[OptimizerSpec("pdd", f"pdd{i}", hp if C is None
                                  else {**hp, "C": C})
                    for i, C in enumerate(Cs)],
        x0={"fill": 5.0}, max_iter=5,
        analysis={"num_samples": 3, "pdd_steps": 20})


# ---------------------------------------------------------------------------
# a quadratic takes diag or n; analyze and dynamics take no run settings
# ---------------------------------------------------------------------------

def test_build_problem_rejects_a_quadratic_with_both_diag_and_n():
    # the diag set a 2-d problem and n = 100 was dropped
    with pytest.raises(ValueError, match="problem 'quadratic' params: give "
                                         "'diag' or 'n', not both"):
        build_problem(ProblemSpec("quadratic", {"diag": [1.0, 2.0], "n": 100}))


def test_run_rejects_a_quadratic_with_both_diag_and_n_at_load(tmp_path):
    from pddopt.cli import main

    d = harness.config_to_dict(_pdd_quadratic(None, n=2))
    d["problem"]["params"]["diag"] = [1.0, 2.0]
    (tmp_path / "cfg.json").write_text(json.dumps(d))
    with pytest.raises(ValueError, match="give 'diag' or 'n', not both"):
        main(["run", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,flag,value", [
    ("analyze", "--max-iter", "5"), ("dynamics", "--grad-tol", "1e-3")])
def test_analyze_and_dynamics_take_no_max_iter_or_grad_tol(
        tmp_path, capsys, command, flag, value):
    # neither command runs an optimizer, so neither read the value
    from pddopt.cli import main

    save_config(_pdd_quadratic(None), tmp_path / "cfg.json")
    with pytest.raises(SystemExit) as exit_:
        main([command, str(tmp_path / "cfg.json"), flag, value])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_an_unknown_preconditioner_spec_is_rejected():
    with pytest.raises(ValueError, match="unknown preconditioner spec 0.5"):
        harness.resolve_preconditioner(0.5, {}, 2)
    # null is the one spelling of C = I
    with pytest.raises(ValueError, match="unknown preconditioner spec 'identity'"):
        harness.resolve_preconditioner("identity", {}, 2)


def test_emit_csv_refuses_an_empty_trajectory(tmp_path):
    with pytest.raises(ValueError, match="refusing to emit an empty trajectory"):
        emit_csv(Trajectory(), tmp_path / "gd.csv")
    assert not (tmp_path / "gd.csv").exists()


def test_emit_svg_names_the_path_it_could_not_write(tmp_path):
    path = tmp_path / "missing" / "x.svg"
    with pytest.raises(OSError, match=f"writing {re.escape(str(path))}: "):
        emit_svg([("gd", np.array([1, 10]), np.array([1.0, 0.1]))], path)
