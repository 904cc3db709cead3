import csv
import math

import numpy as np
import pytest

from pddopt import harness, toynet as tn


def tiny_batch(seed=0, b=3, d=4, k=2):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((b, d)), rng.integers(0, k, size=b)


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

def test_blobs_determinism_and_split():
    d1 = tn.make_blobs(0, 500, 10, 4, 0.3)
    d2 = tn.make_blobs(0, 500, 10, 4, 0.3)
    np.testing.assert_array_equal(d1.X, d2.X)
    np.testing.assert_array_equal(d1.train_idx, d2.train_idx)
    assert len(set(d1.train_idx) & set(d1.test_idx)) == 0
    assert len(d1.train_idx) + len(d1.test_idx) == 500
    assert set(np.unique(d1.y[d1.train_idx])) == set(range(4))

    with pytest.raises(ValueError):
        tn.make_blobs(0, 30, 10, 4, 0.3)  # n < 10k


def test_blobs_nearest_centroid_oracle():
    data = tn.make_blobs(0, 500, 10, 4, 0.3)
    Xtr, ytr = data.train
    Xte, yte = data.test
    centroids = np.stack([Xtr[ytr == c].mean(axis=0) for c in range(4)])
    pred = np.argmin(((Xte[:, None, :] - centroids[None]) ** 2).sum(-1), axis=1)
    assert np.mean(pred == yte) >= 0.9


def test_blobs_tiny_spread_linearly_separable():
    data = tn.make_blobs(1, 200, 6, 3, 1e-4)
    Xtr, ytr = data.train
    centroids = np.stack([Xtr[ytr == c].mean(axis=0) for c in range(3)])
    pred = np.argmin(((Xtr[:, None, :] - centroids[None]) ** 2).sum(-1), axis=1)
    assert np.mean(pred == ytr) == 1.0


# ---------------------------------------------------------------------------
# network and backprop
# ---------------------------------------------------------------------------

def test_layers_are_views_of_the_flat_parameters():
    sizes = [4, 3, 2]
    x = tn.init_params(sizes, seed=7)
    # weights drawn layer by layer from one generator, biases zero
    rng = np.random.default_rng(7)
    expected = []
    for fi, fo in zip(sizes[:-1], sizes[1:]):
        lim = math.sqrt(6.0 / (fi + fo))
        expected += [rng.uniform(-lim, lim, size=(fi, fo)).ravel(), np.zeros(fo)]
    np.testing.assert_array_equal(x, np.concatenate(expected))
    pairs = tn.layers(x, sizes)
    assert [(W.shape, b.shape) for W, b in pairs] == [((4, 3), (3,)), ((3, 2), (2,))]
    pairs[1][1][:] = 5.0
    assert np.all(x[-2:] == 5.0)
    with pytest.raises(ValueError):
        tn.layers(x[:-1], sizes)


def test_zero_network_loss_is_log_k():
    sizes = [4, 3, 3, 5]
    x = tn.init_params(sizes, seed=0)
    for W, _ in tn.layers(x, sizes):
        W[:] = 0.0
    X, y = tiny_batch(d=4, k=5)
    loss, _ = tn.mlp_loss_grad(x, sizes, X, y)
    assert loss == pytest.approx(math.log(5), rel=1e-12)


def test_zero_final_layer_loss_is_log_k():
    sizes = [4, 6, 6, 3]
    x = tn.init_params(sizes, seed=3)
    W, b = tn.layers(x, sizes)[-1]
    W[:] = 0.0
    b[:] = 0.0
    X, y = tiny_batch(d=4, k=3)
    loss, _ = tn.mlp_loss_grad(x, sizes, X, y)
    assert loss == pytest.approx(math.log(3), rel=1e-12)


@pytest.mark.parametrize("sizes", [(0, 2), (4, 1)])
def test_blobs_reject_invalid_sizes(sizes):
    with pytest.raises(ValueError, match=r"make_blobs: '(d_in|k)' must be an "
                                         r"integer \(>= [12]\)"):
        tn.make_blobs(0, 100, *sizes, spread=0.5)


def test_an_empty_batch_is_rejected():
    sizes = [4, 3, 2]
    with pytest.raises(ValueError, match="empty batch"):
        tn.mlp_loss_grad(tn.init_params(sizes, seed=0), sizes, np.zeros((0, 4)),
                         np.zeros(0, dtype=int))


@pytest.mark.parametrize("labels", [[0, -1, 2], [0, 3, 1]])
def test_labels_outside_the_classes_rejected(labels):
    # a negative label would wrap to class k + y, one >= k index past the end
    sizes = [4, 5, 3]
    x = tn.init_params(sizes, seed=0)
    X, _ = tiny_batch(d=4, k=3)
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
        tn.mlp_loss_grad(x, sizes, X, np.array(labels))


def off_kink(x, sizes, X, margin=1e-3):
    # central differences straddle the ReLU kink when a pre-activation sits
    # within h of zero; only probe configurations away from it
    a = X
    pairs = tn.layers(x, sizes)
    for k, (W, b) in enumerate(pairs):
        z = a @ W + b
        if k == len(pairs) - 1:
            return True
        if np.min(np.abs(z)) < margin:
            return False
        a = np.maximum(z, 0.0)


def test_backprop_matches_finite_differences():
    rng = np.random.default_rng(8)
    sizes = [4, 2, 2, 2]
    probed = 0
    trial = 0
    while probed < 10:
        trial += 1
        flat = tn.init_params(sizes, seed=trial)
        for _, b in tn.layers(flat, sizes):
            b[:] = 0.1 * rng.standard_normal(b.shape)
        X = rng.standard_normal((3, 4))
        y = rng.integers(0, 2, size=3)
        if not off_kink(flat, sizes, X):
            continue
        probed += 1
        _, gflat = tn.mlp_loss_grad(flat, sizes, X, y)
        h = 1e-6
        for i in range(flat.size):
            e = np.zeros_like(flat)
            e[i] = h
            lp, _ = tn.mlp_loss_grad(flat + e, sizes, X, y)
            lm, _ = tn.mlp_loss_grad(flat - e, sizes, X, y)
            fd = (lp - lm) / (2 * h)
            scale = max(1.0, abs(fd), abs(gflat[i]))
            assert abs(fd - gflat[i]) / scale <= 1e-5


def test_duplicating_batch_changes_nothing():
    sizes = [4, 3, 3, 2]
    x = tn.init_params(sizes, seed=1)
    X, y = tiny_batch(seed=5)
    l1, g1 = tn.mlp_loss_grad(x, sizes, X, y)
    l2, g2 = tn.mlp_loss_grad(x, sizes, np.vstack([X, X]), np.concatenate([y, y]))
    assert l1 == pytest.approx(l2, rel=1e-14)
    np.testing.assert_allclose(g1, g2, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# stochastic updates
# ---------------------------------------------------------------------------

def step_one(method, state, x, sizes, batch):
    """`stochastic_step` on a stack of one method and one run."""
    states, x_new, loss = tn.stochastic_step((method,), [state], x[None], sizes,
                                             batch, tn.DEFAULT_HYPERPARAMS)
    return states[0], x_new[0], loss[0]


def zero_gradient_setup():
    # zero weights and biases with uniform labels -> gradient of the final
    # bias vanishes only if classes balance; use a crafted batch instead:
    # all-zero input rows make hidden activations zero, so only the final
    # bias has gradient; balanced labels cancel it
    sizes = [2, 3, 3, 2]
    x = tn.init_params(sizes, seed=0)
    for W, _ in tn.layers(x, sizes):
        W[:] = 0.0
    X = np.zeros((2, 2))
    y = np.array([0, 1])
    return x, sizes, (X, y)


def test_sgd_zero_gradient_is_fixed_point():
    x, sizes, batch = zero_gradient_setup()
    _, g = tn.mlp_loss_grad(x, sizes, *batch)
    assert np.linalg.norm(g) == 0.0
    state = tn._rule("sgd").init(x)
    _, x_new, _ = step_one("sgd", state, x, sizes, batch)
    np.testing.assert_array_equal(x_new, x)


def test_pdd_stochastic_fixed_point_and_dual_update():
    x0, sizes, batch = zero_gradient_setup()
    x = x0
    state = tn._rule("pdd").init(x0)
    for _ in range(3):
        state, x, _ = step_one("pdd", state, x, sizes, batch)
    np.testing.assert_array_equal(x, x0)
    np.testing.assert_array_equal(state["p"], np.zeros_like(x0))

    # dual update with default hyperparameters: p+ = (p + 5 g) / 1.025
    sizes = [4, 3, 3, 2]
    x = tn.init_params(sizes, seed=2)
    X, y = tiny_batch(seed=9)
    _, g = tn.mlp_loss_grad(x, sizes, X, y)
    state = tn._rule("pdd").init(x)
    state, _, _ = step_one("pdd", state, x, sizes, (X, y))
    np.testing.assert_allclose(state["p"], 5.0 * g / 1.025, rtol=1e-12)


def test_adam_first_step_is_signlike():
    sizes = [4, 3, 3, 2]
    x0 = tn.init_params(sizes, seed=4)
    X, y = tiny_batch(seed=11)
    _, g = tn.mlp_loss_grad(x0, sizes, X, y)
    state = tn._rule("adam").init(x0)
    _, x_new, _ = step_one("adam", state, x0, sizes, (X, y))
    hp = tn.DEFAULT_HYPERPARAMS["adam"]
    expected = x0 - hp["tau"] * g / (np.abs(g) + hp["eps"])
    np.testing.assert_allclose(x_new, expected, rtol=1e-10)


def test_igahd_uses_two_evaluations_and_moves():
    sizes = [4, 3, 3, 2]
    x0 = tn.init_params(sizes, seed=6)
    batch = tiny_batch(seed=13)
    state = tn._rule("igahd").init(x0)
    state, x_new, loss = step_one("igahd", state, x0, sizes, batch)
    assert state["n"] == 2
    assert np.linalg.norm(x_new - x0) > 0
    assert math.isfinite(loss)


def test_unknown_method_rejected():
    sizes = [2, 2, 2]
    x = tn.init_params(sizes, seed=0)
    with pytest.raises(ValueError):
        tn.stochastic_step(("lbfgs",), [{}], x[None], sizes, tiny_batch(d=2),
                           tn.DEFAULT_HYPERPARAMS)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_separable_data_all_methods_reach_full_accuracy():
    # sgd at the mini-batch default stepsize 0.001 cannot cover the distance
    # from a random init in 20 epochs; the property under test is the data's
    # separability, so sgd gets a stepsize suited to this toy scale
    hp = dict(tn.DEFAULT_HYPERPARAMS)
    hp["sgd"] = {"tau": 0.05}
    cfg = tn.TrainConfig(data_seed=2, n=2000, d_in=8, k=3, spread=1e-3,
                        hidden=(8, 8), epochs=20, batch_size=32, seeds=(0,),
                        hyperparams=hp)
    rows = tn.train(cfg)
    final = {}
    for r in rows:
        final[r["method"]] = r
    for method, r in final.items():
        assert r["test_acc"] == pytest.approx(1.0), method


@pytest.mark.parametrize("hyperparams", [
    {"sgd": {"tau": -1.0}},
    {"sgd": {}},
    {"sgd": {"tau": 0.001, "beta": 0.9}},
    {"adam": {"tau": 0.001, "beta1": 1.0, "beta2": 0.999, "eps": 1e-8}},
])
def test_bad_hyperparameters_rejected_before_any_batch(monkeypatch, hyperparams):
    def no_batch(*args, **kwargs):
        raise AssertionError("a batch ran before the check")

    monkeypatch.setattr(tn, "stochastic_step", no_batch)
    # the bad method comes last, so a check made as each method starts
    # would first train pdd
    cfg = tn.TrainConfig(n=200, d_in=5, k=3, epochs=1, seeds=(0,),
                         hidden=(4,), methods=("pdd", *hyperparams),
                         hyperparams=hyperparams)
    with pytest.raises(ValueError):
        tn.train(cfg)


def test_adam_rejects_a_zero_eps():
    hp = {"tau": 0.001, "beta1": 0.9, "beta2": 0.999, "eps": 0.0}
    with pytest.raises(ValueError, match=r"adam: 'eps' must be a finite "
                                         r"number \(> 0\), got 0.0"):
        tn._rule("adam").validate("adam", hp)


def test_train_metrics_deterministic(tmp_path):
    cfg = tn.TrainConfig(n=200, d_in=5, k=3, epochs=3, seeds=(0, 1),
                        hidden=(8, 8))
    r1 = tn.train(cfg)
    r2 = tn.train(cfg)
    assert r1 == r2

    def write(run):  # cfg's training, written by the toynet preset
        config = harness.preset("toynet", out_dir=str(tmp_path / run))
        config.problem.params.update(n=200, d_in=5, k=3, epochs=3,
                                     seeds=[0, 1], hidden=[8, 8])
        return harness.run_experiment(config).files[0]

    p1, p2 = write("m1"), write("m2")
    assert open(p1, "rb").read() == open(p2, "rb").read()
    rows = list(csv.DictReader(open(p1)))
    assert set(rows[0].keys()) == {"epoch", "method", "seed", "train_loss",
                                   "test_acc"}


# ---------------------------------------------------------------------------
# the run stack
# ---------------------------------------------------------------------------

def test_stacked_loss_grad_and_accuracy_match_each_run():
    # a (2, 3, P) stack against per-seed batches of shape (3, B, d_in): every
    # run's loss, gradient and accuracy equal its own 1-d call bitwise
    sizes = [4, 5, 3]
    rng = np.random.default_rng(21)
    x = np.stack([np.stack([tn.init_params(sizes, seed=10 * m + s)
                            for s in range(3)]) for m in range(2)])
    X = rng.standard_normal((3, 6, 4))
    y = rng.integers(0, 3, size=(3, 6))
    loss, g = tn.mlp_loss_grad(x, sizes, X, y)
    acc = tn.accuracy(x, sizes, X, y)
    assert loss.shape == acc.shape == (2, 3) and g.shape == x.shape
    for m in range(2):
        for s in range(3):
            l1, g1 = tn.mlp_loss_grad(x[m, s], sizes, X[s], y[s])
            assert loss[m, s] == l1
            np.testing.assert_array_equal(g[m, s], g1)
            assert acc[m, s] == tn.accuracy(x[m, s], sizes, X[s], y[s])


def test_stochastic_step_makes_one_stack_pass_and_one_igahd_pass(monkeypatch):
    sizes = [4, 3, 2]
    x0 = np.stack([tn.init_params(sizes, seed=s) for s in range(2)])
    x = np.stack([x0] * len(tn.METHODS))
    X, y = tiny_batch(seed=3, d=4)
    shapes = []
    loss_grad = tn.mlp_loss_grad

    def counted(v, *args):
        shapes.append(v.shape)
        return loss_grad(v, *args)

    monkeypatch.setattr(tn, "mlp_loss_grad", counted)
    states = [tn._rule(m).init(x0) for m in tn.METHODS]
    _, x_new, loss = tn.stochastic_step(tn.METHODS, states, x, sizes,
                                        (X[None], y[None]), tn.DEFAULT_HYPERPARAMS)
    assert shapes == [x.shape, x0.shape]
    assert x_new.shape == x.shape and loss.shape == x.shape[:-1]


def serial_train(cfg):
    """Transcription of `train` one (seed, method) run at a time, with 1-d
    parameters, the rules' own steps, the same batch order and the same
    per-epoch mean."""
    hps = {m: (cfg.hyperparams or {}).get(m, tn.DEFAULT_HYPERPARAMS[m])
           for m in cfg.methods}
    data = tn.make_blobs(cfg.data_seed, cfg.n, cfg.d_in, cfg.k, cfg.spread)
    Xtr, ytr = data.train
    Xte, yte = data.test
    sizes = [cfg.d_in, *cfg.hidden, cfg.k]
    rows = []
    with np.errstate(all="ignore"):
        for seed in cfg.seeds:
            x0 = tn.init_params(sizes, seed)
            for method in cfg.methods:
                rule = tn._RULES[method]
                x, state = x0, rule.init(x0)
                for epoch in range(cfg.epochs):
                    order = np.random.default_rng([seed, epoch]).permutation(len(ytr))
                    losses = []
                    for s in range(0, len(order), cfg.batch_size):
                        idx = order[s:s + cfg.batch_size]
                        batch = (Xtr[idx], ytr[idx])
                        loss, g = tn.mlp_loss_grad(x, sizes, *batch)
                        x, state = rule.step(
                            x, g, state, hps[method],
                            lambda v: tn.mlp_loss_grad(v, sizes, *batch)[1])
                        losses.append(loss)
                        if not math.isfinite(loss):
                            break
                    diverged = not math.isfinite(losses[-1])
                    rows.append({
                        "epoch": epoch, "method": method, "seed": seed,
                        "train_loss": math.nan if diverged else float(np.mean(losses)),
                        "test_acc": (math.nan if diverged
                                     else float(tn.accuracy(x, sizes, Xte, yte)))})
                    if diverged:
                        break
    return rows


def nan_as_none(rows):
    # nan != nan, so compare nan fields as None
    return [{k: None if isinstance(v, float) and math.isnan(v) else v
             for k, v in r.items()} for r in rows]


DIVERGING_SGD = {**tn.DEFAULT_HYPERPARAMS, "sgd": {"tau": 1e30}}


@pytest.mark.parametrize("kwargs", [
    dict(methods=("pdd",), seeds=(3,)),
    dict(hidden=(), seeds=(0, 1)),
    dict(methods=("sgd", "pdd"), hyperparams=DIVERGING_SGD),
    dict(seeds=(2, 0, 1), batch_size=7),
    dict(methods=("igahd", "adam", "nag_momentum"), seeds=(5, 6), hidden=(3, 4, 2)),
])
def test_train_matches_serial_transcription(kwargs):
    cfg = tn.TrainConfig(**{**dict(n=200, d_in=5, k=3, epochs=3, hidden=(6,),
                                   batch_size=16), **kwargs})
    rows = tn.train(cfg)
    assert len(rows) > 0
    assert nan_as_none(rows) == nan_as_none(serial_train(cfg))


def test_diverging_run_gets_a_nan_row_and_the_others_go_on():
    # tau = 1e30 overflows sgd in its first epoch; with RuntimeWarnings as
    # errors this used to raise instead of writing the nan row
    cfg = tn.TrainConfig(methods=("sgd", "pdd"), epochs=3,
                         hyperparams=DIVERGING_SGD)
    rows = tn.train(cfg)
    assert [(r["epoch"], r["method"]) for r in rows] == [
        (0, "sgd"), (0, "pdd"), (1, "pdd"), (2, "pdd")]
    assert math.isnan(rows[0]["train_loss"]) and math.isnan(rows[0]["test_acc"])
    assert all(math.isfinite(r["train_loss"]) and math.isfinite(r["test_acc"])
               for r in rows[1:])


def test_train_stops_once_every_run_has_diverged(monkeypatch):
    # sgd alone with tau = 1e30 overflows in its second epoch of 5 batches
    # (160 training rows); the two epochs left would train nothing
    steps = []
    step = tn.stochastic_step
    monkeypatch.setattr(tn, "stochastic_step",
                        lambda *args: steps.append(1) or step(*args))
    rows = tn.train(tn.TrainConfig(n=200, d_in=5, k=3, epochs=4, hidden=(4,),
                                   methods=("sgd",), hyperparams=DIVERGING_SGD))
    assert len(steps) == 10 and [r["epoch"] for r in rows] == [0, 1]


@pytest.mark.parametrize("field, value", [
    ("batch_size", 0), ("epochs", 0), ("seeds", ()), ("methods", ()),
    ("seeds", (0, 0)), ("methods", ("sgd", "sgd"))])
def test_bad_counts_rejected_before_the_data(monkeypatch, field, value):
    def no_data(*args, **kwargs):
        raise AssertionError("data built before the check")

    monkeypatch.setattr(tn, "make_blobs", no_data)
    cfg = tn.TrainConfig(**{**dict(n=200, d_in=5, k=3, epochs=1, hidden=(4,)),
                            field: value})
    with pytest.raises(ValueError, match=field):
        tn.train(cfg)


def test_train_rejects_an_unknown_method_with_value_error():
    # the default hyperparameter lookup raised KeyError first
    cfg = tn.TrainConfig(n=200, d_in=5, k=3, epochs=1, seeds=(0,),
                         hidden=(4,), methods=("lbfgs",))
    with pytest.raises(ValueError, match="unknown stochastic method 'lbfgs'"):
        tn.train(cfg)
