import csv
import math

import numpy as np
import pytest

from pddopt import toynet as tn


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

def test_zero_network_loss_is_log_k():
    params = tn.MlpParams.init([4, 3, 3, 5], seed=0)
    for W in params.weights:
        W[:] = 0.0
    X, y = tiny_batch(d=4, k=5)
    loss, _ = tn.mlp_loss_grad(params, X, y)
    assert loss == pytest.approx(math.log(5), rel=1e-12)


def test_zero_final_layer_loss_is_log_k():
    params = tn.MlpParams.init([4, 6, 6, 3], seed=3)
    params.weights[-1][:] = 0.0
    params.biases[-1][:] = 0.0
    X, y = tiny_batch(d=4, k=3)
    loss, _ = tn.mlp_loss_grad(params, X, y)
    assert loss == pytest.approx(math.log(3), rel=1e-12)


def off_kink(params, X, margin=1e-3):
    # central differences straddle the ReLU kink when a pre-activation sits
    # within h of zero; only probe configurations away from it
    a = X
    for k, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ W + b
        if k == len(params.weights) - 1:
            return True
        if np.min(np.abs(z)) < margin:
            return False
        a = np.maximum(z, 0.0)


def test_backprop_matches_finite_differences():
    rng = np.random.default_rng(8)
    probed = 0
    trial = 0
    while probed < 10:
        trial += 1
        params = tn.MlpParams.init([4, 2, 2, 2], seed=trial)
        for b in params.biases:
            b[:] = 0.1 * rng.standard_normal(b.shape)
        X = rng.standard_normal((3, 4))
        y = rng.integers(0, 2, size=3)
        if not off_kink(params, X):
            continue
        probed += 1
        _, grads = tn.mlp_loss_grad(params, X, y)
        flat = params.flatten()
        gflat = grads.flatten()
        h = 1e-6
        for i in range(flat.size):
            e = np.zeros_like(flat)
            e[i] = h
            lp, _ = tn.mlp_loss_grad(params.with_flat(flat + e), X, y)
            lm, _ = tn.mlp_loss_grad(params.with_flat(flat - e), X, y)
            fd = (lp - lm) / (2 * h)
            scale = max(1.0, abs(fd), abs(gflat[i]))
            assert abs(fd - gflat[i]) / scale <= 1e-5


def test_duplicating_batch_changes_nothing():
    params = tn.MlpParams.init([4, 3, 3, 2], seed=1)
    X, y = tiny_batch(seed=5)
    l1, g1 = tn.mlp_loss_grad(params, X, y)
    l2, g2 = tn.mlp_loss_grad(params, np.vstack([X, X]), np.concatenate([y, y]))
    assert l1 == pytest.approx(l2, rel=1e-14)
    for a, b in zip(g1.weights, g2.weights):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# stochastic updates
# ---------------------------------------------------------------------------

def zero_gradient_setup():
    # zero weights and biases with uniform labels -> gradient of the final
    # bias vanishes only if classes balance; use a crafted batch instead:
    # all-zero input rows make hidden activations zero, so only the final
    # bias has gradient; balanced labels cancel it
    params = tn.MlpParams.init([2, 3, 3, 2], seed=0)
    for W in params.weights:
        W[:] = 0.0
    X = np.zeros((2, 2))
    y = np.array([0, 1])
    return params, (X, y)


def test_sgd_zero_gradient_is_fixed_point():
    params, batch = zero_gradient_setup()
    _, grads = tn.mlp_loss_grad(params, *batch)
    assert np.linalg.norm(grads.flatten()) == 0.0
    state = tn.init_state("sgd", params.flatten().size, params.flatten())
    _, new_params, _ = tn.stochastic_step("sgd", state, params, batch)
    np.testing.assert_array_equal(new_params.flatten(), params.flatten())


def test_pdd_stochastic_fixed_point_and_dual_update():
    params, batch = zero_gradient_setup()
    x0 = params.flatten()
    state = tn.init_state("pdd", x0.size, x0)
    for _ in range(3):
        state, params, _ = tn.stochastic_step("pdd", state, params, batch)
    np.testing.assert_array_equal(params.flatten(), x0)
    np.testing.assert_array_equal(state["p"], np.zeros_like(x0))

    # dual update with default hyperparameters: p+ = (p + 5 g) / 1.025
    params = tn.MlpParams.init([4, 3, 3, 2], seed=2)
    X, y = tiny_batch(seed=9)
    _, grads = tn.mlp_loss_grad(params, X, y)
    g = grads.flatten()
    state = tn.init_state("pdd", g.size, params.flatten())
    state, _, _ = tn.stochastic_step("pdd", state, params, (X, y))
    np.testing.assert_allclose(state["p"], 5.0 * g / 1.025, rtol=1e-12)


def test_adam_first_step_is_signlike():
    params = tn.MlpParams.init([4, 3, 3, 2], seed=4)
    X, y = tiny_batch(seed=11)
    _, grads = tn.mlp_loss_grad(params, X, y)
    g = grads.flatten()
    x0 = params.flatten()
    state = tn.init_state("adam", x0.size, x0)
    _, new_params, _ = tn.stochastic_step("adam", state, params, (X, y))
    hp = tn.DEFAULT_HYPERPARAMS["adam"]
    expected = x0 - hp["tau"] * g / (np.abs(g) + hp["eps"])
    np.testing.assert_allclose(new_params.flatten(), expected, rtol=1e-10)


def test_igahd_uses_two_evaluations_and_moves():
    params = tn.MlpParams.init([4, 3, 3, 2], seed=6)
    batch = tiny_batch(seed=13)
    x0 = params.flatten()
    state = tn.init_state("igahd", x0.size, x0)
    state, new_params, loss = tn.stochastic_step("igahd", state, params, batch)
    assert state["n"] == 2
    assert np.linalg.norm(new_params.flatten() - x0) > 0
    assert math.isfinite(loss)


def test_unknown_method_rejected():
    params = tn.MlpParams.init([2, 2, 2], seed=0)
    with pytest.raises(ValueError):
        tn.init_state("lbfgs", 4, params.flatten())


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


def test_train_metrics_deterministic(tmp_path):
    cfg = tn.TrainConfig(n=200, d_in=5, k=3, epochs=3, seeds=(0, 1),
                        hidden=(8, 8))
    r1 = tn.train(cfg)
    r2 = tn.train(cfg)
    assert r1 == r2
    p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    tn.write_metrics_csv(r1, p1)
    tn.write_metrics_csv(r2, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    rows = list(csv.DictReader(open(p1)))
    assert set(rows[0].keys()) == {"epoch", "method", "seed", "train_loss",
                                   "test_acc"}
