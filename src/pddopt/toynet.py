"""Small fully connected classifier trained with the stochastic variants.

Manual forward/backward passes on a ReLU network with softmax
cross-entropy, synthetic Gaussian-blob data, and five mini-batch update
rules: sgd, nag_momentum, pdd (a persistent dual carried across batches,
C = I), igahd, and adam. The parameters are one flat float64 vector from
start to finish; `layers` views it as per-layer (W, b) pairs. All but
adam run the deterministic rules of `optimizers.RULES` on the batch loss.
Runs are deterministic per seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .optimizers import RULES, Rule

__all__ = [
    "Dataset",
    "make_blobs",
    "init_params",
    "layers",
    "mlp_loss_grad",
    "accuracy",
    "stochastic_step",
    "TrainConfig",
    "train",
    "write_metrics_csv",
    "DEFAULT_HYPERPARAMS",
    "METHODS",
]

# mini-batch hyperparameters used throughout the training comparison
DEFAULT_HYPERPARAMS: Dict[str, Dict[str, float]] = {
    "sgd": {"tau": 0.001},
    "nag_momentum": {"tau": 0.001, "beta": 0.9},
    "pdd": {"tau": 0.001, "sigma": 5.0, "epsilon": 0.005, "omega": 1.0, "A": 1.0},
    "igahd": {"tau": 0.001, "alpha": 3.0, "beta1": 0.01},
    "adam": {"tau": 0.001, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
}


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray
    seed: int

    @property
    def train(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.X[self.train_idx], self.y[self.train_idx]

    @property
    def test(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.X[self.test_idx], self.y[self.test_idx]


def make_blobs(seed: int, n: int, d_in: int, k: int, spread: float) -> Dataset:
    """k Gaussian clusters around unit-norm random centers, 80/20 split."""
    if n < 10 * k:
        raise ValueError("need n >= 10k samples")
    if d_in < 1 or k < 2:
        raise ValueError("invalid sizes")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((k, d_in))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    y = np.arange(n) % k  # balanced labels
    X = centers[y] + spread * rng.standard_normal((n, d_in))
    perm = rng.permutation(n)
    cut = int(round(0.8 * n))
    train_idx, test_idx = perm[:cut], perm[cut:]
    if len(np.unique(y[train_idx])) < k:
        raise ValueError("train split lost a class; use a larger n")
    return Dataset(X=X, y=y, train_idx=train_idx, test_idx=test_idx, seed=seed)


def init_params(sizes: Sequence[int], seed: int) -> np.ndarray:
    """Flat parameters of a ReLU network with layer widths ``sizes``:
    Uniform(+-sqrt(6/(fan_in+fan_out))) weights, zero biases."""
    rng = np.random.default_rng(seed)
    x = np.zeros(sum(fi * fo + fo for fi, fo in zip(sizes[:-1], sizes[1:])))
    for W, _ in layers(x, sizes):
        lim = math.sqrt(6.0 / sum(W.shape))
        W[...] = rng.uniform(-lim, lim, size=W.shape)
    return x


def layers(x: np.ndarray, sizes: Sequence[int]) -> list:
    """The (W, b) pair of every layer as views into the flat vector ``x``,
    which stores each layer's row-major W followed by its b."""
    pairs, k = [], 0
    for fi, fo in zip(sizes[:-1], sizes[1:]):
        W = x[k:k + fi * fo].reshape(fi, fo)
        pairs.append((W, x[k + W.size:k + W.size + fo]))
        k += W.size + fo
    if k != x.size:
        raise ValueError("flat vector size mismatch")
    return pairs


def _forward(pairs, X: np.ndarray) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Activations of every layer (X first, the logits last) and the hidden
    pre-activations; hidden layers are ReLU."""
    acts, zs = [X], []
    for W, b in pairs[:-1]:
        zs.append(acts[-1] @ W + b)
        acts.append(np.maximum(zs[-1], 0.0))
    W, b = pairs[-1]
    acts.append(acts[-1] @ W + b)
    return acts, zs


def mlp_loss_grad(x: np.ndarray, sizes: Sequence[int], X: np.ndarray,
                  y: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over the batch plus its flat gradient.

    The log-softmax is max-shifted. Gradients come from a manual backward
    pass and average over the batch, so duplicating every batch row
    changes nothing.
    """
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    pairs = layers(x, sizes)
    acts, zs = _forward(pairs, X)
    logits = acts[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    log_probs = shifted - log_z
    B = X.shape[0]
    loss = -float(np.mean(log_probs[np.arange(B), y]))

    delta = np.exp(log_probs)
    delta[np.arange(B), y] -= 1.0
    delta /= B
    g = np.empty_like(x)
    for i, (gW, gb) in reversed(list(enumerate(layers(g, sizes)))):
        gW[...] = acts[i].T @ delta
        gb[...] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ pairs[i][0].T) * (zs[i - 1] > 0.0)
    return loss, g


def accuracy(x: np.ndarray, sizes: Sequence[int], X: np.ndarray,
             y: np.ndarray) -> float:
    logits = _forward(layers(x, sizes), X)[0][-1]
    return float(np.mean(np.argmax(logits, axis=1) == y))


# ---------------------------------------------------------------------------
# stochastic updates of the flat parameter vector
# ---------------------------------------------------------------------------

def _adam_step(x, g, s, hp, grad):
    t = s["t"] + 1
    m = hp["beta1"] * s["m"] + (1.0 - hp["beta1"]) * g
    v = hp["beta2"] * s["v"] + (1.0 - hp["beta2"]) * g * g
    m_hat = m / (1.0 - hp["beta1"] ** t)
    v_hat = v / (1.0 - hp["beta2"] ** t)
    return x - hp["tau"] * m_hat / (np.sqrt(v_hat) + hp["eps"]), {"m": m, "v": v, "t": t}


def _check_adam(tau, beta1, beta2, eps) -> None:
    if not (tau > 0 and eps > 0):
        raise ValueError("tau and eps must be positive")
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
        raise ValueError("beta1 and beta2 must lie in [0, 1)")


# stochastic method -> update rule; all but adam are the deterministic rules
_RULES = {
    "sgd": RULES["gd"],
    "nag_momentum": RULES["nag"],
    "pdd": RULES["pdd"],
    "igahd": RULES["igahd"],
    "adam": Rule(("tau", "beta1", "beta2", "eps"), lambda x0: {
        "m": np.zeros_like(x0), "v": np.zeros_like(x0), "t": 0}, _adam_step,
        _check_adam),
}

METHODS = tuple(_RULES)


def _rule(method: str) -> Rule:
    if method not in _RULES:
        raise ValueError(f"unknown stochastic method {method!r}")
    return _RULES[method]


def stochastic_step(method: str, state: dict, x: np.ndarray,
                    sizes: Sequence[int], batch: Tuple[np.ndarray, np.ndarray],
                    hp: Optional[Dict[str, float]] = None
                    ) -> Tuple[dict, np.ndarray, float]:
    """One mini-batch update of the flat parameters ``x``. Returns
    (state, x+, batch loss).

    ``hp`` is used as given: the rule step checks no range, so pass values
    that ``Rule.validate`` has accepted (`train` checks them once)."""
    step = _rule(method).step
    hp = hp or DEFAULT_HYPERPARAMS[method]
    loss, g = mlp_loss_grad(x, sizes, *batch)
    x_new, state = step(x, g, state, hp, lambda v: mlp_loss_grad(v, sizes, *batch)[1])
    return state, x_new, loss


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    data_seed: int = 0
    n: int = 2000
    d_in: int = 20
    k: int = 5
    spread: float = 0.5
    hidden: Tuple[int, int] = (16, 16)
    epochs: int = 30
    batch_size: int = 32
    methods: Tuple[str, ...] = METHODS
    seeds: Tuple[int, ...] = (0,)
    hyperparams: Optional[Dict[str, Dict[str, float]]] = None


def train(config: TrainConfig) -> List[dict]:
    """Train every method on the shared blobs for every seed.

    Returns one row per (epoch, method, seed): mean mini-batch train loss
    over the epoch and test accuracy at the epoch end. A non-finite loss
    marks the method diverged (nan row) and the run continues with the
    remaining methods. Identical configs produce identical rows. Every
    method's hyperparameters are checked before the first batch.
    """
    hp_table = config.hyperparams or DEFAULT_HYPERPARAMS
    hps = {}
    for method in config.methods:
        hps[method] = hp_table.get(method, DEFAULT_HYPERPARAMS[method])
        _rule(method).validate(method, hps[method])

    data = make_blobs(config.data_seed, config.n, config.d_in, config.k,
                      config.spread)
    Xtr, ytr = data.train
    Xte, yte = data.test
    sizes = [config.d_in, *config.hidden, config.k]
    rows: List[dict] = []

    for seed in config.seeds:
        x0 = init_params(sizes, seed)
        for method in config.methods:
            x, state = x0, _rule(method).init(x0)
            hp = hps[method]
            diverged = False
            for epoch in range(config.epochs):
                order = np.random.default_rng([seed, epoch]).permutation(len(ytr))
                losses = []
                for s in range(0, len(order), config.batch_size):
                    idx = order[s:s + config.batch_size]
                    state, x, loss = stochastic_step(
                        method, state, x, sizes, (Xtr[idx], ytr[idx]), hp)
                    losses.append(loss)
                    if not math.isfinite(loss):
                        diverged = True
                        break
                rows.append({
                    "epoch": epoch,
                    "method": method,
                    "seed": seed,
                    "train_loss": float("nan") if diverged else float(np.mean(losses)),
                    "test_acc": (float("nan") if diverged
                                 else accuracy(x, sizes, Xte, yte)),
                })
                if diverged:
                    break
    return rows


def write_metrics_csv(rows: Sequence[dict], path) -> None:
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["epoch", "method", "seed", "train_loss", "test_acc"])
        for r in rows:
            w.writerow([r["epoch"], r["method"], r["seed"],
                        format(r["train_loss"], ".17g"),
                        format(r["test_acc"], ".17g")])
