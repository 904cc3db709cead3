"""Small fully connected classifier trained with the stochastic variants.

Manual forward/backward passes on a ReLU network with softmax
cross-entropy, synthetic Gaussian-blob data, and five mini-batch update
rules: sgd, nag_momentum, pdd (flattened parameters as the primal, a
persistent dual carried across batches, C = I), igahd, and adam. All but
adam run the deterministic rules of `optimizers.RULES` on the batch loss.
Runs are deterministic per seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .optimizers import RULES, Rule

__all__ = [
    "Dataset",
    "MlpParams",
    "make_blobs",
    "mlp_loss_grad",
    "init_state",
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


@dataclass
class MlpParams:
    """ReLU network weights (input -> hidden... -> logits)."""
    weights: List[np.ndarray]
    biases: List[np.ndarray]

    @classmethod
    def init(cls, sizes: Sequence[int], seed: int) -> "MlpParams":
        """Uniform(+-sqrt(6/(fan_in+fan_out))) weights, zero biases."""
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fi, fo in zip(sizes[:-1], sizes[1:]):
            lim = math.sqrt(6.0 / (fi + fo))
            weights.append(rng.uniform(-lim, lim, size=(fi, fo)))
            biases.append(np.zeros(fo))
        return cls(weights=weights, biases=biases)

    @property
    def sizes(self) -> List[int]:
        return [self.weights[0].shape[0]] + [W.shape[1] for W in self.weights]

    def flatten(self) -> np.ndarray:
        parts = []
        for W, b in zip(self.weights, self.biases):
            parts.append(W.ravel())
            parts.append(b)
        return np.concatenate(parts)

    def with_flat(self, vec: np.ndarray) -> "MlpParams":
        """New parameters with the same shapes filled from a flat vector."""
        weights, biases = [], []
        k = 0
        for W, b in zip(self.weights, self.biases):
            weights.append(vec[k:k + W.size].reshape(W.shape))
            k += W.size
            biases.append(vec[k:k + b.size].copy())
            k += b.size
        if k != vec.size:
            raise ValueError("flat vector size mismatch")
        return MlpParams(weights=weights, biases=biases)


def mlp_loss_grad(params: MlpParams, X: np.ndarray,
                  y: np.ndarray) -> Tuple[float, MlpParams]:
    """Mean softmax cross-entropy over the batch plus its gradients.

    Hidden activations are ReLU; the log-softmax is max-shifted. Gradients
    come from a manual backward pass and average over the batch, so
    duplicating every batch row changes nothing.
    """
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    n_layers = len(params.weights)
    acts = [X]
    zs = []
    a = X
    for i, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ W + b
        zs.append(z)
        a = np.maximum(z, 0.0) if i < n_layers - 1 else z
        acts.append(a)
    logits = acts[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    log_probs = shifted - log_z
    B = X.shape[0]
    loss = -float(np.mean(log_probs[np.arange(B), y]))

    delta = np.exp(log_probs)
    delta[np.arange(B), y] -= 1.0
    delta /= B
    gw: List[np.ndarray] = [np.empty(0)] * n_layers
    gb: List[np.ndarray] = [np.empty(0)] * n_layers
    for i in range(n_layers - 1, -1, -1):
        gw[i] = acts[i].T @ delta
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ params.weights[i].T) * (zs[i - 1] > 0.0)
    return loss, MlpParams(weights=gw, biases=gb)


def accuracy(params: MlpParams, X: np.ndarray, y: np.ndarray) -> float:
    a = X
    n_layers = len(params.weights)
    for i, (W, b) in enumerate(zip(params.weights, params.biases)):
        a = a @ W + b
        if i < n_layers - 1:
            a = np.maximum(a, 0.0)
    return float(np.mean(np.argmax(a, axis=1) == y))


# ---------------------------------------------------------------------------
# stochastic updates on the flattened parameter vector
# ---------------------------------------------------------------------------

def _adam_step(x, g, s, hp, obj):
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


def init_state(method: str, dim: int, x0: np.ndarray) -> dict:
    """Initial state of ``method`` for the flat start ``x0`` (of size ``dim``)."""
    return _rule(method).init(x0)


def stochastic_step(method: str, state: dict, params: MlpParams,
                    batch: Tuple[np.ndarray, np.ndarray],
                    hp: Optional[Dict[str, float]] = None
                    ) -> Tuple[dict, MlpParams, float]:
    """One mini-batch update. Returns (state, params, batch loss).

    ``hp`` is used as given: the rule step checks no range, so pass values
    that ``Rule.validate`` has accepted (`train` checks them once)."""
    rule = _rule(method)
    hp = hp or DEFAULT_HYPERPARAMS[method]

    def grad_at(vec):
        loss, g = mlp_loss_grad(params.with_flat(vec), *batch)
        return loss, g.flatten()

    x = params.flatten()
    loss, g = grad_at(x)
    batch_loss = SimpleNamespace(gradient=lambda vec: grad_at(vec)[1])  # for igahd
    x_new, state = rule.step(x, g, state, hp, batch_loss)
    return state, params.with_flat(x_new), loss


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
        rule = _rule(method)
        hps[method] = hp_table.get(method, DEFAULT_HYPERPARAMS[method])
        rule.validate(method, hps[method])

    data = make_blobs(config.data_seed, config.n, config.d_in, config.k,
                      config.spread)
    Xtr, ytr = data.train
    Xte, yte = data.test
    sizes = [config.d_in, *config.hidden, config.k]
    rows: List[dict] = []

    for seed in config.seeds:
        init = MlpParams.init(sizes, seed)
        x0 = init.flatten()
        for method in config.methods:
            params = init.with_flat(x0)
            state = init_state(method, x0.size, x0)
            hp = hps[method]
            diverged = False
            for epoch in range(config.epochs):
                order = np.random.default_rng([seed, epoch]).permutation(len(ytr))
                losses = []
                for s in range(0, len(order), config.batch_size):
                    idx = order[s:s + config.batch_size]
                    state, params, loss = stochastic_step(
                        method, state, params, (Xtr[idx], ytr[idx]), hp)
                    losses.append(loss)
                    if not math.isfinite(loss):
                        diverged = True
                        break
                rows.append({
                    "epoch": epoch,
                    "method": method,
                    "seed": seed,
                    "train_loss": float("nan") if diverged else float(np.mean(losses)),
                    "test_acc": float("nan") if diverged else accuracy(params, Xte, yte),
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
