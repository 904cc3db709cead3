"""Small fully connected classifier trained with the stochastic variants.

Manual forward/backward passes on a ReLU network with softmax
cross-entropy, synthetic Gaussian-blob data, and five mini-batch update
rules: sgd, nag_momentum, pdd (a persistent dual carried across batches,
C = I), igahd, and adam. A run's parameters are one flat float64 vector
from start to finish; `layers` views it as per-layer (W, b) pairs. All but
adam run the deterministic rules of `optimizers.RULES` on the batch loss.

`train` advances every (method, seed) run together as one (M, S, P) stack.
The mini-batch order depends only on (seed, epoch), so one batched
forward/backward pass per mini-batch serves all runs, and each method's
rule updates its (S, P) block. The network functions take any leading
batch axes; a 1-d ``x`` is one run. Every reduction runs along one run's
axis, so a run's rows do not depend on which other runs share the stack.
Runs are deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .objective import Key, _defaults_from, check_keys
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
    """k Gaussian clusters around unit-norm random centers, 80/20 split;
    the sizes and spread are checked against `TRAIN_KEYS`."""
    check_keys(TRAIN_KEYS, dict(n=n, d_in=d_in, k=k, spread=spread), "make_blobs")
    if n < 10 * k:
        raise ValueError("need n >= 10k samples")
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
    """The (W, b) pair of every layer as views into the flat parameters
    ``x`` of shape (..., P), which store each layer's row-major W followed
    by its b; W has shape (..., fan_in, fan_out) and b (..., fan_out)."""
    lead, pairs, k = x.shape[:-1], [], 0
    for fi, fo in zip(sizes[:-1], sizes[1:]):
        W = x[..., k:k + fi * fo].reshape(*lead, fi, fo)
        pairs.append((W, x[..., k + fi * fo:k + fi * fo + fo]))
        k += fi * fo + fo
    if k != x.shape[-1]:
        raise ValueError("flat vector size mismatch")
    return pairs


def _forward(pairs, X: np.ndarray) -> List[np.ndarray]:
    """Activations of every layer, X first and the logits last; hidden
    layers are ReLU, computed in place of their pre-activations."""
    acts = [X]
    for k, (W, b) in enumerate(pairs):
        a = acts[-1] @ W
        a += b[..., None, :]
        if k < len(pairs) - 1:
            np.maximum(a, 0.0, out=a)
        acts.append(a)
    return acts


def mlp_loss_grad(x: np.ndarray, sizes: Sequence[int], X: np.ndarray,
                  y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy over the batch plus its flat gradient.

    ``x`` has shape (..., P), the batch ``X`` (..., B, d_in) and its labels
    ``y`` (..., B). The leading axes broadcast: the loss has their shape,
    the gradient theirs plus (P,). The log-softmax is max-shifted.
    Gradients come from a manual backward pass and average over the batch,
    so duplicating every batch row changes nothing. Labels outside
    [0, k), k = sizes[-1], raise ValueError.
    """
    B = X.shape[-2]
    if B == 0:
        raise ValueError("empty batch")
    lo, hi = y.min(), y.max()
    if lo < 0 or hi >= sizes[-1]:
        raise ValueError(f"labels must lie in [0, {sizes[-1]}), got "
                         f"[{lo}, {hi}]")
    pairs = layers(x, sizes)
    acts = _forward(pairs, X)
    logits = acts[-1]
    # the row maximum one class column at a time: exact like `max(axis=-1)`,
    # which runs numpy's inner loop once per k-entry row
    top = logits[..., :1]
    for j in range(1, sizes[-1]):
        top = np.maximum(top, logits[..., j:j + 1])
    shifted = logits - top
    log_z = np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    log_probs = shifted - log_z
    label = np.broadcast_to(y[..., None], log_probs.shape[:-1] + (1,))
    picked = np.take_along_axis(log_probs, label, axis=-1)
    loss = -np.mean(picked[..., 0], axis=-1)

    delta = np.exp(log_probs)
    np.put_along_axis(delta, label, np.exp(picked) - 1.0, axis=-1)
    delta /= B
    g = np.empty(delta.shape[:-2] + x.shape[-1:])
    for i, (gW, gb) in reversed(list(enumerate(layers(g, sizes)))):
        gW[...] = np.swapaxes(acts[i], -1, -2) @ delta
        gb[...] = delta.sum(axis=-2)
        if i > 0:
            # a ReLU output is positive exactly where its pre-activation is
            delta = (delta @ np.swapaxes(pairs[i][0], -1, -2)) * (acts[i] > 0.0)
    return loss, g


def accuracy(x: np.ndarray, sizes: Sequence[int], X: np.ndarray,
             y: np.ndarray) -> np.ndarray:
    """Share of the rows of ``X`` whose largest logit is the label, with
    the shapes of `mlp_loss_grad`."""
    logits = _forward(layers(x, sizes), X)[-1]
    return np.mean(np.argmax(logits, axis=-1) == y, axis=-1)


# ---------------------------------------------------------------------------
# stochastic updates of the parameter stack
# ---------------------------------------------------------------------------

def _adam_step(x, g, s, hp, grad):
    t = s["t"] + 1
    m = hp["beta1"] * s["m"] + (1.0 - hp["beta1"]) * g
    v = hp["beta2"] * s["v"] + (1.0 - hp["beta2"]) * g * g
    m_hat = m / (1.0 - hp["beta1"] ** t)
    v_hat = v / (1.0 - hp["beta2"] ** t)
    return x - hp["tau"] * m_hat / (np.sqrt(v_hat) + hp["eps"]), {"m": m, "v": v, "t": t}


# stochastic method -> update rule; all but adam are the deterministic rules,
# and adam's tau and momenta take gd's and nag's keys
_MOMENTUM = RULES["nag"].params["beta"]
_RULES = {
    "sgd": RULES["gd"],
    "nag_momentum": RULES["nag"],
    "pdd": RULES["pdd"],
    "igahd": RULES["igahd"],
    "adam": Rule(dict(tau=RULES["gd"].params["tau"], beta1=_MOMENTUM,
                      beta2=_MOMENTUM, eps=Key("real", range="> 0")), lambda x0: {
        "m": np.zeros_like(x0), "v": np.zeros_like(x0), "t": 0}, _adam_step),
}

METHODS = tuple(_RULES)


def _rule(method: str) -> Rule:
    if method not in _RULES:
        raise ValueError(f"unknown stochastic method {method!r}")
    return _RULES[method]


def stochastic_step(methods: Sequence[str], states: List[dict], x: np.ndarray,
                    sizes: Sequence[int], batch: Tuple[np.ndarray, np.ndarray],
                    hps: Dict[str, Dict[str, float]]
                    ) -> Tuple[List[dict], np.ndarray, np.ndarray]:
    """One mini-batch update of the parameter stack ``x`` of shape
    (M, ..., P), whose leading axis runs over ``methods``; ``states[i]`` is
    the state of method i's block ``x[i]``. One `mlp_loss_grad` call gives
    every run's loss and gradient, then each method's rule updates its
    block; igahd evaluates its second gradient on its own block only.
    Returns (states, x+, batch losses of shape x.shape[:-1]).

    ``hps`` maps each method to its hyperparameters and is used as given:
    the rule steps check no range, so pass values that ``Rule.validate``
    has accepted (`train` checks them once)."""
    loss, g = mlp_loss_grad(x, sizes, *batch)
    x_new, new_states = np.empty_like(x), []
    for i, method in enumerate(methods):
        x_new[i], state = _rule(method).step(
            x[i], g[i], states[i], hps[method],
            lambda v: mlp_loss_grad(v, sizes, *batch)[1])
        new_states.append(state)
    return new_states, x_new, loss


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


# a config's toynet problem params, at TrainConfig's defaults
TRAIN_KEYS = _defaults_from(
    TrainConfig, n=Key("int", range=">= 1"), d_in=Key("int", range=">= 1"),
    k=Key("int", range=">= 2"), spread=Key("real", range=">= 0"),
    epochs=Key("int", range=">= 1"), batch_size=Key("int", range=">= 1"),
    hidden=Key("ints", range=">= 1"), seeds=Key("seeds", range=">= 0"))


def train(config: TrainConfig) -> List[dict]:
    """Train every method on the shared blobs for every seed.

    Returns one row per (epoch, method, seed), ordered by seed, method and
    epoch: mean mini-batch train loss over the epoch and test accuracy at
    the epoch end. All runs advance together as one (M, S, P) stack, one
    `stochastic_step` per mini-batch. A run whose batch loss goes
    non-finite gets a nan row for that epoch and no later rows; the other
    runs are unaffected. Identical configs produce identical rows. The
    `TRAIN_KEYS` fields, distinct methods and seeds, and every method's
    hyperparameters are checked before the data is built.
    """
    check_keys(TRAIN_KEYS, {k: getattr(config, k) for k in TRAIN_KEYS},
               "TrainConfig")
    for name, values in (("methods", config.methods), ("seeds", config.seeds)):
        if len(values) == 0 or len(set(values)) < len(values):  # they key the rows
            raise ValueError(f"{name} must be non-empty and distinct, got {values}")
    hp_table = config.hyperparams or DEFAULT_HYPERPARAMS
    hps = {}
    for method in config.methods:
        hps[method] = hp_table.get(method, DEFAULT_HYPERPARAMS.get(method))
        _rule(method).validate(method, hps[method])

    with np.errstate(all="ignore"):
        data = make_blobs(config.data_seed, config.n, config.d_in, config.k,
                          config.spread)
        Xtr, ytr = data.train
        Xte, yte = data.test
        sizes = [config.d_in, *config.hidden, config.k]
        methods, seeds, B = config.methods, config.seeds, config.batch_size
        x0 = np.stack([init_params(sizes, seed) for seed in seeds])
        x = np.stack([x0] * len(methods))
        states = [_rule(method).init(x0) for method in methods]
        n_train = len(ytr)
        n_batches = -(-n_train // B)

        live = np.ones(x.shape[:-1], dtype=bool)
        history = []  # per epoch: (live at its start, mean loss, test accuracy)
        for epoch in range(config.epochs):
            order = np.stack([np.random.default_rng([seed, epoch]).permutation(n_train)
                              for seed in seeds])
            # one row of batch losses per run, so each mean runs along its own row
            losses = np.empty(x.shape[:-1] + (n_batches,))
            for j in range(n_batches):
                idx = order[:, j * B:(j + 1) * B]
                states, x, losses[..., j] = stochastic_step(
                    methods, states, x, sizes, (Xtr[idx], ytr[idx]), hps)
            ok = np.isfinite(losses).all(axis=-1)
            history.append((live, np.where(ok, losses.mean(axis=-1), np.nan),
                            np.where(ok, accuracy(x, sizes, Xte, yte), np.nan)))
            live = live & ok
            if not live.any():
                break

    rows: List[dict] = []
    for j, seed in enumerate(seeds):
        for i, method in enumerate(methods):
            for epoch, (was_live, loss, acc) in enumerate(history):
                if not was_live[i, j]:
                    break
                rows.append({"epoch": epoch, "method": method, "seed": seed,
                             "train_loss": float(loss[i, j]),
                             "test_acc": float(acc[i, j])})
    return rows
