"""Per-producer MLPs that learn adjustment payments by minimizing the feasibility loss.

One network per producer maps the other participants' parameters
``(capacities_{-i}, gammas_{-i}, thetas)`` to that producer's adjustment.
All networks train jointly against

    LOSS = mean_t [ sum_i relu(-(S*t - S*t_{-i}) - o_i^t)
                    + relu( sum_i ((S*t - S*t_{-i}) + o_i^t) - S*t ) ]

over fresh prior samples, so LOSS = 0 exactly when every sampled instance
satisfies both the producer-rationality and the budget inequalities.
Everything is plain numpy: hand-written forward, backprop, and gradient
descent with optional momentum. The ReLU subgradient at 0 is taken as 0.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .adjustment import PriorSupport, sample_from
from .allocation import solve_with_counterfactuals, waterfill_applies, waterfill_gains
from .model import Economy, reject_unknown_keys

Array = np.ndarray

__all__ = [
    "MLP",
    "mlp_init",
    "mlp_zero",
    "mlp_forward",
    "TrainingConfig",
    "TrainingTrace",
    "LearnedAdjustment",
    "composite_loss",
    "train",
    "save_model",
    "load_model",
]


# ---------------------------------------------------------------------------
# minimal MLP: ReLU hidden layers, linear scalar output
# ---------------------------------------------------------------------------


@dataclass
class MLP:
    weights: list  # (fan_in, fan_out) per layer
    biases: list   # (fan_out,) per layer

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must be non-empty and parallel")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {k} has inconsistent shapes {w.shape} / {b.shape}")
            if k > 0 and self.weights[k - 1].shape[1] != w.shape[0]:
                raise ValueError(f"layer {k} input width does not chain")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {k} has non-finite parameters")

    @property
    def input_width(self) -> int:
        return self.weights[0].shape[0]

    @property
    def output_width(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def layer_sizes(self) -> list[int]:
        return [self.input_width] + [w.shape[1] for w in self.weights]


def mlp_init(layer_sizes, rng) -> MLP:
    """He-normal weights, zero biases."""
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(rng.normal(0.0, math.sqrt(2.0 / max(fan_in, 1)), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MLP(weights, biases)


def mlp_zero(layer_sizes) -> MLP:
    """All-zero parameters; the network outputs 0 everywhere."""
    weights = [np.zeros((i, o)) for i, o in zip(layer_sizes[:-1], layer_sizes[1:])]
    biases = [np.zeros(o) for o in layer_sizes[1:]]
    return MLP(weights, biases)


def _forward_batch(net: MLP, X: Array) -> tuple[Array, list[Array]]:
    """Batch forward pass; returns outputs (T,) and the activations for backprop."""
    activations = [X]
    a = X
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
        activations.append(a)
    out = a @ net.weights[-1] + net.biases[-1]
    return out[:, 0], activations


def _backward_batch(net: MLP, activations: list[Array], dout: Array) -> tuple[list[Array], list[Array]]:
    """Gradients of sum(dout * output) with respect to every weight and bias."""
    d_weights = [None] * len(net.weights)
    d_biases = [None] * len(net.biases)
    delta = dout[:, None]
    for layer in range(len(net.weights) - 1, -1, -1):
        a_prev = activations[layer]
        d_weights[layer] = a_prev.T @ delta
        d_biases[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ net.weights[layer].T) * (activations[layer] > 0)
    return d_weights, d_biases


def mlp_forward(net: MLP, x) -> float:
    """Deterministic forward pass on one input vector."""
    vec = np.atleast_1d(np.asarray(x, dtype=float))
    if vec.shape[0] != net.input_width:
        raise ValueError(f"input width {vec.shape[0]} does not match network width {net.input_width}")
    if net.output_width != 1:
        raise ValueError("adjustment networks have a single output node")
    out, _ = _forward_batch(net, vec[None, :])
    return float(out[0])


# ---------------------------------------------------------------------------
# the adjustment model backed by n networks
# ---------------------------------------------------------------------------


def _normalize(values: Array, lo: Array, hi: Array) -> Array:
    span = hi - lo
    with np.errstate(invalid="ignore", divide="ignore"):
        scaled = np.where(span > 0, (values - lo) / np.where(span > 0, span, 1.0), 0.0)
    return scaled


@dataclass(frozen=True)
class LearnedAdjustment:
    """n trained networks plus the prior bounds used to normalize their inputs."""

    nets: tuple
    support: PriorSupport
    seed: int = 0

    def __post_init__(self):
        if len(self.nets) != self.support.n:
            raise ValueError("need exactly one network per producer")
        expected = (self.support.n - 1) * self.support.dim + (self.support.n - 1) + self.support.m
        for i, net in enumerate(self.nets):
            if net.input_width != expected:
                raise ValueError(
                    f"network {i} input width {net.input_width} does not match economy layout {expected}"
                )

    @property
    def n(self) -> int:
        return self.support.n

    def _bounds_without(self, i: int) -> tuple[Array, Array]:
        lo = np.concatenate(
            [
                np.delete(self.support.cap_lo, i, axis=0).ravel(),
                np.delete(self.support.gamma_lo, i),
                self.support.theta_lo,
            ]
        )
        hi = np.concatenate(
            [
                np.delete(self.support.cap_hi, i, axis=0).ravel(),
                np.delete(self.support.gamma_hi, i),
                self.support.theta_hi,
            ]
        )
        return lo, hi

    def input_vector(self, i: int, capacities_others, gammas_others, thetas) -> Array:
        raw = np.concatenate(
            [
                np.asarray(capacities_others, dtype=float).ravel(),
                np.atleast_1d(np.asarray(gammas_others, dtype=float)),
                np.atleast_1d(np.asarray(thetas, dtype=float)),
            ]
        )
        lo, hi = self._bounds_without(i)
        if raw.shape != lo.shape:
            raise ValueError(f"adjustment input width {raw.shape[0]} does not match {lo.shape[0]}")
        return _normalize(raw, lo, hi)

    def __call__(self, i: int, capacities_others, gammas_others, thetas) -> float:
        if not 0 <= i < self.n:
            raise IndexError(f"producer index {i} out of range for n={self.n}")
        return mlp_forward(self.nets[i], self.input_vector(i, capacities_others, gammas_others, thetas))

    def inputs_batch(self, caps: Array, gammas: Array, thetas: Array) -> list[Array]:
        """Per-network normalized input matrices for a batch of full parameter draws."""
        T = caps.shape[0]
        caps = caps.reshape(T, self.n, self.support.dim)
        matrices = []
        for i in range(self.n):
            raw = np.concatenate(
                [
                    np.delete(caps, i, axis=1).reshape(T, -1),
                    np.delete(gammas, i, axis=1),
                    thetas,
                ],
                axis=1,
            )
            lo, hi = self._bounds_without(i)
            matrices.append(_normalize(raw, lo, hi))
        return matrices

    def outputs_batch(self, caps: Array, gammas: Array, thetas: Array) -> Array:
        """(T, n) adjustment outputs for a batch of full parameter draws."""
        columns = []
        for i, X in enumerate(self.inputs_batch(caps, gammas, thetas)):
            out, _ = _forward_batch(self.nets[i], X)
            columns.append(out)
        return np.stack(columns, axis=1)


# ---------------------------------------------------------------------------
# loss and training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainingConfig:
    batch_size: int = 256
    epochs: int = 500
    learning_rate: float = 1e-2
    momentum: float = 0.0
    hidden: tuple = (10, 10, 10)
    seed: int = 0
    loss_tol: float = 1e-3

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")

    def to_dict(self) -> dict:
        return {
            "batch_size": self.batch_size,
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "momentum": self.momentum,
            "hidden": list(self.hidden),
            "seed": self.seed,
            "loss_tol": self.loss_tol,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainingConfig":
        reject_unknown_keys(cls, doc)
        doc = dict(doc)
        if "hidden" in doc:
            doc["hidden"] = tuple(doc["hidden"])
        return cls(**doc)


@dataclass
class TrainingTrace:
    losses: list[float]
    final_loss: float
    epochs_run: int
    wall_clock: float


def _loss_terms(outputs: Array, gains: Array, surpluses: Array) -> tuple[Array, Array]:
    """Per-sample rationality and budget penalty terms."""
    term1 = np.maximum(-gains - outputs, 0.0).sum(axis=1)
    term2 = np.maximum((gains + outputs).sum(axis=1) - surpluses, 0.0)
    return term1, term2


def composite_loss(
    model: LearnedAdjustment,
    caps: Array,
    gammas: Array,
    thetas: Array,
    surpluses: Array,
    removed_surpluses: Array,
) -> float:
    """Mean feasibility loss of the model over a batch with precomputed surpluses."""
    surpluses = np.asarray(surpluses, dtype=float)
    removed_surpluses = np.asarray(removed_surpluses, dtype=float)
    T = np.asarray(caps).shape[0]
    if surpluses.shape != (T,) or removed_surpluses.shape != (T, model.n):
        raise ValueError("precomputed surpluses missing or mis-shaped for the batch")
    outputs = model.outputs_batch(np.asarray(caps, dtype=float), np.asarray(gammas, dtype=float), np.asarray(thetas, dtype=float))
    gains = surpluses[:, None] - removed_surpluses
    term1, term2 = _loss_terms(outputs, gains, surpluses)
    return float(np.mean(term1 + term2))


def _loss_and_grads(model, inputs, gains, surpluses):
    T = surpluses.shape[0]
    outs, caches = [], []
    for i, X in enumerate(inputs):
        out, acts = _forward_batch(model.nets[i], X)
        outs.append(out)
        caches.append(acts)
    outputs = np.stack(outs, axis=1)
    slack1 = -gains - outputs
    arg2 = (gains + outputs).sum(axis=1) - surpluses
    loss = float(np.mean(np.maximum(slack1, 0.0).sum(axis=1) + np.maximum(arg2, 0.0)))
    d_out = (-(slack1 > 0).astype(float) + (arg2 > 0).astype(float)[:, None]) / T
    grads = [
        _backward_batch(model.nets[i], caches[i], d_out[:, i]) for i in range(len(inputs))
    ]
    return loss, grads


def _batch_surpluses(valuation, cost, caps, gammas, thetas, method):
    """S* and all S*_{-i} for every sample in the batch (solved once, reused all epoch)."""
    T, n = gammas.shape
    surpluses = np.empty(T)
    removed = np.empty((T, n))
    fast = waterfill_applies(valuation, cost, caps.shape[2], method)
    for t in range(T):
        if fast:
            surpluses[t], removed[t] = waterfill_gains(
                caps[t, :, 0], gammas[t], float(thetas[t].sum()), valuation.scale
            )
        else:
            economy = Economy(caps[t], gammas[t], thetas[t], valuation, cost)
            full, rest = solve_with_counterfactuals(economy, method=method)
            surpluses[t] = full.surplus
            removed[t] = [r.surplus for r in rest]
    return surpluses, removed


def train(
    valuation,
    cost,
    support: PriorSupport,
    config: TrainingConfig,
    method: str | None = None,
    initial_model: LearnedAdjustment | None = None,
) -> tuple[LearnedAdjustment, TrainingTrace]:
    """Jointly train all n adjustment networks on fresh prior samples.

    Each epoch draws a new batch, solves the surplus problems once per sample
    (they do not depend on the network weights), takes one full-batch gradient
    step, and records the pre-update loss. Stops early when the recorded loss
    reaches ``config.loss_tol``. Divergence (NaN or infinite loss) raises.
    ``initial_model`` warm-starts from existing networks (copied, not
    mutated), e.g. to resume from a checkpoint.
    """
    n, m, dim = support.n, support.m, support.dim
    sizes = [(n - 1) * dim + (n - 1) + m, *config.hidden, 1]
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    init_rng = np.random.default_rng(seeds[0])
    data_rng = np.random.default_rng(seeds[1])
    if initial_model is None:
        nets = tuple(mlp_init(sizes, init_rng) for _ in range(n))
    else:
        if len(initial_model.nets) != n:
            raise ValueError("initial model does not match the economy's producer count")
        nets = tuple(
            MLP([w.copy() for w in net.weights], [b.copy() for b in net.biases])
            for net in initial_model.nets
        )
    model = LearnedAdjustment(nets, support, seed=config.seed)
    velocity = [
        ([np.zeros_like(w) for w in net.weights], [np.zeros_like(b) for b in net.biases])
        for net in model.nets
    ]

    losses: list[float] = []
    started = time.perf_counter()
    for _ in range(config.epochs):
        caps, gammas, thetas = sample_from(support, config.batch_size, data_rng)
        surpluses, removed = _batch_surpluses(valuation, cost, caps, gammas, thetas, method)
        gains = surpluses[:, None] - removed
        inputs = model.inputs_batch(caps, gammas, thetas)
        loss, grads = _loss_and_grads(model, inputs, gains, surpluses)
        if not math.isfinite(loss):
            raise RuntimeError(
                f"training diverged at epoch {len(losses)}: loss={loss!r}, "
                f"lr={config.learning_rate}, momentum={config.momentum}"
            )
        losses.append(loss)
        if loss <= config.loss_tol:
            break
        for i, net in enumerate(model.nets):
            d_weights, d_biases = grads[i]
            vel_w, vel_b = velocity[i]
            for k in range(len(net.weights)):
                vel_w[k] = config.momentum * vel_w[k] - config.learning_rate * d_weights[k]
                net.weights[k] += vel_w[k]
                vel_b[k] = config.momentum * vel_b[k] - config.learning_rate * d_biases[k]
                net.biases[k] += vel_b[k]
    trace = TrainingTrace(
        losses=losses,
        final_loss=losses[-1],
        epochs_run=len(losses),
        wall_clock=time.perf_counter() - started,
    )
    return model, trace


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_model(model: LearnedAdjustment, path) -> None:
    doc = {
        "kind": "pvcg-adjustment-mlp",
        "n": model.support.n,
        "m": model.support.m,
        "dim": model.support.dim,
        "seed": model.seed,
        "support": model.support.to_dict(),
        "nets": [
            {
                "sizes": net.layer_sizes,
                "weights": [w.tolist() for w in net.weights],
                "biases": [b.tolist() for b in net.biases],
            }
            for net in model.nets
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path) -> LearnedAdjustment:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("kind") != "pvcg-adjustment-mlp":
        raise ValueError(f"{path} is not an adjustment model checkpoint")
    support = PriorSupport.from_dict(doc["support"])
    nets = tuple(
        MLP(
            [np.asarray(w, dtype=float) for w in spec["weights"]],
            [np.asarray(b, dtype=float) for b in spec["biases"]],
        )
        for spec in doc["nets"]
    )
    return LearnedAdjustment(nets, support, seed=int(doc.get("seed", 0)))
