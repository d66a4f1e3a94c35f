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

from .adjustment import PriorSupport, feasibility_penalties, sample_from
from .allocation import max_surplus, others_index, waterfill_applies, waterfill_gains
from .model import fields_from_dict, fields_to_dict

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


def _forward_rows(net: MLP, X: Array) -> Array:
    """Outputs ``(...,)`` of a stack of input rows ``(..., k)``, each row its own ``(1, k) @ W`` product.

    Inference path of the adjustment networks. A row's bits do not depend on
    how many rows are stacked with it, whereas a 2-D ``(T, k) @ W`` (as in
    ``_forward_batch``) is blocked by row count and can move the last bits.
    The rows are made contiguous first: numpy hands a strided row to BLAS
    with its stride, and the strided kernel may sum in another order.
    """
    a = np.ascontiguousarray(X)[..., None, :]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
    return (a @ net.weights[-1] + net.biases[-1])[..., 0, 0]


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


def _layout(caps_others: Array, gammas_others: Array, thetas: Array) -> Array:
    """Network input rows: others' capacities, others' cost types, valuation types.

    Every argument carries the same leading batch axes; the capacity bundles
    are flattened producer by producer.
    """
    batch = gammas_others.shape[:-1]
    return np.concatenate([caps_others.reshape(*batch, -1), gammas_others, thetas], axis=-1)


def _layout_without(i: int, caps: Array, gammas: Array, thetas: Array) -> Array:
    """Network ``i``'s input rows from full parameter rows (batch axis first)."""
    return _layout(np.delete(caps, i, axis=1), np.delete(gammas, i, axis=1), thetas)


@dataclass(frozen=True)
class LearnedAdjustment:
    """n trained networks plus the prior bounds used to normalize their inputs."""

    nets: tuple
    support: PriorSupport
    seed: int = 0

    def __post_init__(self):
        if len(self.nets) != self.support.n:
            raise ValueError("need exactly one network per producer")
        # network i normalizes by the others' prior box: the (lo, hi) rows of its layout
        s = self.support
        box = (
            np.stack([s.cap_lo, s.cap_hi]),
            np.stack([s.gamma_lo, s.gamma_hi]),
            np.stack([s.theta_lo, s.theta_hi]),
        )
        object.__setattr__(self, "_bounds", tuple(_layout_without(i, *box) for i in range(s.n)))
        for i, net in enumerate(self.nets):
            expected = self._bounds[i].shape[1]
            if net.input_width != expected:
                raise ValueError(
                    f"network {i} input width {net.input_width} does not match economy layout {expected}"
                )
            if net.output_width != 1:
                raise ValueError(f"network {i} output width {net.output_width} must be 1")

    @property
    def n(self) -> int:
        return self.support.n

    def _normalized(self, i: int, raw: Array) -> Array:
        lo, hi = self._bounds[i]
        if raw.shape[-1] != lo.shape[0]:
            raise ValueError(f"adjustment input width {raw.shape[-1]} does not match {lo.shape[0]}")
        return _normalize(raw, lo, hi)

    def __call__(self, i: int, capacities_others, gammas_others, thetas) -> float:
        if not 0 <= i < self.n:
            raise IndexError(f"producer index {i} out of range for n={self.n}")
        raw = _layout(
            np.asarray(capacities_others, dtype=float)[None],
            np.atleast_1d(np.asarray(gammas_others, dtype=float))[None],
            np.atleast_1d(np.asarray(thetas, dtype=float))[None],
        )
        return float(_forward_rows(self.nets[i], self._normalized(i, raw))[0])

    def all_producers(self, capacities, gammas, thetas) -> Array:
        """``(..., n)`` adjustments of every producer from ``(..., n, dim)``, ``(..., n)`` and ``(..., m)`` reports.

        Leading axes are a batch of report profiles. Entry i runs network i
        on the others' reports and equals ``self(i, ...)`` on them bit for bit.
        """
        caps = np.asarray(capacities, dtype=float)
        gammas = np.asarray(gammas, dtype=float)
        thetas = np.asarray(thetas, dtype=float)
        if gammas.shape[-1] != self.n:
            raise ValueError(f"expected {self.n} producers, got {gammas.shape[-1]}")
        others = others_index(self.n)
        caps_others, gammas_others = caps[..., others, :], gammas[..., others]
        outputs = [
            _forward_rows(net, self._normalized(i, _layout(caps_others[..., i, :, :], gammas_others[..., i, :], thetas)))
            for i, net in enumerate(self.nets)
        ]
        return np.stack(outputs, axis=-1)

    def inputs_batch(self, caps: Array, gammas: Array, thetas: Array) -> list[Array]:
        """Per-network normalized input matrices for a batch of full parameter draws."""
        caps = caps.reshape(caps.shape[0], self.n, self.support.dim)
        return [self._normalized(i, _layout_without(i, caps, gammas, thetas)) for i in range(self.n)]

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
        return fields_to_dict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainingConfig":
        return fields_from_dict(cls, doc)


@dataclass
class TrainingTrace:
    losses: list[float]
    final_loss: float
    epochs_run: int
    wall_clock: float


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
    rationality, budget = feasibility_penalties(surpluses[:, None] - removed_surpluses, outputs, surpluses)
    return float(np.mean(rationality.sum(axis=1) + budget))


def _loss_and_grads(model, inputs, gains, surpluses):
    T = surpluses.shape[0]
    outs, caches = [], []
    for i, X in enumerate(inputs):
        out, acts = _forward_batch(model.nets[i], X)
        outs.append(out)
        caches.append(acts)
    rationality, budget = feasibility_penalties(gains, np.stack(outs, axis=1), surpluses)
    loss = float(np.mean(rationality.sum(axis=1) + budget))
    d_out = (-(rationality > 0).astype(float) + (budget > 0).astype(float)[:, None]) / T
    grads = [
        _backward_batch(model.nets[i], caches[i], d_out[:, i]) for i in range(len(inputs))
    ]
    return loss, grads


def _batch_surpluses(valuation, cost, caps, gammas, thetas, method):
    """S* and all S*_{-i} for every sample in the batch (solved once, reused all epoch)."""
    if waterfill_applies(valuation, cost, caps.shape[2], method):
        return waterfill_gains(caps[..., 0], gammas, thetas.sum(axis=1), valuation.scale)
    full = max_surplus(caps, gammas, thetas, valuation, cost, method)
    removed = [
        max_surplus(np.delete(caps, i, axis=1), np.delete(gammas, i, axis=1), thetas, valuation, cost, method)
        for i in range(gammas.shape[1])
    ]
    return full, np.stack(removed, axis=1)


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
    for key in ("support", "nets"):
        if key not in doc:
            raise ValueError(f"{path}: checkpoint has no {key!r}")
    support = PriorSupport.from_dict(doc["support"])
    for key in ("n", "m", "dim"):
        if key in doc and doc[key] != getattr(support, key):
            raise ValueError(f"{path}: header {key}={doc[key]} does not match the support's {getattr(support, key)}")
    nets = []
    for i, spec in enumerate(doc["nets"]):
        net = MLP(
            [np.asarray(w, dtype=float) for w in spec["weights"]],
            [np.asarray(b, dtype=float) for b in spec["biases"]],
        )
        if "sizes" in spec and list(spec["sizes"]) != net.layer_sizes:
            raise ValueError(f"{path}: nets[{i}] sizes {spec['sizes']} do not match its weight shapes {net.layer_sizes}")
        nets.append(net)
    return LearnedAdjustment(tuple(nets), support, seed=int(doc.get("seed", 0)))
