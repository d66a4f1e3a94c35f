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

from .adjustment import PriorSupport, _one_producer, feasibility_penalties, sample_from
from .allocation import _batch_surpluses, others_index
from .model import _check_count, _check_layout, _check_reports, fields_from_dict, fields_to_dict

Array = np.ndarray

__all__ = [
    "MLP",
    "mlp_init",
    "TrainingConfig",
    "TrainingTrace",
    "LearnedAdjustment",
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


def _stack(nets) -> tuple[list[Array], list[Array]]:
    """Copies of the networks' parameters as stacks: ``(n, fan_in, fan_out)`` weights, ``(n, fan_out)`` biases."""
    if len({tuple(net.layer_sizes) for net in nets}) != 1:
        raise ValueError("stacked networks must share one layer layout")
    return [np.stack(ws) for ws in zip(*(net.weights for net in nets))], [
        np.stack(bs) for bs in zip(*(net.biases for net in nets))
    ]


def _hidden_buffers(n: int, T: int, sizes) -> list[Array]:
    """``(n, T, h)`` hidden activation buffers, views of ``(T, n, h)`` arrays for ``_backward``'s bias sums.

    Next to a width-1 layer BLAS takes a vector path whose sums depend on the
    matrix's strides, so such a layer stays ``(n, T, h)`` like the per-network pass.
    """
    return [np.empty((T, n, h)).transpose(1, 0, 2) if min(fan_in, h) > 1 else np.empty((n, T, h))
            for fan_in, h in zip(sizes[:-2], sizes[1:-1])]


def _forward(weights: list[Array], biases: list[Array], X: Array, *, _hidden: list | None = None) -> tuple[Array, list]:
    """Outputs ``(n, T)`` of n stacked networks on their inputs ``(n, T, k)``, and the activations for backprop.

    One batched matmul per layer; network i's slice is the 2-D ``(T, k) @ W`` product of its own pass.
    The hidden activations fill ``_hidden_buffers``, given in ``_hidden`` or made here.
    """
    hidden = _hidden or _hidden_buffers(*X.shape[:2], [X.shape[2]] + [w.shape[2] for w in weights])
    activations = [X]
    for w, b, a in zip(weights[:-1], biases[:-1], hidden):
        np.matmul(activations[-1], w, out=a)
        a += b[:, None, :]
        activations.append(np.maximum(a, 0.0, out=a))
    return (activations[-1] @ weights[-1] + biases[-1][:, None, :])[..., 0], activations


def _forward_rows(weights: list[Array], biases: list[Array], X: Array) -> Array:
    """Outputs ``(n, B)`` of n stacked networks on input rows ``(n, B, k)``, each row its own ``(1, k) @ W_i`` product.

    Inference path of the adjustment networks: one batched matmul per layer
    over all n networks. A row's bits do not depend on how many rows are
    stacked with it, whereas a 2-D ``(T, k) @ W`` (as in training's
    ``_forward``) is blocked by row count and can move the last bits. The
    rows are made contiguous first: numpy hands a strided row to BLAS with
    its stride, and the strided kernel may sum in another order.
    """
    a = np.ascontiguousarray(X)[..., None, :]
    for w, b in zip(weights[:-1], biases[:-1]):
        a = a @ w[:, None]
        a += b[:, None, None]
        np.maximum(a, 0.0, out=a)
    return (a @ weights[-1][:, None] + biases[-1][:, None, None])[..., 0, 0]


def _backward(weights: list[Array], activations: list[Array], d_out: Array, *,
              _grads: tuple[list[Array], list[Array]] | None = None) -> tuple[list[Array], list[Array]]:
    """Gradients of ``sum(d_out * outputs)`` with respect to every stacked weight and bias; ``d_out`` is ``(n, T)``.

    Consumes ``activations``: each hidden activation's buffer takes the next
    delta, so the pass allocates no activation-sized array. The output layer's
    weight gradient keeps ``d_out``'s strides, since BLAS may sum a strided
    column in another order. A width-1 layer's bias gradient sums a contiguous
    copy, whose pairwise sum is the per-network one; a wider layer's sums its
    ``(T, n*h)`` layout over T, in the sequential order of the per-network
    ``(T, h)`` sum. ``_grads`` takes the gradients in place of fresh arrays.
    """
    d_weights, d_biases = _grads or ([np.empty_like(w) for w in weights], [np.empty(w.shape[::2]) for w in weights])
    delta = d_out[..., None]
    for layer in range(len(weights) - 1, -1, -1):
        a = activations.pop()
        np.matmul(a.transpose(0, 2, 1), delta, out=d_weights[layer])
        if delta.shape[2] == 1:
            np.ascontiguousarray(delta).sum(axis=1, out=d_biases[layer])
        else:
            delta.transpose(1, 0, 2).reshape(delta.shape[1], -1).sum(axis=0, out=d_biases[layer].reshape(-1))
        if layer > 0:
            mask = a > 0
            delta = np.matmul(delta, weights[layer].transpose(0, 2, 1), out=a)
            delta *= mask
    return d_weights, d_biases


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


@dataclass(frozen=True)
class LearnedAdjustment:
    """n networks of one layer layout plus the prior bounds used to normalize their inputs.

    The model owns its parameters: construction copies the networks into one
    flat array, viewed as ``(n, fan_in, fan_out)`` weight and ``(n, fan_out)``
    bias stacks, and ``nets`` holds per-network views into those stacks.
    Training steps the flat array in place.
    """

    nets: tuple
    support: PriorSupport
    seed: int = 0

    def __post_init__(self):
        if len(self.nets) != self.support.n:
            raise ValueError("need exactly one network per producer")
        s = self.support
        # the prior box as (lo, hi) rows of the full layout, then network i's columns of it
        box = _layout(np.stack([s.cap_lo, s.cap_hi]), np.stack([s.gamma_lo, s.gamma_hi]), np.stack([s.theta_lo, s.theta_hi]))
        caps_col, gammas_col, thetas_col = np.split(np.arange(box.shape[1]), [s.n * s.dim, s.n * (s.dim + 1)])
        others = others_index(s.n)
        columns = _layout(caps_col.reshape(s.n, s.dim)[others], gammas_col[others], np.tile(thetas_col, (s.n, 1)))
        object.__setattr__(self, "_box", box)
        object.__setattr__(self, "_columns", columns)
        for i, net in enumerate(self.nets):
            if net.input_width != columns.shape[1]:
                raise ValueError(
                    f"network {i} input width {net.input_width} does not match economy layout {columns.shape[1]}"
                )
            if net.output_width != 1:
                raise ValueError(f"network {i} output width {net.output_width} must be 1")
        stacks = _stack(self.nets)
        params = np.concatenate([p.ravel() for p in stacks[0] + stacks[1]])
        weights, biases = _flat_views(params, *stacks)
        object.__setattr__(self, "_params", params)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_biases", biases)
        nets = tuple(MLP([w[i] for w in weights], [b[i] for b in biases]) for i in range(s.n))
        object.__setattr__(self, "nets", nets)

    @property
    def n(self) -> int:
        return self.support.n

    # bound in the class body, so it is in the class ``__dict__``, where perfbench/tracing.py patches it
    __call__ = _one_producer

    def all_producers(self, capacities, gammas, thetas) -> Array:
        """``(..., n)`` adjustments of every producer from ``(..., n, dim)``, ``(..., n)`` and ``(..., m)`` reports.

        Leading axes are a batch of report profiles. Entry i runs network i
        on the others' reports; a row's bits do not depend on the batch.
        """
        return self._rows(*_check_reports(capacities, gammas, thetas))

    def _rows(self, caps: Array, gammas: Array, thetas: Array) -> Array:
        """``all_producers`` of checked reports, which must only fit the support's layout."""
        _check_layout(caps, gammas, thetas, self.support)
        full = self._full_rows(caps, gammas, thetas)
        inputs = full.reshape(-1, full.shape[-1]).take(self._columns, axis=1).transpose(1, 0, 2)
        outputs = _forward_rows(self._weights, self._biases, inputs)
        return np.ascontiguousarray(outputs.T).reshape(full.shape[:-1] + (self.n,))

    def _full_rows(self, caps: Array, gammas: Array, thetas: Array) -> Array:
        """Every producer's reports in one normalized row: column ``_columns[i, c]`` is network i's input c."""
        return _normalize(_layout(caps, gammas, thetas), *self._box)

    def inputs_batch(self, caps: Array, gammas: Array, thetas: Array, *, _out: Array | None = None) -> Array:
        """``(n, T, k)`` inputs of every network for T full draws: a ``(T, n, k)`` gather into ``_out``, transposed."""
        T = gammas.shape[0]
        full = self._full_rows(caps.reshape(T, self.n, self.support.dim), gammas, thetas)
        # numpy buffers ``out`` under the default mode="raise"; ``_columns`` is in range by construction
        return full.take(self._columns, axis=1, out=_out, mode="clip").transpose(1, 0, 2)

    def outputs_batch(self, caps: Array, gammas: Array, thetas: Array) -> Array:
        """(T, n) adjustment outputs for a batch of full parameter draws, from training's stacked forward pass."""
        outputs, _ = _forward(self._weights, self._biases, self.inputs_batch(caps, gammas, thetas))
        return np.ascontiguousarray(outputs.T)


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
        _check_count("batch_size", self.batch_size)
        _check_count("epochs", self.epochs)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not all(isinstance(h, (int, np.integer)) and not isinstance(h, bool) and h >= 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be positive integers, got {self.hidden}")
        # a learned model's IR/WBB sweep is gated at 10 * loss_tol, which must not overflow
        if not (math.isfinite(10.0 * self.loss_tol) and self.loss_tol >= 0):
            raise ValueError(f"loss_tol must be >= 0 with 10 * loss_tol finite, got {self.loss_tol}")
        _check_count("seed", self.seed, least=0)

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


def _loss_and_grads(weights: list[Array], biases: list[Array], inputs: Array, gains: Array, surpluses: Array, *,
                    _hidden: list[Array] | None = None, _grads: tuple[list[Array], list[Array]] | None = None):
    """Mean feasibility loss of n stacked networks on their ``(n, T, k)`` inputs, and its stacked gradients.

    ``train`` passes the same ``_hidden`` activation and ``_grads`` gradient
    arrays every epoch, so they are allocated once per training run.
    """
    outputs, activations = _forward(weights, biases, inputs, _hidden=_hidden)
    rationality, budget = feasibility_penalties(gains, outputs.T, surpluses)
    loss = float(np.mean(rationality.sum(axis=1) + budget))
    d_out = (-(rationality > 0).astype(float) + (budget > 0).astype(float)[:, None]) / surpluses.shape[0]
    return loss, _backward(weights, activations, d_out.T, _grads=_grads)


def _flat_views(flat: Array, weights: list[Array], biases: list[Array]) -> tuple[list[Array], list[Array]]:
    """Views of the 1-D ``flat`` shaped as the weight and then the bias stacks, laid out one after another."""
    stacks = weights + biases
    views = [x.reshape(p.shape) for x, p in zip(np.split(flat, np.cumsum([p.size for p in stacks])), stacks)]
    return views[:len(weights)], views[len(weights):]


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
        nets = [mlp_init(sizes, init_rng) for _ in range(n)]
    elif len(initial_model.nets) != n:
        raise ValueError("initial model does not match the economy's producer count")
    else:
        nets = initial_model.nets
    # the model copies the networks into its one flat parameter array, which each momentum step moves in place;
    # velocity and gradients are flat arrays of the same layout
    model = LearnedAdjustment(nets, support, seed=config.seed)
    params, weights, biases = model._params, model._weights, model._biases
    velocity, grads = np.zeros_like(params), np.empty_like(params)
    d_params = _flat_views(grads, weights, biases)
    # one workspace for every epoch: the gathered inputs and the hidden activations
    T, widths = config.batch_size, nets[0].layer_sizes
    inputs, hidden = np.empty((T, n, widths[0])), _hidden_buffers(n, T, widths)

    losses: list[float] = []
    started = time.perf_counter()
    for _ in range(config.epochs):
        caps, gammas, thetas = sample_from(support, T, data_rng)
        surpluses, removed = _batch_surpluses(valuation, cost, caps, gammas, thetas, method)
        loss, _ = _loss_and_grads(
            weights, biases, model.inputs_batch(caps, gammas, thetas, _out=inputs), surpluses[:, None] - removed,
            surpluses, _hidden=hidden, _grads=d_params,
        )
        if not math.isfinite(loss):
            raise RuntimeError(
                f"training diverged at epoch {len(losses)}: loss={loss!r}, "
                f"lr={config.learning_rate}, momentum={config.momentum}"
            )
        losses.append(loss)
        if loss <= config.loss_tol:
            break
        velocity *= config.momentum
        velocity -= config.learning_rate * grads
        params += velocity
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
    # ``dumps`` takes the C encoder, which ``dump`` never does
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")


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
