"""Economy model: valuation/cost function families, social surplus, assumption checks.

Conventions used throughout the package:

* Resources are non-negative quantities. A producer's resource bundle is a
  vector of ``dim`` components (``dim == 1`` for scalar resources, the
  default). A full profile of ``n`` producers is stored as an ``(n, dim)``
  float array.
* Consumers are described only by their valuation type ``theta >= 0``;
  producers by a capacity bundle and a cost type ``gamma >= 0``.
* All computations are pure functions of their inputs (no shared mutable
  state), so everything here is safe to call from multiple threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

Array = np.ndarray

__all__ = [
    "Economy",
    "BidProfile",
    "EconomyView",
    "SqrtSumValuation",
    "SqrtSumSquaresValuation",
    "CustomValuation",
    "LinearCost",
    "CustomCost",
    "make_valuation",
    "make_cost",
    "eval_valuation",
    "eval_cost",
    "total_valuation",
    "total_cost",
    "social_surplus",
    "check_assumptions",
    "AssumptionReport",
    "economy_to_dict",
    "economy_from_dict",
    "load_economy",
    "save_economy",
    "bids_to_dict",
    "bids_from_dict",
]


# ---------------------------------------------------------------------------
# array coercion / validation
# ---------------------------------------------------------------------------

def _check_entries(arr: Array, name: str) -> Array:
    """Reject non-finite and negative entries with a message that names the field."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {arr[~np.isfinite(arr)].flat[0]}")
    if (arr < 0).any():
        raise ValueError(f"{name} must be non-negative")
    return arr


def as_quantity_matrix(x, n: int | None = None, dim: int | None = None, name: str = "resource amounts") -> Array:
    """Coerce per-producer resource amounts into a validated ``(n, dim)`` float array.

    Accepts scalars-per-producer (1-d input) or explicit bundles (2-d input).
    Rejects NaN, infinite and negative entries; ``name`` labels the error.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 1- or 2-dimensional, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"expected {n} producers, got {arr.shape[0]}")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"expected resource dimension {dim}, got {arr.shape[1]}")
    return _check_entries(arr, name)


def as_bundle(x, dim: int | None = None) -> Array:
    """Coerce a single producer's resource bundle into a validated ``(dim,)`` array."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"resource bundle must be a scalar or 1-d, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"expected resource dimension {dim}, got {arr.shape[0]}")
    return _check_entries(arr, "resource bundle")


def _check_type_scalar(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def _check_type_vector(values, name: str) -> Array:
    return _check_entries(np.atleast_1d(np.asarray(values, dtype=float)), name)


# ---------------------------------------------------------------------------
# valuation families
# ---------------------------------------------------------------------------
#
# A valuation family provides
#   value(x, theta)       joint value of the coalition accepting profile x
#   standalone(x_i, theta) value a lone producer would create by itself
#                          (the no-synergy baseline used by the
#                          super-additivity check)
# and, optionally for solver speed,
#   value_totals(t, theta) vectorized value as a function of the aggregate
#                          accepted quantity t = sum of all components of x
#   grad_coeff(t)          d value / d (any component of x) over aggregate t
# Families whose value depends on x only through its aggregate set
# ``aggregate_only = True``; the optimizers exploit that.


@dataclass(frozen=True)
class SqrtSumValuation:
    """Joint value ``theta * sqrt(scale * T)`` with ``T`` the total accepted quantity.

    ``scale`` is the synergy multiplier of joint production (conventionally the
    number of producer slots in the economy). A producer working alone earns
    the no-synergy value ``theta * sqrt(t_i)``.
    """

    scale: float = 1.0
    tag: str = field(default="sqrt_sum", init=False)
    aggregate_only: bool = field(default=True, init=False)

    def __post_init__(self):
        if not (self.scale > 0) or not math.isfinite(self.scale):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    def value(self, x, theta: float) -> float:
        t = float(np.sum(np.asarray(x, dtype=float)))
        return theta * math.sqrt(self.scale * t)

    def value_totals(self, totals, theta: float):
        return theta * np.sqrt(self.scale * np.asarray(totals, dtype=float))

    def grad_coeff(self, totals):
        t = np.maximum(np.asarray(totals, dtype=float), 1e-12)
        return 0.5 * math.sqrt(self.scale) / np.sqrt(t)

    def standalone(self, x_i, theta: float) -> float:
        return theta * math.sqrt(float(np.sum(np.asarray(x_i, dtype=float))))


@dataclass(frozen=True)
class SqrtSumSquaresValuation:
    """Joint value ``theta * sqrt(scale * sum_k t_k^2)`` over per-producer totals ``t_k``.

    The lone-producer baseline is ``theta * t_i`` (again without the synergy
    multiplier).
    """

    scale: float = 1.0
    tag: str = field(default="sqrt_sum_squares", init=False)
    aggregate_only: bool = field(default=False, init=False)

    def __post_init__(self):
        if not (self.scale > 0) or not math.isfinite(self.scale):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    def value(self, x, theta: float) -> float:
        arr = np.asarray(x, dtype=float)
        per_producer = arr.sum(axis=-1) if arr.ndim > 1 else arr
        return theta * math.sqrt(self.scale * float(np.sum(per_producer**2)))

    def standalone(self, x_i, theta: float) -> float:
        return theta * float(np.sum(np.asarray(x_i, dtype=float)))


@dataclass(frozen=True)
class CustomValuation:
    """User-supplied valuation. ``fn(x, theta)`` maps an ``(n, dim)`` profile to a value.

    ``standalone_fn`` defaults to evaluating ``fn`` on the single-producer
    profile; supply it explicitly when the joint formula bakes in a
    coalition-size constant. Assumption checking for custom families is the
    caller's responsibility (``check_assumptions`` is the tool for it).
    """

    fn: Callable[[Array, float], float]
    standalone_fn: Callable[[Array, float], float] | None = None
    tag: str = field(default="custom", init=False)
    aggregate_only: bool = field(default=False, init=False)

    def value(self, x, theta: float) -> float:
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        return float(self.fn(arr, theta))

    def standalone(self, x_i, theta: float) -> float:
        bundle = np.atleast_1d(np.asarray(x_i, dtype=float))
        if self.standalone_fn is not None:
            return float(self.standalone_fn(bundle, theta))
        return self.value(bundle[None, :], theta)


# ---------------------------------------------------------------------------
# cost families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearCost:
    """Cost ``gamma * x_i`` (inner product with a uniform price for vector bundles)."""

    tag: str = field(default="linear", init=False)

    def cost(self, x_i, gamma: float) -> float:
        return gamma * float(np.sum(np.asarray(x_i, dtype=float)))

    def grad(self, x_i, gamma: float) -> Array:
        bundle = np.atleast_1d(np.asarray(x_i, dtype=float))
        return np.full_like(bundle, gamma)


@dataclass(frozen=True)
class CustomCost:
    """User-supplied cost function ``fn(x_i, gamma)`` on a single bundle."""

    fn: Callable[[Array, float], float]
    tag: str = field(default="custom", init=False)

    def cost(self, x_i, gamma: float) -> float:
        return float(self.fn(np.atleast_1d(np.asarray(x_i, dtype=float)), gamma))


def make_valuation(tag: str, scale: float = 1.0):
    if tag == "sqrt_sum":
        return SqrtSumValuation(scale=scale)
    if tag == "sqrt_sum_squares":
        return SqrtSumSquaresValuation(scale=scale)
    raise ValueError(f"unknown valuation family tag {tag!r} (custom families are built in code)")


def make_cost(tag: str):
    if tag == "linear":
        return LinearCost()
    raise ValueError(f"unknown cost family tag {tag!r} (custom families are built in code)")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BidProfile:
    """Sealed bids of step 1: reported capacities and types."""

    capacities: Array        # (n, dim) reported capacity limits
    cost_types: Array        # (n,) reported cost types
    valuation_types: Array   # (m,) reported valuation types

    def __post_init__(self):
        object.__setattr__(self, "capacities", as_quantity_matrix(self.capacities, name="reported capacities"))
        object.__setattr__(self, "cost_types", _check_type_vector(self.cost_types, "reported cost types"))
        object.__setattr__(self, "valuation_types", _check_type_vector(self.valuation_types, "reported valuation types"))

    @property
    def n(self) -> int:
        return self.capacities.shape[0]


@dataclass(frozen=True)
class Economy:
    """Capacities, types, and function families of one auction instance.

    The same container holds true parameters and the reported economy a
    solver sees (``view``); payments code decides which one it is holding.
    """

    capacities: Array        # (n, dim)
    cost_types: Array        # (n,)
    valuation_types: Array   # (m,)
    valuation: object
    cost: object

    def __post_init__(self):
        caps = as_quantity_matrix(self.capacities, name="capacities")
        object.__setattr__(self, "capacities", caps)
        object.__setattr__(self, "cost_types", _check_type_vector(self.cost_types, "cost types"))
        object.__setattr__(self, "valuation_types", _check_type_vector(self.valuation_types, "valuation types"))
        if caps.shape[0] < 1:
            raise ValueError("an economy needs at least one producer")
        if self.valuation_types.shape[0] < 1:
            raise ValueError("an economy needs at least one consumer")
        if self.cost_types.shape[0] != caps.shape[0]:
            raise ValueError("cost_types length must match the number of producers")

    @classmethod
    def sqrt_sum(cls, capacities, cost_types, valuation_types, scale: float | None = None) -> "Economy":
        """Standard economy with the square-root joint value and linear costs.

        ``scale`` defaults to the producer count.
        """
        caps = as_quantity_matrix(capacities, name="capacities")
        if scale is None:
            scale = float(caps.shape[0])
        return cls(
            capacities=caps,
            cost_types=np.asarray(cost_types, dtype=float),
            valuation_types=np.asarray(valuation_types, dtype=float),
            valuation=SqrtSumValuation(scale=scale),
            cost=LinearCost(),
        )

    @property
    def n(self) -> int:
        return self.capacities.shape[0]

    @property
    def m(self) -> int:
        return self.valuation_types.shape[0]

    @property
    def dim(self) -> int:
        return self.capacities.shape[1]

    def truthful_bids(self) -> BidProfile:
        return BidProfile(
            capacities=self.capacities.copy(),
            cost_types=self.cost_types.copy(),
            valuation_types=self.valuation_types.copy(),
        )

    def view(self, bids: BidProfile | None = None) -> "Economy":
        """The reported economy a solver sees: ``bids`` with these families (itself when omitted)."""
        if bids is None:
            return self
        if bids.capacities.shape != self.capacities.shape:
            raise ValueError("bid capacities do not match the economy's producer layout")
        if bids.cost_types.shape != self.cost_types.shape:
            raise ValueError("bid cost types do not match the economy's producer count")
        if bids.valuation_types.shape != self.valuation_types.shape:
            raise ValueError("bid valuation types do not match the economy's consumer count")
        return Economy(bids.capacities, bids.cost_types, bids.valuation_types, self.valuation, self.cost)

    def drop_producer(self, i: int) -> "Economy":
        """The economy without producer ``i``; the families, synergy scale included, are unchanged."""
        if not 0 <= i < self.n:
            raise IndexError(f"producer index {i} out of range for n={self.n}")
        keep = [k for k in range(self.n) if k != i]
        return Economy(self.capacities[keep], self.cost_types[keep], self.valuation_types, self.valuation, self.cost)


# The former name of the solver-input type. perfbench/tracing.py patches
# ``pvcg.model.EconomyView.__init__``, so the name stays bound.
EconomyView = Economy


# ---------------------------------------------------------------------------
# evaluation operations
# ---------------------------------------------------------------------------


def eval_valuation(family, x, theta: float) -> float:
    """Value the coalition places on accepted profile ``x`` for one consumer type."""
    arr = as_quantity_matrix(x)
    theta = _check_type_scalar(theta, "valuation type")
    value = float(family.value(arr, theta))
    if math.isnan(value):
        raise ValueError("valuation family returned NaN")
    return value


def eval_cost(family, x_i, gamma: float) -> float:
    """Cost a producer bears for contributing bundle ``x_i``."""
    bundle = as_bundle(x_i)
    gamma = _check_type_scalar(gamma, "cost type")
    value = float(family.cost(bundle, gamma))
    if math.isnan(value):
        raise ValueError("cost family returned NaN")
    return value


def total_valuation(view, accepted) -> float:
    """Sum of consumer values at the accepted profile."""
    arr = as_quantity_matrix(accepted, n=view.n, dim=view.dim)
    return float(sum(view.valuation.value(arr, float(t)) for t in view.valuation_types))


def total_cost(view, accepted) -> float:
    arr = as_quantity_matrix(accepted, n=view.n, dim=view.dim)
    return float(sum(view.cost.cost(arr[i], float(g)) for i, g in enumerate(view.cost_types)))


def social_surplus(view, accepted) -> float:
    """Total consumer value minus total producer cost at the accepted profile."""
    arr = as_quantity_matrix(accepted, n=view.n, dim=view.dim)
    return total_valuation(view, arr) - total_cost(view, arr)


# ---------------------------------------------------------------------------
# assumption checking
# ---------------------------------------------------------------------------


@dataclass
class AssumptionReport:
    """Sampled verdicts for the four structural assumptions on a family pair.

    Violation witnesses carry the offending sample so failures are
    reproducible by hand.
    """

    samples: int
    monotonicity: list = field(default_factory=list)
    zero_input: list = field(default_factory=list)
    super_additivity: list = field(default_factory=list)
    cross_marginal: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not (self.monotonicity or self.zero_input or self.super_additivity or self.cross_marginal)

    def summary(self) -> dict:
        return {
            "samples": self.samples,
            "passed": self.passed,
            "monotonicity_violations": len(self.monotonicity),
            "zero_input_violations": len(self.zero_input),
            "super_additivity_violations": len(self.super_additivity),
            "cross_marginal_violations": len(self.cross_marginal),
        }

    def to_dict(self) -> dict:
        out = self.summary()
        out["witnesses"] = {
            "monotonicity": self.monotonicity[:10],
            "zero_input": self.zero_input[:10],
            "super_additivity": self.super_additivity[:10],
            "cross_marginal": self.cross_marginal[:10],
        }
        return out


def check_assumptions(
    valuation,
    cost,
    n: int,
    samples: int = 10_000,
    seed: int = 0,
    dim: int = 1,
    cap_high: float = 5.0,
    theta_high: float = 1.0,
    gamma_high: float = 1.0,
    tol: float = 1e-9,
) -> AssumptionReport:
    """Sample random profiles and report violations of the structural assumptions.

    Checked per sample:

    1. monotonicity of the valuation in every resource coordinate and in
       theta, and of the cost in the bundle and in gamma;
    2. zero-input neutrality: a zero bundle contributes nothing to the value
       and costs nothing;
    3. super-additivity: joint value at least the sum of lone-producer values;
    4. decreasing cross marginal returns: producer i's marginal value shrinks
       when the others contribute more.

    Violations are report entries (with witnesses), never exceptions.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    report = AssumptionReport(samples=samples)

    for k in range(samples):
        x = rng.uniform(0.0, cap_high, size=(n, dim))
        x_small = x * rng.uniform(0.0, 1.0, size=(n, dim))
        theta = rng.uniform(0.0, theta_high)
        gamma = rng.uniform(0.0, gamma_high)
        i = int(rng.integers(n))

        # 1. monotonicity (random coordinate bump; theta/gamma bump)
        bump = rng.uniform(0.0, cap_high)
        x_up = x.copy()
        d = int(rng.integers(dim))
        x_up[i, d] += bump
        v0 = valuation.value(x, theta)
        if valuation.value(x_up, theta) < v0 - tol:
            report.monotonicity.append({"sample": k, "kind": "valuation/x", "x": x.tolist(), "theta": theta})
        if valuation.value(x, theta + rng.uniform(0.0, theta_high)) < v0 - tol:
            report.monotonicity.append({"sample": k, "kind": "valuation/theta", "x": x.tolist(), "theta": theta})
        c0 = cost.cost(x[i], gamma)
        if cost.cost(x_up[i], gamma) < c0 - tol:
            report.monotonicity.append({"sample": k, "kind": "cost/x", "x_i": x[i].tolist(), "gamma": gamma})
        if cost.cost(x[i], gamma + rng.uniform(0.0, gamma_high)) < c0 - tol:
            report.monotonicity.append({"sample": k, "kind": "cost/gamma", "x_i": x[i].tolist(), "gamma": gamma})

        # 2. zero input makes no difference
        x_zeroed = x.copy()
        x_zeroed[i] = 0.0
        x_removed = np.delete(x, i, axis=0)
        if abs(valuation.value(x_zeroed, theta) - valuation.value(x_removed, theta)) > tol:
            report.zero_input.append({"sample": k, "kind": "valuation", "x": x.tolist(), "i": i, "theta": theta})
        if abs(cost.cost(np.zeros(dim), gamma)) > tol:
            report.zero_input.append({"sample": k, "kind": "cost", "gamma": gamma})

        # 3. super-additivity against the lone-producer baseline
        solo_sum = sum(valuation.standalone(x[j], theta) for j in range(n))
        if valuation.value(x, theta) < solo_sum - tol:
            report.super_additivity.append(
                {"sample": k, "x": x.tolist(), "theta": theta, "joint": valuation.value(x, theta), "solo_sum": solo_sum}
            )

        # 4. decreasing cross marginal returns: x >= x_small componentwise
        hi_others = x.copy()
        hi_others[i] = x[i]
        lo_others = x_small.copy()
        lo_others[i] = x[i]
        hi_others_small_i = x.copy()
        hi_others_small_i[i] = x_small[i]
        lo_others_small_i = x_small.copy()
        lo_others_small_i[i] = x_small[i]
        lhs = valuation.value(hi_others, theta) - valuation.value(hi_others_small_i, theta)
        rhs = valuation.value(lo_others, theta) - valuation.value(lo_others_small_i, theta)
        if lhs > rhs + tol:
            report.cross_marginal.append(
                {"sample": k, "i": i, "x": x.tolist(), "x_small": x_small.tolist(), "theta": theta, "gap": lhs - rhs}
            )

    return report


# ---------------------------------------------------------------------------
# serialization (JSON schema documented in the README)
# ---------------------------------------------------------------------------


def reject_unknown_keys(cls, doc: dict) -> None:
    """Raise ``ValueError`` naming every key of ``doc`` that is not a field of dataclass ``cls``."""
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(map(str, unknown))}")


def _family_to_dict(family) -> dict:
    if family.tag == "custom":
        raise ValueError("custom families cannot be serialized; construct them in code")
    out = {"tag": family.tag}
    if hasattr(family, "scale"):
        out["scale"] = family.scale
    return out


def _squeeze_caps(caps: Array):
    if caps.shape[1] == 1:
        return [float(v) for v in caps[:, 0]]
    return [[float(v) for v in row] for row in caps]


def economy_to_dict(economy: Economy) -> dict:
    return {
        "n": economy.n,
        "m": economy.m,
        "capacities": _squeeze_caps(economy.capacities),
        "cost_types": [float(g) for g in economy.cost_types],
        "valuation_types": [float(t) for t in economy.valuation_types],
        "valuation_family": _family_to_dict(economy.valuation),
        "cost_family": _family_to_dict(economy.cost),
    }


def economy_from_dict(doc: dict) -> Economy:
    caps = as_quantity_matrix(doc["capacities"], name="capacities")
    n = int(doc.get("n", caps.shape[0]))
    if caps.shape[0] != n:
        raise ValueError("economy document: capacities length disagrees with n")
    thetas = np.asarray(doc["valuation_types"], dtype=float)
    m = int(doc.get("m", thetas.shape[0]))
    if thetas.shape[0] != m:
        raise ValueError("economy document: valuation_types length disagrees with m")
    vfam = doc.get("valuation_family", {"tag": "sqrt_sum"})
    cfam = doc.get("cost_family", {"tag": "linear"})
    valuation = make_valuation(vfam["tag"], scale=float(vfam.get("scale", n)))
    cost = make_cost(cfam["tag"])
    return Economy(
        capacities=caps,
        cost_types=np.asarray(doc["cost_types"], dtype=float),
        valuation_types=thetas,
        valuation=valuation,
        cost=cost,
    )


def save_economy(economy: Economy, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(economy_to_dict(economy), fh, indent=2)
        fh.write("\n")


def load_economy(path) -> Economy:
    with open(path, "r", encoding="utf-8") as fh:
        return economy_from_dict(json.load(fh))


def bids_to_dict(bids: BidProfile) -> dict:
    return {
        "capacities": _squeeze_caps(bids.capacities),
        "cost_types": [float(g) for g in bids.cost_types],
        "valuation_types": [float(t) for t in bids.valuation_types],
    }


def bids_from_dict(doc: dict) -> BidProfile:
    return BidProfile(
        capacities=as_quantity_matrix(doc["capacities"], name="reported capacities"),
        cost_types=np.asarray(doc["cost_types"], dtype=float),
        valuation_types=np.asarray(doc["valuation_types"], dtype=float),
    )
