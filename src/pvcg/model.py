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
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, get_origin, get_type_hints

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
    "value_rows",
    "cost_rows",
    "standalone_rows",
    "surplus_rows",
    "social_surplus",
    "check_assumptions",
    "AssumptionReport",
    "economy_to_dict",
    "economy_from_dict",
    "load_economy",
    "save_economy",
    "bids_from_dict",
    "fields_to_dict",
    "fields_from_dict",
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


def _check_count(name: str, value, least: int = 1) -> None:
    """Reject a count that is not an integer (a bool is not one) or is below ``least``, naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _check_tol(tol: float) -> None:
    """Reject a tolerance that no gap can exceed: NaN and +inf would pass every probe."""
    if not tol < math.inf:
        raise ValueError(f"tol must be a number below +inf, got {tol}")


def _as_capacities(x, name: str) -> Array:
    """Per-producer resource amounts as a float array, 0-d and 1-d input as a column ``(n, 1)``; ragged rows are
    rejected naming ``name``. Reads no entry."""
    try:
        arr = np.asarray(x, dtype=float)
    except ValueError as err:  # numpy's "setting an array element with a sequence ... inhomogeneous shape"
        raise ValueError(f"{name} must have rows of one length: {err}") if "sequence" in str(err) else err
    return arr.reshape(-1, 1) if arr.ndim < 2 else arr


def _frozen(arr: Array) -> Array:
    """A read-only copy of a checked field: no later write reaches it, and the caller keeps its own array."""
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _check_layout(caps: Array, gammas: Array, thetas: Array | None = None, support=None) -> None:
    """Raise unless the shapes are ``(..., n, dim)`` capacities, ``(..., n)`` cost types on the capacities' leading
    axes and ``(..., m)`` valuation types (None passes); with a ``support``, of its n, dim and m. Reads no entry."""
    n, dim, m = ("n", "dim", "m") if support is None else (support.n, support.dim, support.m)
    fits = caps.ndim >= 2 and gammas.shape == caps.shape[:-1] and (thetas is None or thetas.ndim >= 1)
    if not fits or support is not None and (caps.shape[-2:] != (n, dim) or thetas.shape[-1] != m):
        raise ValueError(
            f"expected (..., {n}, {dim}) capacities, (..., {n}) cost types and (..., {m}) valuation types, "
            f"got shapes {caps.shape}, {gammas.shape} and {np.shape(thetas)}"
        )


_REPORT_NAMES = ("capacities", "cost types", "valuation types")


def _check_reports(capacities, gammas, thetas=None, shape=None, names=_REPORT_NAMES) -> tuple:
    """The one check of reports at a public entry: float capacities, cost types and valuation types (None: left out).

    They are laid out as ``_check_layout`` asks, or as one ``(n, dim)``, ``(n,)``, ``(m,)`` profile for ``shape=(n,
    dim, m)``, with at least one resource dimension and every entry finite and non-negative. Errors name the field by
    its entry in ``names``.
    """
    reports = tuple(np.asarray(a, dtype=float) for a in (capacities, gammas, thetas) if a is not None)
    if shape is None:
        _check_layout(*reports)
    else:
        for arr, name, want in zip(reports, names, (shape[:2], shape[:1], shape[2:])):
            if arr.shape != want:
                raise ValueError(f"{name} must have shape {want}, got {arr.shape}")
    if reports[0].shape[-1] < 1:
        raise ValueError(f"{names[0]} must have at least one resource dimension, got shape {reports[0].shape}")
    for arr, name in zip(reports, names):
        _check_entries(arr, name)
    return reports


def _producer_count(caps: Array, name: str) -> int:
    """The producer count n of ``_as_capacities`` output, which must be at least 1; errors name ``name``."""
    if caps.shape[0] < 1:
        raise ValueError(f"{name} must have at least one producer, got shape {caps.shape}")
    return caps.shape[0]


def _set_profile(holder, fields: tuple, names: tuple) -> None:
    """Check the holder's ``fields`` as one profile of n >= 1 producers and m >= 1 consumers, and store read-only
    copies: ``_check_reports`` at ``(n, dim, m)`` read from the capacities (0-d and 1-d ones a column) and from the
    valuation types. ``names`` label the errors. The one check of ``Economy``, ``BidProfile`` and ``PriorSupport``.
    """
    caps = _as_capacities(getattr(holder, fields[0]), names[0])
    thetas = np.asarray(getattr(holder, fields[2]), dtype=float)
    m = len(thetas) if thetas.ndim else 1
    reports = _check_reports(caps, getattr(holder, fields[1]), thetas, shape=caps.shape[:2] + (m,), names=names)
    _producer_count(caps, names[0])
    if m < 1:
        raise ValueError(f"{names[2]} must have at least one consumer, got shape {thetas.shape}")
    for name, arr in zip(fields, reports):
        object.__setattr__(holder, name, _frozen(arr))


# ---------------------------------------------------------------------------
# valuation families
# ---------------------------------------------------------------------------
#
# A valuation family provides
#   value(x, theta)       joint value of the coalition accepting profile x
#   standalone(x_i, theta) value a lone producer would create by itself
#                          (the no-synergy baseline used by the
#                          super-additivity check)


@dataclass(frozen=True)
class SqrtSumValuation:
    """Joint value ``theta * sqrt(scale * T)`` with ``T`` the total accepted quantity.

    ``scale`` is the synergy multiplier of joint production (conventionally the
    number of producer slots in the economy). A producer working alone earns
    the no-synergy value ``theta * sqrt(t_i)``.
    """

    scale: float = 1.0
    tag: str = field(default="sqrt_sum", init=False)

    def __post_init__(self):
        if not (self.scale > 0) or not math.isfinite(self.scale):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    def value(self, x, theta: float) -> float:
        t = float(np.sum(np.asarray(x, dtype=float)))
        return theta * math.sqrt(self.scale * t)

    def standalone(self, x_i, theta: float) -> float:
        return theta * math.sqrt(float(np.sum(np.asarray(x_i, dtype=float))))

    def standalone_rows(self, bundles: Array, thetas) -> Array:
        """``model.standalone_rows`` of this family: ``standalone`` of each ``(..., dim)`` bundle, row by row."""
        return thetas * np.sqrt(bundle_totals(bundles))

    def value_rows(self, accepted: Array, thetas) -> Array:
        """``model.value_rows`` of this family: the pairwise total of each row's n*dim quantities, as ``value``."""
        shape = accepted.shape
        totals = np.add.reduce(accepted.reshape(shape[:-2] + (shape[-2] * shape[-1],)), axis=-1)
        return _consumer_sum(thetas, np.sqrt(self.scale * totals))


@dataclass(frozen=True)
class SqrtSumSquaresValuation:
    """Joint value ``theta * sqrt(scale * sum_k t_k^2)`` over per-producer totals ``t_k``.

    The lone-producer baseline is ``theta * t_i`` (again without the synergy
    multiplier).
    """

    scale: float = 1.0
    tag: str = field(default="sqrt_sum_squares", init=False)

    def __post_init__(self):
        if not (self.scale > 0) or not math.isfinite(self.scale):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    def value(self, x, theta: float) -> float:
        arr = np.asarray(x, dtype=float)
        per_producer = arr.sum(axis=-1) if arr.ndim > 1 else arr
        return theta * math.sqrt(self.scale * float(np.sum(per_producer**2)))

    def standalone(self, x_i, theta: float) -> float:
        return theta * float(np.sum(np.asarray(x_i, dtype=float)))

    def standalone_rows(self, bundles: Array, thetas) -> Array:
        """``model.standalone_rows`` of this family: ``standalone`` of each ``(..., dim)`` bundle, row by row."""
        return thetas * bundle_totals(bundles)

    def value_rows(self, accepted: Array, thetas) -> Array:
        """``model.value_rows`` of this family: the pairwise sum of the squared per-producer totals, as ``value``."""
        return _consumer_sum(thetas, np.sqrt(self.scale * (accepted.sum(axis=-1) ** 2).sum(axis=-1)))


def _consumer_sum(thetas, root: Array) -> Array:
    """Each row's ``theta * root`` summed over the consumers on the last axis of ``thetas``, in order, from 0."""
    thetas, value = np.asarray(thetas), 0.0
    for j in range(thetas.shape[-1]):
        value = value + thetas[..., j] * root
    return value


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


def bundle_totals(bundles: Array) -> Array:
    """Each ``(..., dim)`` bundle's total: the linear cost's quantity, and the water-fill's capacity of a producer."""
    # a scalar bundle is its own total, read as a view without the cost of a reduction
    return bundles[..., 0] if bundles.shape[-1] == 1 else bundles.sum(axis=-1)


@dataclass(frozen=True)
class LinearCost:
    """Cost ``gamma * x_i`` (inner product with a uniform price for vector bundles)."""

    tag: str = field(default="linear", init=False)

    def cost(self, x_i, gamma: float) -> float:
        return gamma * float(np.sum(np.asarray(x_i, dtype=float)))

    def cost_rows(self, bundles: Array, gammas) -> Array:
        """``cost`` of ``(..., dim)`` bundles at cost types that broadcast to ``(...)``, row by row."""
        return gammas * bundle_totals(bundles)


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


# the report fields of ``BidProfile`` and ``Economy``, in ``_set_profile``'s order
_PROFILE_FIELDS = ("capacities", "cost_types", "valuation_types")


@dataclass(frozen=True)
class BidProfile:
    """Sealed bids of step 1: reported capacities and types, held as read-only copies of the checked arrays."""

    capacities: Array        # (n, dim) reported capacity limits
    cost_types: Array        # (n,) reported cost types
    valuation_types: Array   # (m,) reported valuation types

    def __post_init__(self):
        _set_profile(self, _PROFILE_FIELDS, tuple("reported " + name for name in _REPORT_NAMES))

    @property
    def n(self) -> int:
        return self.capacities.shape[0]


@dataclass(frozen=True)
class Economy:
    """Capacities, types, and function families of one auction instance.

    The same container holds true parameters and the reported economy a
    solver sees (``view``); payments code decides which one it is holding.
    Its arrays are read-only copies of the checked ones, so the pricing code
    can trust them.
    """

    capacities: Array        # (n, dim)
    cost_types: Array        # (n,)
    valuation_types: Array   # (m,)
    valuation: object
    cost: object

    def __post_init__(self):
        _set_profile(self, _PROFILE_FIELDS, _REPORT_NAMES)

    @classmethod
    def sqrt_sum(cls, capacities, cost_types, valuation_types, scale: float | None = None) -> "Economy":
        """Standard economy with the square-root joint value and linear costs.

        ``scale`` defaults to the producer count.
        """
        caps = _as_capacities(capacities, "capacities")  # for the producer count; the constructor checks the rest
        valuation = SqrtSumValuation(scale=float(_producer_count(caps, "capacities")) if scale is None else scale)
        return cls(caps, cost_types, valuation_types, valuation, LinearCost())

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
        return BidProfile(self.capacities, self.cost_types, self.valuation_types)

    def view(self, bids: BidProfile | None = None) -> "Economy":
        """The reported economy a solver sees: ``bids`` with these families (itself when omitted)."""
        return self if bids is None else Economy(*self._reports(bids), self.valuation, self.cost)

    def _reports(self, bids: BidProfile | None) -> tuple[Array, Array, Array]:
        """The reports of ``bids`` (these when omitted); a ``BidProfile`` checked its entries, so only shapes are."""
        if bids is None:
            return self.capacities, self.cost_types, self.valuation_types
        _check_layout(bids.capacities, bids.cost_types, bids.valuation_types, support=self)
        return bids.capacities, bids.cost_types, bids.valuation_types


# The former name of the solver-input type. perfbench/tracing.py patches
# ``pvcg.model.EconomyView.__init__``, so the name stays bound.
EconomyView = Economy


# ---------------------------------------------------------------------------
# evaluation operations
# ---------------------------------------------------------------------------


def value_rows(valuation, accepted: Array, thetas) -> Array:
    """Total consumer value of ``(..., n, dim)`` profiles at valuation types that broadcast to ``(..., m)``.

    A built-in family takes all rows in one ``value_rows`` call; any other is
    asked ``value`` row by row, consumer by consumer, in order, and a NaN or
    infinite row raises, naming the family and the row.
    """
    if hasattr(valuation, "value_rows"):
        return valuation.value_rows(accepted, thetas)
    out = np.empty(accepted.shape[:-2])
    thetas = np.broadcast_to(thetas, out.shape + np.shape(thetas)[-1:])
    for k in np.ndindex(out.shape):
        out[k] = sum(valuation.value(accepted[k], float(t)) for t in thetas[k])
    return _finite_rows(valuation, "value", out, accepted)


def cost_rows(cost, bundles: Array, gammas) -> Array:
    """Each producer's cost: ``(..., dim)`` bundles at cost types that broadcast to ``(...)``.

    A built-in family takes all rows in one ``cost_rows`` call; any other is asked ``cost`` bundle by bundle, and a
    NaN or infinite cost raises, naming the family and the row.
    """
    if hasattr(cost, "cost_rows"):
        return cost.cost_rows(bundles, gammas)
    return _bundle_loop(cost, "cost", bundles, gammas)


def standalone_rows(valuation, bundles: Array, thetas) -> Array:
    """Each lone producer's value: ``(..., dim)`` bundles at valuation types that broadcast to ``(...)``.

    A built-in family takes all rows in one ``standalone_rows`` call; any other is asked ``standalone`` bundle by
    bundle, and a NaN or infinite value raises, naming the family and the row.
    """
    if hasattr(valuation, "standalone_rows"):
        return valuation.standalone_rows(bundles, thetas)
    return _bundle_loop(valuation, "standalone", bundles, thetas)


def _bundle_loop(family, method: str, bundles: Array, types) -> Array:
    """The fallback of ``cost_rows`` and ``standalone_rows``: ``family.<method>`` asked bundle by bundle."""
    out = np.empty(bundles.shape[:-1])
    types, scalar = np.broadcast_to(types, out.shape), getattr(family, method)
    for k in np.ndindex(out.shape):
        out[k] = scalar(bundles[k], float(types[k]))
    return _finite_rows(family, method, out, bundles)


def _finite_rows(family, method: str, out: Array, inputs: Array) -> Array:
    """``out`` of a fallback loop, or a ValueError naming the family and the first row whose value is NaN or inf."""
    bad = np.argwhere(~np.isfinite(out))
    if len(bad):
        row = tuple(int(i) for i in bad[0])
        raise ValueError(f"{type(family).__name__}.{method} must be finite, got {out[row]} at row {row} "
                         f"of {inputs[row].tolist()}")
    return out


def surplus_rows(valuation, cost, accepted: Array, gammas, thetas) -> Array:
    """Social surplus of ``(..., n, dim)`` profiles at ``(..., n)`` cost and ``(..., m)`` valuation types.

    Value less the producers' costs summed left to right from 0, the bits of the loop over producers
    (``np.sum`` would group n >= 9 costs in eight accumulators). Leading axes are a batch; the types broadcast.
    """
    return value_rows(valuation, accepted, thetas) - _sum_in_order(cost_rows(cost, accepted, gammas))


def _sum_in_order(rows: Array) -> Array:
    """The sum over the last axis, left to right from 0, as a loop over it (or Python's ``sum``) adds."""
    total = 0.0
    for i in range(rows.shape[-1]):
        total = total + rows[..., i]
    return total


def social_surplus(view, accepted) -> float:
    """Total consumer value minus total producer cost at the accepted profile, checked as the view's ``(n, dim)``
    capacities are (1-d input a column)."""
    name = "accepted quantities"
    (arr,) = _check_reports(_as_capacities(accepted, name), None, shape=(view.n, view.dim, view.m), names=(name,))
    return float(surplus_rows(view.valuation, view.cost, arr, view.cost_types, view.valuation_types))


# ---------------------------------------------------------------------------
# assumption checking
# ---------------------------------------------------------------------------


# the sampling box of check_assumptions: bundles in [0, 5]^dim, types in [0, 1]; and its tolerance
ASSUMPTION_CAP_HIGH = 5.0
ASSUMPTION_THETA_HIGH = 1.0
ASSUMPTION_GAMMA_HIGH = 1.0
ASSUMPTION_TOL = 1e-9
ASSUMPTIONS = ("monotonicity", "zero_input", "super_additivity", "cross_marginal")


@dataclass
class ProbeReport:
    """Trials run, violation witnesses, and the worst observed gap of a sampled check.

    ``count_name`` is the key ``to_dict`` gives the trial count under.
    """

    name: str
    trials: int
    violations: list = field(default_factory=list)
    max_gap: float = -math.inf
    count_name: str = "trials"

    @property
    def passed(self) -> bool:
        return not self.violations

    def record_all(self, gaps: Array, witness, tol: float) -> None:
        """Record every entry of ``gaps`` in order; ``witness(k)`` builds entry k's witness, for violations only."""
        _check_tol(tol)
        if gaps.size:
            # argmax takes the first of equal maxima, as repeated max() would
            self.max_gap = max(self.max_gap, float(gaps[np.argmax(gaps)]))
        for k in np.flatnonzero(gaps > tol):
            self.violations.append({**witness(int(k)), "gap": float(gaps[k])})

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            self.count_name: self.trials,
            "passed": self.passed,
            "violation_count": len(self.violations),
            "max_gap": self.max_gap,
            "witnesses": self.violations[:10],
        }


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
        return not any(getattr(self, name) for name in ASSUMPTIONS)

    def summary(self) -> dict:
        counts = {f"{name}_violations": len(getattr(self, name)) for name in ASSUMPTIONS}
        return {"samples": self.samples, "passed": self.passed, **counts}

    def to_dict(self) -> dict:
        return {**self.summary(), "witnesses": {name: getattr(self, name)[:10] for name in ASSUMPTIONS}}


def check_assumptions(valuation, cost, n: int, samples: int = 10_000, seed: int = 0, dim: int = 1) -> AssumptionReport:
    """Sample random profiles and report violations of the structural assumptions.

    Checked per sample:

    1. monotonicity of the valuation in every resource coordinate and in
       theta, and of the cost in the bundle and in gamma;
    2. zero-input neutrality: a zero bundle contributes nothing to the value
       and costs nothing;
    3. super-additivity: joint value at least the sum of lone-producer values;
    4. decreasing cross marginal returns: producer i's marginal value shrinks
       when the others contribute more.

    Each quantity is drawn once, as an array over the samples, and each set of
    profiles valued in one ``value_rows``, ``cost_rows`` or ``standalone_rows``.
    Violations are report entries (with witnesses, by sample, then by check),
    never exceptions; a custom family's NaN or infinite value raises, naming it.
    """
    for name, count in (("n", n), ("dim", dim), ("samples", samples)):
        _check_count(name, count)
    _check_count("seed", seed, least=0)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, ASSUMPTION_CAP_HIGH, size=(samples, n, dim))
    x_small = x * rng.uniform(0.0, 1.0, size=(samples, n, dim))
    theta = rng.uniform(0.0, ASSUMPTION_THETA_HIGH, samples)
    gamma = rng.uniform(0.0, ASSUMPTION_GAMMA_HIGH, samples)
    i = rng.integers(n, size=samples)
    bump = rng.uniform(0.0, ASSUMPTION_CAP_HIGH, samples)
    d = rng.integers(dim, size=samples)
    theta_up = theta + rng.uniform(0.0, ASSUMPTION_THETA_HIGH, samples)
    gamma_up = gamma + rng.uniform(0.0, ASSUMPTION_GAMMA_HIGH, samples)
    t, tol = np.arange(samples), ASSUMPTION_TOL

    def value(profiles, thetas=theta):
        return value_rows(valuation, profiles, thetas[:, None])

    def with_row_i(profiles, rows):
        out = profiles.copy()
        out[t, i] = rows
        return out

    x_up = x.copy()
    x_up[t, i, d] += bump
    v0, x_i = value(x), x[t, i]
    c0 = cost_rows(cost, x_i, gamma)
    x_removed = x[np.arange(n) != i[:, None]].reshape(samples, n - 1, dim)
    solo_sum = _sum_in_order(standalone_rows(valuation, x, theta[:, None]))
    # producer i's marginal value beside the others' x and beside their x_small (x >= x_small componentwise)
    lhs = v0 - value(with_row_i(x, x_small[t, i]))
    rhs = value(with_row_i(x_small, x_i)) - value(x_small)
    # (assumption, kind or None, violated per sample, witness fields), in recording order
    checks = [
        ("monotonicity", "valuation/x", value(x_up) < v0 - tol, ("x", "theta")),
        ("monotonicity", "valuation/theta", value(x, theta_up) < v0 - tol, ("x", "theta")),
        ("monotonicity", "cost/x", cost_rows(cost, x_up[t, i], gamma) < c0 - tol, ("x_i", "gamma")),
        ("monotonicity", "cost/gamma", cost_rows(cost, x_i, gamma_up) < c0 - tol, ("x_i", "gamma")),
        ("zero_input", "valuation", np.abs(value(with_row_i(x, 0.0)) - value(x_removed)) > tol, ("x", "i", "theta")),
        ("zero_input", "cost", np.abs(cost_rows(cost, np.zeros((samples, dim)), gamma)) > tol, ("gamma",)),
        ("super_additivity", None, v0 < solo_sum - tol, ("x", "theta", "joint", "solo_sum")),
        ("cross_marginal", None, lhs > rhs + tol, ("i", "x", "x_small", "theta", "gap")),
    ]
    columns = {"x": x, "x_i": x_i, "x_small": x_small, "i": i, "theta": theta, "gamma": gamma,
               "joint": v0, "solo_sum": solo_sum, "gap": lhs - rhs}
    report = AssumptionReport(samples=samples)
    for k, check in zip(*np.nonzero(np.stack([violated for _, _, violated, _ in checks], axis=1))):
        name, kind, _, keys = checks[check]
        witness = {"sample": int(k)} if kind is None else {"sample": int(k), "kind": kind}
        getattr(report, name).append({**witness, **{key: columns[key][k].tolist() for key in keys}})
    return report


# ---------------------------------------------------------------------------
# serialization (JSON schema documented in the README)
# ---------------------------------------------------------------------------


def _to_plain(value):
    if is_dataclass(value):
        return fields_to_dict(value)
    if isinstance(value, (tuple, list)):
        return [_to_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _from_plain(hint, value):
    if is_dataclass(hint):
        return fields_from_dict(hint, value)
    origin = get_origin(hint) or hint
    if origin is tuple:
        return tuple(value)
    if origin is np.ndarray:
        return np.asarray(value, dtype=float)
    return value


def fields_to_dict(obj) -> dict:
    """Every field of dataclass ``obj`` in declaration order, as JSON-ready values.

    Nested dataclasses become dicts; tuples, lists and arrays become lists.
    """
    return {f.name: _to_plain(getattr(obj, f.name)) for f in fields(obj)}


def fields_from_dict(cls, doc: dict):
    """Build dataclass ``cls`` from a ``fields_to_dict`` document; missing keys take the defaults.

    Values are converted back by the field annotations (nested dataclass,
    tuple, array). An unknown key is a ``ValueError`` that names it.
    """
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(map(str, unknown))}")
    hints = get_type_hints(cls)
    return cls(**{name: _from_plain(hints[name], value) for name, value in doc.items()})


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
    caps = _as_capacities(doc["capacities"], "capacities")  # for the producer count; the constructor checks the rest
    n = int(doc.get("n", _producer_count(caps, "capacities")))
    if caps.shape[0] != n:
        raise ValueError("economy document: capacities length disagrees with n")
    vfam = doc.get("valuation_family", {"tag": "sqrt_sum"})
    cfam = doc.get("cost_family", {"tag": "linear"})
    valuation = make_valuation(vfam["tag"], scale=float(vfam.get("scale", n)))
    economy = Economy(caps, doc["cost_types"], doc["valuation_types"], valuation, make_cost(cfam["tag"]))
    if economy.m != int(doc.get("m", economy.m)):
        raise ValueError("economy document: valuation_types length disagrees with m")
    return economy


def save_economy(economy: Economy, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(economy_to_dict(economy), fh, indent=2)
        fh.write("\n")


def load_economy(path) -> Economy:
    with open(path, "r", encoding="utf-8") as fh:
        return economy_from_dict(json.load(fh))


def bids_from_dict(doc: dict) -> BidProfile:
    return BidProfile(doc["capacities"], doc["cost_types"], doc["valuation_types"])
