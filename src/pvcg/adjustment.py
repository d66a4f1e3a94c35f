"""Closed-form adjustment payments from prior-support extremes, plus feasibility checks.

The constructive adjustment prices producer ``i`` as if it had the least
favorable type in the coordinator's prior: capacity at the support minimum and
cost type at the support maximum. It therefore never reads producer ``i``'s
own report, which is what keeps the total payment truthful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import _batch_surpluses, _max_surplus, _replaced, _replaced_mask, waterfill_applies
from .model import (
    ProbeReport, _check_count, _check_layout, _check_reports, _check_tol, _set_profile, fields_from_dict,
    fields_to_dict,
)

Array = np.ndarray

__all__ = [
    "PriorSupport",
    "analytic_adjustment",
    "AnalyticAdjustment",
    "feasibility_penalties",
    "existence_check",
    "marginal_gains_check",
]


@dataclass(frozen=True)
class PriorSupport:
    """Box support of the coordinator's prior over true parameters.

    Per-producer capacity bounds, per-producer cost-type bounds, per-consumer
    valuation-type bounds, all finite with 0 <= lo <= hi. The prior is uniform on
    the box.
    """

    cap_lo: Array    # (n, dim)
    cap_hi: Array    # (n, dim)
    gamma_lo: Array  # (n,)
    gamma_hi: Array  # (n,)
    theta_lo: Array  # (m,)
    theta_hi: Array  # (m,)

    def __post_init__(self):
        # each side of the box is checked as the profile of reports it bounds
        for side in ("_lo", "_hi"):
            names = ("cap" + side, "gamma" + side, "theta" + side)
            _set_profile(self, names, names)
        for lo, hi, name in (
            (self.cap_lo, self.cap_hi, "capacity"),
            (self.gamma_lo, self.gamma_hi, "cost-type"),
            (self.theta_lo, self.theta_hi, "valuation-type"),
        ):
            if lo.shape != hi.shape:
                raise ValueError(f"{name} bounds have mismatched shapes")
            if (lo > hi).any():
                raise ValueError(f"{name} lower bounds exceed upper bounds")

    @property
    def n(self) -> int:
        return self.cap_lo.shape[0]

    @property
    def m(self) -> int:
        return self.theta_lo.shape[0]

    @property
    def dim(self) -> int:
        return self.cap_lo.shape[1]

    @classmethod
    def uniform_box(
        cls,
        n: int,
        m: int,
        cap: tuple[float, float] = (0.0, 5.0),
        gamma: tuple[float, float] = (0.0, 1.0),
        theta: tuple[float, float] = (0.0, 1.0),
        dim: int = 1,
    ) -> "PriorSupport":
        return cls(
            cap_lo=np.full((n, dim), cap[0]),
            cap_hi=np.full((n, dim), cap[1]),
            gamma_lo=np.full(n, gamma[0]),
            gamma_hi=np.full(n, gamma[1]),
            theta_lo=np.full(m, theta[0]),
            theta_hi=np.full(m, theta[1]),
        )

    def to_dict(self) -> dict:
        return fields_to_dict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "PriorSupport":
        return fields_from_dict(cls, doc)


def sample_from(support: PriorSupport, count: int, rng) -> tuple[Array, Array, Array]:
    """Draw ``count`` i.i.d. parameter triples, uniform on the box, using an existing generator.

    Each box is one ``rng.random`` call mapped as ``lo + (hi - lo) * u``, the formula and stream of ``rng.uniform``.
    """
    s = support
    return tuple(lo + (hi - lo) * rng.random((count,) + lo.shape)
                 for lo, hi in ((s.cap_lo, s.cap_hi), (s.gamma_lo, s.gamma_hi), (s.theta_lo, s.theta_hi)))


# ---------------------------------------------------------------------------
# constructive adjustment
# ---------------------------------------------------------------------------


def _full_profile(support: PriorSupport, i: int, capacities_others, gammas_others, thetas):
    """The full profile on which producer ``i``'s adjustment is entry ``i`` of an adjustment's rows.

    The others' ``(n-1, dim)`` capacities and ``(n-1,)`` cost types and the ``(m,)`` valuation types are checked,
    and producer ``i``'s support extremes (minimum capacity, maximum cost type) fill slot ``i``, where no
    adjustment reads them.
    """
    if not 0 <= i < support.n:
        raise IndexError(f"producer index {i} out of range for n={support.n}")
    caps, gammas, thetas = _check_reports(
        capacities_others, gammas_others, thetas, shape=(support.n - 1, support.dim, support.m),
        names=("others' capacities", "others' cost types", "valuation types"),
    )
    return np.insert(caps, i, support.cap_lo[i], axis=0), np.insert(gammas, i, support.gamma_hi[i]), thetas


def _one_producer(adjustment, i: int, capacities_others, gammas_others, thetas) -> float:
    """Producer ``i``'s adjustment from the others' reports: entry ``i`` of the adjustment's rows on the full profile."""
    reports = _full_profile(adjustment.support, i, capacities_others, gammas_others, thetas)
    return float(adjustment._rows(*reports)[i])


def _replacements(support: PriorSupport, solved: Array) -> tuple[Array, Array, Array, Array]:
    """``_replaced``'s capacities, cost types and mask for the k ``solved`` producers, and the producers: row j has the
    j-th of them at its support extremes, row k+j at zero capacity, both at its ``gamma_hi``."""
    cap_lo, slots = support.cap_lo[solved], np.tile(solved, 2)
    rows = np.arange(len(slots)), slots
    mask = np.zeros((len(slots), support.n), dtype=bool)
    caps, gammas = np.zeros(mask.shape + (support.dim,)), np.zeros(mask.shape)
    mask[rows] = True
    caps[rows] = np.concatenate([cap_lo, 0.0 * cap_lo])
    gammas[rows] = support.gamma_hi[slots]
    return caps, gammas, mask, solved


@dataclass(frozen=True)
class AnalyticAdjustment:
    """Callable adjustment model wrapping the constructive formula ``-(S_pessimistic - S_without_i)``.

    A producer whose support minimum is zero in every coordinate is the same problem in both terms, so its
    adjustment is ``-0.0``, written without a solve. That is every producer of the shipped ``flagship`` and
    ``train_small`` configs and of the default capacity box ``(0, 5)``, which ``pvcg simulate`` prices on.
    """

    support: PriorSupport
    valuation: object
    cost: object
    method: str | None = None

    def __post_init__(self):
        # the method rule is checked here, since a profile whose every producer is skipped never reaches a solver
        waterfill_applies(self.valuation, self.cost, self.method)
        # the replacements of every solved producer, and of each producer alone (none when it is not solved)
        solved = np.flatnonzero(self.support.cap_lo.any(axis=-1))
        object.__setattr__(self, "_replacements", _replacements(self.support, solved))
        own = tuple(_replacements(self.support, solved[solved == i]) for i in range(self.support.n))
        object.__setattr__(self, "_own_replacements", own)

    def __call__(self, i: int, capacities_others, gammas_others, thetas) -> float:
        """Entry ``i`` of ``all_producers`` on producer ``i``'s full profile, solving only its own two rows."""
        reports = _full_profile(self.support, i, capacities_others, gammas_others, thetas)
        return float(self._rows(*reports, self._own_replacements[i])[i])

    def all_producers(self, capacities, gammas, thetas) -> Array:
        """``(..., n)`` adjustments of every producer from ``(..., n, dim)``, ``(..., n)`` and ``(..., m)`` reports.

        Leading axes are a batch. One ``_max_surplus`` call solves a ``(..., 2k, n, dim)`` stack for the k producers
        with a non-zero support minimum: row j has the j-th of them at its support extremes, row k+j at zero
        capacity, both at its ``gamma_hi``, so its entry reads only the others. Every other entry is ``-0.0``.
        """
        return self._rows(*_check_reports(capacities, gammas, thetas))

    def _rows(self, caps: Array, gammas: Array, thetas: Array, replacements=None) -> Array:
        """``all_producers`` of checked reports, which must only fit the support's layout; with ``replacements``
        (from ``_replacements``) only their producers are solved."""
        _check_layout(caps, gammas, thetas, self.support)
        adjustments = np.empty(gammas.shape)
        adjustments.fill(-0.0)
        cap, gamma, mask, solved = self._replacements if replacements is None else replacements
        k = len(solved)
        if k:
            rows = _replaced(caps, gammas, cap, gamma, mask)
            surpluses = _max_surplus(*rows, thetas[..., None, :], self.valuation, self.cost, self.method)
            adjustments[..., solved] = -(surpluses[..., :k] - surpluses[..., k:])
        return adjustments


def analytic_adjustment(
    support: PriorSupport,
    valuation,
    cost,
    i: int,
    capacities_others,
    gammas_others,
    thetas,
    method: str | None = None,
) -> float:
    """Adjustment for producer ``i`` given only the other participants' reports (see ``AnalyticAdjustment``)."""
    return AnalyticAdjustment(support, valuation, cost, method)(i, capacities_others, gammas_others, thetas)


# ---------------------------------------------------------------------------
# sampled feasibility checks
# ---------------------------------------------------------------------------


def _run_check(
    name: str,
    support: PriorSupport,
    valuation,
    cost,
    samples: int,
    seed: int,
    method,
    tol: float,
    pessimistic: bool,
) -> ProbeReport:
    """lhs - rhs of the feasibility inequality at every sample, recorded in a ``ProbeReport`` counting ``samples``.

    Problem i replaces producer i: ``pessimistic`` puts it at its support
    extremes, and the n replaced problems of every sample are solved in one
    ``_max_surplus`` call; otherwise its capacity is zeroed with its cost type
    kept (the zero-capacity form), and training's ``_batch_surpluses`` solves
    them. ``lhs`` adds them up producer by producer.
    """
    _check_count("samples", samples)
    _check_count("seed", seed, least=0)
    _check_tol(tol)
    caps, gammas, thetas = sample_from(support, samples, np.random.default_rng(seed))
    if pessimistic:
        s_full = _max_surplus(caps, gammas, thetas, valuation, cost, method)
        replaced = _replaced(caps, gammas, support.cap_lo, support.gamma_hi, _replaced_mask(support.n))
        s_replaced = _max_surplus(*replaced, thetas[:, None, :], valuation, cost, method)
    else:
        s_full, s_replaced = _batch_surpluses(valuation, cost, caps, gammas, thetas, method)
    lhs = np.zeros(samples)
    for i in range(support.n):
        lhs += s_full - s_replaced[:, i]
    gap = lhs - s_full

    def witness(k: int) -> dict:
        # the gap is written here so that it keeps its place, second, when record_all writes it again
        return {"sample": k, "gap": float(gap[k]), "lhs": float(lhs[k]), "surplus": float(s_full[k]),
                "capacities": caps[k].tolist(), "cost_types": gammas[k].tolist(), "valuation_types": thetas[k].tolist()}

    report = ProbeReport(name=name, trials=samples, count_name="samples")
    report.record_all(gap, witness, tol)
    return report


def feasibility_penalties(gains, adjustments, surpluses) -> tuple[Array, Array]:
    """Rationality and budget penalties of adjustments ``h`` on solved instances.

    ``gains`` holds the marginal surpluses ``S* - S*_{-i}`` and ``adjustments``
    the ``h_i``, producers on the last axis; ``surpluses`` holds ``S*``.
    Returns the per-producer rationality penalties
    ``max(-(S* - S*_{-i}) - h_i, 0)`` and the budget penalty
    ``max(sum_i (S* - S*_{-i} + h_i) - S*, 0)``. Both vanish exactly when
    every producer keeps a non-negative utility and the payments stay within
    the coalition income; the learner minimizes them and the probes certify
    them.
    """
    rationality = np.maximum(-gains - adjustments, 0.0)
    budget = np.maximum((gains + adjustments).sum(axis=-1) - surpluses, 0.0)
    return rationality, budget


def existence_check(
    support: PriorSupport,
    valuation,
    cost,
    samples: int = 10_000,
    seed: int = 0,
    method: str | None = None,
    tol: float = 1e-8,
) -> ProbeReport:
    """Sampled test of the feasibility inequality for the constructive adjustment.

    Checks ``sum_i [S* - S*(cap_i -> min, gamma_i -> max)] <= S*`` over prior
    draws. Zero violations mean the constructive adjustment delivers both
    non-negative producer utilities and a weakly balanced budget on the
    sampled support; violations are reported with witnesses, never raised.
    """
    return _run_check("existence", support, valuation, cost, samples, seed, method, tol, pessimistic=True)


def marginal_gains_check(
    support: PriorSupport,
    valuation,
    cost,
    samples: int = 10_000,
    seed: int = 0,
    method: str | None = None,
    tol: float = 1e-8,
) -> ProbeReport:
    """Sampled test of the zero-capacity form ``sum_i [S* - S*(cap_i -> 0)] <= S*``.

    This is the inequality guaranteed for super-additive families with
    decreasing cross marginal returns; it implies the existence check whenever
    the capacity support includes zero.
    """
    return _run_check("marginal_gains", support, valuation, cost, samples, seed, method, tol, pessimistic=False)
