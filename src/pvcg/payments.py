"""PVCG payments: the VCG term, adjustment payments, punishment, and coalition accounting.

The total payment to producer ``i`` is ``p_i = tau_i + h_i`` where ``tau_i``
is the classic pivot term computed from the solved allocation and its
producer-removed counterfactual, and ``h_i`` is an adjustment that never reads
producer ``i``'s own report. A producer whose accepted quantity exceeds its
true capacity cannot deliver and is paid ``-P`` instead (it delivers nothing
and bears no cost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .allocation import AllocationResult, _replaced, _solve
from .model import BidProfile, Economy, _check_entries, _check_reports, cost_rows, value_rows

Array = np.ndarray

__all__ = [
    "ZeroAdjustment",
    "PaymentBreakdown",
    "vcg_tau",
    "tau_for_producer",
    "deviation_utilities",
    "total_payment",
    "payments_batch",
]

TAU_FORM_TOL = 1e-8
# relative slack so float dust in eta never triggers the punishment branch
_PUNISH_GUARD = 1e-9


class ZeroAdjustment:
    """The trivial adjustment h_i = 0."""

    def all_producers(self, capacities, gammas, thetas) -> Array:
        return self._rows(*_check_reports(capacities, gammas, thetas))

    def _rows(self, caps: Array, gammas: Array, thetas: Array) -> Array:
        return np.zeros(gammas.shape)


@dataclass(frozen=True)
class PaymentBreakdown:
    """Per-producer payment decomposition plus coalition-level accounting.

    ``surplus``, ``counterfactual_surpluses``, ``accepted`` and ``delivered``
    are carried along for verification; they are byproducts of computing tau.
    The shapes are those of one auction; ``payments_batch`` returns the same
    fields with a leading economy axis (the floats become ``(T,)`` arrays).
    """

    tau: Array                      # (n,) pivot payments
    adjustment: Array               # (n,) h_i values
    total: Array                    # (n,) p_i (== -P when punished)
    utilities: Array                # (n,) p_i - true cost of the accepted bundle; -P when punished
    coalition_income: float         # total consumer value at delivered quantities
    budget_slack: float             # income - sum of payments
    punished: Array                 # (n,) bool
    surplus: float                  # S* of the reported economy
    counterfactual_surpluses: Array  # (n,) S*_{-i}
    accepted: Array                 # (n, dim)
    delivered: Array                # (n, dim) zero rows for punished producers


def _check_punishment(punishment: float) -> None:
    if not (math.isfinite(punishment) and punishment > 0):
        raise ValueError(f"punishment must be positive and finite, got {punishment}")


def _punished_mask(accepted: Array, true_capacities: Array) -> Array:
    """Bundles ``(..., dim)`` accepted beyond the true capacity in any coordinate."""
    guard = _PUNISH_GUARD * (1.0 + np.abs(true_capacities))
    return (accepted > true_capacities + guard).any(axis=-1)


def _pivot(surplus, removed_surplus, own_costs: Array) -> Array:
    """Pivot payments ``S* - S*_{-i} + c_i(x_i)`` from the reported costs ``c_i(x_i)`` of the accepted bundles."""
    return surplus - removed_surplus + own_costs


def _settle(true_capacities, true_gammas, reported_costs, cost, accepted, surplus, removed_surplus, h, punishment):
    """``deviation_utilities``'s rule: the pivot payments, punished masks, total payments and utilities.

    ``reported_costs`` are the producers' costs of their accepted bundles at their reported cost types.
    """
    tau = _pivot(surplus, removed_surplus, reported_costs)
    punished = _punished_mask(accepted, true_capacities)
    total = np.where(punished, -punishment, tau + h)
    return tau, punished, total, np.where(punished, -punishment, total - cost_rows(cost, accepted, true_gammas))


def deviation_utilities(
    true_capacities: Array,
    true_gammas: Array,
    reported_gammas: Array,
    cost,
    accepted: Array,
    surplus: Array,
    removed_surplus: Array,
    h: Array,
    punishment: float,
) -> tuple[Array, Array]:
    """Utilities and pivot payments of one producer per row from its solved reported problems.

    Row by row: the producer's true ``(..., dim)`` capacity and true and
    reported cost types, its accepted bundle and the surplus of the reported
    problem, the surplus of the problem without it, and its adjustment ``h``.
    A producer accepted beyond its true capacity is paid ``-punishment`` and
    delivers nothing; otherwise it earns ``tau + h`` minus its true cost of
    the accepted bundle. ``payments_batch`` prices every producer by this rule.
    """
    _check_punishment(punishment)
    tau, _, _, utility = _settle(
        true_capacities, true_gammas, cost_rows(cost, accepted, reported_gammas), cost, accepted, surplus,
        removed_surplus, h, punishment,
    )
    return utility, tau


def tau_for_producer(view: Economy, full: AllocationResult, removed: AllocationResult, i: int) -> float:
    """Pivot payment for one producer from the solved full and removed problems."""
    return float(_pivot(full.surplus, removed.surplus, cost_rows(view.cost, full.accepted[i], view.cost_types[i])))


def _check_tau_forms(taus, costs, values) -> None:
    """Raise unless every pivot payment ``taus`` matches its expansion within ``TAU_FORM_TOL``.

    ``costs`` ``(..., n+1, n)`` and ``values`` ``(..., n+1)`` are the producers' costs and the consumers' value of a
    solved stack: row 0 the full allocation, row 1+i the i-removed one with a zero bundle in producer i's slot. The
    expansion of producer i is the value difference between rows 0 and 1+i minus the others' cost difference.
    Leading axes are a batch of economies. The first producer whose forms disagree is named, with its economy in a
    batch of several.
    """
    costs_full = costs[..., 0, :]
    others_cost_full = costs_full.sum(axis=-1, keepdims=True) - costs_full
    others_cost_removed = costs[..., 1:, :].sum(axis=-1)
    expanded = (values[..., :1] - values[..., 1:]) - (others_cost_full - others_cost_removed)
    disagree = np.abs(taus - expanded) > TAU_FORM_TOL
    if disagree.any():
        where = tuple(np.argwhere(disagree)[0])
        economy = f" of economy {where[0]}" if taus.ndim > 1 and len(taus) > 1 else ""
        raise RuntimeError(
            f"pivot payment forms disagree for producer {where[-1]}{economy}: "
            f"{float(taus[where])!r} vs {float(expanded[where])!r}"
        )


def vcg_tau(view: Economy, allocation: AllocationResult, counterfactuals: list[AllocationResult]) -> Array:
    """Pivot payments tau_i = S* - S*_{-i} + c_i(accepted_i) of the solved full and removed problems.

    Counterfactual i, of the n-1 producers but i, is embedded with a zero bundle in slot i and stacked under the
    full allocation for the expansion of ``_check_tau_forms``, which must agree within ``TAU_FORM_TOL``;
    disagreement raises.
    """
    if len(counterfactuals) != view.n:
        raise ValueError(f"expected {view.n} counterfactual allocations, got {len(counterfactuals)}")
    removed = [np.insert(r.accepted, i, 0.0, axis=0) for i, r in enumerate(counterfactuals)]
    solved = np.stack([allocation.accepted, *removed])
    removed_surpluses = np.array([r.surplus for r in counterfactuals])
    costs = cost_rows(view.cost, solved, view.cost_types)
    taus = _pivot(allocation.surplus, removed_surpluses, costs[0])
    _check_tau_forms(taus, costs, value_rows(view.valuation, solved, view.valuation_types))
    return taus


def total_payment(
    economy: Economy,
    bids: BidProfile | None = None,
    adjustment=None,
    punishment: float = 1e6,
    method: str | None = None,
) -> PaymentBreakdown:
    """Run the payment stage of the auction on the given bids.

    Solves the acceptance problem and all counterfactuals on the reported
    parameters, prices every producer at ``tau_i + h_i``, and applies the
    punishment ``-P`` to producers whose accepted quantity exceeds their true
    capacity in any coordinate. Utilities follow ``deviation_utilities``
    (punished producers deliver nothing and bear no cost); coalition income
    is the total true-type consumer value of the delivered profile. The
    auction is priced as a batch of one of ``payments_batch``.
    """
    _check_punishment(punishment)
    batch = _price(
        economy.capacities[None], economy.cost_types[None], economy.valuation_types[None],
        *(report[None] for report in economy._reports(bids)), economy.valuation, economy.cost, adjustment, punishment,
        method,
    )
    row = {name: getattr(batch, name)[0] for name in _FIELDS}
    return PaymentBreakdown(**{**row, **{name: float(row[name]) for name in _SCALAR_FIELDS}})


def payments_batch(
    capacities,
    cost_types,
    valuation_types,
    valuation,
    cost,
    reported_capacities=None,
    reported_cost_types=None,
    adjustment=None,
    punishment: float = 1e6,
    method: str | None = None,
) -> PaymentBreakdown:
    """The payment stage of a batch of auctions with shared families.

    True capacities are ``(T, n, dim)``, true cost types ``(T, n)`` and
    valuation types ``(T, m)``; the reported capacities and cost types have
    the same shapes and default to the truth. Returns the
    ``PaymentBreakdown`` fields with a leading economy axis: ``(T, n)`` tau,
    adjustment, total, utilities, punished and counterfactual surpluses,
    ``(T, n, dim)`` accepted and delivered quantities, and ``(T,)`` surplus,
    coalition income and budget slack. Row t has the bits of
    ``total_payment`` on economy t and its bids.
    """
    _check_punishment(punishment)
    caps, gammas, thetas = _check_reports(capacities, cost_types, valuation_types)
    bid_caps, bid_gammas = caps, gammas  # a report left out is the truth, scanned once above
    if reported_capacities is not None:
        bid_caps = _check_entries(np.asarray(reported_capacities, dtype=float), "reported capacities")
    if reported_cost_types is not None:
        bid_gammas = _check_entries(np.asarray(reported_cost_types, dtype=float), "reported cost types")
    if caps.ndim != 3 or thetas.ndim != 2 or thetas.shape[0] != caps.shape[0]:
        raise ValueError(
            f"expected (T, n, dim) capacities, (T, n) cost types and (T, m) valuation types, got shapes "
            f"{caps.shape}, {gammas.shape} and {thetas.shape}"
        )
    if bid_caps.shape != caps.shape or bid_gammas.shape != gammas.shape:
        raise ValueError("reported capacities and cost types must have the shapes of the true ones")
    if caps.shape[1] < 1 or thetas.shape[1] < 1:
        raise ValueError("an economy needs at least one producer and one consumer")
    return _price(caps, gammas, thetas, bid_caps, bid_gammas, thetas, valuation, cost, adjustment, punishment, method)


_FIELDS = tuple(f.name for f in fields(PaymentBreakdown))
_SCALAR_FIELDS = ("surplus", "coalition_income", "budget_slack")


def _price(caps, gammas, thetas, bid_caps, bid_gammas, bid_thetas, valuation, cost, adjustment, punishment, method):
    """``payments_batch`` of checked true and reported economies, their ``(n+1, n, dim)`` stacks in one ``_solve``.

    Row 0 is the reported economy and row 1+i the same with producer i's capacity zeroed, its cost type kept so
    the slot sorts as in row 0: a producer left out of the allocation gets ``S*_{-i} == S*`` bit for bit.
    """
    solved, surpluses = _solve(
        *_replaced(bid_caps, bid_gammas, 0.0, bid_gammas, first=1), bid_thetas[..., None, :], valuation, cost, method
    )
    accepted, surplus, removed_surpluses = solved[..., 0, :, :], surpluses[..., 0], surpluses[..., 1:]
    # an adjustment is any object with ``all_producers``; the package's own skip its check in ``_rows``
    adjustments = np.zeros(bid_gammas.shape) if adjustment is None else getattr(
        adjustment, "_rows", adjustment.all_producers
    )(bid_caps, bid_gammas, bid_thetas)
    # the reported costs and values of the whole solved stack: row 0 prices, and every row checks the pivot forms
    costs = cost_rows(cost, solved, bid_gammas[..., None, :])
    taus, punished, totals, utilities = _settle(
        caps, gammas, costs[..., 0, :], cost, accepted, surplus[..., None], removed_surpluses, adjustments, punishment
    )
    _check_tau_forms(taus, costs, value_rows(valuation, solved, bid_thetas[..., None, :]))
    delivered = np.where(punished[..., None], 0.0, accepted)
    income = value_rows(valuation, delivered, thetas)
    return PaymentBreakdown(
        tau=taus,
        adjustment=adjustments,
        total=totals,
        utilities=utilities,
        coalition_income=income,
        budget_slack=income - totals.sum(axis=-1),
        punished=punished,
        surplus=surplus,
        counterfactual_surpluses=removed_surpluses,
        accepted=accepted,
        delivered=delivered,
    )
