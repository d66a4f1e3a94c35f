"""PVCG payments: the VCG term, adjustment payments, punishment, and coalition accounting.

The total payment to producer ``i`` is ``p_i = tau_i + h_i`` where ``tau_i``
is the classic pivot term computed from the solved allocation and its
producer-removed counterfactual, and ``h_i`` is an adjustment that never reads
producer ``i``'s own report. A producer whose accepted quantity exceeds its
true capacity cannot deliver and is paid ``-P`` instead (it delivers nothing
and bears no cost).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjustment import AnalyticAdjustment
from .allocation import (
    AllocationResult,
    analytic_waterfill,
    counterfactual_surplus,
    optimize_acceptance,
    solve_with_counterfactuals,
    waterfill_applies,
    waterfill_removed,
)
from .model import BidProfile, Economy, total_valuation

Array = np.ndarray

__all__ = [
    "ZeroAdjustment",
    "PaymentBreakdown",
    "vcg_tau",
    "tau_for_producer",
    "adjustment_for",
    "utility_from_solves",
    "total_payment",
    "producer_utility",
]

TAU_FORM_TOL = 1e-8
# relative slack so float dust in eta never triggers the punishment branch
_PUNISH_GUARD = 1e-9


class ZeroAdjustment:
    """The trivial adjustment h_i = 0."""

    def __call__(self, i: int, capacities_others, gammas_others, thetas) -> float:
        return 0.0


@dataclass(frozen=True)
class PaymentBreakdown:
    """Per-producer payment decomposition plus coalition-level accounting.

    ``surplus``, ``counterfactual_surpluses``, ``accepted`` and ``delivered``
    are carried along for verification; they are byproducts of computing tau.
    """

    tau: Array                      # (n,) pivot payments
    adjustment: Array               # (n,) h_i values
    total: Array                    # (n,) p_i (== -P when punished)
    utilities: Array                # (n,) p_i - cost at delivered quantity, true cost type
    coalition_income: float         # total consumer value at delivered quantities
    budget_slack: float             # income - sum of payments
    punished: Array                 # (n,) bool
    surplus: float                  # S* of the reported economy
    counterfactual_surpluses: Array  # (n,) S*_{-i}
    accepted: Array                 # (n, dim)
    delivered: Array                # (n, dim) zero rows for punished producers


def _punished_mask(accepted: Array, true_capacities: Array) -> Array:
    guard = _PUNISH_GUARD * (1.0 + np.abs(true_capacities))
    return (accepted > true_capacities + guard).any(axis=1)


def tau_for_producer(view: Economy, full: AllocationResult, removed: AllocationResult, i: int) -> float:
    """Pivot payment for one producer from the solved full and removed problems."""
    own_cost = view.cost.cost(full.accepted[i], float(view.cost_types[i]))
    return full.surplus - removed.surplus + own_cost


def _check_tau_forms(taus, value_full, value_removed, costs_full, others_cost_removed, check_tol) -> None:
    """Raise unless every direct pivot payment matches its expansion within ``check_tol``.

    The expansion of producer i is the value difference between the full and
    the i-removed allocation minus the others' cost difference; arguments
    other than ``value_full`` are ``(n,)`` arrays. The first producer whose
    forms disagree is named.
    """
    others_cost_full = costs_full.sum() - costs_full
    expanded = (value_full - value_removed) - (others_cost_full - others_cost_removed)
    bad = np.flatnonzero(np.abs(taus - expanded) > check_tol)
    if bad.size:
        i = int(bad[0])
        raise RuntimeError(
            f"pivot payment forms disagree for producer {i}: {float(taus[i])!r} vs {float(expanded[i])!r}"
        )


def vcg_tau(
    view: Economy,
    allocation: AllocationResult,
    counterfactuals: list[AllocationResult],
    check_tol: float = TAU_FORM_TOL,
) -> Array:
    """Pivot payments tau_i = S* - S*_{-i} + c_i(accepted_i).

    The equivalent expansion (value difference minus the others' cost
    difference between the two allocations) is computed alongside and the two
    must agree within ``check_tol``; disagreement indicates an inconsistent
    counterfactual and raises.
    """
    n = view.n
    if len(counterfactuals) != n:
        raise ValueError(f"expected {n} counterfactual allocations, got {len(counterfactuals)}")
    accepted = allocation.accepted
    costs_full = np.array(
        [view.cost.cost(accepted[k], float(g)) for k, g in enumerate(view.cost_types)]
    )
    # the direct form, tau_for_producer with the own cost read from costs_full
    taus = allocation.surplus - np.array([r.surplus for r in counterfactuals]) + costs_full
    value_removed = np.empty(n)
    others_cost_removed = np.empty(n)
    for i, removed in enumerate(counterfactuals):
        embedded = np.insert(removed.accepted, i, 0.0, axis=0)
        value_removed[i] = total_valuation(view, embedded)
        others_cost_removed[i] = float(
            sum(view.cost.cost(embedded[k], float(view.cost_types[k])) for k in range(n) if k != i)
        )
    _check_tau_forms(
        taus, total_valuation(view, accepted), value_removed, costs_full, others_cost_removed, check_tol
    )
    return taus


def _waterfill_taus(view: Economy) -> tuple[AllocationResult, Array, Array]:
    """The full water-fill, the removed surpluses and the pivot payments, every producer at once.

    Bit-equal to ``solve_with_counterfactuals`` followed by ``vcg_tau``; the
    removed problems come from one kernel call and the two-form check runs on
    the whole vector.
    """
    full = analytic_waterfill(view)
    embedded, removed_surpluses = waterfill_removed(view)
    accepted = full.accepted[:, 0]
    costs_full = view.cost_types * accepted
    taus = full.surplus - removed_surpluses + costs_full
    _check_tau_forms(
        taus,
        view.valuation.value_rows(accepted, view.valuation_types),
        view.valuation.value_rows(embedded, view.valuation_types),
        costs_full,
        # column i of row i is zero, so adding its term leaves the running sum as it was
        view.cost.cost_rows(embedded, view.cost_types),
        TAU_FORM_TOL,
    )
    return full, removed_surpluses, taus


def adjustment_for(adjustment, view: Economy, i: int) -> float:
    """Producer ``i``'s adjustment under the reports in ``view``; it reads only the others' reports."""
    keep = [k for k in range(view.n) if k != i]
    return float(adjustment(i, view.capacities[keep], view.cost_types[keep], view.valuation_types))


def _adjustments(adjustment, view: Economy) -> Array:
    """Every producer's adjustment under the reports in ``view``.

    An analytic adjustment prices all producers in one batch, bit-equal to
    ``adjustment_for``; any other is asked producer by producer.
    """
    if isinstance(adjustment, AnalyticAdjustment):
        return adjustment.all_producers(view.capacities, view.cost_types, view.valuation_types)
    return np.array([adjustment_for(adjustment, view, i) for i in range(view.n)])


def utility_from_solves(
    economy: Economy,
    view: Economy,
    full: AllocationResult,
    removed: AllocationResult,
    i: int,
    h: float,
    punishment: float,
) -> tuple[float, float]:
    """Utility and pivot payment of producer ``i`` from the solved reported problems.

    ``view`` is the reported economy ``full`` was solved on, ``removed`` its
    producer-``i``-removed solution, ``economy`` the truth and ``h`` the
    producer's adjustment. A producer accepted beyond its true capacity is
    paid ``-punishment`` and delivers nothing; otherwise it earns
    ``tau + h`` minus its true cost of the accepted quantity.
    """
    tau = tau_for_producer(view, full, removed, i)
    accepted_i = full.accepted[i]
    if _punished_mask(accepted_i[None, :], economy.capacities[i][None, :])[0]:
        return -punishment, tau
    return tau + h - economy.cost.cost(accepted_i, float(economy.cost_types[i])), tau


def total_payment(
    economy: Economy,
    bids: BidProfile | None = None,
    adjustment=None,
    punishment: float = 1e6,
    method: str | None = None,
    seed: int = 0,
) -> PaymentBreakdown:
    """Run the payment stage of the auction on the given bids.

    Solves the acceptance problem and all counterfactuals on the reported
    parameters, prices every producer at ``tau_i + h_i``, and applies the
    punishment ``-P`` to producers whose accepted quantity exceeds their true
    capacity in any coordinate. Utilities are evaluated at the true cost type
    and the delivered quantity (punished producers deliver nothing);
    coalition income is the total true-type consumer value of the delivered
    profile. A water-fill economy is priced with array operations over all
    producers, bit-identical to the per-producer path every other case takes.
    """
    if not punishment > 0:
        raise ValueError("punishment must be positive")
    if adjustment is None:
        adjustment = ZeroAdjustment()
    view = economy.view(bids)
    waterfill = waterfill_applies(view.valuation, view.cost, view.dim, method)
    if waterfill:
        full, removed_surpluses, taus = _waterfill_taus(view)
        adjustments = _adjustments(adjustment, view)
    else:
        full, removed = solve_with_counterfactuals(view, method=method, seed=seed)
        taus = vcg_tau(view, full, removed)
        adjustments = np.array([adjustment_for(adjustment, view, i) for i in range(view.n)])
        removed_surpluses = np.array([r.surplus for r in removed])

    accepted = full.accepted
    punished = _punished_mask(accepted, economy.capacities)
    totals = np.where(punished, -punishment, taus + adjustments)
    delivered = np.where(punished[:, None], 0.0, accepted)
    if waterfill:
        true_costs = economy.cost_types * delivered[:, 0]
        income = float(economy.valuation.value_rows(delivered[:, 0], economy.valuation_types))
    else:
        true_costs = np.array(
            [economy.cost.cost(delivered[k], float(g)) for k, g in enumerate(economy.cost_types)]
        )
        income = float(
            sum(economy.valuation.value(delivered, float(t)) for t in economy.valuation_types)
        )
    utilities = totals - true_costs
    return PaymentBreakdown(
        tau=taus,
        adjustment=adjustments,
        total=totals,
        utilities=utilities,
        coalition_income=income,
        budget_slack=float(income - totals.sum()),
        punished=punished,
        surplus=full.surplus,
        counterfactual_surpluses=removed_surpluses,
        accepted=accepted,
        delivered=delivered,
    )


def producer_utility(
    economy: Economy,
    bids: BidProfile,
    producer: int,
    adjustment=None,
    punishment: float = 1e6,
    method: str | None = None,
    seed: int = 0,
) -> tuple[float, float]:
    """Utility and pivot payment of one producer under the given bids.

    Cheaper than ``total_payment`` when only one producer matters (two solves
    instead of n+1).
    """
    if adjustment is None:
        adjustment = ZeroAdjustment()
    view = economy.view(bids)
    full = optimize_acceptance(view, method=method, seed=seed)
    removed = counterfactual_surplus(view, producer, method=method, seed=seed)
    h = adjustment_for(adjustment, view, producer)
    return utility_from_solves(economy, view, full, removed, producer, h, punishment)
