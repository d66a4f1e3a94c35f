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

from .allocation import (
    AllocationResult,
    counterfactual_surplus,
    optimize_acceptance,
    solve_with_counterfactuals,
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
    value_full = total_valuation(view, accepted)
    costs_full = np.array(
        [view.cost.cost(accepted[k], float(g)) for k, g in enumerate(view.cost_types)]
    )
    taus = np.empty(n)
    for i in range(n):
        removed = counterfactuals[i]
        direct = allocation.surplus - removed.surplus + costs_full[i]
        embedded = np.insert(removed.accepted, i, 0.0, axis=0)
        value_removed = total_valuation(view, embedded)
        others_cost_full = float(costs_full.sum() - costs_full[i])
        others_cost_removed = float(
            sum(view.cost.cost(embedded[k], float(view.cost_types[k])) for k in range(n) if k != i)
        )
        expanded = (value_full - value_removed) - (others_cost_full - others_cost_removed)
        if abs(direct - expanded) > check_tol:
            raise RuntimeError(
                f"pivot payment forms disagree for producer {i}: {direct!r} vs {expanded!r}"
            )
        taus[i] = direct
    return taus


def adjustment_for(adjustment, view: Economy, i: int) -> float:
    """Producer ``i``'s adjustment under the reports in ``view``; it reads only the others' reports."""
    keep = [k for k in range(view.n) if k != i]
    return float(adjustment(i, view.capacities[keep], view.cost_types[keep], view.valuation_types))


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
    profile.
    """
    if not punishment > 0:
        raise ValueError("punishment must be positive")
    if adjustment is None:
        adjustment = ZeroAdjustment()
    view = economy.view(bids)
    full, removed = solve_with_counterfactuals(view, method=method, seed=seed)
    taus = vcg_tau(view, full, removed)
    adjustments = np.array([adjustment_for(adjustment, view, i) for i in range(view.n)])

    accepted = full.accepted
    punished = _punished_mask(accepted, economy.capacities)
    totals = np.where(punished, -punishment, taus + adjustments)
    delivered = np.where(punished[:, None], 0.0, accepted)
    true_costs = np.array(
        [economy.cost.cost(delivered[k], float(g)) for k, g in enumerate(economy.cost_types)]
    )
    utilities = totals - true_costs
    income = float(
        sum(economy.valuation.value(delivered, float(t)) for t in economy.valuation_types)
    )
    return PaymentBreakdown(
        tau=taus,
        adjustment=adjustments,
        total=totals,
        utilities=utilities,
        coalition_income=income,
        budget_slack=float(income - totals.sum()),
        punished=punished,
        surplus=full.surplus,
        counterfactual_surpluses=np.array([r.surplus for r in removed]),
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
