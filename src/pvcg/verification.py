"""Empirical probes for the mechanism's guarantees.

Each probe samples instances, checks the claimed inequality at an explicit
tolerance, and returns a report with violation witnesses. Deviation-based
truthfulness is verified statistically (the report space is continuous);
utility comparisons use a looser tolerance (1e-6) than the solvers (1e-8) to
absorb optimizer noise in counterfactuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .adjustment import PriorSupport, feasibility_penalties
from .allocation import (
    AllocationResult,
    counterfactual_surplus,
    optimize_acceptance,
)
from .model import Economy
from .payments import PaymentBreakdown, ZeroAdjustment, adjustment_for, utility_from_solves

Array = np.ndarray

__all__ = [
    "ProbeReport",
    "uniform_economy_sampler",
    "mixed_deviation_sampler",
    "probe_dsic",
    "grid_surplus_max",
    "check_efficiency",
    "check_ir",
    "check_wbb",
    "check_surplus_monotonicity",
    "loss_components",
]

UTILITY_TOL = 1e-6
SURPLUS_TOL = 1e-8
EFFICIENCY_TOL = 2e-3


@dataclass
class ProbeReport:
    """Trials run, violation witnesses, and the worst observed gap."""

    name: str
    trials: int
    violations: list = field(default_factory=list)
    max_gap: float = -math.inf

    @property
    def passed(self) -> bool:
        return not self.violations

    def record(self, gap: float, witness: dict, tol: float) -> None:
        self.max_gap = max(self.max_gap, gap)
        if gap > tol:
            witness["gap"] = gap
            self.violations.append(witness)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "passed": self.passed,
            "violation_count": len(self.violations),
            "max_gap": self.max_gap,
            "witnesses": self.violations[:10],
        }


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def uniform_economy_sampler(support: PriorSupport, valuation, cost):
    """Economies with true parameters drawn uniformly from the support box."""

    def sampler(rng) -> Economy:
        caps = rng.uniform(support.cap_lo, support.cap_hi)
        gammas = rng.uniform(support.gamma_lo, support.gamma_hi)
        thetas = rng.uniform(support.theta_lo, support.theta_hi)
        return Economy(caps, gammas, thetas, valuation, cost)

    return sampler


def mixed_deviation_sampler(support: PriorSupport):
    """Unilateral misreports: box-uniform draws plus the targeted patterns
    0.5x, 0.9x, 1.1x of the truth and a strictly capacity-exceeding report."""

    def sampler(rng, economy: Economy, i: int):
        true_cap = economy.capacities[i]
        true_gamma = float(economy.cost_types[i])
        mode = int(rng.integers(5))
        if mode == 0:
            cap = rng.uniform(support.cap_lo[i], support.cap_hi[i])
            gamma = float(rng.uniform(support.gamma_lo[i], support.gamma_hi[i]))
        elif mode in (1, 2, 3):
            factor = (0.5, 0.9, 1.1)[mode - 1]
            cap = factor * true_cap
            gamma = factor * true_gamma
        else:
            cap = true_cap * float(rng.uniform(1.2, 2.0)) + float(rng.uniform(0.05, 0.5))
            gamma = true_gamma
        if np.array_equal(cap, true_cap) and gamma == true_gamma:
            # zero truth makes scaling a no-op; nudge the cost report instead
            span = float(support.gamma_hi[i] - support.gamma_lo[i])
            gamma = true_gamma + 0.25 * span + 0.01
        return cap, gamma

    return sampler


# ---------------------------------------------------------------------------
# truthfulness
# ---------------------------------------------------------------------------


def probe_dsic(
    economy_sampler,
    deviation_sampler,
    adjustment=None,
    trials: int = 1000,
    seed: int = 0,
    deviations_per_trial: int = 50,
    punishment: float = 1e6,
    method: str | None = None,
    tol: float = UTILITY_TOL,
) -> ProbeReport:
    """Compare truthful utility against sampled unilateral misreports.

    For each sampled true economy and each sampled deviation of one producer
    (the others truthful), a violation is recorded when the deviation beats
    truth by more than ``tol``. The punishment constant must dominate every
    observed pivot payment (P > 10 max |tau|), otherwise the probe rejects its
    configuration instead of passing vacuously.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if adjustment is None:
        adjustment = ZeroAdjustment()
    rng = np.random.default_rng(seed)
    report = ProbeReport(name="dsic", trials=trials * deviations_per_trial)
    max_abs_tau = 0.0

    for trial in range(trials):
        economy = economy_sampler(rng)
        full_truth = optimize_acceptance(economy, method=method)
        removed_cache: dict[int, AllocationResult] = {}
        truth_cache: dict[int, float] = {}
        h_cache: dict[int, float] = {}

        for _ in range(deviations_per_trial):
            i = int(rng.integers(economy.n))
            if i not in removed_cache:
                removed_cache[i] = counterfactual_surplus(economy, i, method=method)
                h_cache[i] = adjustment_for(adjustment, economy, i)
                truth_cache[i], tau_truth = utility_from_solves(
                    economy, economy, full_truth, removed_cache[i], i, h_cache[i], punishment
                )
                max_abs_tau = max(max_abs_tau, abs(tau_truth))

            cap_dev, gamma_dev = deviation_sampler(rng, economy, i)
            dev_caps = economy.capacities.copy()
            dev_caps[i] = np.atleast_1d(np.asarray(cap_dev, dtype=float))
            dev_gammas = economy.cost_types.copy()
            dev_gammas[i] = gamma_dev
            dev_view = replace(economy, capacities=dev_caps, cost_types=dev_gammas)
            full_dev = optimize_acceptance(dev_view, method=method)
            # the removed problem ignores producer i's report: reuse the truthful one
            utility_dev, tau_dev = utility_from_solves(
                economy, dev_view, full_dev, removed_cache[i], i, h_cache[i], punishment
            )
            max_abs_tau = max(max_abs_tau, abs(tau_dev))
            report.record(
                utility_dev - truth_cache[i],
                {
                    "trial": trial,
                    "producer": i,
                    "capacities": economy.capacities.tolist(),
                    "cost_types": economy.cost_types.tolist(),
                    "valuation_types": economy.valuation_types.tolist(),
                    "deviation_capacity": np.atleast_1d(cap_dev).tolist(),
                    "deviation_gamma": float(gamma_dev),
                    "truth_utility": truth_cache[i],
                    "deviation_utility": utility_dev,
                },
                tol,
            )

    if punishment <= 10.0 * max_abs_tau:
        raise ValueError(
            f"punishment {punishment} does not dominate observed pivot payments "
            f"(max |tau| = {max_abs_tau}); increase it for a meaningful probe"
        )
    return report


# ---------------------------------------------------------------------------
# efficiency
# ---------------------------------------------------------------------------


def grid_surplus_max(view: Economy, step: float = 1e-2, max_cells: int = 30_000_000) -> float:
    """Exhaustive grid search over acceptance ratios (scalar resources, n <= 3)."""
    if view.dim != 1:
        raise ValueError("grid search is implemented for scalar resources only")
    if step <= 0:
        raise ValueError("step must be positive")
    n = view.n
    points = int(round(1.0 / step)) + 1
    if points**n > max_cells:
        raise ValueError(f"grid of {points}^{n} cells is too large; use the multistart method")
    axis = np.linspace(0.0, 1.0, points)
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    H = np.stack([g.ravel() for g in grids], axis=1)
    from .allocation import _surplus_rows

    return float(_surplus_rows(view, H).max())


def check_efficiency(
    economy: Economy,
    allocation: AllocationResult,
    method: str = "grid",
    step: float = 1e-2,
    seed: int = 0,
    tol: float = EFFICIENCY_TOL,
) -> ProbeReport:
    """Compare the achieved surplus to an independent maximization of the truth.

    ``grid`` enumerates ratios at ``step`` resolution (n <= 3 only; larger
    economies must use ``multistart``). A violation means the mechanism left
    more than ``tol`` surplus on the table.
    """
    view = economy.view()
    if method == "grid":
        if economy.n > 3:
            raise ValueError("grid efficiency check supports n <= 3; use method='multistart'")
        reference = grid_surplus_max(view, step=step)
    elif method == "multistart":
        reference = optimize_acceptance(view, method="projected_gradient", seed=seed).surplus
    else:
        raise ValueError(f"unknown efficiency method {method!r}")
    report = ProbeReport(name="efficiency", trials=1)
    report.record(
        reference - allocation.surplus,
        {"achieved": allocation.surplus, "reference": reference},
        tol,
    )
    return report


# ---------------------------------------------------------------------------
# rationality / budget, and their loss-term counterparts
# ---------------------------------------------------------------------------


def loss_components(payments: PaymentBreakdown) -> tuple[float, float]:
    """Rationality and budget penalty terms of one truthful instance.

    The learner's loss terms (``feasibility_penalties``) on the solved
    surpluses and the adjustment vector; zero iff the corresponding probe
    passes.
    """
    gains = payments.surplus - payments.counterfactual_surpluses
    rationality, budget = feasibility_penalties(gains, payments.adjustment, payments.surplus)
    return float(rationality.sum()), float(budget)


def check_ir(economy: Economy, payments: PaymentBreakdown, tol: float = SURPLUS_TOL) -> ProbeReport:
    """Every producer's realized utility must be non-negative (truthful bids).

    Also cross-checks the equivalent restatement h_i >= -(S* - S*_{-i})
    instance-wise; a disagreement between the two forms is itself reported.
    """
    report = ProbeReport(name="individual_rationality", trials=economy.n)
    for i in range(economy.n):
        report.record(
            -float(payments.utilities[i]),
            {"producer": i, "utility": float(payments.utilities[i])},
            tol,
        )
    gains = payments.surplus - payments.counterfactual_surpluses
    restated = bool(np.all(payments.adjustment + gains >= -tol))
    direct = bool(np.all(payments.utilities >= -tol))
    if restated != direct and not payments.punished.any():
        report.violations.append(
            {"kind": "restatement_mismatch", "direct": direct, "restated": restated}
        )
    return report


def check_wbb(economy: Economy, payments: PaymentBreakdown, tol: float = SURPLUS_TOL) -> ProbeReport:
    """Total payments must not exceed coalition income (truthful bids).

    Cross-checks the restatement sum h_i <= S* - sum(S* - S*_{-i}).
    """
    report = ProbeReport(name="weak_budget_balance", trials=1)
    paid = float(payments.total.sum())
    report.record(
        paid - payments.coalition_income,
        {"paid": paid, "income": payments.coalition_income},
        tol,
    )
    gains = payments.surplus - payments.counterfactual_surpluses
    restated = bool(payments.adjustment.sum() <= payments.surplus - gains.sum() + tol)
    direct = bool(paid <= payments.coalition_income + tol)
    if restated != direct and not payments.punished.any():
        report.violations.append(
            {"kind": "restatement_mismatch", "direct": direct, "restated": restated}
        )
    return report


# ---------------------------------------------------------------------------
# surplus monotonicity
# ---------------------------------------------------------------------------


def check_surplus_monotonicity(
    economy_sampler,
    trials: int = 1000,
    seed: int = 0,
    method: str | None = None,
    tol: float = SURPLUS_TOL,
) -> ProbeReport:
    """Sampled monotonicity of S*: rising in any capacity, falling in any cost type."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    report = ProbeReport(name="surplus_monotonicity", trials=trials)
    for trial in range(trials):
        economy = economy_sampler(rng)
        base = optimize_acceptance(economy.view(), method=method).surplus
        i = int(rng.integers(economy.n))
        d = int(rng.integers(economy.dim))

        caps_up = economy.capacities.copy()
        caps_up[i, d] += float(rng.uniform(0.1, 2.0))
        up_view = replace(economy, capacities=caps_up)
        surplus_up = optimize_acceptance(up_view, method=method).surplus
        report.record(
            base - surplus_up,
            {"trial": trial, "kind": "capacity_increase", "producer": i, "before": base, "after": surplus_up},
            tol,
        )

        gammas_up = economy.cost_types.copy()
        gammas_up[i] += float(rng.uniform(0.1, 2.0))
        costly_view = replace(economy, cost_types=gammas_up)
        surplus_costly = optimize_acceptance(costly_view, method=method).surplus
        report.record(
            surplus_costly - base,
            {"trial": trial, "kind": "cost_increase", "producer": i, "before": base, "after": surplus_costly},
            tol,
        )
    return report
