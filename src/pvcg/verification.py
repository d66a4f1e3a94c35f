"""Empirical probes for the mechanism's guarantees.

Each probe samples instances, checks the claimed inequality at an explicit
tolerance, and returns a report with violation witnesses. Deviation-based
truthfulness is verified statistically (the report space is continuous);
utility comparisons use a looser tolerance (1e-6) than the solvers (1e-8) to
absorb optimizer noise in counterfactuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adjustment import PriorSupport, feasibility_penalties, sample_from
from .allocation import _solve
from .model import Economy, _check_count
from .payments import PaymentBreakdown, _check_punishment, _price, deviation_utilities

Array = np.ndarray

__all__ = [
    "ProbeReport",
    "uniform_economy_sampler",
    "draw_deviations",
    "mixed_deviation_sampler",
    "probe_dsic",
    "check_ir",
    "check_wbb",
    "Feasibility",
    "check_surplus_monotonicity",
    "loss_components",
]

UTILITY_TOL = 1e-6
SURPLUS_TOL = 1e-8


def _check_tol(tol: float) -> None:
    """Reject a tolerance that no gap can exceed: NaN and +inf would pass every probe."""
    if not tol < math.inf:
        raise ValueError(f"tol must be a number below +inf, got {tol}")


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
            "trials": self.trials,
            "passed": self.passed,
            "violation_count": len(self.violations),
            "max_gap": self.max_gap,
            "witnesses": self.violations[:10],
        }


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

# each mode's report as a multiple of the truth; modes 0 and 4 then draw their capacities
_MODE_FACTORS = np.array([1.0, 0.5, 0.9, 1.1, 1.0])


def uniform_economy_sampler(support: PriorSupport, valuation, cost):
    """One economy per call, its true parameters uniform on the support box: ``sample_from`` with a count of one."""

    def sampler(rng) -> Economy:
        caps, gammas, thetas = sample_from(support, 1, rng)
        return Economy(caps[0], gammas[0], thetas[0], valuation, cost)

    return sampler


def draw_deviations(support: PriorSupport, rng, caps, gammas, producers) -> tuple[Array, Array]:
    """``(R, dim)``, ``(R,)`` misreports of ``producers`` from their true ``(R, dim)`` capacities and ``(R,)`` cost types.

    Each row draws one of five modes: a report uniform on the producer's support box (0); 0.5x, 0.9x or 1.1x the
    truth (1-3); the true cost type with a capacity strictly above the truth, ``cap * U(1.2, 2) + U(0.05, 0.5)`` (4).
    A report equal to the truth (a zero truth scaled) raises its cost type by a quarter of the support's span plus
    0.01 instead. Draw order: every row's mode, then the box rows' capacities and cost types, then the
    over-reporting rows' factors and shifts.
    """
    caps, gammas = np.asarray(caps, dtype=float), np.asarray(gammas, dtype=float)
    producers = np.asarray(producers, dtype=np.intp)
    mode = rng.integers(5, size=producers.size)
    factor = _MODE_FACTORS[mode]
    dev_caps, dev_gammas = caps * factor[:, None], gammas * factor
    box, over = mode == 0, mode == 4
    i = producers[box]
    dev_caps[box] = rng.uniform(support.cap_lo[i], support.cap_hi[i])
    dev_gammas[box] = rng.uniform(support.gamma_lo[i], support.gamma_hi[i])
    stretch = rng.uniform(1.2, 2.0, np.count_nonzero(over))
    dev_caps[over] = caps[over] * stretch[:, None] + rng.uniform(0.05, 0.5, stretch.size)[:, None]
    truthful = (dev_caps == caps).all(axis=-1) & (dev_gammas == gammas)
    i = producers[truthful]
    dev_gammas[truthful] = gammas[truthful] + 0.25 * (support.gamma_hi[i] - support.gamma_lo[i]) + 0.01
    return dev_caps, dev_gammas


def mixed_deviation_sampler(support: PriorSupport):
    """One ``draw_deviations`` row per call: producer ``i``'s misreported ``(capacity, cost type)`` in ``economy``."""

    def sampler(rng, economy: Economy, i: int):
        caps, gammas = draw_deviations(support, rng, economy.capacities[[i]], economy.cost_types[[i]], [i])
        return caps[0], float(gammas[0])

    return sampler


# ---------------------------------------------------------------------------
# truthfulness
# ---------------------------------------------------------------------------


def probe_dsic(
    support: PriorSupport,
    valuation,
    cost,
    adjustment=None,
    trials: int = 1000,
    seed: int = 0,
    deviations_per_trial: int = 50,
    punishment: float = 1e6,
    method: str | None = None,
    tol: float = UTILITY_TOL,
) -> ProbeReport:
    """Compare truthful utility against sampled unilateral misreports.

    For each true economy drawn uniformly from ``support`` and each sampled
    deviation of one producer (the others truthful), a violation is recorded
    when the deviation beats truth by more than ``tol``. The punishment
    constant must dominate every observed pivot payment (P > 10 max |tau|),
    otherwise the probe rejects its configuration instead of passing vacuously.

    Everything is drawn first, from one generator seeded with ``seed``: the
    ``trials`` economies (``sample_from``), then every deviation's producer (one
    ``rng.integers``, trial by trial), then the misreports (``draw_deviations``).
    The truthful auctions are then priced as one ``payments_batch``, which also
    holds their pivot payments to the two-form check, and the deviating full
    problems are solved as one ``solve_batch``; both trust the drawn arrays.
    A deviation reads its producer's removed surplus and adjustment from the
    truthful pricing: neither reads the deviating producer's report.
    """
    _check_count("trials", trials)
    _check_count("deviations_per_trial", deviations_per_trial)
    _check_punishment(punishment)
    _check_tol(tol)
    rng = np.random.default_rng(seed)
    caps, gammas, thetas = sample_from(support, trials, rng)
    trial = np.repeat(np.arange(trials), deviations_per_trial)
    producer = rng.integers(support.n, size=trial.size)
    own = (trial, producer)
    cap_dev, gamma_dev = draw_deviations(support, rng, caps[own], gammas[own], producer)
    truth = _price(caps, gammas, thetas, caps, gammas, thetas, valuation, cost, adjustment, punishment, method)
    truth_utility = truth.utilities[own]

    rows = np.arange(trial.size)
    dev_caps, dev_gammas = caps[trial], gammas[trial]
    dev_caps[rows, producer], dev_gammas[rows, producer] = cap_dev, gamma_dev
    accepted, surplus = _solve(dev_caps, dev_gammas, thetas[trial], valuation, cost, method)
    utility, tau = deviation_utilities(
        caps[own], gammas[own], gamma_dev, cost, accepted[rows, producer], surplus,
        truth.counterfactual_surpluses[own], truth.adjustment[own], punishment,
    )

    def witness(r: int) -> dict:
        t = trial[r]
        return {
            "trial": int(t),
            "producer": int(producer[r]),
            "capacities": caps[t].tolist(),
            "cost_types": gammas[t].tolist(),
            "valuation_types": thetas[t].tolist(),
            "deviation_capacity": cap_dev[r].tolist(),
            "deviation_gamma": float(gamma_dev[r]),
            "truth_utility": float(truth_utility[r]),
            "deviation_utility": float(utility[r]),
        }

    report = ProbeReport(name="dsic", trials=trials * deviations_per_trial)
    report.record_all(utility - truth_utility, witness, tol)
    max_abs_tau = float(np.abs(np.concatenate([truth.tau[own], tau])).max(initial=0.0))
    if punishment <= 10.0 * max_abs_tau:
        raise ValueError(
            f"punishment {punishment} does not dominate observed pivot payments "
            f"(max |tau| = {max_abs_tau}); increase it for a meaningful probe"
        )
    return report


# ---------------------------------------------------------------------------
# rationality / budget, and their loss-term counterparts
# ---------------------------------------------------------------------------


class Feasibility:
    """Rationality and budget verdicts of a ``total_payment`` or ``payments_batch`` result, one per economy.

    Producers are on the last axis. Rationality: every utility ``>= -tol`` (``deficit`` marks each
    producer below), restated as ``h_i >= -(S* - S*_{-i})``. Budget: total payments ``paid`` within
    the coalition income (``overdraft`` marks an economy beyond it), restated as ``sum h_i <= S* -
    sum(S* - S*_{-i})``. ``ir`` and ``wbb`` are the (direct, restated) pairs; ``ir_mismatch`` and
    ``wbb_mismatch`` mark a disagreement with no producer punished, which fails the verdict
    (``ir_passed``, ``wbb_passed``). ``rationality`` (summed over producers) and ``budget`` are the
    loss terms of ``feasibility_penalties``; each is zero iff its verdict passes.
    """

    def __init__(self, payments: PaymentBreakdown, tol: float = SURPLUS_TOL):
        _check_tol(tol)
        self.payments, self.tol = payments, tol
        surplus = np.asarray(payments.surplus)
        gains = surplus[..., None] - payments.counterfactual_surpluses
        self.deficit = -payments.utilities > tol
        self.paid = payments.total.sum(axis=-1)
        self.overdraft = self.paid - payments.coalition_income > tol
        self.ir = ~self.deficit.any(axis=-1), np.all(payments.adjustment + gains >= -tol, axis=-1)
        restated_budget = payments.adjustment.sum(axis=-1) <= surplus - gains.sum(axis=-1) + tol
        self.wbb = self.paid <= payments.coalition_income + tol, restated_budget
        unpunished = ~payments.punished.any(axis=-1)
        self.ir_mismatch = (self.ir[0] != self.ir[1]) & unpunished
        self.wbb_mismatch = (self.wbb[0] != self.wbb[1]) & unpunished
        self.ir_passed = self.ir[0] & ~self.ir_mismatch
        self.wbb_passed = ~self.overdraft & ~self.wbb_mismatch
        rationality, self.budget = feasibility_penalties(gains, payments.adjustment, surplus)
        self.rationality = rationality.sum(axis=-1)

    def ir_report(self, k=()) -> ProbeReport:
        """``check_ir``'s report of economy ``k``: each producer's deficit, then a counted mismatch."""
        utilities = self.payments.utilities[k]
        report = ProbeReport(name="individual_rationality", trials=utilities.size)
        report.record_all(-utilities, lambda i: {"producer": i, "utility": float(utilities[i])}, self.tol)
        return self._with_mismatch(report, self.ir, self.ir_mismatch, k)

    def wbb_report(self, k=()) -> ProbeReport:
        """``check_wbb``'s report of economy ``k``: its overdraft, then a counted mismatch."""
        paid, income = float(self.paid[k]), float(np.asarray(self.payments.coalition_income)[k])
        report = ProbeReport(name="weak_budget_balance", trials=1)
        report.record_all(np.array([paid - income]), lambda _: {"paid": paid, "income": income}, self.tol)
        return self._with_mismatch(report, self.wbb, self.wbb_mismatch, k)

    @staticmethod
    def _with_mismatch(report: ProbeReport, verdicts, mismatch: Array, k) -> ProbeReport:
        direct, restated = verdicts
        if mismatch[k]:
            report.violations.append({"kind": "restatement_mismatch", "direct": bool(direct[k]), "restated": bool(restated[k])})
        return report


def loss_components(payments: PaymentBreakdown) -> tuple[float, float]:
    """Rationality and budget penalty terms of one truthful instance (``Feasibility``'s loss terms)."""
    verdict = Feasibility(payments)
    return float(verdict.rationality), float(verdict.budget)


def check_ir(economy: Economy, payments: PaymentBreakdown, tol: float = SURPLUS_TOL) -> ProbeReport:
    """Every producer's realized utility must be non-negative (truthful bids).

    Also cross-checks the equivalent restatement h_i >= -(S* - S*_{-i})
    instance-wise; a disagreement between the two forms is itself reported.
    ``payments`` carries all the check reads; ``economy`` is the priced one.
    """
    return Feasibility(payments, tol).ir_report()


def check_wbb(economy: Economy, payments: PaymentBreakdown, tol: float = SURPLUS_TOL) -> ProbeReport:
    """Total payments must not exceed coalition income (truthful bids).

    Cross-checks the restatement sum h_i <= S* - sum(S* - S*_{-i}).
    """
    return Feasibility(payments, tol).wbb_report()


# ---------------------------------------------------------------------------
# surplus monotonicity
# ---------------------------------------------------------------------------


def check_surplus_monotonicity(
    support: PriorSupport,
    valuation,
    cost,
    trials: int = 1000,
    seed: int = 0,
    method: str | None = None,
    tol: float = SURPLUS_TOL,
) -> ProbeReport:
    """Sampled monotonicity of S*: rising in any capacity, falling in any cost type.

    Each trial raises one capacity coordinate and, separately, one cost type
    of an economy drawn uniformly from ``support``. Everything is drawn first,
    from one generator seeded with ``seed``: the ``trials`` economies
    (``sample_from``), then each trial's producer, its capacity coordinate, its
    capacity step and its cost step, each one array over the trials (the steps
    ``U(0.1, 2)``). The base, raised-capacity and raised-cost problems of all
    trials are then solved as one ``solve_batch``, which trusts the drawn arrays.
    """
    _check_count("trials", trials)
    _check_tol(tol)
    rng = np.random.default_rng(seed)
    caps, gammas, thetas = sample_from(support, trials, rng)
    producer = rng.integers(support.n, size=trials)
    coordinate = rng.integers(support.dim, size=trials)
    cap_steps, cost_steps = rng.uniform(0.1, 2.0, trials), rng.uniform(0.1, 2.0, trials)
    t = np.arange(trials)
    caps_up = caps.copy()
    caps_up[t, producer, coordinate] += cap_steps
    gammas_up = gammas.copy()
    gammas_up[t, producer] += cost_steps
    _, (base, surplus_up, surplus_costly) = _solve(
        np.stack([caps, caps_up, caps]),
        np.stack([gammas, gammas, gammas_up]),
        np.broadcast_to(thetas, (3,) + thetas.shape),
        valuation,
        cost,
        method,
    )

    def witness(k: int) -> dict:
        trial, costly = divmod(k, 2)
        return {
            "trial": trial,
            "kind": "cost_increase" if costly else "capacity_increase",
            "producer": int(producer[trial]),
            "before": float(base[trial]),
            "after": float((surplus_costly if costly else surplus_up)[trial]),
        }

    report = ProbeReport(name="surplus_monotonicity", trials=trials)
    # the capacity and cost gaps of each trial, interleaved in recording order
    report.record_all(np.stack([base - surplus_up, surplus_costly - base], axis=1).ravel(), witness, tol)
    return report
