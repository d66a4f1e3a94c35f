"""Closed-form adjustment payments from prior-support extremes, plus feasibility checks.

The constructive adjustment prices producer ``i`` as if it had the least
favorable type in the coordinator's prior: capacity at the support minimum and
cost type at the support maximum. It therefore never reads producer ``i``'s
own report, which is what keeps the total payment truthful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .allocation import max_surplus
from .model import as_quantity_matrix

Array = np.ndarray

__all__ = [
    "PriorSupport",
    "sample_prior",
    "analytic_adjustment",
    "AnalyticAdjustment",
    "CheckReport",
    "existence_check",
    "marginal_gains_check",
]


@dataclass(frozen=True)
class PriorSupport:
    """Box support of the coordinator's prior over true parameters.

    Per-producer capacity bounds, per-producer cost-type bounds, per-consumer
    valuation-type bounds, all finite with lo <= hi. Only uniform sampling is
    built in.
    """

    cap_lo: Array    # (n, dim)
    cap_hi: Array    # (n, dim)
    gamma_lo: Array  # (n,)
    gamma_hi: Array  # (n,)
    theta_lo: Array  # (m,)
    theta_hi: Array  # (m,)
    cap_dist: str = "uniform"
    gamma_dist: str = "uniform"
    theta_dist: str = "uniform"

    def __post_init__(self):
        object.__setattr__(self, "cap_lo", as_quantity_matrix(self.cap_lo, name="cap_lo"))
        object.__setattr__(self, "cap_hi", as_quantity_matrix(self.cap_hi, name="cap_hi"))
        object.__setattr__(self, "gamma_lo", np.atleast_1d(np.asarray(self.gamma_lo, dtype=float)))
        object.__setattr__(self, "gamma_hi", np.atleast_1d(np.asarray(self.gamma_hi, dtype=float)))
        object.__setattr__(self, "theta_lo", np.atleast_1d(np.asarray(self.theta_lo, dtype=float)))
        object.__setattr__(self, "theta_hi", np.atleast_1d(np.asarray(self.theta_hi, dtype=float)))
        for lo, hi, name in (
            (self.cap_lo, self.cap_hi, "capacity"),
            (self.gamma_lo, self.gamma_hi, "cost-type"),
            (self.theta_lo, self.theta_hi, "valuation-type"),
        ):
            if lo.shape != hi.shape:
                raise ValueError(f"{name} bounds have mismatched shapes")
            if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
                raise ValueError(f"{name} support must be bounded")
            if (lo > hi).any():
                raise ValueError(f"{name} lower bounds exceed upper bounds")
        if self.cap_lo.shape[0] != self.gamma_lo.shape[0]:
            raise ValueError("capacity and cost-type bounds disagree on the producer count")

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
        return {
            "cap_lo": self.cap_lo.tolist(),
            "cap_hi": self.cap_hi.tolist(),
            "gamma_lo": self.gamma_lo.tolist(),
            "gamma_hi": self.gamma_hi.tolist(),
            "theta_lo": self.theta_lo.tolist(),
            "theta_hi": self.theta_hi.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PriorSupport":
        return cls(
            cap_lo=np.asarray(doc["cap_lo"], dtype=float),
            cap_hi=np.asarray(doc["cap_hi"], dtype=float),
            gamma_lo=np.asarray(doc["gamma_lo"], dtype=float),
            gamma_hi=np.asarray(doc["gamma_hi"], dtype=float),
            theta_lo=np.asarray(doc["theta_lo"], dtype=float),
            theta_hi=np.asarray(doc["theta_hi"], dtype=float),
        )


def sample_from(support: PriorSupport, count: int, rng) -> tuple[Array, Array, Array]:
    """Draw ``count`` i.i.d. parameter triples using an existing generator."""
    for tag, name in (
        (support.cap_dist, "capacity"),
        (support.gamma_dist, "cost-type"),
        (support.theta_dist, "valuation-type"),
    ):
        if tag != "uniform":
            raise ValueError(f"unsupported {name} distribution tag {tag!r}")
    caps = rng.uniform(support.cap_lo, support.cap_hi, size=(count,) + support.cap_lo.shape)
    gammas = rng.uniform(support.gamma_lo, support.gamma_hi, size=(count, support.n))
    thetas = rng.uniform(support.theta_lo, support.theta_hi, size=(count, support.m))
    return caps, gammas, thetas


def sample_prior(support: PriorSupport, count: int, seed: int = 0) -> tuple[Array, Array, Array]:
    """Seeded i.i.d. samples of (capacities, cost types, valuation types).

    Returns arrays of shapes ``(count, n, dim)``, ``(count, n)``, ``(count, m)``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return sample_from(support, count, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# constructive adjustment
# ---------------------------------------------------------------------------


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
    """Adjustment for producer ``i`` given only the other participants' reports.

    Computes ``-(S_pessimistic - S_without_i)`` where the pessimistic problem
    inserts producer ``i`` at its support-minimum capacity and support-maximum
    cost type. With a zero-inclusive capacity support this is exactly zero.
    """
    if not 0 <= i < support.n:
        raise IndexError(f"producer index {i} out of range for n={support.n}")
    others = as_quantity_matrix(capacities_others, n=support.n - 1, dim=support.dim, name="others' capacities")
    gammas_others = np.asarray(gammas_others, dtype=float)
    pess_caps = np.insert(others, i, support.cap_lo[i], axis=0)
    pess_gammas = np.insert(gammas_others, i, support.gamma_hi[i])
    s_pessimistic = max_surplus(pess_caps, pess_gammas, thetas, valuation, cost, method)
    s_without = max_surplus(others, gammas_others, thetas, valuation, cost, method)
    return -(s_pessimistic - s_without)


@dataclass(frozen=True)
class AnalyticAdjustment:
    """Callable adjustment model wrapping the constructive formula."""

    support: PriorSupport
    valuation: object
    cost: object
    method: str | None = None

    def __call__(self, i: int, capacities_others, gammas_others, thetas) -> float:
        return analytic_adjustment(
            self.support, self.valuation, self.cost, i, capacities_others, gammas_others, thetas,
            method=self.method,
        )


# ---------------------------------------------------------------------------
# sampled feasibility checks
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of a sampled inequality check, with violation witnesses."""

    name: str
    samples: int
    violations: list = field(default_factory=list)
    max_gap: float = -math.inf

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "passed": self.passed,
            "violation_count": len(self.violations),
            "max_gap": self.max_gap,
            "witnesses": self.violations[:10],
        }


def _sum_gap(
    support: PriorSupport,
    valuation,
    cost,
    caps: Array,
    gammas: Array,
    thetas: Array,
    method,
    pessimistic: bool,
) -> tuple[float, float]:
    """lhs - rhs of the feasibility inequality at one sample.

    ``pessimistic`` replaces producer i by its support extremes; otherwise the
    producer is zeroed out with its cost type kept (the zero-capacity form).
    """
    s_full = max_surplus(caps, gammas, thetas, valuation, cost, method)
    lhs = 0.0
    for i in range(support.n):
        caps_i = caps.copy()
        gammas_i = gammas.copy()
        if pessimistic:
            caps_i[i] = support.cap_lo[i]
            gammas_i[i] = support.gamma_hi[i]
        else:
            caps_i[i] = 0.0
        lhs += s_full - max_surplus(caps_i, gammas_i, thetas, valuation, cost, method)
    return lhs, s_full


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
) -> CheckReport:
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    caps_all, gammas_all, thetas_all = sample_from(support, samples, rng)
    report = CheckReport(name=name, samples=samples)
    for k in range(samples):
        lhs, s_full = _sum_gap(
            support, valuation, cost, caps_all[k], gammas_all[k], thetas_all[k], method, pessimistic
        )
        gap = lhs - s_full
        report.max_gap = max(report.max_gap, gap)
        if gap > tol:
            report.violations.append(
                {
                    "sample": k,
                    "gap": gap,
                    "lhs": lhs,
                    "surplus": s_full,
                    "capacities": caps_all[k].tolist(),
                    "cost_types": gammas_all[k].tolist(),
                    "valuation_types": thetas_all[k].tolist(),
                }
            )
    return report


def existence_check(
    support: PriorSupport,
    valuation,
    cost,
    samples: int = 10_000,
    seed: int = 0,
    method: str | None = None,
    tol: float = 1e-8,
) -> CheckReport:
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
) -> CheckReport:
    """Sampled test of the zero-capacity form ``sum_i [S* - S*(cap_i -> 0)] <= S*``.

    This is the inequality guaranteed for super-additive families with
    decreasing cross marginal returns; it implies the existence check whenever
    the capacity support includes zero.
    """
    return _run_check("marginal_gains", support, valuation, cost, samples, seed, method, tol, pessimistic=False)
