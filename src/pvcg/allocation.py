"""Optimal acceptance ratios: closed-form water-fill and projected gradient ascent.

Both solvers maximize the social surplus of the reported economy over the box
of acceptance ratios ``eta in [0, 1]^(n x dim)``. The water-fill is exact for
the square-root/linear family with scalar resources; projected gradient ascent
with multistart handles everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Economy, LinearCost, SqrtSumValuation, social_surplus

Array = np.ndarray

__all__ = [
    "SolverDiagnostics",
    "AllocationResult",
    "waterfill_applies",
    "supports_waterfill",
    "analytic_waterfill",
    "optimize_acceptance",
    "counterfactual_surplus",
    "solve_with_counterfactuals",
    "max_surplus",
]

_LEX_TIE_TOL = 1e-12


@dataclass(frozen=True)
class SolverDiagnostics:
    iterations: int
    restarts: int
    grad_norm: float


@dataclass(frozen=True)
class AllocationResult:
    """Acceptance ratios, the implied accepted quantities, and the surplus attained."""

    ratios: Array      # (n, dim) in [0, 1]
    accepted: Array    # (n, dim) == capacities * ratios
    surplus: float
    diag: SolverDiagnostics

    def scalar_ratios(self) -> Array:
        return self.ratios[:, 0] if self.ratios.ndim == 2 else self.ratios

    def scalar_accepted(self) -> Array:
        return self.accepted[:, 0] if self.accepted.ndim == 2 else self.accepted


def _sqrt_sum_linear(valuation, cost) -> bool:
    """The square-root/linear family, whose value and gradient this module writes in closed form."""
    return isinstance(valuation, SqrtSumValuation) and isinstance(cost, LinearCost)


def waterfill_applies(valuation, cost, dim: int, method: str | None = None) -> bool:
    """Whether ``method`` resolves to the exact water-fill for these families and resource dimension."""
    return method in (None, "analytic") and _sqrt_sum_linear(valuation, cost) and dim == 1


def supports_waterfill(view: Economy) -> bool:
    return waterfill_applies(view.valuation, view.cost, view.dim)


def _empty_result(dim: int) -> AllocationResult:
    zero = np.zeros((0, dim))
    return AllocationResult(zero, zero.copy(), 0.0, SolverDiagnostics(0, 0, 0.0))


def _finalize(view: Economy, ratios: Array, diag: SolverDiagnostics) -> AllocationResult:
    accepted = view.capacities * ratios
    surplus = social_surplus(view, accepted)
    if not math.isfinite(surplus):
        raise ValueError(f"solver produced a non-finite surplus ({surplus})")
    return AllocationResult(ratios, accepted, surplus, diag)


# ---------------------------------------------------------------------------
# closed-form water-fill
# ---------------------------------------------------------------------------


def _stop_quantities(sorted_gammas: Array, theta_sum: float, scale: float) -> Array:
    """Cumulative quantity at which the marginal value meets each unit cost.

    Free producers (gamma == 0) never stop; the guarded denominator also keeps
    subnormal theta values from turning 0/0 into NaN.
    """
    positive = sorted_gammas > 0
    safe = np.where(positive, sorted_gammas, 1.0)
    # ratio before squaring: immune to underflow/overflow of the squares
    with np.errstate(over="ignore"):
        ratio = theta_sum / (2.0 * safe)
        return np.where(positive, scale * ratio * ratio, np.inf)


def _sorted_fills(caps: Array, gammas: Array, theta_sum: float, scale: float) -> tuple[Array, Array]:
    """Ascending-cost fill order (ties by index) and each producer's fill along it."""
    order = np.argsort(gammas, kind="stable")
    caps_sorted = caps[order]
    stop_at = _stop_quantities(gammas[order], theta_sum, scale)
    cumulative_before = np.concatenate(([0.0], np.cumsum(caps_sorted)[:-1]))
    return order, np.clip(stop_at - cumulative_before, 0.0, caps_sorted)


def analytic_waterfill(view: Economy) -> AllocationResult:
    """Greedy exact solution for the square-root/linear family, scalar resources.

    With aggregate accepted quantity ``U`` the marginal value of one more unit
    is ``Theta * sqrt(scale) / (2 sqrt(U))`` where ``Theta`` is the sum of
    valuation types. Producers are filled in ascending reported cost order
    (ties broken by producer index); producer i's fill stops where the
    marginal value meets its unit cost, i.e. at cumulative quantity
    ``scale * Theta^2 / (4 gamma_i^2)``, or at its reported capacity,
    whichever binds first.
    """
    if not supports_waterfill(view):
        raise ValueError(
            "analytic water-fill requires the sqrt_sum valuation, linear cost, and scalar resources"
        )
    n = view.n
    caps = view.capacities[:, 0]
    gammas = view.cost_types
    theta_sum = float(view.valuation_types.sum())
    scale = view.valuation.scale

    if theta_sum <= 0.0:
        ratios = np.zeros(n)
    else:
        order, fills_sorted = _sorted_fills(caps, gammas, theta_sum, scale)
        fills = np.empty_like(fills_sorted)
        fills[order] = fills_sorted
        ratios = np.divide(fills, caps, out=np.zeros(n), where=caps > 0)

    return _finalize(view, ratios[:, None], SolverDiagnostics(iterations=n, restarts=0, grad_norm=0.0))


# ---------------------------------------------------------------------------
# projected gradient ascent with multistart
# ---------------------------------------------------------------------------


def _surplus_rows(view: Economy, H: Array) -> Array:
    """Surplus for each row of ``H`` (rows are flattened ratio profiles)."""
    k = H.shape[0]
    caps_flat = view.capacities.ravel()
    accepted = H * caps_flat
    if _sqrt_sum_linear(view.valuation, view.cost):
        totals = accepted.sum(axis=1)
        value = np.zeros(k)
        for theta in view.valuation_types:
            value += float(theta) * np.sqrt(view.valuation.scale * totals)
        per_producer = accepted.reshape(k, view.n, view.dim).sum(axis=2)
        costs = per_producer @ view.cost_types
        return value - costs
    out = np.empty(k)
    for r in range(k):
        out[r] = social_surplus(view, accepted[r].reshape(view.n, view.dim))
    return out


def _grad_rows(view: Economy, H: Array, fd_step: float = 1e-6) -> Array:
    """Gradient of the surplus with respect to each ratio coordinate, per row.

    Analytic for the square-root/linear family, where every coordinate's
    marginal value is ``theta * sqrt(scale) / (2 sqrt(T))`` at total accepted
    quantity ``T``; central finite differences (one-sided at the lower
    boundary) otherwise.
    """
    caps_flat = view.capacities.ravel()
    if _sqrt_sum_linear(view.valuation, view.cost):
        accepted = H * caps_flat
        totals = accepted.sum(axis=1)
        marginal = 0.5 * math.sqrt(view.valuation.scale) / np.sqrt(np.maximum(totals, 1e-12))
        coeff = np.zeros_like(totals)
        for theta in view.valuation_types:
            coeff += float(theta) * marginal
        gamma_flat = np.repeat(view.cost_types, view.dim)
        return caps_flat * (coeff[:, None] - gamma_flat[None, :])
    grads = np.empty_like(H)
    for d in range(H.shape[1]):
        hp = H.copy()
        hm = H.copy()
        hp[:, d] = H[:, d] + fd_step
        hm[:, d] = np.maximum(H[:, d] - fd_step, 0.0)
        denom = hp[:, d] - hm[:, d]
        grads[:, d] = (_surplus_rows(view, hp) - _surplus_rows(view, hm)) / denom
    return grads


def _projected_gradient(
    view: Economy,
    seed: int = 0,
    restarts: int = 8,
    max_iter: int = 10_000,
    tol: float = 1e-8,
    armijo_c: float = 1e-4,
) -> AllocationResult:
    n, dim = view.n, view.dim
    width = n * dim
    rng = np.random.default_rng(seed)
    starts = [np.zeros(width), np.ones(width)]
    starts += [rng.uniform(0.0, 1.0, size=width) for _ in range(restarts)]
    H = np.stack(starts)
    k = H.shape[0]
    f = _surplus_rows(view, H)
    alpha = np.ones(k)
    done = np.zeros(k, dtype=bool)
    pg_norm = np.full(k, np.inf)
    iterations = 0

    for it in range(max_iter):
        iterations = it + 1
        G = _grad_rows(view, H)
        pg = H - np.clip(H + G, 0.0, 1.0)
        pg_norm = np.abs(pg).max(axis=1)
        done |= pg_norm < tol
        if done.all():
            iterations = it
            break

        remaining = ~done
        step = alpha.copy()
        for _ in range(80):
            Hn = np.clip(H + step[:, None] * G, 0.0, 1.0)
            fn = _surplus_rows(view, Hn)
            predicted = armijo_c * np.einsum("kd,kd->k", G, Hn - H)
            take = remaining & (fn >= f + predicted) & (predicted > 0)
            if take.any():
                H[take] = Hn[take]
                f[take] = fn[take]
                alpha[take] = np.minimum(step[take] * 2.0, 1e6)
                remaining = remaining & ~take
            if not remaining.any():
                break
            step = np.where(remaining, step * 0.5, step)
            stalled = remaining & (step < 1e-16)
            if stalled.any():
                done |= stalled
                remaining = remaining & ~stalled
            if not remaining.any():
                break

    best = float(f.max())
    candidates = np.flatnonzero(f >= best - _LEX_TIE_TOL)
    caps_flat = view.capacities.ravel()
    chosen = min(candidates, key=lambda r: tuple(H[r] * caps_flat))
    ratios = H[chosen].reshape(n, dim)
    diag = SolverDiagnostics(iterations=iterations, restarts=k, grad_norm=float(pg_norm[chosen]))
    return _finalize(view, ratios, diag)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def optimize_acceptance(view: Economy, method: str | None = None, seed: int = 0) -> AllocationResult:
    """Maximize reported social surplus over acceptance ratios in ``[0, 1]``.

    ``method`` is ``"analytic"`` (water-fill; errors when the family does not
    support it), ``"projected_gradient"``, or ``None`` to pick the water-fill
    whenever it applies. ``seed`` draws the projected-gradient restarts.
    """
    if method is None:
        method = "analytic" if supports_waterfill(view) else "projected_gradient"
    if method == "analytic":
        return analytic_waterfill(view)
    if method == "projected_gradient":
        return _projected_gradient(view, seed=seed)
    raise ValueError(f"unknown method {method!r}; expected 'analytic' or 'projected_gradient'")


def counterfactual_surplus(
    view: Economy,
    removed_producer: int,
    method: str | None = None,
    seed: int = 0,
) -> AllocationResult:
    """Solve the acceptance problem with one producer deleted.

    The valuation family (including its synergy scale) is unchanged; removing
    the producer is equivalent to pinning its acceptance to zero. For a
    single-producer economy the result is the empty coalition with zero
    surplus.
    """
    if not 0 <= removed_producer < view.n:
        raise IndexError(f"producer index {removed_producer} out of range for n={view.n}")
    if view.n == 1:
        return _empty_result(view.dim)
    return optimize_acceptance(view.drop_producer(removed_producer), method=method, seed=seed)


def solve_with_counterfactuals(
    view: Economy,
    method: str | None = None,
    seed: int = 0,
) -> tuple[AllocationResult, list[AllocationResult]]:
    """The full problem plus every producer-removed problem."""
    full = optimize_acceptance(view, method=method, seed=seed)
    removed = [counterfactual_surplus(view, i, method=method, seed=seed) for i in range(view.n)]
    return full, removed


# ---------------------------------------------------------------------------
# raw-array fast path (no dataclass overhead) for sampled checks and training
# ---------------------------------------------------------------------------


def waterfill_surplus(caps: Array, gammas: Array, theta_sum: float, scale: float) -> float:
    """Maximum surplus of a scalar sqrt_sum/linear economy, arrays in, float out."""
    if caps.size == 0 or theta_sum <= 0.0:
        return 0.0
    order, fills = _sorted_fills(caps, gammas, theta_sum, scale)
    total = float(fills.sum())
    return theta_sum * math.sqrt(scale * total) - float(gammas[order] @ fills)


def max_surplus(capacities, gammas, thetas, valuation, cost, method: str | None = None) -> float:
    """Maximum reported surplus of the raw ``(n, dim)`` capacity profile and types.

    Takes the water-fill fast path whenever it applies and solves the full
    problem otherwise; an empty coalition (n == 0) has zero surplus.
    """
    caps = np.asarray(capacities, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    if waterfill_applies(valuation, cost, caps.shape[1], method):
        return waterfill_surplus(caps[:, 0], gammas, float(np.sum(thetas)), valuation.scale)
    if caps.shape[0] == 0:
        return 0.0
    economy = Economy(caps, gammas, np.asarray(thetas, dtype=float), valuation, cost)
    return optimize_acceptance(economy, method=method).surplus


def waterfill_gains(caps: Array, gammas: Array, theta_sum: float, scale: float) -> tuple[float, Array]:
    """Full surplus and every producer-removed surplus for the scalar sqrt_sum family."""
    n = caps.shape[0]
    full = waterfill_surplus(caps, gammas, theta_sum, scale)
    removed = np.empty(n)
    for i in range(n):
        removed[i] = waterfill_surplus(np.delete(caps, i), np.delete(gammas, i), theta_sum, scale)
    return full, removed
