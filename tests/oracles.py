"""Independent surplus oracles used by the tests.

Everything here evaluates the square-root/linear surplus directly from its
definition,

    S(eta) = (sum_j theta_j) * sqrt(scale * sum_i caps_i * eta_i)
             - sum_i gamma_i * caps_i * eta_i,

with no greedy sorting and no marginal-value formula, so the oracle shares no
machinery with the production solvers it checks.

For n <= 2 the ratio grid is enumerated outright. For n = 3 at fine steps full
enumeration is too large (1001^3 cells), so the oracle enumerates the first
two axes and finds the exact grid maximum along the third axis by integer
Fibonacci search: the surplus restricted to one ratio coordinate is concave
(square root of an affine function minus an affine function), hence unimodal
on the grid, and each step keeps a grid maximizer inside the bracket with one
new evaluation. A line whose value term at its far end less its cost at k = 0
is below a value already found is dropped, since no point on it can reach
that value. The result is bit-for-bit the maximum over the full grid.
``test_acceptance.py`` cross-validates this path against full enumeration on
coarse grids, and ``test_allocation.py`` against the earlier ternary search
(``grid_max_3d_ternary``). ``vertex_max_squares`` maximizes the
sqrt_sum_squares surplus the same way, from its definition, over the vertices
of the ratio box.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def _grid_axis(step: float) -> np.ndarray:
    return np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)


def grid_max_full(caps, gammas, theta_sum, scale, step) -> float:
    """Plain full enumeration; intended for n <= 2 or coarse steps."""
    caps = np.asarray(caps, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    axis = _grid_axis(step)
    grids = np.meshgrid(*([axis] * caps.shape[0]), indexing="ij")
    H = np.stack([g.ravel() for g in grids], axis=1)
    accepted = H * caps
    surplus = theta_sum * np.sqrt(scale * accepted.sum(axis=1)) - accepted @ gammas
    return float(surplus.max())


def _grid_max_3d(caps, gammas, theta_sum, scale, step) -> float:
    axis = _grid_axis(step)
    points = axis.shape[0]
    a0, a1 = np.meshgrid(axis, axis, indexing="ij")
    quantity = (caps[0] * a0 + caps[1] * a1).ravel()
    cost = (gammas[0] * caps[0] * a0 + gammas[1] * caps[1] * a1).ravel()
    unit = caps[2] * step
    unit_cost = gammas[2] * caps[2] * step

    def value_term(k):
        return theta_sum * np.sqrt(scale * (quantity + unit * k))

    def line_value(k):
        # past the last grid point a line repeats its last value: still unimodal, so
        # every line can be searched over a Fibonacci length
        k = np.minimum(k, points - 1)
        return value_term(k) - (cost + unit_cost * k)

    # In floating point too, no value on a line exceeds its largest value
    # term less its smallest cost term (k = 0): a line whose bound is below a
    # value already found cannot hold the grid maximum.
    bound = np.maximum(value_term(0), value_term(points - 1)) - cost
    fib = [0, 1]  # up to the first Fibonacci number that spans the line, and at least 3
    while fib[-1] < max(points - 1, 3):
        fib.append(fib[-1] + fib[-2])
    m = len(fib) - 1
    lo = np.zeros(quantity.shape[0], dtype=np.int64)
    # integer Fibonacci search on [lo, lo + fib[m]], probes at lo + fib[m-2] < lo + fib[m-1]
    v1, v2 = line_value(lo + fib[m - 2]), line_value(lo + fib[m - 1])
    best = max(v1.max(), v2.max())
    while m > 4:
        keep = bound >= best
        if not keep.all():
            quantity, cost, bound, lo, v1, v2 = (x[keep] for x in (quantity, cost, bound, lo, v1, v2))
        m -= 1
        right = v1 < v2  # the maximum lies right of the first probe, which becomes lo
        lo = np.where(right, lo + fib[m - 1], lo)
        probe = line_value(lo + np.where(right, fib[m - 1], fib[m - 2]))
        v1, v2 = np.where(right, v2, probe), np.where(right, probe, v1)
        best = max(best, probe.max())
    ends = np.maximum(line_value(lo), line_value(lo + fib[m]))
    return float(max(best, np.maximum(np.maximum(v1, v2), ends).max()))


def grid_max_3d_ternary(caps, gammas, theta_sum, scale, step) -> float:
    """The n=3 grid maximum by integer ternary search on every line: the reference ``_grid_max_3d`` must equal."""
    axis = _grid_axis(step)
    points = axis.shape[0]
    a0, a1 = np.meshgrid(axis, axis, indexing="ij")
    base_quantity = (caps[0] * a0 + caps[1] * a1).ravel()
    base_cost = (gammas[0] * caps[0] * a0 + gammas[1] * caps[1] * a1).ravel()
    unit = caps[2] * step
    unit_cost = gammas[2] * caps[2] * step

    def line_value(k):
        quantity = base_quantity + unit * k
        return theta_sum * np.sqrt(scale * quantity) - (base_cost + unit_cost * k)

    lo = np.zeros(base_quantity.shape[0], dtype=np.int64)
    hi = np.full_like(lo, points - 1)
    while True:
        width = hi - lo
        active = width > 2
        if not active.any():
            break
        third = width // 3
        m1 = lo + third
        m2 = hi - third
        go_right = line_value(m1) < line_value(m2)
        lo = np.where(active & go_right, m1 + 1, lo)
        hi = np.where(active & ~go_right, m2, hi)

    best = line_value(lo)
    for offset in (1, 2):
        candidate = np.minimum(lo + offset, hi)
        best = np.maximum(best, line_value(candidate))
    return float(best.max())


def grid_max(caps, gammas, theta_sum, scale, step=1e-3) -> float:
    """Exact maximum of the surplus over the uniform ratio grid."""
    caps = np.asarray(caps, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    n = caps.shape[0]
    if n <= 2:
        return grid_max_full(caps, gammas, theta_sum, scale, step)
    if n == 3:
        return _grid_max_3d(caps, gammas, theta_sum, scale, step)
    raise ValueError("the test oracle supports n <= 3")


def vertex_max_squares(caps, gammas, thetas, scale) -> float:
    """Best surplus of the sqrt_sum_squares value with linear costs over the 2^n all-or-nothing acceptances.

    The value ``sum_j theta_j * sqrt(scale * sum_k t_k^2)`` is convex in the
    per-producer totals ``t_k`` and the cost ``sum_k gamma_k * t_k`` is
    linear, so the maximum over the ratio box is at a vertex: each producer
    accepted in full (``t_k = sum_d caps_kd``) or not at all. Every vertex is
    evaluated here in Python floats, with no library surplus or solver.
    """
    totals = [float(t) for t in np.asarray(caps, dtype=float).reshape(len(gammas), -1).sum(axis=1)]
    best = -math.inf
    for vertex in itertools.product((False, True), repeat=len(totals)):
        accepted = [(t, float(g)) for t, g, on in zip(totals, gammas, vertex) if on]
        root = math.sqrt(scale * sum(t * t for t, _ in accepted))
        best = max(best, sum(float(theta) * root for theta in thetas) - sum(g * t for t, g in accepted))
    return best


# ---------------------------------------------------------------------------
# per-producer payment oracle
# ---------------------------------------------------------------------------


def reference_analytic_adjustment(model, i: int, capacities_others, gammas_others, thetas) -> float:
    """An ``AnalyticAdjustment``'s value for producer ``i``, written for that one producer.

    ``-(S_pessimistic - S_without_i)``: the pessimistic problem inserts
    producer ``i`` at its support-minimum capacity and support-maximum cost
    type, and the problem without ``i`` inserts it at capacity 0 with the same
    cost type. Two ``reference_max_surplus`` solves, with no batch of producers
    and no stacked rows.
    """
    from pvcg.model import as_quantity_matrix

    support = model.support
    if not 0 <= i < support.n:
        raise IndexError(f"producer index {i} out of range for n={support.n}")
    others = as_quantity_matrix(capacities_others, n=support.n - 1, dim=support.dim, name="others' capacities")
    gammas_others = np.asarray(gammas_others, dtype=float)
    pess_caps = np.insert(others, i, support.cap_lo[i], axis=0)
    pess_gammas = np.insert(gammas_others, i, support.gamma_hi[i])
    zero_caps = np.insert(others, i, 0.0, axis=0)
    s_pessimistic = reference_max_surplus(pess_caps, pess_gammas, thetas, model.valuation, model.cost, model.method)
    s_without = reference_max_surplus(zero_caps, pess_gammas, thetas, model.valuation, model.cost, model.method)
    return float(-(s_pessimistic - s_without))


def reference_learned_adjustment(model, i: int, capacities_others, gammas_others, thetas) -> float:
    """A ``LearnedAdjustment``'s value for producer ``i``: network ``i`` on the others' reports.

    The input row is laid out from the others' reports alone and normalized
    by the prior box with producer ``i``'s entries deleted, without the
    model's full-row gather; one ``(1, k)`` forward pass.
    """
    from pvcg.learner import _layout, _normalize

    s = model.support
    if not 0 <= i < s.n:
        raise IndexError(f"producer index {i} out of range for n={s.n}")
    box = (np.stack([s.cap_lo, s.cap_hi]), np.stack([s.gamma_lo, s.gamma_hi]), np.stack([s.theta_lo, s.theta_hi]))
    lo, hi = _layout(np.delete(box[0], i, axis=1), np.delete(box[1], i, axis=1), box[2])
    raw = _layout(
        np.asarray(capacities_others, dtype=float)[None],
        np.atleast_1d(np.asarray(gammas_others, dtype=float))[None],
        np.atleast_1d(np.asarray(thetas, dtype=float))[None],
    )
    out, _ = _reference_forward(model.nets[i], _normalize(raw, lo, hi))
    return float(out[0])


def adjustment_for(adjustment, view, i: int) -> float:
    """Producer ``i``'s adjustment under the reports in ``view``; it reads only the others' reports.

    Analytic and learned adjustments are priced by the reference above, not
    by the model's own per-producer call; ``None`` and the zero adjustment
    are 0.0, and any other callable is asked itself.
    """
    from pvcg import AnalyticAdjustment, LearnedAdjustment, ZeroAdjustment

    if adjustment is None or isinstance(adjustment, ZeroAdjustment):
        return 0.0
    keep = [k for k in range(view.n) if k != i]
    reports = (i, view.capacities[keep], view.cost_types[keep], view.valuation_types)
    if isinstance(adjustment, AnalyticAdjustment):
        return reference_analytic_adjustment(adjustment, *reports)
    if isinstance(adjustment, LearnedAdjustment):
        return reference_learned_adjustment(adjustment, *reports)
    return float(adjustment(*reports))


def _drop_producer(view, i):
    """The economy without producer ``i``: its capacity zeroed, its cost type kept; the families are unchanged."""
    if not 0 <= i < view.n:
        raise IndexError(f"producer index {i} out of range for n={view.n}")
    caps = view.capacities.copy()
    caps[i] = 0.0
    return type(view)(caps, view.cost_types, view.valuation_types, view.valuation, view.cost)


def _delete_producer(view, i):
    """The n-1 producers other than ``i``, index-deleted; the families, synergy scale included, are unchanged."""
    if not 0 <= i < view.n:
        raise IndexError(f"producer index {i} out of range for n={view.n}")
    keep = [k for k in range(view.n) if k != i]
    return type(view)(view.capacities[keep], view.cost_types[keep], view.valuation_types, view.valuation, view.cost)


def reference_payment(economy, bids, adjustment, punishment):
    """The water-fill payment stage producer by producer, from public primitives only.

    Each problem (the full one and every ``_drop_producer`` one) keeps the
    water-fill's ratios and takes its surplus from the one-economy
    ``_reference_waterfill_surplus``; the pivot payment, the punishment, true
    costs and income use the family objects' own ``cost`` and ``value`` one
    producer or consumer at a time, and the adjustment comes from
    ``adjustment_for``.
    """
    from pvcg import PaymentBreakdown, analytic_waterfill

    def solve(view):
        accepted = view.capacities * analytic_waterfill(view).ratios
        surplus = _reference_waterfill_surplus(
            view.capacities[:, 0], view.cost_types, view.valuation_types.sum(), view.valuation.scale
        )
        return accepted, surplus

    view = economy.view(bids)
    n = view.n
    accepted, surplus = solve(view)
    removed = [solve(_drop_producer(view, i))[1] for i in range(n)]
    taus = np.array(
        [surplus - removed[i] + view.cost.cost(accepted[i], float(view.cost_types[i])) for i in range(n)]
    )
    adjustments = np.array([adjustment_for(adjustment, view, i) for i in range(n)])
    true_caps = economy.capacities
    punished = (accepted > true_caps + 1e-9 * (1.0 + np.abs(true_caps))).any(axis=1)
    totals = np.where(punished, -punishment, taus + adjustments)
    delivered = np.where(punished[:, None], 0.0, accepted)
    true_costs = np.array([economy.cost.cost(delivered[k], float(g)) for k, g in enumerate(economy.cost_types)])
    income = float(sum(economy.valuation.value(delivered, float(t)) for t in economy.valuation_types))
    return PaymentBreakdown(
        tau=taus,
        adjustment=adjustments,
        total=totals,
        utilities=totals - true_costs,
        coalition_income=income,
        budget_slack=float(income - totals.sum()),
        punished=punished,
        surplus=surplus,
        counterfactual_surpluses=np.array(removed),
        accepted=accepted,
        delivered=delivered,
    )


# ---------------------------------------------------------------------------
# finite-difference gradient oracles for the learner
# ---------------------------------------------------------------------------


def _loss_of(model, batch) -> float:
    caps, gammas, thetas, surpluses, removed = batch
    return reference_loss_and_grads(model, caps, gammas, thetas, surpluses[:, None] - removed, surpluses)[0]


def fd_loss_grads(model, batch, eps: float = 1e-6):
    """Central-difference gradients of the composite loss for every parameter."""
    grads = []
    for net in model.nets:
        d_weights = [np.zeros_like(w) for w in net.weights]
        d_biases = [np.zeros_like(b) for b in net.biases]
        for params, outs in ((net.weights, d_weights), (net.biases, d_biases)):
            for arr, out in zip(params, outs):
                flat = arr.reshape(-1)
                grad = out.reshape(-1)
                for j in range(flat.shape[0]):
                    orig = flat[j]
                    flat[j] = orig + eps
                    up = _loss_of(model, batch)
                    flat[j] = orig - eps
                    down = _loss_of(model, batch)
                    flat[j] = orig
                    grad[j] = (up - down) / (2.0 * eps)
        grads.append((d_weights, d_biases))
    return grads


def fd_output_grads(net, x, eps: float = 1e-6):
    """Central-difference gradients of a single forward pass for every parameter."""
    d_weights = [np.zeros_like(w) for w in net.weights]
    d_biases = [np.zeros_like(b) for b in net.biases]
    for params, outs in ((net.weights, d_weights), (net.biases, d_biases)):
        for arr, out in zip(params, outs):
            flat = arr.reshape(-1)
            grad = out.reshape(-1)
            for j in range(flat.shape[0]):
                orig = flat[j]
                flat[j] = orig + eps
                up = _reference_forward(net, x[None])[0][0]
                flat[j] = orig - eps
                down = _reference_forward(net, x[None])[0][0]
                flat[j] = orig
                grad[j] = (up - down) / (2.0 * eps)
    return d_weights, d_biases


def max_rel_error(analytic, numeric) -> float:
    worst = 0.0
    for a_group, n_group in zip(analytic, numeric):
        for a, n in zip(a_group, n_group):
            scale = max(float(np.abs(n).max(initial=0.0)), 1e-8)
            worst = max(worst, float(np.abs(a - n).max(initial=0.0)) / scale)
    return worst


# ---------------------------------------------------------------------------
# per-economy probe oracles
# ---------------------------------------------------------------------------
#
# ``probe_dsic``, ``check_surplus_monotonicity``, ``payment_surface`` and
# ``ir_wbb_sweep`` as they were before the probes priced their samples in one
# batch: one economy, one solve and one payment at a time, through the public
# per-economy functions; each solve is ``reference_solve``, so a projected
# gradient is the one-economy oracle below. The batched probes must return the
# same reports. The DSIC and monotonicity oracles take the probes' drawn arrays,
# so they hold the pricing and the recording, and the draws have tests of their own.

from dataclasses import replace  # noqa: E402

from pvcg.allocation import AllocationResult, SolverDiagnostics, optimize_acceptance, waterfill_applies  # noqa: E402
from pvcg.experiment import SurfaceGrid, SurfaceRecord  # noqa: E402
from pvcg.adjustment import PriorSupport  # noqa: E402
from pvcg.model import Economy  # noqa: E402
from pvcg.payments import (  # noqa: E402
    TAU_FORM_TOL,
    PaymentBreakdown,
    _punished_mask,
    deviation_utilities,
    tau_for_producer,
    total_payment,
)
from pvcg.verification import SURPLUS_TOL, UTILITY_TOL, ProbeReport  # noqa: E402


def record(report: ProbeReport, gap: float, witness: dict, tol: float) -> None:
    """Record one gap as the probes did one economy at a time: raise ``max_gap``, keep a witness above ``tol``."""
    if not tol < math.inf:
        raise ValueError(f"tol must be a number below +inf, got {tol}")
    report.max_gap = max(report.max_gap, gap)
    if gap > tol:
        witness["gap"] = gap
        report.violations.append(witness)


# ---------------------------------------------------------------------------
# the surplus, consumer by consumer and producer by producer
# ---------------------------------------------------------------------------
#
# One profile's total consumer value and ``model.social_surplus`` as Python
# loops over the family's ``value`` and ``cost``, so the row functions the
# library evaluates them with are held to a path that shares none of their code.


def total_valuation(view, accepted) -> float:
    """Sum of consumer values at the ``(n, dim)`` accepted profile, one ``value`` call per consumer."""
    return float(sum(view.valuation.value(accepted, float(t)) for t in view.valuation_types))


def social_surplus(view, accepted) -> float:
    """Total consumer value minus the producers' costs, summed left to right from 0."""
    costs = sum(view.cost.cost(accepted[i], float(g)) for i, g in enumerate(view.cost_types))
    return total_valuation(view, accepted) - float(costs)


# ---------------------------------------------------------------------------
# per-producer payment path
# ---------------------------------------------------------------------------
#
# ``counterfactual_surplus``, ``solve_with_counterfactuals``, ``vcg_tau``,
# ``total_payment`` and one producer's utility as they were before every auction
# was priced as a batch of economies: one ``reference_solve`` per full or
# producer-removed problem and one producer at a time. ``total_payment`` took
# this path for every family and method but the water-fill; it must give the
# same bits.


def reference_counterfactual_surplus(view, removed_producer, method=None, seed=0) -> AllocationResult:
    """Solve the acceptance problem without one producer: the same economy with its capacity zeroed."""
    return reference_solve(_drop_producer(view, removed_producer), method=method, seed=seed)


def reference_solve_with_counterfactuals(view, method=None, seed=0):
    """The full problem plus every producer-removed problem, each of n producers."""
    full = reference_solve(view, method=method, seed=seed)
    removed = [reference_counterfactual_surplus(view, i, method=method, seed=seed) for i in range(view.n)]
    return full, removed


def reference_deleted_counterfactuals(view, method=None, seed=0) -> list:
    """Every producer-removed problem in the index-deleted form: n-1 producers, a lone producer none."""
    if view.n == 1:
        zero = np.zeros((0, view.dim))
        return [AllocationResult(zero, zero.copy(), 0.0, SolverDiagnostics(0, 0, 0.0))]
    return [reference_solve(_delete_producer(view, i), method=method, seed=seed) for i in range(view.n)]


def reference_vcg_tau(view, allocation, counterfactuals):
    """Pivot payments with the two-form check, one zero-capacity removed allocation at a time."""
    n = view.n
    accepted = allocation.accepted
    costs_full = np.array([view.cost.cost(accepted[k], float(g)) for k, g in enumerate(view.cost_types)])
    taus = allocation.surplus - np.array([r.surplus for r in counterfactuals]) + costs_full
    value_removed = np.empty(n)
    others_cost_removed = np.empty(n)
    for i, removed in enumerate(counterfactuals):
        value_removed[i] = total_valuation(view, removed.accepted)
        # the removed problem's surplus costs producer i's zero bundle too
        others_cost_removed[i] = float(
            sum(view.cost.cost(removed.accepted[k], float(view.cost_types[k])) for k in range(n))
        )
    others_cost_full = costs_full.sum() - costs_full
    expanded = (total_valuation(view, accepted) - value_removed) - (others_cost_full - others_cost_removed)
    for i in range(n):
        if abs(taus[i] - expanded[i]) > TAU_FORM_TOL:
            raise RuntimeError(f"pivot payment forms disagree for producer {i}: {float(taus[i])!r} vs {float(expanded[i])!r}")
    return taus


def reference_total_payment(economy, bids=None, adjustment=None, punishment=1e6, method=None, seed=0):
    """The payment stage solved and priced producer by producer."""
    view = economy.view(bids)
    full, removed = reference_solve_with_counterfactuals(view, method=method, seed=seed)
    taus = reference_vcg_tau(view, full, removed)
    adjustments = np.array([adjustment_for(adjustment, view, i) for i in range(view.n)])
    accepted = full.accepted
    punished = _punished_mask(accepted, economy.capacities)
    totals = np.where(punished, -punishment, taus + adjustments)
    delivered = np.where(punished[:, None], 0.0, accepted)
    true_costs = np.array(
        [economy.cost.cost(delivered[k], float(g)) for k, g in enumerate(economy.cost_types)]
    )
    income = float(sum(economy.valuation.value(delivered, float(t)) for t in economy.valuation_types))
    return PaymentBreakdown(
        tau=taus,
        adjustment=adjustments,
        total=totals,
        utilities=totals - true_costs,
        coalition_income=income,
        budget_slack=float(income - totals.sum()),
        punished=punished,
        surplus=full.surplus,
        counterfactual_surpluses=np.array([r.surplus for r in removed]),
        accepted=accepted,
        delivered=delivered,
    )


def reference_producer_utility(economy, bids, producer, adjustment=None, punishment=1e6, method=None, seed=0):
    """Utility and pivot payment of one producer from its two solves."""
    view = economy.view(bids)
    full = reference_solve(view, method=method, seed=seed)
    removed = reference_counterfactual_surplus(view, producer, method=method, seed=seed)
    h = adjustment_for(adjustment, view, producer)
    utility, tau = deviation_utilities(
        economy.capacities[producer], economy.cost_types[producer], view.cost_types[producer], view.cost,
        full.accepted[producer], full.surplus, removed.surplus, h, punishment,
    )
    return float(utility), float(tau)


def reference_utility_from_solves(economy, view, full, removed, i, h, punishment):
    """Utility and pivot payment of producer ``i`` from the solved reported problems, one producer."""
    tau = tau_for_producer(view, full, removed, i)
    accepted_i = full.accepted[i]
    if _punished_mask(accepted_i[None, :], economy.capacities[i][None, :])[0]:
        return -punishment, tau
    return tau + h - economy.cost.cost(accepted_i, float(economy.cost_types[i])), tau


def reference_prior_draw(support, count, rng):
    """``count`` economies' capacities, cost types and valuation types, uniform on the box, one generator call per box."""
    return tuple(
        rng.uniform(lo, hi, size=(count,) + lo.shape)
        for lo, hi in ((support.cap_lo, support.cap_hi), (support.gamma_lo, support.gamma_hi),
                       (support.theta_lo, support.theta_hi))
    )


def reference_uniform_economy_sampler(support, valuation, cost):
    """Economies with true parameters drawn uniformly from the support box, one generator call per box."""

    def sampler(rng) -> Economy:
        caps = rng.uniform(support.cap_lo, support.cap_hi)
        gammas = rng.uniform(support.gamma_lo, support.gamma_hi)
        thetas = rng.uniform(support.theta_lo, support.theta_hi)
        return Economy(caps, gammas, thetas, valuation, cost)

    return sampler


def reference_mixed_deviation_sampler(support):
    """Unilateral misreports, one per call: box-uniform draws plus the targeted patterns
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


def reference_probe_dsic(
    caps,
    gammas,
    thetas,
    valuation,
    cost,
    producers,
    dev_caps,
    dev_gammas,
    adjustment=None,
    punishment: float = 1e6,
    method: str | None = None,
    tol: float = UTILITY_TOL,
) -> ProbeReport:
    """Compare truthful utility against given unilateral misreports, one economy and one deviation at a time.

    Economy t is ``caps[t]``, ``gammas[t]``, ``thetas[t]``; its deviations are
    an equal share of ``producers``, in order, and deviation r has producer
    ``producers[r]`` report ``dev_caps[r]`` and ``dev_gammas[r]`` (the others
    truthful). A violation is recorded when the deviation beats truth by more
    than ``tol``. The punishment constant must dominate every observed pivot
    payment (P > 10 max |tau|), otherwise the probe rejects its configuration
    instead of passing vacuously.
    """
    trials, deviations = len(caps), len(producers)
    per_trial = deviations // trials
    report = ProbeReport(name="dsic", trials=deviations)
    max_abs_tau = 0.0

    for trial in range(trials):
        economy = Economy(caps[trial], gammas[trial], thetas[trial], valuation, cost)
        full_truth = reference_solve(economy, method=method)
        removed_cache: dict[int, AllocationResult] = {}
        truth_cache: dict[int, float] = {}
        h_cache: dict[int, float] = {}

        for r in range(trial * per_trial, (trial + 1) * per_trial):
            i = int(producers[r])
            if i not in removed_cache:
                removed_cache[i] = reference_counterfactual_surplus(economy, i, method=method)
                h_cache[i] = adjustment_for(adjustment, economy, i)
                truth_cache[i], tau_truth = reference_utility_from_solves(
                    economy, economy, full_truth, removed_cache[i], i, h_cache[i], punishment
                )
                max_abs_tau = max(max_abs_tau, abs(tau_truth))

            dev_caps_r = economy.capacities.copy()
            dev_caps_r[i] = dev_caps[r]
            dev_gammas_r = economy.cost_types.copy()
            dev_gammas_r[i] = dev_gammas[r]
            dev_view = replace(economy, capacities=dev_caps_r, cost_types=dev_gammas_r)
            full_dev = reference_solve(dev_view, method=method)
            # the removed problem ignores producer i's report: reuse the truthful one
            utility_dev, tau_dev = reference_utility_from_solves(
                economy, dev_view, full_dev, removed_cache[i], i, h_cache[i], punishment
            )
            max_abs_tau = max(max_abs_tau, abs(tau_dev))
            record(
                report,
                utility_dev - truth_cache[i],
                {
                    "trial": trial,
                    "producer": i,
                    "capacities": economy.capacities.tolist(),
                    "cost_types": economy.cost_types.tolist(),
                    "valuation_types": economy.valuation_types.tolist(),
                    "deviation_capacity": dev_caps[r].tolist(),
                    "deviation_gamma": float(dev_gammas[r]),
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


def reference_check_surplus_monotonicity(
    caps,
    gammas,
    thetas,
    valuation,
    cost,
    producers,
    coordinates,
    cap_steps,
    cost_steps,
    method: str | None = None,
    tol: float = SURPLUS_TOL,
) -> ProbeReport:
    """Monotonicity of S* on given economies, one at a time: rising in a raised capacity, falling in a raised cost type.

    Trial t raises capacity ``coordinates[t]`` of producer ``producers[t]`` of
    economy t by ``cap_steps[t]`` and, separately, its cost type by ``cost_steps[t]``.
    """
    report = ProbeReport(name="surplus_monotonicity", trials=len(caps))
    for trial in range(len(caps)):
        economy = Economy(caps[trial], gammas[trial], thetas[trial], valuation, cost)
        base = reference_solve(economy.view(), method=method).surplus
        i, d = int(producers[trial]), int(coordinates[trial])

        caps_up = economy.capacities.copy()
        caps_up[i, d] += cap_steps[trial]
        up_view = replace(economy, capacities=caps_up)
        surplus_up = reference_solve(up_view, method=method).surplus
        record(
            report,
            base - surplus_up,
            {"trial": trial, "kind": "capacity_increase", "producer": i, "before": base, "after": surplus_up},
            tol,
        )

        gammas_up = economy.cost_types.copy()
        gammas_up[i] += cost_steps[trial]
        costly_view = replace(economy, cost_types=gammas_up)
        surplus_costly = reference_solve(costly_view, method=method).surplus
        record(
            report,
            surplus_costly - base,
            {"trial": trial, "kind": "cost_increase", "producer": i, "before": base, "after": surplus_costly},
            tol,
        )
    return report


def reference_payment_surface(
    valuation,
    cost,
    n: int,
    m: int,
    adjustment=None,
    grid: SurfaceGrid | None = None,
    method: str | None = None,
) -> SurfaceRecord:
    """Evaluate producer 0's payment over a grid of its own reports.

    All other producers report ``fixed_capacity``/``fixed_gamma`` and all
    consumers ``fixed_theta``; reports are taken at face value (no
    punishment). The producer-removed problem, producer 0's capacity zeroed,
    and the adjustment read no report of producer 0; both are taken once, at
    the grid's first profile.
    """
    if grid is None:
        grid = SurfaceGrid()
    caps_others = np.full((n - 1, 1), grid.fixed_capacity)
    gammas_others = np.full(n - 1, grid.fixed_gamma)
    thetas = np.full(m, grid.fixed_theta)

    def reported(x0, g0) -> Economy:
        caps = np.vstack(([[x0]], caps_others))
        return Economy(caps, np.concatenate(([g0], gammas_others)), thetas, valuation, cost)

    x_values = np.linspace(grid.x_lo, grid.x_hi, grid.x_points)
    gamma_values = np.linspace(grid.gamma_lo, grid.gamma_hi, grid.gamma_points)
    first = reported(x_values[0], gamma_values[0])
    removed = reference_counterfactual_surplus(first, 0, method=method)
    h0 = adjustment_for(adjustment, first, 0)
    tau = np.empty((grid.x_points, grid.gamma_points))
    for a, x0 in enumerate(x_values):
        for b, g0 in enumerate(gamma_values):
            view = reported(x0, g0)
            full = reference_solve(view, method=method)
            tau[a, b] = tau_for_producer(view, full, removed, 0)
    return SurfaceRecord(
        x_values=x_values,
        gamma_values=gamma_values,
        tau=tau,
        payments=tau + h0,
        adjustment=h0,
        fixed={
            "capacity": grid.fixed_capacity,
            "gamma": grid.fixed_gamma,
            "theta": grid.fixed_theta,
            "n": n,
            "m": m,
        },
    )


def reference_loss_components(payments) -> tuple[float, float]:
    """The rationality and budget penalty terms of one priced economy, from their definitions."""
    gains = payments.surplus - payments.counterfactual_surpluses
    rationality = np.maximum(-gains - payments.adjustment, 0.0)
    budget = np.maximum((gains + payments.adjustment).sum(axis=-1) - payments.surplus, 0.0)
    return float(rationality.sum()), float(budget)


def reference_check_ir(economy, payments, tol: float = SURPLUS_TOL) -> ProbeReport:
    """Every producer's utility non-negative, one producer at a time, cross-checked by h_i >= -(S* - S*_{-i})."""
    report = ProbeReport(name="individual_rationality", trials=economy.n)
    for i in range(economy.n):
        record(report, -float(payments.utilities[i]), {"producer": i, "utility": float(payments.utilities[i])}, tol)
    gains = payments.surplus - payments.counterfactual_surpluses
    restated = bool(np.all(payments.adjustment + gains >= -tol))
    direct = bool(np.all(payments.utilities >= -tol))
    if restated != direct and not payments.punished.any():
        report.violations.append({"kind": "restatement_mismatch", "direct": direct, "restated": restated})
    return report


def reference_check_wbb(economy, payments, tol: float = SURPLUS_TOL) -> ProbeReport:
    """Total payments within the coalition income, cross-checked by sum h_i <= S* - sum(S* - S*_{-i})."""
    report = ProbeReport(name="weak_budget_balance", trials=1)
    paid = float(payments.total.sum())
    record(report, paid - payments.coalition_income, {"paid": paid, "income": payments.coalition_income}, tol)
    gains = payments.surplus - payments.counterfactual_surpluses
    restated = bool(payments.adjustment.sum() <= payments.surplus - gains.sum() + tol)
    direct = bool(paid <= payments.coalition_income + tol)
    if restated != direct and not payments.punished.any():
        report.violations.append({"kind": "restatement_mismatch", "direct": direct, "restated": restated})
    return report


def reference_ir_wbb_sweep(
    support: PriorSupport,
    valuation,
    cost,
    adjustment=None,
    samples: int = 1000,
    seed: int = 0,
    punishment: float = 1e6,
    method: str | None = None,
    min_pass_rate: float = 1.0,
    max_mean_penalty: float | None = None,
) -> dict:
    """Truthful payment runs over prior draws, checking rationality and budget per instance.

    Also asserts, instance by instance, that the rationality penalty term is
    zero exactly when the rationality probe passes, and likewise for the
    budget term (the loss/probe equivalence); mismatches always fail the
    sweep. Exact adjustments (zero, analytic) should be held to
    ``min_pass_rate=1.0`` at the strict tolerance. A trained network controls
    only the expected penalty, so it is gated by ``max_mean_penalty`` (a
    fresh-sample bound on its training loss) while its strict pass rate is
    still reported for inspection.
    """
    caps, gammas, thetas = reference_prior_draw(support, samples, np.random.default_rng(seed))
    ir_violations: list = []
    wbb_violations: list = []
    mismatches: list = []
    clean = 0
    penalty_sum = 0.0
    worst_utility = np.inf
    worst_slack = np.inf
    for k in range(samples):
        economy = Economy(caps[k], gammas[k], thetas[k], valuation, cost)
        payments = total_payment(
            economy, adjustment=adjustment, punishment=punishment, method=method
        )
        ir = reference_check_ir(economy, payments)
        wbb = reference_check_wbb(economy, payments)
        worst_utility = min(worst_utility, float(payments.utilities.min()))
        worst_slack = min(worst_slack, payments.budget_slack)
        if ir.passed and wbb.passed:
            clean += 1
        if not ir.passed:
            ir_violations.append({"sample": k, **ir.violations[0]})
        if not wbb.passed:
            wbb_violations.append({"sample": k, **wbb.violations[0]})
        term1, term2 = reference_loss_components(payments)
        penalty_sum += term1 + term2
        if (term1 <= economy.n * SURPLUS_TOL) != ir.passed:
            mismatches.append({"sample": k, "kind": "rationality", "term": term1, "probe": ir.passed})
        if (term2 <= SURPLUS_TOL) != wbb.passed:
            mismatches.append({"sample": k, "kind": "budget", "term": term2, "probe": wbb.passed})
    pass_rate = clean / samples
    mean_penalty = penalty_sum / samples
    rate_ok = pass_rate >= min_pass_rate
    penalty_ok = max_mean_penalty is None or mean_penalty <= max_mean_penalty
    return {
        "samples": samples,
        "ir_violations": len(ir_violations),
        "wbb_violations": len(wbb_violations),
        "equivalence_mismatches": len(mismatches),
        "pass_rate": pass_rate,
        "min_pass_rate": min_pass_rate,
        "mean_penalty": mean_penalty,
        "max_mean_penalty": max_mean_penalty,
        "worst_utility": worst_utility,
        "worst_budget_slack": worst_slack,
        "passed": rate_ok and penalty_ok and not mismatches,
        "witnesses": (ir_violations + wbb_violations + mismatches)[:10],
    }


# ---------------------------------------------------------------------------
# per-column water-fill and per-network training oracles
# ---------------------------------------------------------------------------
#
# ``waterfill_gains`` and the learner's loss, gradients and training loop as
# they were before every removed water-fill shared its economy's sort and the
# n networks trained as one stack: one sort and one kernel call per producer
# column, and one 2-D forward and backward pass per network. The stacked code
# must give the same bits.

from pvcg.adjustment import feasibility_penalties  # noqa: E402
from pvcg.learner import MLP, LearnedAdjustment, _layout, _normalize, mlp_init  # noqa: E402


def reference_sample_from(support, count, rng):
    """The prior draw as three ``rng.uniform`` calls: capacities, cost types, valuation types."""
    caps = rng.uniform(support.cap_lo, support.cap_hi, size=(count,) + support.cap_lo.shape)
    gammas = rng.uniform(support.gamma_lo, support.gamma_hi, size=(count, support.n))
    thetas = rng.uniform(support.theta_lo, support.theta_hi, size=(count, support.m))
    return caps, gammas, thetas


def _reference_waterfill_surplus(caps, gammas, theta_sum, scale):
    if gammas.shape[-1] == 0:
        return np.zeros(gammas.shape[:-1]) if gammas.ndim > 1 else 0.0
    order = np.argsort(gammas, axis=-1, kind="stable")
    flat = order
    if order.ndim > 1:
        flat = order + np.arange(0, order.size, order.shape[-1]).reshape(order.shape[:-1] + (1,))
    caps_sorted = caps.take(flat)
    gammas_sorted = gammas.take(flat)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.asarray(theta_sum)[..., None] / (2.0 * gammas_sorted)
        fills = np.where(gammas_sorted > 0, scale * ratio * ratio, np.inf)
    fills[..., 1:] -= np.cumsum(caps_sorted, axis=-1)[..., :-1]
    fills = np.minimum(np.maximum(fills, 0.0, out=fills), caps_sorted, out=fills)
    cost = (gammas_sorted[..., None, :] @ fills[..., :, None])[..., 0, 0]
    surplus = theta_sum * np.sqrt(scale * fills.sum(axis=-1)) - cost
    if np.ndim(surplus) == 0:
        return float(surplus) if theta_sum > 0.0 else 0.0
    return np.where(theta_sum > 0.0, surplus, 0.0)


def reference_waterfill_gains(caps, gammas, theta_sum, scale):
    """Full and producer-removed surpluses, each removed economy with that capacity zeroed and sorted by itself."""
    full = _reference_waterfill_surplus(caps, gammas, theta_sum, scale)
    removed = np.empty(gammas.shape)
    for j in range(gammas.shape[-1]):
        zeroed = caps.copy()
        zeroed[..., j] = 0.0
        removed[..., j] = _reference_waterfill_surplus(zeroed, gammas, theta_sum, scale)
    return full, removed


def _reference_inputs(model, caps, gammas, thetas):
    """Network i's normalized ``(T, k)`` inputs, built network by network."""
    s = model.support
    box = (np.stack([s.cap_lo, s.cap_hi]), np.stack([s.gamma_lo, s.gamma_hi]), np.stack([s.theta_lo, s.theta_hi]))
    caps = caps.reshape(caps.shape[0], s.n, s.dim)
    inputs = []
    for i in range(s.n):
        lo, hi = _layout(np.delete(box[0], i, axis=1), np.delete(box[1], i, axis=1), box[2])
        inputs.append(_normalize(_layout(np.delete(caps, i, axis=1), np.delete(gammas, i, axis=1), thetas), lo, hi))
    return inputs


def _reference_forward(net, X):
    activations = [X]
    a = X
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
        activations.append(a)
    out = a @ net.weights[-1] + net.biases[-1]
    return out[:, 0], activations


def _reference_backward(net, activations, dout):
    d_weights = [None] * len(net.weights)
    d_biases = [None] * len(net.biases)
    delta = dout[:, None]
    for layer in range(len(net.weights) - 1, -1, -1):
        d_weights[layer] = activations[layer].T @ delta
        d_biases[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ net.weights[layer].T) * (activations[layer] > 0)
    return d_weights, d_biases


def reference_loss_and_grads(model, caps, gammas, thetas, gains, surpluses):
    """Loss and per-network ``(d_weights, d_biases)`` of the model on a batch of full draws, network by network."""
    T = surpluses.shape[0]
    outs, caches = [], []
    for net, X in zip(model.nets, _reference_inputs(model, caps, gammas, thetas)):
        out, acts = _reference_forward(net, X)
        outs.append(out)
        caches.append(acts)
    rationality, budget = feasibility_penalties(gains, np.stack(outs, axis=1), surpluses)
    loss = float(np.mean(rationality.sum(axis=1) + budget))
    d_out = (-(rationality > 0).astype(float) + (budget > 0).astype(float)[:, None]) / T
    return loss, [_reference_backward(net, caches[i], d_out[:, i]) for i, net in enumerate(model.nets)]


def reference_train(valuation, support, config, initial_model=None):
    """Water-fill training, each network stepped by itself; returns the nets and losses.

    The networks start fresh, or from copies of ``initial_model``'s.
    """
    n, m, dim = support.n, support.m, support.dim
    sizes = [(n - 1) * dim + (n - 1) + m, *config.hidden, 1]
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    init_rng = np.random.default_rng(seeds[0])
    data_rng = np.random.default_rng(seeds[1])
    if initial_model is None:
        nets = tuple(mlp_init(sizes, init_rng) for _ in range(n))
    else:
        nets = tuple(MLP([w.copy() for w in net.weights], [b.copy() for b in net.biases]) for net in initial_model.nets)
    model = LearnedAdjustment(nets, support, seed=config.seed)
    velocity = [([np.zeros_like(w) for w in net.weights], [np.zeros_like(b) for b in net.biases]) for net in model.nets]
    losses = []
    for _ in range(config.epochs):
        caps, gammas, thetas = reference_sample_from(support, config.batch_size, data_rng)
        surpluses, removed = reference_waterfill_gains(caps[..., 0], gammas, thetas.sum(axis=1), valuation.scale)
        loss, grads = reference_loss_and_grads(model, caps, gammas, thetas, surpluses[:, None] - removed, surpluses)
        losses.append(loss)
        if loss <= config.loss_tol:
            break
        for net, (d_weights, d_biases), (vel_w, vel_b) in zip(model.nets, grads, velocity):
            for k in range(len(net.weights)):
                vel_w[k] = config.momentum * vel_w[k] - config.learning_rate * d_weights[k]
                net.weights[k] += vel_w[k]
                vel_b[k] = config.momentum * vel_b[k] - config.learning_rate * d_biases[k]
                net.biases[k] += vel_b[k]
    return model.nets, losses


def per_network(d_weights, d_biases):
    """Stacked gradients as the per-network ``(d_weights, d_biases)`` pairs of the oracles above."""
    return [([dw[i] for dw in d_weights], [db[i] for db in d_biases]) for i in range(d_weights[0].shape[0])]


# ---------------------------------------------------------------------------
# one-economy projected-gradient oracle
# ---------------------------------------------------------------------------
#
# The spectral projected gradient as it was before one kernel solved a batch
# of economies with its objective prepared once: one economy, all ten start
# rows evaluated at every iteration, every constant derived again on each
# call. ``solve_batch`` and ``optimize_acceptance`` must give its bits.

from pvcg.model import LinearCost, SqrtSumValuation  # noqa: E402

_LEX_TIE_TOL = 1e-12
_SPG_MEMORY = 10


def _sqrt_sum_linear(valuation, cost) -> bool:
    return isinstance(valuation, SqrtSumValuation) and isinstance(cost, LinearCost)


def _reference_surplus_rows(view: Economy, H: Array) -> Array:
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


def _reference_grad_rows(view: Economy, H: Array, fd_step: float = 1e-6) -> Array:
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
        grads[:, d] = (_reference_surplus_rows(view, hp) - _reference_surplus_rows(view, hm)) / denom
    return grads


def reference_projected_gradient(
    view: Economy,
    seed: int = 0,
    restarts: int = 8,
    max_iter: int = 10_000,
    tol: float = 1e-8,
    armijo_c: float = 1e-4,
) -> AllocationResult:
    """Spectral projected gradient (Birgin, Martinez and Raydan, SIAM J. Optim. 2000) on all start rows at once.

    A row steps along ``clip(x + alpha g, 0, 1) - x``, ``alpha`` the Barzilai-Borwein step of ``-S`` in
    [1e-12, 1e12] (one over the projected-gradient norm while ``s'y <= 0``), halved until an Armijo test
    against the smallest of its last ``_SPG_MEMORY`` surpluses holds. It is done when that norm drops
    below ``tol``, or stalls when its line search runs out or its accepted step is exactly zero.
    """
    width = view.n * view.dim
    rng = np.random.default_rng(seed)
    starts = [np.zeros(width), np.ones(width)]
    starts += [rng.uniform(0.0, 1.0, size=width) for _ in range(restarts)]
    H = np.stack(starts)
    f = _reference_surplus_rows(view, H)
    history = np.repeat(f[:, None], _SPG_MEMORY, axis=1)
    done = np.zeros(len(H), dtype=bool)
    S = G = np.zeros_like(H)  # the last step, and the gradient before it

    for iterations in range(max_iter + 1):
        G, G_prev = _reference_grad_rows(view, H), G
        pg_norm = np.abs(H - np.clip(H + G, 0.0, 1.0)).max(axis=1)
        done |= pg_norm < tol
        if done.all() or iterations == max_iter:
            break
        sts, sty = np.einsum("kd,kd->k", S, S), np.einsum("kd,kd->k", S, G_prev - G)
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = np.clip(np.where(sty > 0.0, sts / sty, 1.0 / pg_norm), 1e-12, 1e12)
        D = np.clip(H + alpha[:, None] * G, 0.0, 1.0) - H
        slope = armijo_c * np.einsum("kd,kd->k", G, D)
        reference = history.min(axis=1)
        start, remaining, lam = H.copy(), ~done, np.ones(len(H))
        while remaining.any():
            trial = np.clip(start + lam[:, None] * D, 0.0, 1.0)
            f_trial = _reference_surplus_rows(view, trial)
            take = remaining & (f_trial >= reference + lam * slope)
            H[take], f[take] = trial[take], f_trial[take]
            remaining &= ~take
            lam[remaining] *= 0.5
            done |= remaining & (lam < 1e-16)
            remaining &= lam >= 1e-16
        S = H - start
        done |= ~S.any(axis=1)
        history[:, iterations % _SPG_MEMORY] = f

    best = float(f.max())
    candidates = np.flatnonzero(f >= best - _LEX_TIE_TOL)
    caps_flat = view.capacities.ravel()
    chosen = min(candidates, key=lambda r: tuple(H[r] * caps_flat))
    ratios = H[chosen].reshape(view.n, view.dim)
    diag = SolverDiagnostics(iterations=iterations, restarts=len(H), grad_norm=float(pg_norm[chosen]))
    accepted = view.capacities * ratios
    surplus = social_surplus(view, accepted)
    if not math.isfinite(surplus):
        raise ValueError(f"solver produced a non-finite surplus ({surplus})")
    return AllocationResult(ratios, accepted, surplus, diag)


def reference_solve(view, method=None, seed=0) -> AllocationResult:
    """``optimize_acceptance`` with every projected-gradient solve taken by ``reference_projected_gradient``."""
    if method is None and not waterfill_applies(view.valuation, view.cost, view.dim):
        method = "projected_gradient"
    if method == "projected_gradient":
        return reference_projected_gradient(view, seed=seed)
    return optimize_acceptance(view, method=method, seed=seed)


def reference_max_surplus(capacities, gammas, thetas, valuation, cost, method=None) -> float:
    """One economy's ``max_surplus`` by ``reference_solve``; an empty coalition has zero surplus."""
    if len(gammas) == 0:
        return 0.0
    return reference_solve(Economy(capacities, gammas, thetas, valuation, cost), method).surplus


# ---------------------------------------------------------------------------
# per-economy feasibility checks
# ---------------------------------------------------------------------------


def reference_feasibility_check(name, support, valuation, cost, samples, seed, method, tol, pessimistic):
    """``existence_check`` (``pessimistic``) or ``marginal_gains_check``, one replaced economy at a time.

    Each sample and each of its producer-replaced economies is solved alone by
    ``reference_max_surplus``: replaced producer i sits at its support extremes
    when ``pessimistic``, otherwise at zero capacity with its cost type kept.
    ``lhs`` adds the n marginal surpluses up producer by producer from 0.
    """
    from pvcg.adjustment import CheckReport

    caps, gammas, thetas = reference_sample_from(support, samples, np.random.default_rng(seed))
    report = CheckReport(name=name, samples=samples)
    for k in range(samples):
        surplus = reference_max_surplus(caps[k], gammas[k], thetas[k], valuation, cost, method)
        lhs = 0.0
        for i in range(support.n):
            caps_i, gammas_i = caps[k].copy(), gammas[k].copy()
            caps_i[i] = support.cap_lo[i] if pessimistic else 0.0
            if pessimistic:
                gammas_i[i] = support.gamma_hi[i]
            lhs += surplus - reference_max_surplus(caps_i, gammas_i, thetas[k], valuation, cost, method)
        gap = lhs - surplus
        report.max_gap = max(report.max_gap, gap)
        if gap > tol:
            report.violations.append({
                "sample": k, "gap": gap, "lhs": lhs, "surplus": surplus, "capacities": caps[k].tolist(),
                "cost_types": gammas[k].tolist(), "valuation_types": thetas[k].tolist(),
            })
    return report


# ---------------------------------------------------------------------------
# per-sample structural assumption checks
# ---------------------------------------------------------------------------


def reference_check_assumptions(valuation, cost, x, x_small, theta, gamma, producers, bumps, coordinates,
                                theta_steps, gamma_steps):
    """``check_assumptions`` on given draws, one sample at a time, through the scalar ``value``, ``cost`` and
    ``standalone``.

    Sample k is profile ``x[k]``, its shrunk copy ``x_small[k]``, types ``theta[k]`` and ``gamma[k]`` and producer
    ``producers[k]``, whose coordinate ``coordinates[k]`` is bumped by ``bumps[k]``; the types are raised by
    ``theta_steps[k]`` and ``gamma_steps[k]``.
    """
    from pvcg.model import ASSUMPTION_TOL as tol, AssumptionReport

    samples, n, dim = x.shape
    report = AssumptionReport(samples=samples)
    for k in range(samples):
        xk, xk_small, th, g = x[k], x_small[k], float(theta[k]), float(gamma[k])
        i, d = int(producers[k]), int(coordinates[k])

        # 1. monotonicity (random coordinate bump; theta/gamma bump)
        x_up = xk.copy()
        x_up[i, d] += bumps[k]
        v0 = valuation.value(xk, th)
        if valuation.value(x_up, th) < v0 - tol:
            report.monotonicity.append({"sample": k, "kind": "valuation/x", "x": xk.tolist(), "theta": th})
        if valuation.value(xk, th + theta_steps[k]) < v0 - tol:
            report.monotonicity.append({"sample": k, "kind": "valuation/theta", "x": xk.tolist(), "theta": th})
        c0 = cost.cost(xk[i], g)
        if cost.cost(x_up[i], g) < c0 - tol:
            report.monotonicity.append({"sample": k, "kind": "cost/x", "x_i": xk[i].tolist(), "gamma": g})
        if cost.cost(xk[i], g + gamma_steps[k]) < c0 - tol:
            report.monotonicity.append({"sample": k, "kind": "cost/gamma", "x_i": xk[i].tolist(), "gamma": g})

        # 2. zero input makes no difference
        x_zeroed = xk.copy()
        x_zeroed[i] = 0.0
        x_removed = np.delete(xk, i, axis=0)
        if abs(valuation.value(x_zeroed, th) - valuation.value(x_removed, th)) > tol:
            report.zero_input.append({"sample": k, "kind": "valuation", "x": xk.tolist(), "i": i, "theta": th})
        if abs(cost.cost(np.zeros(dim), g)) > tol:
            report.zero_input.append({"sample": k, "kind": "cost", "gamma": g})

        # 3. super-additivity against the lone-producer baseline
        solo_sum = sum(valuation.standalone(xk[j], th) for j in range(n))
        if valuation.value(xk, th) < solo_sum - tol:
            report.super_additivity.append(
                {"sample": k, "x": xk.tolist(), "theta": th, "joint": valuation.value(xk, th), "solo_sum": solo_sum}
            )

        # 4. decreasing cross marginal returns: x >= x_small componentwise
        lo_others = xk_small.copy()
        lo_others[i] = xk[i]
        hi_others_small_i = xk.copy()
        hi_others_small_i[i] = xk_small[i]
        lhs = valuation.value(xk, th) - valuation.value(hi_others_small_i, th)
        rhs = valuation.value(lo_others, th) - valuation.value(xk_small, th)
        if lhs > rhs + tol:
            report.cross_marginal.append(
                {"sample": k, "i": i, "x": xk.tolist(), "x_small": xk_small.tolist(), "theta": th, "gap": lhs - rhs}
            )
    return report


# ---------------------------------------------------------------------------
# grid best responses
# ---------------------------------------------------------------------------
#
# Producer i's utility at every report of a (capacity, cost type) grid, the
# others truthful, in the square-root/linear family. The allocation is the
# library's water-fill; the pivot payment, the punishment and the costs are
# worked out here from the accepted quantities, so ``deviation_utilities``
# can be held to them.


def grid_best_response(caps, gammas, thetas, scale, i, h, grid_caps, grid_gammas, punishment=1e6):
    """Utilities of producer ``i`` at R grid reports and at the truth, in T economies.

    Economy t has scalar capacities ``caps[t]`` ``(n,)``, cost types
    ``gammas[t]`` and valuation types ``thetas[t]``. Report r is
    ``(grid_caps[r], grid_gammas[r])``; column R of the result is the truthful
    report. ``h`` ``(..., T)`` holds producer i's adjustment in each economy
    under any number of adjustments: it reads only the others' reports, which
    stay truthful. A report accepted beyond the true capacity earns
    ``-punishment``; otherwise the producer is paid ``S - S_{-i} + g_rep x_i + h``
    and bears its true cost ``g_true x_i``. ``S`` is the reported economy's
    value less its reported costs at the accepted profile, and ``S_{-i}`` the
    water-fill surplus of the economy without producer i.

    Returns the ``(..., T, R + 1)`` utilities and the solved rows
    ``(reported cost types, accepted x_i, solver surplus, S_{-i})`` for
    holding ``deviation_utilities`` to them.
    """
    from pvcg.allocation import solve_batch

    reported_caps = np.repeat(caps[:, None, :], grid_caps.size + 1, axis=1)
    reported_gammas = np.repeat(gammas[:, None, :], grid_caps.size + 1, axis=1)
    reported_caps[:, :-1, i], reported_gammas[:, :-1, i] = grid_caps, grid_gammas
    accepted, solver_surplus = solve_batch(
        reported_caps[..., None], reported_gammas, thetas[:, None, :], SqrtSumValuation(scale=scale), LinearCost()
    )
    x = accepted[..., 0]
    theta_sum = thetas.sum(axis=1)
    surplus = theta_sum[:, None] * np.sqrt(scale * x.sum(axis=-1)) - (reported_gammas * x).sum(axis=-1)
    removed = _reference_waterfill_surplus(np.delete(caps, i, axis=1), np.delete(gammas, i, axis=1), theta_sum, scale)
    x_i, true_cap, true_gamma = x[..., i], caps[:, i, None], gammas[:, i, None]
    punished = x_i > true_cap + 1e-9 * (1.0 + true_cap)
    paid = surplus - removed[:, None] + reported_gammas[..., i] * x_i + np.asarray(h)[..., None]
    utilities = np.where(punished, -punishment, paid - true_gamma * x_i)
    return utilities, (reported_gammas[..., i], x_i, solver_surplus, removed)
