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
ternary search: the surplus restricted to one ratio coordinate is concave
(square root of an affine function minus an affine function), hence unimodal
on the grid, and the recursion below provably keeps a grid maximizer inside
[lo, hi]. The result is bit-for-bit the maximum over the full grid.
``test_acceptance.py`` cross-validates this path against full enumeration on
coarse grids.
"""

from __future__ import annotations

import numpy as np


def surplus_at(caps, gammas, theta_sum, scale, ratios) -> float:
    accepted = np.asarray(caps, dtype=float) * np.asarray(ratios, dtype=float)
    value = theta_sum * np.sqrt(scale * accepted.sum())
    return float(value - np.asarray(gammas, dtype=float) @ accepted)


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


# ---------------------------------------------------------------------------
# per-producer payment oracle
# ---------------------------------------------------------------------------


def reference_payment(economy, bids, adjustment, punishment):
    """The water-fill payment stage producer by producer, from public primitives only.

    Each problem (the full one and every ``drop_producer`` one) keeps the
    water-fill's ratios and takes its surplus from ``model.social_surplus``;
    the pivot payment, the punishment, true costs and income use the family
    objects' own ``cost`` and ``value`` one producer or consumer at a time,
    and the adjustment comes from ``adjustment_for``. This is the arithmetic
    ``total_payment`` did before it priced water-fill auctions in array form.
    """
    from pvcg import PaymentBreakdown, analytic_waterfill
    from pvcg.model import social_surplus
    from pvcg.payments import ZeroAdjustment, adjustment_for

    def solve(view):
        accepted = view.capacities * analytic_waterfill(view).ratios
        return accepted, social_surplus(view, accepted)

    view = economy.view(bids)
    n = view.n
    accepted, surplus = solve(view)
    removed = [solve(view.drop_producer(i))[1] if n > 1 else 0.0 for i in range(n)]
    taus = np.array(
        [surplus - removed[i] + view.cost.cost(accepted[i], float(view.cost_types[i])) for i in range(n)]
    )
    adjustment = adjustment or ZeroAdjustment()
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
    from pvcg.learner import composite_loss

    caps, gammas, thetas, surpluses, removed = batch
    return composite_loss(model, caps, gammas, thetas, surpluses, removed)


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
    from pvcg.learner import mlp_forward

    d_weights = [np.zeros_like(w) for w in net.weights]
    d_biases = [np.zeros_like(b) for b in net.biases]
    for params, outs in ((net.weights, d_weights), (net.biases, d_biases)):
        for arr, out in zip(params, outs):
            flat = arr.reshape(-1)
            grad = out.reshape(-1)
            for j in range(flat.shape[0]):
                orig = flat[j]
                flat[j] = orig + eps
                up = mlp_forward(net, x)
                flat[j] = orig - eps
                down = mlp_forward(net, x)
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
