"""Optimal acceptance ratios: closed-form water-fill and projected gradient ascent.

Both solvers maximize the social surplus of the reported economy over the box
of acceptance ratios ``eta in [0, 1]^(n x dim)``. The water-fill is exact for
the square-root/linear family at any ``dim``: its surplus reads only each
producer's total, so it is the scalar water-fill on the bundles' totals, with
one ratio per producer for all its coordinates. Projected gradient ascent with
multistart handles everything else.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import Economy, LinearCost, SqrtSumValuation, _check_count, _check_reports, bundle_totals, surplus_rows

Array = np.ndarray

__all__ = [
    "SolverDiagnostics",
    "AllocationResult",
    "waterfill_applies",
    "analytic_waterfill",
    "optimize_acceptance",
    "solve_batch",
]

_LEX_TIE_TOL = 1e-12
_SPG_MEMORY = 10  # accepted surpluses the nonmonotone line search looks back over
_SPG_RESTARTS = 8  # random start rows, after the all-zeros and all-ones rows
_SPG_MAX_ITER = 10_000
_SPG_TOL = 1e-8  # projected-gradient norm at which a row is done
_ARMIJO_C = 1e-4
_FD_STEP = 1e-6  # central-difference step of the gradient outside closed form
_FD_BLOCK = 1 << 16  # ratio entries per surplus_rows call of the finite differences


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


def _sqrt_sum_linear(valuation, cost) -> bool:
    """The square-root/linear family, whose value and gradient this module writes in closed form."""
    return isinstance(valuation, SqrtSumValuation) and isinstance(cost, LinearCost)


def waterfill_applies(valuation, cost, method: str | None = None) -> bool:
    """Whether ``method`` runs the exact water-fill for these families, else projected gradient.

    The water-fill applies to the square-root/linear family, at any resource dimension. ``None`` picks it wherever
    it applies. Raises for an unknown method, and for ``"analytic"`` where the water-fill does not apply: the one
    method rule of every solver and of the config and CLI checks.
    """
    # the solvers call this once per solve, so the accepted methods are tested first
    if method is None or method == "analytic":
        applies = _sqrt_sum_linear(valuation, cost)
        if applies or method is None:
            return applies
        raise ValueError("method: analytic water-fill requires the sqrt_sum valuation and linear cost")
    if method != "projected_gradient":
        raise ValueError(f"method must be None, 'analytic' or 'projected_gradient', got {method!r}")
    return False


# ---------------------------------------------------------------------------
# closed-form water-fill
# ---------------------------------------------------------------------------


def _cost_order(caps: Array, gammas: Array, theta_sum, scale: float) -> tuple[Array, Array, Array, Array]:
    """Sorts each economy of the water-fill kernel: producers on the last axis, any leading axes a batch.

    The fill runs in ascending cost order (ties by index). Producer j's fill
    stops at cumulative quantity ``scale * (Theta / 2 gamma_j)^2``, where the
    marginal value meets its unit cost; free producers (gamma == 0) never
    stop. ``theta_sum`` has the batch shape. Returns the fill order as flat
    indices into the batch, and the capacities, cost types and stop
    quantities along it.
    """
    # ndarray methods and ufuncs: on rows of ten the numpy function wrappers cost more than the arithmetic
    flat = gammas.argsort(axis=-1, kind="stable")
    if flat.ndim > 1 and flat.size:
        # one flat gather for the whole batch: each row's offset plus its order
        flat += np.arange(0, flat.size, flat.shape[-1]).reshape(flat.shape[:-1] + (1,))
    gammas_sorted = gammas.take(flat)
    # ratio before squaring: immune to underflow/overflow of the squares
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.asarray(theta_sum)[..., None] / (2.0 * gammas_sorted)
        stops = np.where(gammas_sorted > 0.0, scale * ratio * ratio, np.inf)
    return flat, caps.take(flat), gammas_sorted, stops


def _fills(caps_sorted: Array, stops: Array) -> Array:
    """Each stop quantity minus the quantity filled before it, clipped to [0, capacity]; overwrites ``stops``."""
    stops[..., 1:] -= np.add.accumulate(caps_sorted[..., :-1], axis=-1)
    return np.minimum(np.maximum(stops, 0.0, out=stops), caps_sorted, out=stops)


def _sorted_surplus(caps_sorted: Array, gammas_sorted: Array, stops: Array, theta_sum, scale: float):
    """Surplus of the fills along the cost order; 0 where nothing is worth accepting (``theta_sum <= 0``).

    This is the one water-fill surplus formula: every water-fill entry point
    takes its surplus from here, so they agree bit for bit on the same
    economy. Like ``_fills``, it leaves the fills in ``stops``.
    """
    fills = _fills(caps_sorted, stops)
    # a dot product per row, the one 1-D ``@`` would take
    cost = (gammas_sorted[..., None, :] @ fills[..., :, None])[..., 0, 0]
    return np.where(theta_sum > 0.0, theta_sum * np.sqrt(scale * np.add.reduce(fills, axis=-1)) - cost, 0.0)


def _waterfill_rows(caps: Array, gammas: Array, theta_sum, scale: float) -> tuple[Array, Array]:
    """Water-fill ratios ``(..., n)`` in producer order and surpluses ``(...)``, batched as ``_cost_order``.

    The surplus is ``_sorted_surplus`` of the fills the ratios come from. A
    producer without capacity, or any producer of an economy where nothing is
    worth accepting (``theta_sum <= 0``), gets ratio 0.
    """
    flat, caps_sorted, gammas_sorted, sorted_fills = _cost_order(caps, gammas, theta_sum, scale)
    # the stop quantities become the fills in place
    surplus = _sorted_surplus(caps_sorted, gammas_sorted, sorted_fills, theta_sum, scale)
    if not np.isfinite(surplus).all():
        bad = ~np.isfinite(surplus)
        raise ValueError(f"solver produced a non-finite surplus ({np.asarray(surplus)[bad].flat[0]})")
    fills = np.empty_like(sorted_fills)
    fills.put(flat, sorted_fills)
    worth = np.asarray(theta_sum)[..., None] > 0.0
    return np.divide(fills, caps, out=np.zeros(caps.shape), where=(caps > 0.0) & worth), surplus


def analytic_waterfill(view: Economy) -> AllocationResult:
    """Greedy exact solution for the square-root/linear family, on each producer's total capacity.

    A bundle fills as one capacity, its total, and its every coordinate takes
    the producer's one ratio, so the ``(n, dim)`` ratios repeat it along ``dim``.
    With aggregate accepted quantity ``U`` the marginal value of one more unit
    is ``Theta * sqrt(scale) / (2 sqrt(U))`` where ``Theta`` is the sum of
    valuation types. Producers are filled in ascending reported cost order
    (ties broken by producer index); producer i's fill stops where the
    marginal value meets its unit cost, i.e. at cumulative quantity
    ``scale * Theta^2 / (4 gamma_i^2)``, or at its reported capacity,
    whichever binds first. The surplus comes from the one water-fill formula
    that ``solve_batch``, ``_max_surplus``, ``waterfill_surplus`` and
    ``waterfill_gains`` share, so they all give the same bits on this economy;
    ``social_surplus`` of the accepted quantities agrees to about 1e-15.
    """
    waterfill_applies(view.valuation, view.cost, "analytic")
    ratios, surplus = _waterfill_rows(
        bundle_totals(view.capacities), view.cost_types, view.valuation_types.sum(axis=-1), view.valuation.scale
    )
    ratios = np.repeat(ratios[:, None], view.dim, axis=1)
    diag = SolverDiagnostics(iterations=view.n, restarts=0, grad_norm=0.0)
    return AllocationResult(ratios, view.capacities * ratios, float(surplus), diag)


@functools.lru_cache(maxsize=64)
def others_index(n: int) -> Array:
    """``(n, n-1)`` table whose row i lists every producer index but i, built once per n.

    Indexing a producer axis with it gives each producer's view of the others' reports.
    """
    keep = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, max(n - 1, 0))
    keep.flags.writeable = False
    return keep


@functools.lru_cache(maxsize=64)
def _replaced_mask(n: int, first: int = 0) -> Array:
    """Read-only ``(first + n, n)`` mask of ``_replaced``'s default stack, built once per n: the ``first`` rows clear,
    then row ``first + j`` set in slot j alone."""
    mask = np.eye(first + n, n, -first, dtype=bool)
    mask.flags.writeable = False
    return mask


def _replaced(caps: Array, gammas: Array, cap, gamma, mask: Array) -> tuple[Array, Array]:
    """Copies ``(..., r, n, dim)``, ``(..., r, n)`` of the reports, one per row of the ``(r, n)`` bool ``mask``: copy k
    takes ``cap`` and ``gamma``, broadcast to ``(r, n, dim)`` and ``(r, n)``, in the slots its mask row sets. With
    ``_replaced_mask``, an ``(n, dim)`` cap and an ``(n,)`` gamma put entry j in slot j. When ``gamma`` is ``gammas``
    itself, every slot already holds its entry and the cost types are only copied."""
    replaced = np.where(mask[..., None], cap, caps[..., None, :, :])
    if gamma is gammas:
        return replaced, gammas[..., None, :].repeat(len(mask), axis=-2)
    return replaced, np.where(mask, gamma, gammas[..., None, :])


# ---------------------------------------------------------------------------
# projected gradient ascent with multistart
# ---------------------------------------------------------------------------


class _Objective:
    """The surplus and its gradient on the ``(E*k, n*dim)`` ratio rows of E economies, k rows each, prepared once.

    The economies come as ``(E, n, dim)`` capacities, ``(E, n)`` cost and ``(E, m)`` valuation types. The
    square-root/linear family is in closed form, its constants repeated on each economy's rows; an economy's
    costs are one matrix-vector product over its k rows, whose bits depend on all k. Any other family takes
    ``surplus_rows`` of the rows asked for, in one call, and central finite differences, one-sided at 0.
    """

    def __init__(self, caps: Array, gammas: Array, thetas: Array, valuation, cost, k: int):
        self.valuation, self.cost, self.k, self.shape = valuation, cost, k, caps.shape[1:]
        self.closed = _sqrt_sum_linear(valuation, cost)
        self.caps = np.repeat(caps.reshape(len(caps), -1), k, axis=0)
        self.gammas, self.gamma_rows = gammas[..., None], np.repeat(gammas, k, axis=0)
        self.gamma_flat = np.repeat(self.gamma_rows, self.shape[1], axis=1)
        self.thetas = np.repeat(thetas.T, k, axis=1)
        if self.closed:
            self.scale, self.half_root_scale = valuation.scale, 0.5 * math.sqrt(valuation.scale)

    def _consumers(self, per_unit: Array) -> Array:
        """Each row's sum over consumers of theta times ``per_unit``, in consumer order."""
        total = self.thetas[0] * per_unit
        for theta in self.thetas[1:]:
            total = total + theta * per_unit
        return total

    def surplus(self, H: Array, rows: Array) -> tuple[Array, Array]:
        """Surpluses and accepted totals of the rows of ``H``; outside closed form, a row not in ``rows`` reads 0."""
        accepted = H * self.caps
        totals = np.add.reduce(accepted, axis=1)
        if not self.closed:
            f = np.zeros(len(H))
            f[rows] = surplus_rows(
                self.valuation, self.cost, accepted[rows].reshape((-1,) + self.shape), self.gamma_rows[rows],
                self.thetas.T[rows],
            )
            return f, totals
        value = self._consumers(np.sqrt(self.scale * totals))
        if self.shape[1] > 1:
            accepted = accepted.reshape(len(H), -1, self.shape[1]).sum(axis=2)
        return value - (accepted.reshape(len(self.gammas), self.k, -1) @ self.gammas).ravel(), totals

    def gradient(self, H: Array, totals: Array, done: Array, G: Array) -> Array:
        """The gradient at each row not ``done``: in closed form, from the accepted totals of its last surplus.

        Outside closed form, copy ``j`` of the active rows' 2w stepped copies (w ratios a row) is active row
        ``j // 2w`` with entry ``j % w`` stepped up (``j // w`` even) or down, clamped at 0. The copies are
        built and evaluated in blocks of at most ``_FD_BLOCK`` ratio entries, one ``surplus_rows`` call each, and
        the surpluses overwrite the stepped entries: a batch of thousands of economies holds no full set of copies.
        """
        if self.closed:
            coeff = self._consumers(self.half_root_scale / np.sqrt(np.maximum(totals, 1e-12)))
            return self.caps * (coeff[:, None] - self.gamma_flat)
        G, active = G.copy(), np.flatnonzero(~done)  # a done row has not moved since G
        w = H.shape[1]
        steps = np.repeat(H[active][:, None, :], 2, axis=1)
        steps[:, 0] += _FD_STEP
        steps[:, 1] -= _FD_STEP
        np.maximum(steps[:, 1], 0.0, out=steps[:, 1])
        widths, flat = steps[:, 0] - steps[:, 1], steps.reshape(-1)
        per_call = max(1, _FD_BLOCK // w)
        for lo in range(0, len(flat), per_call):
            j = np.arange(lo, min(lo + per_call, len(flat)))
            row = active[j // (2 * w)]
            copies = H[row]
            copies.put((j - lo) * w + j % w, flat[lo:lo + len(j)])
            accepted = (copies * self.caps[row]).reshape((-1,) + self.shape)
            flat[lo:lo + len(j)] = surplus_rows(
                self.valuation, self.cost, accepted, self.gamma_rows[row], self.thetas.T[row]
            )
        steps[:, 0] -= steps[:, 1]
        G[active] = np.divide(steps[:, 0], widths, out=widths)
        return G


@functools.lru_cache(maxsize=64)
def _start_rows(width: int, seed) -> Array:
    """Read-only ``(2 + _SPG_RESTARTS, width)`` start rows of ``_spg``: zeros, ones and the draws from ``seed``."""
    rng = np.random.default_rng(seed)
    starts = [np.zeros(width), np.ones(width)]
    starts += [rng.uniform(0.0, 1.0, size=width) for _ in range(_SPG_RESTARTS)]
    rows = np.stack(starts)
    rows.flags.writeable = False
    return rows


def _spg(caps: Array, gammas: Array, thetas: Array, valuation, cost, seed=0) -> tuple[Array, Array, list]:
    """Spectral projected gradient (Birgin, Martinez and Raydan, SIAM J. Optim. 2000) on a batch of economies.

    The E economies, ``(E, n, dim)`` capacities, ``(E, n)`` and ``(E, m)`` types, share one pair of families. Each
    runs the same start rows (zeros, ones and ``_SPG_RESTARTS`` draws from ``seed``) in lockstep with the others, with
    the arithmetic of its solve alone, until all its rows are done. A row steps along ``clip(x + alpha g, 0, 1) - x``,
    ``alpha`` the Barzilai-Borwein step of ``-S`` in [1e-12, 1e12] (one over the projected-gradient norm while
    ``s'y <= 0``), halved until an Armijo test against the smallest of its last ``_SPG_MEMORY`` surpluses holds. It
    is done when that norm drops below ``_SPG_TOL``, or stalls when its line search runs out or its accepted step is
    exactly zero. The best row wins, near-ties by the lexicographically smallest accepted quantities. Returns the
    ratios, the surpluses (one ``surplus_rows`` call per iteration that economies finish in) and the diagnostics.
    """
    E, n, dim = caps.shape
    starts = _start_rows(n * dim, seed)
    k = len(starts)
    H, live = np.tile(starts, (E, 1)), np.arange(E)
    objective = _Objective(caps[live], gammas[live], thetas[live], valuation, cost, k)
    ratios, surplus, diags = np.empty(caps.shape), np.empty(E), [None] * E
    done = np.zeros(len(H), dtype=bool)
    f, totals = objective.surplus(H, ~done)
    history = np.repeat(f[:, None], _SPG_MEMORY, axis=1)
    S = G = np.zeros_like(H)  # the last step, and the gradient before it

    # ufunc reductions and count_nonzero: at ten rows the ndarray method wrappers cost more than the arithmetic
    for iterations in range(_SPG_MAX_ITER + 1):
        G, G_prev = objective.gradient(H, totals, done, G), G
        pg_norm = np.maximum.reduce(np.abs(H - np.minimum(np.maximum(H + G, 0.0), 1.0)), axis=1)
        done |= pg_norm < _SPG_TOL
        # an economy finishes when all its k rows are done, so none can before k rows are
        if np.count_nonzero(done) >= k or iterations == _SPG_MAX_ITER:
            finished = np.logical_and.reduce(done.reshape(-1, k), axis=1) | (iterations == _SPG_MAX_ITER)
            if np.count_nonzero(finished):
                ended = live[finished]
                for e, t in zip(np.flatnonzero(finished), ended):
                    own = slice(e * k, (e + 1) * k)
                    best = np.flatnonzero(f[own] >= float(f[own].max()) - _LEX_TIE_TOL)
                    chosen = e * k + min(best, key=lambda r: tuple(H[own][r] * caps[t].ravel()))
                    ratios[t] = H[chosen].reshape(n, dim)
                    diags[t] = SolverDiagnostics(iterations, k, float(pg_norm[chosen]))
                surplus[ended] = surplus_rows(
                    valuation, cost, caps[ended] * ratios[ended], gammas[ended], thetas[ended]
                )
                bad = ~np.isfinite(surplus[ended])
                if bad.any():
                    raise ValueError(f"solver produced a non-finite surplus ({surplus[ended][bad][0]})")
                if finished.all():
                    return ratios, surplus, diags
                live, rows = live[~finished], np.repeat(~finished, k)
                objective = _Objective(caps[live], gammas[live], thetas[live], valuation, cost, k)
                H, f, totals, history, done, S, G, G_prev, pg_norm = (
                    x[rows] for x in (H, f, totals, history, done, S, G, G_prev, pg_norm)
                )
        sts, sty = np.einsum("kd,kd->k", S, S), np.einsum("kd,kd->k", S, G_prev - G)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # 0/0 is masked, inf clipped
            alpha = np.minimum(np.maximum(np.where(sty > 0.0, sts / sty, 1.0 / pg_norm), 1e-12), 1e12)
        D = np.minimum(np.maximum(H + alpha[:, None] * G, 0.0), 1.0) - H
        slope = _ARMIJO_C * np.einsum("kd,kd->k", G, D)
        reference = np.minimum.reduce(history, axis=1)
        # every row still searching has been halved as often as the others, so one step length serves them all
        start, H, remaining = H, H.copy(), ~done
        trial, bar, lam = start + D, reference + slope, 1.0
        while True:
            np.minimum(np.maximum(trial, 0.0, out=trial), 1.0, out=trial)
            f_trial, totals_trial = objective.surplus(trial, remaining)
            take = remaining & (f_trial >= bar)
            np.copyto(H, trial, where=take[:, None])
            np.copyto(f, f_trial, where=take)
            np.copyto(totals, totals_trial, where=take)
            remaining ^= take
            if not np.count_nonzero(remaining):
                break
            lam *= 0.5
            if lam < 1e-16:  # the line search ran out: the rows still searching stall
                done |= remaining
                break
            trial, bar = start + lam * D, reference + lam * slope
        S = H - start
        done |= ~np.logical_or.reduce(S, axis=1)
        history[:, iterations % _SPG_MEMORY] = f


def _projected_gradient(view: Economy, seed: int = 0) -> AllocationResult:
    """``_spg`` on one economy: the projected-gradient solve of ``optimize_acceptance``."""
    ratios, surplus, diags = _spg(
        view.capacities[None], view.cost_types[None], view.valuation_types[None], view.valuation, view.cost, seed
    )
    return AllocationResult(ratios[0], view.capacities * ratios[0], float(surplus[0]), diags[0])


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def optimize_acceptance(view: Economy, method: str | None = None, seed: int = 0) -> AllocationResult:
    """Maximize reported social surplus over acceptance ratios in ``[0, 1]``.

    ``method`` is ``"analytic"`` (water-fill; errors when the family does not
    support it), ``"projected_gradient"``, or ``None`` to pick the water-fill
    whenever it applies. ``seed``, an integer >= 0, draws the projected-gradient restarts.
    """
    _check_count("seed", seed, least=0)
    if waterfill_applies(view.valuation, view.cost, method):
        return analytic_waterfill(view)
    return _projected_gradient(view, seed=seed)


# ---------------------------------------------------------------------------
# raw-array fast path (no dataclass overhead) for sampled checks and training
# ---------------------------------------------------------------------------


def waterfill_surplus(caps: Array, gammas: Array, theta_sum, scale: float):
    """Maximum surplus of sqrt_sum/linear economies of total capacities ``caps``, producers on the last axis.

    Leading axes are a batch and ``theta_sum`` has the batch shape; one economy
    returns a float. ``theta_sum <= 0`` and an empty coalition give 0. The
    surplus is the water-fill formula ``solve_batch`` uses, without the ratios.
    An unchecked kernel: its input is trusted to be finite and non-negative.
    """
    surplus = _sorted_surplus(*_cost_order(caps, gammas, theta_sum, scale)[1:], theta_sum, scale)
    return float(surplus) if surplus.ndim == 0 else surplus


def _max_surplus(caps: Array, gammas: Array, thetas: Array, valuation, cost, method: str | None = None):
    """Maximum reported surplus of float ``(..., n, dim)``, ``(..., n)`` and ``(..., m)`` reports trusted to be laid
    out, finite and non-negative. Leading axes are a batch; one economy returns a float, every row has the bits of
    ``solve_batch``'s surplus, and an empty coalition (n == 0) has zero surplus. The water-fill skips the ratios; any
    other family or method takes ``solve_batch``'s kernel.
    """
    if waterfill_applies(valuation, cost, method):
        return waterfill_surplus(bundle_totals(caps), gammas, thetas.sum(axis=-1), valuation.scale)
    surplus = _solve(caps, gammas, thetas, valuation, cost, method)[1]
    return float(surplus) if surplus.ndim == 0 else surplus


def solve_batch(capacities, gammas, thetas, valuation, cost, method: str | None = None) -> tuple[Array, Array]:
    """Accepted quantities ``(..., n, dim)`` and surpluses ``(...)`` of a batch of reported economies.

    Capacities are ``(..., n, dim)``, cost types ``(..., n)`` and valuation
    types ``(..., m)``, leading axes a batch; the leading axes of the
    valuation types broadcast against it. Row for row the result carries the
    bits of ``optimize_acceptance`` (seed 0). Water-fill economies are solved
    in one kernel call, whose surpluses come from the formula ``_max_surplus``,
    ``waterfill_surplus`` and ``waterfill_gains`` share. Any other batch is
    one ``_spg`` call on the stacked arrays. An empty coalition (n == 0) has
    zero surplus. Checks the reports; ``_solve`` trusts them.
    """
    return _solve(*_check_reports(capacities, gammas, thetas), valuation, cost, method)


def _solve(caps: Array, gammas: Array, thetas: Array, valuation, cost, method: str | None = None):
    """``solve_batch`` of float reports trusted to be laid out, finite and non-negative."""
    waterfill = waterfill_applies(valuation, cost, method)
    batch = gammas.shape[:-1]
    if gammas.size == 0:
        return np.zeros(caps.shape), np.zeros(batch)
    if waterfill:
        ratios, surplus = _waterfill_rows(bundle_totals(caps), gammas, np.add.reduce(thetas, axis=-1), valuation.scale)
        return caps * ratios[..., None], surplus
    if thetas.shape[-1] < 1:
        raise ValueError("an economy needs at least one consumer")
    n, dim, m = caps.shape[-2], caps.shape[-1], thetas.shape[-1]
    thetas = np.broadcast_to(thetas, batch + (m,))
    ratios, surplus = _spg(caps.reshape(-1, n, dim), gammas.reshape(-1, n), thetas.reshape(-1, m), valuation, cost)[:2]
    return caps * ratios.reshape(caps.shape), surplus.reshape(batch)


def waterfill_gains(caps: Array, gammas: Array, theta_sum, scale: float):
    """Full and producer-removed surpluses, batched as ``waterfill_surplus``; producers last in ``removed``.

    The economy without a producer has its capacity zeroed and its cost type
    kept, so it sorts as the full row: the one without the producer at sorted
    position p is the full sorted row, position p zeroed. Only the producers
    the full allocation fills are solved again; an unfilled producer's
    removed surplus is the full one, copied. That is exact: the fills before
    it do not read its capacity, and since stops do not rise along the cost
    order while cumulative capacities do not fall, every fill after it stays
    0, so both rows reduce the same fills. Each surplus has the bits of
    ``solve_batch`` on that economy. An unchecked kernel, as ``waterfill_surplus``.
    """
    flat, caps_sorted, gammas_sorted, stops = _cost_order(caps, gammas, theta_sum, scale)
    shape = (math.prod(gammas.shape[:-1]), gammas.shape[-1])  # the batch flattened, kept 2-D when n == 0
    fills = stops.copy()
    full = _sorted_surplus(caps_sorted, gammas_sorted, fills, theta_sum, scale)
    picked = np.flatnonzero(fills > 0.0)  # the filled (economy, sorted position) pairs, as flat indices
    economy, position = np.divmod(picked, shape[1])
    rows = [a.reshape(shape).take(economy, axis=0) for a in (caps_sorted, gammas_sorted, stops)]
    rows[0][np.arange(len(picked)), position] = 0.0
    theta_rows = np.broadcast_to(theta_sum, gammas.shape[:-1]).take(economy)
    removed = np.repeat(np.asarray(full)[..., None], shape[1], axis=-1)
    removed.put(flat.take(picked), _sorted_surplus(*rows, theta_rows, scale))
    return (float(full) if full.ndim == 0 else full), removed


def _batch_surpluses(valuation, cost, caps: Array, gammas: Array, thetas: Array, method):
    """S* ``(T,)`` and every S*_{-i} ``(T, n)``, producer i's capacity zeroed, of T trusted reports.

    The water-fill takes ``waterfill_gains``; any other family or method one
    ``_max_surplus`` call on the full economy stacked on its n removed ones.
    """
    if waterfill_applies(valuation, cost, method):
        return waterfill_gains(bundle_totals(caps), gammas, thetas.sum(axis=1), valuation.scale)
    stack = _replaced(caps, gammas, 0.0, gammas, _replaced_mask(gammas.shape[-1], 1))
    surpluses = _max_surplus(*stack, thetas[:, None, :], valuation, cost, method)
    return surpluses[:, 0], surpluses[:, 1:]
