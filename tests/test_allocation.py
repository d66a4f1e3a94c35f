import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvcg import (
    AnalyticAdjustment,
    BidProfile,
    CustomCost,
    CustomValuation,
    Economy,
    EconomyView,
    LearnedAdjustment,
    LinearCost,
    PriorSupport,
    SqrtSumSquaresValuation,
    SqrtSumValuation,
    ZeroAdjustment,
    analytic_waterfill,
    optimize_acceptance,
    payments_batch,
    social_surplus,
    total_payment,
)
import pvcg.allocation
from pvcg.allocation import (
    _batch_surpluses,
    _max_surplus,
    _Objective,
    _spg,
    _start_rows,
    _waterfill_rows,
    solve_batch,
    waterfill_gains,
    waterfill_surplus,
)

from conftest import TIED_CAPS, TIED_GAMMAS, convex_cost, random_sqrt_sum_economy, weighted_valuation
from oracles import (
    _reference_grad_rows,
    _reference_surplus_rows,
    grid_max,
    grid_max_3d_ternary,
    grid_max_full,
    reference_projected_gradient,
    reference_waterfill_gains,
    zero_mlp,
)


def test_waterfill_drops_expensive_producer(split_cost_economy):
    result = analytic_waterfill(split_cost_economy.view())
    assert result.ratios[:, 0] == pytest.approx([1.0, 0.0], abs=1e-12)
    assert result.surplus == pytest.approx(math.sqrt(2) - 0.1, abs=1e-12)


def test_waterfill_accepts_both_cheap_producers(cheap_pair_economy):
    result = analytic_waterfill(cheap_pair_economy.view())
    assert result.ratios[:, 0] == pytest.approx([1.0, 1.0], abs=1e-12)
    assert result.surplus == pytest.approx(1.7, abs=1e-12)


def test_waterfill_free_resources_fill_everything():
    economy = Economy.sqrt_sum([2.0, 3.0, 1.0], [0.0, 0.0, 0.0], [0.4])
    result = analytic_waterfill(economy.view())
    assert result.ratios[:, 0] == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)


def test_waterfill_zero_valuation_accepts_nothing():
    economy = Economy.sqrt_sum([2.0, 3.0], [0.3, 0.4], [0.0])
    result = analytic_waterfill(economy.view())
    assert result.surplus == 0.0
    assert np.array_equal(result.accepted, np.zeros((2, 1)))


def test_waterfill_partial_fill_before_caps_bind():
    """Ten producers at 5 units, uniform cost 0.5, total types 1: fill stops at 10 units."""
    economy = Economy.sqrt_sum([5.0] * 10, [0.5] * 10, [0.5, 0.5])
    result = analytic_waterfill(economy.view())
    assert result.accepted[:, 0].sum() == pytest.approx(10.0, abs=1e-9)
    assert result.accepted[:2, 0] == pytest.approx([5.0, 5.0], abs=1e-9)
    assert result.accepted[2:, 0] == pytest.approx(np.zeros(8), abs=1e-12)
    assert result.surplus == pytest.approx(5.0, abs=1e-9)


def test_waterfill_tie_breaks_by_producer_index():
    economy = Economy.sqrt_sum([5.0, 5.0, 5.0], [0.5, 0.5, 0.5], [1.0], scale=3.0)
    result = analytic_waterfill(economy.view())
    # threshold quantity is 3/(4*0.25) = 3; the lowest index fills first
    assert result.accepted[:, 0] == pytest.approx([3.0, 0.0, 0.0], abs=1e-9)


def test_waterfill_requires_supported_family():
    bad = Economy(
        capacities=[1.0, 1.0],
        cost_types=[0.1, 0.1],
        valuation_types=[1.0],
        valuation=SqrtSumSquaresValuation(scale=2.0),
        cost=LinearCost(),
    )
    with pytest.raises(ValueError):
        analytic_waterfill(bad.view())
    with pytest.raises(ValueError):
        optimize_acceptance(bad.view(), method="analytic")
    with pytest.raises(ValueError):
        optimize_acceptance(bad.view(), method="simplex")


@pytest.mark.parametrize("method", [None, "projected_gradient"])
@pytest.mark.parametrize(
    "seed, message",
    [
        pytest.param(-1, "^seed must be >= 0, got -1$", id="negative"),
        pytest.param(1.5, "^seed must be an integer, got 1.5$", id="fraction"),
        pytest.param(True, "^seed must be an integer, got True$", id="bool"),
        pytest.param([0], r"^seed must be an integer, got \[0\]$", id="list"),
        pytest.param(np.random.default_rng(0), r"^seed must be an integer, got Generator\(PCG64\)", id="generator"),
    ],
)
def test_optimize_acceptance_rejects_a_bad_seed(seed, message, method):
    """The seed is checked at the entry, naming it, whichever solver would run: the start rows are cached on it."""
    view = Economy.sqrt_sum([1.0, 2.0], [0.1, 0.2], [1.0]).view()
    with pytest.raises(ValueError, match=message):
        optimize_acceptance(view, method=method, seed=seed)


def test_counterfactual_single_producer_is_empty_coalition():
    economy = Economy.sqrt_sum([2.0], [0.3], [1.0])
    for method in (None, "projected_gradient"):
        accepted, surplus = solve_batch(np.zeros((0, 1)), np.zeros(0), [1.0], economy.valuation, economy.cost, method)
        assert surplus == 0.0
        assert accepted.shape == (0, 1)
        assert total_payment(economy, method=method).counterfactual_surpluses.tolist() == [0.0]
    # the method rule runs before the empty-coalition shortcut
    message = "^method must be None, 'analytic' or 'projected_gradient', got 'bogus'$"
    with pytest.raises(ValueError, match=message):
        solve_batch(np.zeros((0, 1)), np.zeros(0), [1.0], economy.valuation, economy.cost, method="bogus")
    with pytest.raises(ValueError, match=message):
        _max_surplus(np.zeros((0, 1)), np.zeros(0), np.ones(1), economy.valuation, economy.cost, method="bogus")


def test_counterfactual_keeps_the_synergy_scale(split_cost_economy):
    """Removing the cheap producer leaves the expensive one under the same joint formula."""
    economy = split_cost_economy
    accepted, surplus = solve_batch(
        economy.capacities[1:], economy.cost_types[1:], economy.valuation_types, economy.valuation, economy.cost
    )
    assert accepted[:, 0] == pytest.approx([0.005], abs=1e-12)
    assert surplus == pytest.approx(0.05, abs=1e-12)
    assert total_payment(economy).counterfactual_surpluses[0] == surplus


def test_removing_zero_capacity_producer_changes_nothing():
    base = Economy.sqrt_sum([1.0, 1.0], [0.1, 0.2], [1.0])
    padded = Economy(
        capacities=[1.0, 1.0, 0.0],
        cost_types=[0.1, 0.2, 0.05],
        valuation_types=[1.0],
        valuation=base.valuation,
        cost=base.cost,
    )
    full = analytic_waterfill(padded.view())
    removed = total_payment(padded).counterfactual_surpluses[2]
    assert removed == pytest.approx(full.surplus, abs=1e-12)


def test_projected_gradient_matches_waterfill_small():
    rng = np.random.default_rng(7)
    for k in range(30):
        n = int(rng.integers(1, 6))
        economy = Economy.sqrt_sum(rng.uniform(0, 5, n), rng.uniform(0, 1, n), rng.uniform(0, 1, 2))
        wf = analytic_waterfill(economy.view())
        pg = optimize_acceptance(economy.view(), method="projected_gradient", seed=k)
        assert pg.surplus == pytest.approx(wf.surplus, abs=1e-6)


# a truthful n=10 economy (scale 10) whose cost types 0.6496752 and 0.6496831 nearly tie: a
# projected gradient with one scalar step per row ran into max_iter 9.9e-6 short of the optimum
NEAR_TIE_CAPS = [
    4.652173622578619, 4.7052939814893975, 1.8325361604401225, 3.3531938995350448, 3.2764971634457045,
    0.42254407162415464, 0.890964720728134, 4.1163511476729795, 2.1200815401500392, 2.8690284736333096,
]
NEAR_TIE_GAMMAS = [
    0.6496751842868113, 0.6496830779189371, 0.8142217416583103, 0.8891655688175937, 0.8017137065388569,
    0.6442691583054526, 0.14532884683831948, 0.9052177953079658, 0.6769692284452455, 0.861469828443529,
]
NEAR_TIE_THETAS = [0.7978685621130552, 0.23189532235582788]


def test_projected_gradient_reaches_the_waterfill_on_a_near_cost_tie():
    view = Economy.sqrt_sum(NEAR_TIE_CAPS, NEAR_TIE_GAMMAS, NEAR_TIE_THETAS, scale=10.0).view()
    pg = optimize_acceptance(view, method="projected_gradient")
    assert abs(pg.surplus - analytic_waterfill(view).surplus) <= 1e-6
    assert pg.diag.iterations < 10_000


_TEN = np.linspace(0.5, 5.0, 10)


@pytest.mark.parametrize(
    "caps, gammas, thetas",
    [
        # the optimum is a whole face of exact ties, which slows a projected gradient with one scalar step per row
        pytest.param(
            np.full(10, 3.4939590221500016),
            np.full(10, 0.4291288238547282),
            [0.776683114342298, 0.6130033010530405],
            id="ten-identical-producers",
        ),
        pytest.param(np.zeros(10), np.linspace(0.0, 0.9, 10), [0.6, 0.3], id="all-capacities-zero"),
        pytest.param(_TEN, np.r_[np.zeros(3), np.linspace(0.1, 0.9, 7)], [0.6, 0.3], id="three-free-producers"),
        pytest.param(_TEN, np.linspace(0.0, 0.9, 10), [0.0, 0.0], id="valuation-types-sum-to-zero"),
        pytest.param([3.0], [0.2], [0.6, 0.3], id="one-producer"),
    ],
)
def test_projected_gradient_edge_economies_converge_to_the_waterfill(caps, gammas, thetas):
    view = Economy.sqrt_sum(caps, gammas, thetas).view()
    pg = optimize_acceptance(view, method="projected_gradient", seed=3)
    assert pg.diag.iterations < 10_000
    assert abs(pg.surplus - analytic_waterfill(view).surplus) <= 1e-6
    assert np.all((pg.ratios >= 0.0) & (pg.ratios <= 1.0))
    again = optimize_acceptance(view, method="projected_gradient", seed=3)
    assert again.ratios.tobytes() == pg.ratios.tobytes() and again.surplus == pg.surplus
    assert again.diag == pg.diag


def test_projected_gradient_handles_custom_family_with_fd_gradients():
    """Weighted aggregate under a square root, solved only via finite differences."""
    fam = CustomValuation(fn=lambda x, theta: theta * math.sqrt(x[0].sum() + 2.0 * x[1].sum()))
    view = EconomyView([3.0, 2.0], [0.2, 0.15], [1.0], fam, LinearCost())
    pg = optimize_acceptance(view, method="projected_gradient", seed=0)
    # independent check: coarse enumeration of the same objective
    best = -np.inf
    for e0 in np.linspace(0, 1, 201):
        for e1 in np.linspace(0, 1, 201):
            best = max(best, social_surplus(view, [3.0 * e0, 2.0 * e1]))
    assert pg.surplus >= best - 2e-3


# (valuation, cost, dim) of every family the projected gradient solves in closed form or by finite differences
_PG_FAMILIES = {
    "sqrt_sum_dim1": (SqrtSumValuation(scale=3.0), LinearCost(), 1),
    "sqrt_sum_dim2": (SqrtSumValuation(scale=3.0), LinearCost(), 2),
    "sqrt_sum_squares": (SqrtSumSquaresValuation(scale=3.0), LinearCost(), 1),
    "custom": (CustomValuation(fn=weighted_valuation), CustomCost(fn=convex_cost), 1),
}


def _assert_same_solve(got, want, label):
    assert got.ratios.tobytes() == want.ratios.tobytes(), label
    assert got.accepted.tobytes() == want.accepted.tobytes(), label
    assert np.float64(got.surplus).tobytes() == np.float64(want.surplus).tobytes(), label
    assert got.diag == want.diag, label


def _stacked(views):
    """The ``(E, n, dim)`` capacities, ``(E, n)`` cost and ``(E, m)`` valuation types of the views."""
    names = ("capacities", "cost_types", "valuation_types")
    return tuple(np.stack([getattr(view, name) for view in views]) for name in names)


def _assert_batch_rows(views, wants, label):
    """``solve_batch`` of the views, one kernel call, against the one-economy oracle row by row."""
    accepted, surplus = solve_batch(*_stacked(views), views[0].valuation, views[0].cost, method="projected_gradient")
    for t, want in enumerate(wants):
        assert accepted[t].tobytes() == want.accepted.tobytes(), (label, t)
        assert surplus[t].tobytes() == np.float64(want.surplus).tobytes(), (label, t)


@pytest.mark.parametrize("family", list(_PG_FAMILIES))
def test_projected_gradient_objective_is_bit_equal_to_the_one_economy_oracle(family, monkeypatch):
    """The prepared objective's surpluses and gradients, three economies at once, have each economy's own bits.

    Outside closed form, the stepped copies of the rows not done are evaluated in as few ``surplus_rows`` calls of
    at most ``_FD_BLOCK`` ratio entries as fit: one call for one economy at n = 10. Any block gives the same bits,
    and a done row keeps its previous gradient.
    """
    valuation, cost, dim = _PG_FAMILIES[family]
    rng = np.random.default_rng(sorted(_PG_FAMILIES).index(family))
    entries, default_block, surplus_rows = [], pvcg.allocation._FD_BLOCK, pvcg.allocation.surplus_rows

    def counted(valuation, cost, accepted, gammas, thetas):
        entries.append(accepted.size)
        return surplus_rows(valuation, cost, accepted, gammas, thetas)

    monkeypatch.setattr(pvcg.allocation, "surplus_rows", counted)
    for n in (1, 3, 10):
        views = [
            Economy(rng.uniform(0.0, 5.0, (n, dim)), rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, 3),
                    valuation, cost)
            for _ in range(3)
        ]
        H = rng.uniform(0.0, 1.0, (30, n * dim))
        H[::4] = 0.0  # rows at the lower boundary take one-sided differences
        objective = _Objective(*_stacked(views), valuation, cost, 10)
        f, totals = objective.surplus(H, np.ones(30, dtype=bool))
        G = objective.gradient(H, totals, np.zeros(30, dtype=bool), np.zeros_like(H))
        for e, view in enumerate(views):
            rows = slice(10 * e, 10 * e + 10)
            assert f[rows].tobytes() == _reference_surplus_rows(view, H[rows]).tobytes(), (family, n, e)
            assert G[rows].tobytes() == _reference_grad_rows(view, H[rows]).tobytes(), (family, n, e)

        w, done = n * dim, np.arange(30) % 3 == 1
        G_before = rng.uniform(-1.0, 1.0, H.shape)
        for block in (default_block, 3 * w + 1, 1):
            monkeypatch.setattr(pvcg.allocation, "_FD_BLOCK", block)
            entries.clear()
            G = objective.gradient(H, totals, done, G_before)
            for e, view in enumerate(views):
                rows, active = slice(10 * e, 10 * e + 10), ~done[10 * e:10 * e + 10]
                want = _reference_grad_rows(view, H[rows])[active]
                assert G[rows][active].tobytes() == want.tobytes(), (family, n, e, block)
            if objective.closed:
                assert entries == []
                continue
            assert G[done].tobytes() == G_before[done].tobytes(), (family, n, block)
            per_call = max(block // w, 1)
            assert max(entries) <= per_call * w and len(entries) == -(-2 * w * np.count_nonzero(~done) // per_call)
        monkeypatch.setattr(pvcg.allocation, "_FD_BLOCK", default_block)

    one = _Objective(*_stacked(views[:1]), valuation, cost, 10)
    totals = one.surplus(H[:10], np.ones(10, dtype=bool))[1]
    entries.clear()
    one.gradient(H[:10], totals, np.zeros(10, dtype=bool), np.zeros((10, w)))
    assert len(entries) == (0 if one.closed else 1), family


def test_projected_gradient_start_rows_are_drawn_once_per_width_and_seed():
    """The start rows are a read-only array cached per (width, seed): the zeros, the ones and the seed's draws.

    Seeds 0 and 3 interleaved, the second pass from the cache, solve with the bits of solves from fresh draws.
    """
    view = Economy(np.linspace(0.5, 4.0, 4), [0.3, 0.1, 0.4, 0.2], [0.6, 0.5], SqrtSumSquaresValuation(scale=3.0),
                   LinearCost()).view()
    w, fresh = view.n * view.dim, {}
    for seed in (0, 3):
        _start_rows.cache_clear()
        fresh[seed] = optimize_acceptance(view, method="projected_gradient", seed=seed)
    _start_rows.cache_clear()
    for seed in (0, 3, 0, 3):
        _assert_same_solve(optimize_acceptance(view, method="projected_gradient", seed=seed), fresh[seed], seed)
        rows = _start_rows(w, seed)
        assert not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[2, 0] = 0.5
        rng = np.random.default_rng(seed)
        want = np.stack([np.zeros(w), np.ones(w)] + [rng.uniform(0.0, 1.0, size=w) for _ in range(8)])
        assert rows.tobytes() == want.tobytes(), seed
    assert _start_rows.cache_info().misses == 2


@pytest.mark.parametrize("family", list(_PG_FAMILIES))
def test_projected_gradient_is_bit_equal_to_the_one_economy_oracle(family):
    """``optimize_acceptance`` and ``solve_batch`` rows carry the bits of SPG written for one economy.

    n = 1-4 and 10, each with a truthful economy and one in which a producer
    over-reports its capacity and under-reports its cost type; each n's two
    economies are one ``solve_batch`` call.
    """
    valuation, cost, dim = _PG_FAMILIES[family]
    rng = np.random.default_rng(sorted(_PG_FAMILIES).index(family))
    for n in (1, 2, 3, 4, 10):
        views = []
        for liar in (False, True):
            economy = Economy(
                rng.uniform(0.0, 5.0, (n, dim)), rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, 2), valuation, cost
            )
            caps, gammas = economy.capacities.copy(), economy.cost_types.copy()
            if liar:
                i = int(rng.integers(n))
                caps[i] = 2.0 * economy.capacities[i] + 1.0
                gammas[i] *= 0.5
            views.append(economy.view(BidProfile(caps, gammas, economy.valuation_types)))
        wants = [reference_projected_gradient(view) for view in views]
        for t, (view, want) in enumerate(zip(views, wants)):
            _assert_same_solve(optimize_acceptance(view, method="projected_gradient"), want, (family, n, t))
        _assert_batch_rows(views, wants, (family, n))


# an economy each family solves in many more iterations than a random one: a near cost tie for the
# square-root/linear family; for sqrt_sum_squares, cost types of 1-3 around its largest marginal value
# (sum of thetas) * sqrt(scale) = 1.68
_LONG_RUNNERS = {
    "sqrt_sum": (SqrtSumValuation, NEAR_TIE_CAPS, NEAR_TIE_GAMMAS, NEAR_TIE_THETAS),
    "sqrt_sum_squares": (
        SqrtSumSquaresValuation,
        [2.019648092803024, 2.0601282417515385, 4.11339588390849, 2.749641969233389, 1.801115554223494,
         4.6731167165335705, 3.87595003968509, 3.0120499086820596, 1.2523376141773719, 4.299324152880842],
        [2.113943549255489, 1.8427053583066977, 2.1285305150230553, 1.385595355828293, 2.0128876869762857,
         2.3328262250401104, 2.868732957571519, 1.1088085268322272, 1.0050983952231993, 1.327414366273998],
        [0.5211705771782514, 0.00986801181928787],
    ),
}


@pytest.mark.parametrize("family", list(_LONG_RUNNERS))
def test_projected_gradient_batch_keeps_each_economys_bits_when_one_runs_long(family):
    """Economies that leave the batch together, or one that stays long after the others, keep their one-economy bits.

    The square-root/linear family is in closed form; sqrt_sum_squares takes
    finite differences, and the economies that finish in one iteration take
    their surpluses from one ``surplus_rows`` call.
    """
    family_type, *long_runner = _LONG_RUNNERS[family]
    valuation, cost = family_type(scale=10.0), LinearCost()
    rng = np.random.default_rng(17)
    views = [
        Economy(rng.uniform(0.0, 5.0, 10), rng.uniform(0.0, 1.0, 10), rng.uniform(0.0, 1.0, 2), valuation, cost)
        for _ in range(6)
    ]
    views.insert(2, Economy(*long_runner, valuation, cost))
    wants = [reference_projected_gradient(view) for view in views]
    iterations = [want.diag.iterations for want in wants]
    others = iterations[:2] + iterations[3:]
    assert iterations[2] > 4 * max(others) and len(set(others)) < len(others), iterations
    ratios, surplus, diags = _spg(*_stacked(views), valuation, cost)
    for t, want in enumerate(wants):
        assert ratios[t].tobytes() == want.ratios.tobytes(), t
        assert np.float64(surplus[t]).tobytes() == np.float64(want.surplus).tobytes(), t
        assert diags[t] == want.diag, t
    _assert_batch_rows(views, wants, family)


@pytest.mark.parametrize(
    "field, index, value",
    [("capacities", (1, 0, 0), math.nan), ("cost types", (1, 2), -0.1), ("valuation types", (0, 1), math.inf)],
    ids=["nan_capacity", "negative_cost_type", "inf_valuation_type"],
)
def test_solve_batch_projected_gradient_names_the_bad_field(field, index, value):
    """The stacked reports are checked once, with the messages of the per-economy check."""
    reports = {"capacities": np.ones((2, 3, 1)), "cost types": np.full((2, 3), 0.2), "valuation types": np.ones((2, 2))}
    reports[field][index] = value
    with pytest.raises(ValueError, match=f"^{field} must be (finite|non-negative)"):
        solve_batch(*reports.values(), SqrtSumValuation(scale=3.0), LinearCost(), method="projected_gradient")


def _public_entries():
    """(id, field names, call) of every public batch entry that takes (2, 3, 1), (2, 3) and (2, 2) reports."""
    valuation, cost, support = SqrtSumValuation(scale=3.0), LinearCost(), PriorSupport.uniform_box(3, 2)
    fields = ["capacities", "cost types", "valuation types"]
    learned = LearnedAdjustment(tuple(zero_mlp([6, 4, 1]) for _ in range(3)), support)
    entries = [
        (f"solve_batch-{method or 'waterfill'}", fields,
         lambda *r, method=method: solve_batch(*r, valuation, cost, method))
        for method in (None, "projected_gradient")
    ]
    entries.append(("payments_batch", fields + ["reported capacities", "reported cost types"],
                    lambda *r: payments_batch(*r[:3], valuation, cost, *r[3:])))
    for adjustment in (ZeroAdjustment(), AnalyticAdjustment(support, valuation, cost), learned):
        entries.append((type(adjustment).__name__, fields, adjustment.all_producers))
    return entries


_PUBLIC_ENTRIES = _public_entries()


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
@pytest.mark.parametrize("fields, call", [e[1:] for e in _PUBLIC_ENTRIES], ids=[e[0] for e in _PUBLIC_ENTRIES])
def test_every_public_entry_names_the_bad_field(fields, call, value):
    """A negative, NaN or infinite entry in any report field raises at the entry, with the field named."""
    for k, field in enumerate(fields):
        # capacities, cost types and valuation types, then payments_batch's reported capacities and cost types
        reports = [np.ones((2, 3, 1)), np.full((2, 3), 0.2), np.ones((2, 2)), np.ones((2, 3, 1)), np.full((2, 3), 0.2)]
        reports[k][-1] = value
        with pytest.raises(ValueError, match=f"^{field} must be (finite|non-negative)"):
            call(*reports[:len(fields)])


@pytest.mark.parametrize("fields, call", [e[1:] for e in _PUBLIC_ENTRIES], ids=[e[0] for e in _PUBLIC_ENTRIES])
def test_every_public_entry_rejects_a_zero_width_bundle(fields, call):
    """Capacities of no resource dimension raise at the entry, naming the capacities, before a kernel reads them."""
    reports = [np.ones((1, 2, 0)), np.full((1, 2), 0.2), np.ones((1, 2)), np.ones((1, 2, 0)), np.full((1, 2), 0.2)]
    message = r"^capacities must have at least one resource dimension, got shape \(1, 2, 0\)$"
    with pytest.raises(ValueError, match=message):
        call(*reports[:len(fields)])


def test_solver_result_invariants():
    rng = np.random.default_rng(11)
    for k in range(20):
        economy = random_sqrt_sum_economy(rng)
        for method in ("analytic", "projected_gradient"):
            result = optimize_acceptance(economy.view(), method=method, seed=k)
            assert np.all(result.ratios >= 0.0) and np.all(result.ratios <= 1.0)
            assert np.allclose(result.accepted, economy.capacities * result.ratios)
            assert result.surplus == pytest.approx(
                social_surplus(economy.view(), result.accepted), abs=1e-9
            )


def test_removal_monotonicity():
    """Removing any producer never raises the optimum."""
    rng = np.random.default_rng(13)
    for _ in range(50):
        economy = random_sqrt_sum_economy(rng, n_choices=(2, 3, 4))
        full = analytic_waterfill(economy.view())
        for removed in total_payment(economy).counterfactual_surpluses:
            assert full.surplus >= removed - 1e-8


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_capacity_and_cost_monotonicity(data):
    n = data.draw(st.integers(1, 4))
    caps = np.array(data.draw(st.lists(st.floats(0, 5), min_size=n, max_size=n)))
    gammas = np.array(data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
    thetas = np.array([data.draw(st.floats(0, 1))])
    i = data.draw(st.integers(0, n - 1))
    delta = data.draw(st.floats(0.01, 3))
    scale = float(n)
    base = waterfill_surplus(caps, gammas, float(thetas.sum()), scale)
    caps_up = caps.copy()
    caps_up[i] += delta
    assert waterfill_surplus(caps_up, gammas, float(thetas.sum()), scale) >= base - 1e-8
    gammas_up = gammas.copy()
    gammas_up[i] += delta
    assert waterfill_surplus(caps, gammas_up, float(thetas.sum()), scale) <= base + 1e-8


def test_waterfill_gains_match_object_path():
    rng = np.random.default_rng(17)
    for _ in range(20):
        economy = random_sqrt_sum_economy(rng, n_choices=(2, 3))
        full, removed = waterfill_gains(
            economy.capacities[:, 0], economy.cost_types,
            float(economy.valuation_types.sum()), economy.valuation.scale,
        )
        assert full == pytest.approx(analytic_waterfill(economy.view()).surplus, abs=1e-9)
        assert removed == pytest.approx(total_payment(economy).counterfactual_surpluses, abs=1e-9)


def test_package_grid_matches_waterfill_coarsely(split_cost_economy, cheap_pair_economy):
    for economy in (split_cost_economy, cheap_pair_economy):
        reference = grid_max(
            economy.capacities[:, 0], economy.cost_types,
            float(economy.valuation_types.sum()), economy.valuation.scale, step=1e-3,
        )
        assert analytic_waterfill(economy.view()).surplus == pytest.approx(reference, abs=2e-3)


def test_test_oracle_3d_line_search_equals_full_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(10):
        caps = rng.uniform(0, 5, 3)
        gammas = rng.uniform(0, 1, 3)
        theta_sum = float(rng.uniform(0, 2))
        fast = grid_max(caps, gammas, theta_sum, 3.0, step=0.02)
        full = grid_max_full(caps, gammas, theta_sum, 3.0, step=0.02)
        assert fast == pytest.approx(full, abs=1e-12)


def test_test_oracle_3d_fibonacci_search_equals_ternary_search():
    """Fibonacci search with bound pruning keeps the ternary search's grid maximum bit for bit."""
    rng = np.random.default_rng(29)
    for case in range(60):
        caps = rng.uniform(0, 5, 3)
        gammas = rng.uniform(0, 1, 3)
        theta_sum = float(rng.uniform(0, 2))
        if case % 6 == 0:
            caps[case % 3] = 0.0
        if case % 10 == 0:
            gammas[case % 3] = 0.0
        assert grid_max(caps, gammas, theta_sum, 3.0, step=1e-2) == grid_max_3d_ternary(
            caps, gammas, theta_sum, 3.0, step=1e-2
        )


def test_projected_gradient_vector_bundles_match_summed_waterfill():
    """sqrt_sum/linear values a bundle by its total, so dim=2 solves like the summed scalar economy."""
    rng = np.random.default_rng(17)
    for k in range(5):
        n = int(rng.integers(2, 5))
        caps = rng.uniform(0.0, 3.0, (n, 2))
        gammas = rng.uniform(0.05, 1.0, n)
        thetas = rng.uniform(0.2, 1.0, 2)
        bundles = Economy(caps, gammas, thetas, SqrtSumValuation(scale=float(n)), LinearCost())
        summed = Economy.sqrt_sum(caps.sum(axis=1), gammas, thetas)
        pg = optimize_acceptance(bundles, method="projected_gradient", seed=k)
        assert pg.surplus == pytest.approx(analytic_waterfill(summed).surplus, abs=1e-6)


@pytest.mark.parametrize("method", [None, "analytic"])
@pytest.mark.parametrize("dim", [2, 3])
def test_vector_bundles_solve_as_the_summed_scalar_waterfill(dim, method):
    """sqrt_sum/linear reads only each producer's total, so a bundle economy is the scalar water-fill of its summed
    capacities: every solver entry gives that solve's surpluses bit for bit, each bundle is its capacities times
    one ratio per producer, and a forced projected-gradient solve agrees within 1e-12."""
    rng = np.random.default_rng(70 + dim)
    T, n, m = 40, 4, 2
    caps = rng.uniform(0.0, 5.0, (T, n, dim))
    caps[::5, 1] = 0.0  # a producer without capacity
    caps[1::5, 2, 0] = 0.0  # a bundle with one empty coordinate
    gammas, thetas = rng.uniform(0.0, 1.0, (T, n)), rng.uniform(0.0, 1.0, (T, m))
    valuation, cost = SqrtSumValuation(scale=float(n)), LinearCost()
    totals = caps.sum(axis=-1)[..., None]
    scalar_surplus = solve_batch(totals, gammas, thetas, valuation, cost)[1]
    accepted, surplus = solve_batch(caps, gammas, thetas, valuation, cost, method)
    assert surplus.tobytes() == scalar_surplus.tobytes()
    assert _max_surplus(caps, gammas, thetas, valuation, cost, method).tobytes() == scalar_surplus.tobytes()
    gains = _batch_surpluses(valuation, cost, caps, gammas, thetas, method)
    scalar_gains = _batch_surpluses(valuation, cost, totals, gammas, thetas, None)
    assert all(got.tobytes() == want.tobytes() for got, want in zip(gains, scalar_gains))
    for t in range(T):
        ratios = optimize_acceptance(Economy(totals[t], gammas[t], thetas[t], valuation, cost)).ratios
        solve = optimize_acceptance(Economy(caps[t], gammas[t], thetas[t], valuation, cost), method)
        assert solve.ratios.tobytes() == np.repeat(ratios, dim, axis=1).tobytes(), t
        assert solve.accepted.tobytes() == (caps[t] * ratios).tobytes() == accepted[t].tobytes(), t
        assert np.float64(solve.surplus).tobytes() == scalar_surplus[t].tobytes(), t
    forced = solve_batch(caps, gammas, thetas, valuation, cost, "projected_gradient")[1]
    assert np.abs(forced - surplus).max() <= 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("family", ["valuation", "cost"])
def test_a_custom_familys_non_finite_value_fails_by_name(family, bad):
    """A custom valuation or cost that returns NaN or an infinity fails at its first evaluation, with an error
    that names its class and the row; the custom valuation is paired with the linear cost, the custom cost with
    the sqrt_sum valuation."""
    if family == "valuation":
        valuation, cost, name = CustomValuation(fn=lambda x, theta: bad), LinearCost(), "CustomValuation.value"
    else:
        valuation, cost, name = SqrtSumValuation(scale=2.0), CustomCost(fn=lambda x_i, gamma: bad), "CustomCost.cost"
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got {bad} at row \("):
        solve_batch(np.ones((3, 2, 1)), np.full((3, 2), 0.5), np.ones((3, 1)), valuation, cost)


_THETAS = st.just(0.0) | st.floats(0.0, 1.0)


def _economy_batch(data, n_range, t_max, m_max=2):
    """A (T, n) batch of scalar economies on criterion 1's ranges, (T, m) valuation types."""
    n = data.draw(st.integers(*n_range))
    T = data.draw(st.integers(1, t_max))
    m = data.draw(st.integers(1, m_max))
    caps = np.array(data.draw(st.lists(TIED_CAPS, min_size=T * n, max_size=T * n))).reshape(T, n)
    gammas = np.array(data.draw(st.lists(TIED_GAMMAS, min_size=T * n, max_size=T * n))).reshape(T, n)
    thetas = np.array(data.draw(st.lists(_THETAS, min_size=T * m, max_size=T * m))).reshape(T, m)
    return caps, gammas, thetas


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_batched_waterfill_rows_equal_one_economy_calls(data):
    """Every row of a batch is bit-for-bit the one-economy result, empty coalitions included."""
    caps, gammas, thetas = _economy_batch(data, (0, 6), 5)
    scale = float(max(caps.shape[1], 1))
    theta_sums = thetas.sum(axis=1)
    surpluses = waterfill_surplus(caps, gammas, theta_sums, scale)
    full, removed = waterfill_gains(caps, gammas, theta_sums, scale)
    assert surpluses.shape == full.shape == (caps.shape[0],)
    assert removed.shape == caps.shape
    for t in range(caps.shape[0]):
        one = waterfill_surplus(caps[t], gammas[t], float(theta_sums[t]), scale)
        assert isinstance(one, float)
        assert surpluses[t] == one == full[t]
        one_full, one_removed = waterfill_gains(caps[t], gammas[t], float(theta_sums[t]), scale)
        assert one_full == one
        assert np.array_equal(removed[t], one_removed)
        if theta_sums[t] == 0.0:
            assert one == 0.0 and not one_removed.any()


def _gains_edge_cases() -> dict:
    """Batches at the edges of ``waterfill_gains``' skip of the producers the full allocation leaves unfilled."""
    rng = np.random.default_rng(41)
    caps, gammas, theta_sums = rng.uniform(0.5, 5.0, (6, 5)), rng.uniform(0.1, 1.0, (6, 5)), rng.uniform(0.2, 2.0, 6)
    return {
        # nothing filled, so every removed surplus is skipped
        "theta_sum_zero": (caps, gammas, np.zeros(6), False),
        "capacities_zero": (np.zeros_like(caps), gammas, theta_sums, False),
        # a negative sum squares into positive stops: producers fill, yet every surplus is 0
        "theta_sum_negative": (caps, gammas, -theta_sums, None),
        # free producers never stop, so every one is filled and none is skipped
        "costs_zero": (caps, np.zeros_like(gammas), theta_sums, True),
        "one_producer": (caps[:, :1], gammas[:, :1], theta_sums, None),
        "unbatched": (caps[0], gammas[0], float(theta_sums[0]), None),
        "two_batch_axes": (caps.reshape(2, 3, 5), gammas.reshape(2, 3, 5), theta_sums.reshape(2, 3), None),
        # equal costs stop at equal quantities: a twin that fills up to the stop leaves the next one unfilled
        "cost_ties": (
            np.full((6, 5), 2.0), np.tile([0.25, 0.25, 0.5, 0.5, 0.5], (6, 1)), np.array([0.3, 0.5, 0.8, 1.2, 1.6, 2.0]),
            None,
        ),
    }


@pytest.mark.parametrize("case", list(_gains_edge_cases()))
def test_waterfill_gains_edge_cases_equal_the_per_column_oracle(case):
    """Whether all, none or some producers are filled, the removed surpluses keep the oracle's bits."""
    caps, gammas, theta_sums, filled = _gains_edge_cases()[case]
    scale = 3.0
    full, removed = waterfill_gains(caps, gammas, theta_sums, scale)
    expected_full, expected_removed = reference_waterfill_gains(caps, gammas, theta_sums, scale)
    assert np.shape(full) == np.shape(theta_sums) and removed.shape == gammas.shape
    assert np.float64(full).tobytes() == np.float64(expected_full).tobytes()
    assert removed.tobytes() == expected_removed.tobytes()
    same = removed == np.asarray(full)[..., None]
    if filled is False:
        assert same.all()
    if filled is True:
        assert not same.any()


@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_batched_waterfill_rows_match_the_grid_oracle(data):
    """Criterion 1's tolerance against the exhaustive ratio grid, row by row."""
    caps, gammas, thetas = _economy_batch(data, (1, 3), 2)
    n = caps.shape[1]
    theta_sums = thetas.sum(axis=1)
    surpluses = waterfill_surplus(caps, gammas, theta_sums, float(n))
    for t in range(caps.shape[0]):
        reference = grid_max(caps[t], gammas[t], float(theta_sums[t]), float(n), step=1e-3)
        assert abs(surpluses[t] - reference) <= 2e-3


@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_batched_max_surplus_projected_gradient_equals_per_row_solves(data):
    caps, gammas, thetas = _economy_batch(data, (1, 3), 3)
    valuation, cost = SqrtSumValuation(scale=float(caps.shape[1])), LinearCost()
    batched = _max_surplus(caps[..., None], gammas, thetas, valuation, cost, method="projected_gradient")
    for t in range(caps.shape[0]):
        economy = Economy(caps[t][:, None], gammas[t], thetas[t], valuation, cost)
        assert batched[t] == optimize_acceptance(economy, method="projected_gradient").surplus


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_batched_waterfill_ratios_equal_one_economy_calls(data):
    """Each economy's theta_sum masks its own row, also in a batch of as many economies as producers."""
    n = data.draw(st.integers(1, 6))
    T = n if data.draw(st.booleans()) else data.draw(st.integers(1, 6))
    caps = np.array(data.draw(st.lists(TIED_CAPS, min_size=T * n, max_size=T * n))).reshape(T, n)
    gammas = np.array(data.draw(st.lists(TIED_GAMMAS, min_size=T * n, max_size=T * n))).reshape(T, n)
    theta_sums = np.array(data.draw(st.lists(_THETAS, min_size=T, max_size=T)))
    batched, surpluses = _waterfill_rows(caps, gammas, theta_sums, float(n))
    for t in range(T):
        one, surplus = _waterfill_rows(caps[t], gammas[t], float(theta_sums[t]), float(n))
        assert batched[t].tobytes() == one.tobytes()
        assert surpluses[t].tobytes() == surplus.tobytes()
        if theta_sums[t] == 0.0:
            assert not one.any() and surplus == 0.0


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_every_waterfill_entry_point_gives_the_same_surplus_bits(data):
    """Solving, pricing and training take each surplus from one formula, so they agree bit for bit.

    Tied and zero costs and capacities, a zero valuation sum in every batch,
    empty coalitions and up to twelve producers and three consumers.
    """
    caps, gammas, thetas = _economy_batch(data, (0, 12), 4, m_max=3)
    thetas[data.draw(st.integers(0, len(thetas) - 1))] = 0.0
    n = caps.shape[1]
    valuation, cost = SqrtSumValuation(scale=float(max(n, 1))), LinearCost()
    theta_sums = thetas.sum(axis=1)
    solved = solve_batch(caps[..., None], gammas, thetas, valuation, cost)[1]
    full, removed = waterfill_gains(caps, gammas, theta_sums, valuation.scale)
    assert _max_surplus(caps[..., None], gammas, thetas, valuation, cost).tobytes() == solved.tobytes()
    assert waterfill_surplus(caps, gammas, theta_sums, valuation.scale).tobytes() == solved.tobytes()
    assert full.tobytes() == solved.tobytes()
    if n == 0:
        return
    for t in range(len(caps)):
        economy = Economy(caps[t][:, None], gammas[t], thetas[t], valuation, cost)
        assert np.float64(analytic_waterfill(economy).surplus).tobytes() == solved[t].tobytes()
    payments = payments_batch(caps[..., None], gammas, thetas, valuation, cost)
    assert payments.counterfactual_surpluses.tobytes() == removed.tobytes()



@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_waterfill_gains_equals_the_per_column_oracle(data):
    """One sort per economy gives the bits of sorting every zero-capacity economy by itself.

    Tied and zero costs, zero capacities, zero valuation sums and lone
    producers included; rows of eight or more producers take numpy's
    blocked pairwise sum, which a strided gather would not.
    """
    caps, gammas, thetas = _economy_batch(data, (1, 12), 6)
    scale = data.draw(st.sampled_from([1.0, 3.0, float(caps.shape[1])]))
    theta_sums = thetas.sum(axis=1)
    full, removed = waterfill_gains(caps, gammas, theta_sums, scale)
    expected_full, expected_removed = reference_waterfill_gains(caps, gammas, theta_sums, scale)
    assert full.tobytes() == expected_full.tobytes()
    assert removed.tobytes() == expected_removed.tobytes()
    one_full, one_removed = waterfill_gains(caps[0], gammas[0], float(theta_sums[0]), scale)
    expected_full, expected_removed = reference_waterfill_gains(caps[0], gammas[0], float(theta_sums[0]), scale)
    assert isinstance(one_full, float) and one_full == expected_full
    assert one_removed.tobytes() == expected_removed.tobytes()
