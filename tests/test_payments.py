import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pvcg.adjustment
import pvcg.model
import pvcg.payments
from pvcg import (
    AnalyticAdjustment,
    BidProfile,
    CustomCost,
    CustomValuation,
    Economy,
    LearnedAdjustment,
    PaymentBreakdown,
    PriorSupport,
    ZeroAdjustment,
    analytic_waterfill,
    payments_batch,
    social_surplus,
    total_payment,
    vcg_tau,
)
from pvcg.adjustment import sample_from
from pvcg.allocation import others_index, solve_batch
from pvcg.learner import mlp_init
from pvcg.model import LinearCost, SqrtSumSquaresValuation, SqrtSumValuation, cost_rows, value_rows
from pvcg.payments import deviation_utilities, tau_for_producer
from pvcg.verification import SURPLUS_TOL

from conftest import TIED_CAPS, TIED_GAMMAS, RuleAdjustment, convex_cost, random_sqrt_sum_economy, weighted_valuation
from oracles import (
    reference_deleted_counterfactuals,
    reference_payment,
    reference_producer_utility,
    reference_solve,
    reference_total_payment,
    total_valuation as loop_valuation,
)


def _solved_with_deleted(view, method=None, seed=0):
    """The full problem and the index-deleted counterfactuals that ``vcg_tau`` takes."""
    return reference_solve(view, method=method, seed=seed), reference_deleted_counterfactuals(view, method, seed)


def test_tau_single_producer_equals_full_valuation():
    economy = Economy.sqrt_sum([2.0], [0.3], [0.7])
    view = economy.view()
    full, removed = _solved_with_deleted(view)
    taus = vcg_tau(view, full, removed)
    value = economy.valuation.value(full.accepted, 0.7)
    assert taus[0] == pytest.approx(value, abs=1e-12)


def test_tau_two_producer_example(split_cost_economy):
    view = split_cost_economy.view()
    full, removed = _solved_with_deleted(view)
    taus = vcg_tau(view, full, removed)
    # (sqrt(2) - 0.1) - 0.05 + 0.1
    assert taus[0] == pytest.approx(math.sqrt(2) - 0.05, abs=1e-12)
    assert taus[1] == pytest.approx(0.0, abs=1e-12)


def test_tau_zero_capacity_producer_is_zero():
    economy = Economy.sqrt_sum([1.0, 0.0], [0.1, 0.2], [1.0])
    view = economy.view()
    full, removed = _solved_with_deleted(view)
    taus = vcg_tau(view, full, removed)
    assert taus[1] == pytest.approx(0.0, abs=1e-12)


def test_tau_forms_agree_for_gradient_solver_too():
    rng = np.random.default_rng(29)
    for k in range(10):
        economy = random_sqrt_sum_economy(rng, n_choices=(2, 3))
        view = economy.view()
        full, removed = _solved_with_deleted(view, method="projected_gradient", seed=k)
        vcg_tau(view, full, removed)  # raises if the two expansions disagree


@pytest.mark.parametrize("method", ["analytic", "projected_gradient"])
def test_tau_for_producer_is_the_vcg_tau_row(method):
    rng = np.random.default_rng(31)
    for k in range(10):
        economy = random_sqrt_sum_economy(rng)
        view = economy.view()
        full, removed = _solved_with_deleted(view, method=method, seed=k)
        taus = vcg_tau(view, full, removed)
        assert [tau_for_producer(view, full, removed[i], i) for i in range(view.n)] == taus.tolist()


def test_tau_rejects_wrong_counterfactual_count(split_cost_economy):
    view = split_cost_economy.view()
    full, removed = _solved_with_deleted(view)
    with pytest.raises(ValueError):
        vcg_tau(view, full, removed[:1])


def test_total_payment_truthful_example(split_cost_economy):
    payments = total_payment(split_cost_economy)
    assert payments.total[0] == pytest.approx(math.sqrt(2) - 0.05, abs=1e-12)
    assert payments.utilities[0] == pytest.approx(math.sqrt(2) - 0.15, abs=1e-12)
    # utility identity: u_i = S* - S*_{-i} with zero adjustment
    gains = payments.surplus - payments.counterfactual_surpluses
    assert payments.utilities == pytest.approx(gains, abs=1e-8)
    assert not payments.punished.any()


def test_total_payment_punishes_overcommitment(split_cost_economy):
    bids = BidProfile([2.0, 1.0], [0.1, 10.0], [1.0])  # producer 0 reports twice its capacity
    payments = total_payment(split_cost_economy, bids=bids, punishment=1e6)
    assert payments.punished[0]
    assert payments.total[0] == -1e6
    assert payments.utilities[0] == -1e6
    assert np.array_equal(payments.delivered[0], [0.0])


def test_one_over_reported_coordinate_is_punished():
    """A dim = 2 producer over-accepted in one coordinate only is punished, by ``payments_batch`` and by
    ``deviation_utilities``; truth pays it 0.628."""
    caps, gammas, thetas = np.ones((1, 2, 2)), np.array([[0.1, 0.2]]), np.ones((1, 1))
    valuation, cost = SqrtSumValuation(scale=2.0), LinearCost()
    bids = caps.copy()
    bids[0, 0] = [1.0, 3.0]
    truth = payments_batch(caps, gammas, thetas, valuation, cost)
    assert not truth.punished.any() and truth.utilities[0, 0] == pytest.approx(0.6284271247, abs=1e-9)
    lie = payments_batch(caps, gammas, thetas, valuation, cost, reported_capacities=bids)
    assert lie.punished[0, 0] and lie.utilities[0, 0] == -1e6
    assert lie.accepted[0, 0, 1] > caps[0, 0, 1] and lie.accepted[0, 0, 0] <= caps[0, 0, 0]
    accepted, surplus = solve_batch(bids, gammas, thetas, valuation, cost)
    utility, _ = deviation_utilities(
        caps[0, 0], gammas[0, 0], gammas[0, 0], cost, accepted[0, 0], surplus[0],
        truth.counterfactual_surpluses[0, 0], truth.adjustment[0, 0], 1e6,
    )
    assert utility == -1e6


def test_total_payment_zero_valuation_types():
    economy = Economy.sqrt_sum([1.0, 2.0], [0.3, 0.4], [0.0])
    payments = total_payment(economy)
    assert payments.total == pytest.approx([0.0, 0.0], abs=1e-12)
    assert payments.utilities == pytest.approx([0.0, 0.0], abs=1e-12)
    assert payments.coalition_income == 0.0


def test_total_payment_requires_positive_punishment(split_cost_economy):
    with pytest.raises(ValueError):
        total_payment(split_cost_economy, punishment=0.0)


@pytest.mark.parametrize("punishment", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", ["total_payment", "payments_batch", "deviation_utilities"])
def test_payment_entry_points_reject_a_punishment_that_is_not_positive_and_finite(split_cost_economy, entry, punishment):
    economy = split_cost_economy
    # producer 0 over-reports and would be paid -punishment
    bids = BidProfile([2.0, 1.0], economy.cost_types, economy.valuation_types)
    with pytest.raises(ValueError, match="^punishment must be positive"):
        if entry == "total_payment":
            total_payment(economy, bids, punishment=punishment)
        elif entry == "payments_batch":
            payments_batch(
                economy.capacities[None], economy.cost_types[None], economy.valuation_types[None],
                economy.valuation, economy.cost, bids.capacities[None], punishment=punishment,
            )
        else:
            deviation_utilities(
                economy.capacities[0], economy.cost_types[0], economy.cost_types[0], economy.cost,
                bids.capacities[0], 1.0, 0.5, 0.0, punishment,
            )


@pytest.mark.parametrize(
    "reported",
    [(), ("capacities", "cost_types"), ("capacities",), ("cost_types",)],
    ids=["truthful", "reported", "capacities", "cost_types"],
)
def test_payments_batch_checks_each_input_array_once(monkeypatch, reported):
    """On a projected-gradient batch the reports are scanned once each, at the entry, and not again by the solver
    or the adjustment; a reported field left out is the truth, which is not scanned again under its name."""
    valuation, cost, support = SqrtSumSquaresValuation(scale=3.0), LinearCost(), PriorSupport.uniform_box(3, 2, dim=2)
    caps, gammas, thetas = sample_from(support, 2, np.random.default_rng(5))
    given = dict(capacities=0.5 * caps, cost_types=gammas)
    reports = {f"reported_{field}": given[field] for field in reported}
    adjustment = AnalyticAdjustment(support, valuation, cost)
    scanned, check = [], pvcg.model._check_entries
    for module in [m for name, m in sys.modules.items() if name.startswith("pvcg.")]:
        if getattr(module, "_check_entries", None) is check:  # every binding, as a module may import it by name
            monkeypatch.setattr(module, "_check_entries", lambda arr, name: scanned.append(name) or check(arr, name))
    payments_batch(caps, gammas, thetas, valuation, cost, adjustment=adjustment, **reports)
    expected = ["capacities", "cost types", "valuation types"]
    assert scanned == expected + ["reported " + field.replace("_", " ") for field in reported]


def test_coalition_income_examples(split_cost_economy):
    view = split_cost_economy.view()
    allocation = analytic_waterfill(view)
    income = value_rows(view.valuation, allocation.accepted, view.valuation_types)
    assert income == pytest.approx(math.sqrt(2), abs=1e-12)
    zero = Economy.sqrt_sum([1.0], [0.1], [0.0])
    assert value_rows(zero.valuation, np.array([[1.0]]), zero.valuation_types) == 0.0


def test_income_minus_costs_is_surplus():
    rng = np.random.default_rng(31)
    for _ in range(20):
        economy = random_sqrt_sum_economy(rng)
        view = economy.view()
        allocation = analytic_waterfill(view)
        income = loop_valuation(view, allocation.accepted)
        costs = sum(
            economy.cost.cost(allocation.accepted[i], economy.cost_types[i])
            for i in range(economy.n)
        )
        assert income - costs == pytest.approx(allocation.surplus, rel=1e-12, abs=1e-12)


def test_budget_slack_is_income_minus_payments():
    rng = np.random.default_rng(37)
    for _ in range(20):
        economy = random_sqrt_sum_economy(rng)
        payments = total_payment(economy)
        assert payments.budget_slack == pytest.approx(
            payments.coalition_income - payments.total.sum(), abs=1e-9
        )


def test_total_payment_rows_match_the_per_producer_oracle(cheap_pair_economy):
    bids = cheap_pair_economy.truthful_bids()
    payments = total_payment(cheap_pair_economy)
    for i in range(2):
        utility, tau = reference_producer_utility(cheap_pair_economy, bids, i)
        assert payments.utilities[i] == utility
        assert payments.tau[i] == tau


def test_adjustment_model_dimension_mismatch_errors(cheap_pair_economy):
    from pvcg import LearnedAdjustment, PriorSupport
    from pvcg.learner import mlp_zero

    support = PriorSupport.uniform_box(3, 1)
    width = 2 * 2 + 1  # others' capacities + others' cost types + consumers
    model = LearnedAdjustment(tuple(mlp_zero([width, 4, 1]) for _ in range(3)), support)
    with pytest.raises(ValueError):
        total_payment(cheap_pair_economy, adjustment=model)


def test_tau_check_names_the_producer_whose_removed_surplus_moved():
    economy = Economy.sqrt_sum([1.0, 2.0, 1.5], [0.1, 0.3, 0.2], [1.0])
    view = economy.view()
    full, removed = _solved_with_deleted(view)
    removed[1] = dataclasses.replace(removed[1], surplus=removed[1].surplus + 1e-6)
    with pytest.raises(RuntimeError, match="^pivot payment forms disagree for producer 1: "):
        vcg_tau(view, full, removed)


def _shift_removed_surplus(monkeypatch, where):
    """Make the payments' one solve, whose ``(T, n+1)`` surpluses hold the full problem in column 0 and the
    problem without producer i in column 1+i, report the surplus at ``where`` 1e-6 too high."""
    solve = pvcg.payments._solve

    def shifted(caps, gammas, *args):
        accepted, surpluses = solve(caps, gammas, *args)
        surpluses[where] += 1e-6
        return accepted, surpluses

    monkeypatch.setattr(pvcg.payments, "_solve", shifted)


def test_waterfill_branch_runs_the_tau_check(monkeypatch):
    _shift_removed_surplus(monkeypatch, (..., 3))
    economy = Economy.sqrt_sum([1.0, 2.0, 1.5], [0.1, 0.3, 0.2], [1.0])
    with pytest.raises(RuntimeError, match="^pivot payment forms disagree for producer 2: "):
        total_payment(economy)


def _floats(data, strategy, size):
    return np.array(data.draw(st.lists(strategy, min_size=size, max_size=size)))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_waterfill_payment_is_bit_equal_to_the_per_producer_oracle(data):
    """Every PaymentBreakdown field of the array-form branch has the per-producer bits."""
    n = data.draw(st.integers(1, 12))
    m = data.draw(st.integers(1, 3))
    caps, gammas = _floats(data, TIED_CAPS, n), _floats(data, TIED_GAMMAS, n)
    thetas = np.zeros(m) if data.draw(st.integers(0, 9)) == 0 else _floats(data, st.floats(0.0, 1.0), m)
    economy = Economy.sqrt_sum(caps, gammas, thetas)
    bids = None
    liar = data.draw(st.integers(-1, n - 1))
    if liar >= 0:
        # a cheap over-report is accepted beyond the true capacity and punished
        bid_caps, bid_gammas = caps.copy(), gammas.copy()
        bid_caps[liar] = caps[liar] * data.draw(st.sampled_from([0.5, 1.0, 2.0])) + data.draw(TIED_CAPS)
        bid_gammas[liar] = data.draw(TIED_GAMMAS)
        bids = BidProfile(bid_caps, bid_gammas, thetas)
    kind = data.draw(st.sampled_from(["zero", "analytic", "analytic_cap_lo", "learned"]))
    if kind == "zero":
        adjustment = ZeroAdjustment()
    elif kind == "learned":
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        nets = tuple(mlp_init([2 * (n - 1) + m, 4, 1], rng) for _ in range(n))
        adjustment = LearnedAdjustment(nets, PriorSupport.uniform_box(n, m))
    else:
        cap = (0.0, 5.0) if kind == "analytic" else (0.5, 5.0)
        adjustment = AnalyticAdjustment(PriorSupport.uniform_box(n, m, cap=cap), economy.valuation, economy.cost)

    payment = total_payment(economy, bids=bids, adjustment=adjustment, punishment=1e6)
    reference = reference_payment(economy, bids, adjustment, 1e6)
    for field in dataclasses.fields(PaymentBreakdown):
        got, want = getattr(payment, field.name), getattr(reference, field.name)
        assert type(got) is type(want), field.name
        got, want = np.asarray(got), np.asarray(want)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), field.name
    view = economy.view(bids)
    solved = analytic_waterfill(view)
    assert np.float64(solved.surplus).tobytes() == np.float64(reference.surplus).tobytes()
    assert abs(solved.surplus - social_surplus(view, solved.accepted)) <= 1e-12


@pytest.mark.parametrize("reported_thetas", [[0.3, 0.9], [1.4, 0.0], [0.0, 0.0]])
def test_waterfill_payment_prices_reported_valuation_types_and_earns_true_income(reported_thetas):
    """The water-fill branch solves on the reported valuation types; coalition income uses the true ones."""
    economy = Economy.sqrt_sum([1.0, 2.0, 1.5], [0.1, 0.3, 0.2], [0.6, 0.8])
    bids = BidProfile([1.0, 2.5, 1.5], [0.1, 0.05, 0.2], reported_thetas)
    payment = total_payment(economy, bids=bids)
    reference = reference_payment(economy, bids, ZeroAdjustment(), 1e6)
    for field in dataclasses.fields(PaymentBreakdown):
        got, want = np.asarray(getattr(payment, field.name)), np.asarray(getattr(reference, field.name))
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), field.name


@pytest.mark.parametrize("support", [PriorSupport.uniform_box(3, 2), PriorSupport.uniform_box(4, 2, dim=2)])
def test_analytic_adjustment_rejects_a_support_that_does_not_fit_the_economy(support):
    """A support for another producer count or dimension raises rather than pricing."""
    economy = Economy.sqrt_sum([1.0, 2.0, 0.5, 1.5], [0.2, 0.4, 0.1, 0.3], [0.6, 0.8])
    adjustment = AnalyticAdjustment(support, economy.valuation, economy.cost)
    with pytest.raises(ValueError, match="expected"):
        total_payment(economy, adjustment=adjustment)


def _payment_batch_case(data, n_max=8, t_max=4):
    """A (T, n) batch of truthful economies, bids in which one producer per row may lie, and an adjustment."""
    n = data.draw(st.integers(1, n_max))
    m = data.draw(st.integers(1, 3))
    T = data.draw(st.integers(1, t_max))
    caps = _floats(data, TIED_CAPS, T * n).reshape(T, n, 1)
    gammas = _floats(data, TIED_GAMMAS, T * n).reshape(T, n)
    thetas = _floats(data, st.just(0.0) | st.floats(0.0, 1.0), T * m).reshape(T, m)
    bid_caps, bid_gammas = caps.copy(), gammas.copy()
    liars = [data.draw(st.integers(-1, n - 1)) for _ in range(T)]
    for t, liar in enumerate(liars):
        if liar >= 0:
            # a cheap over-report is accepted beyond the true capacity and punished
            bid_caps[t, liar] = caps[t, liar] * data.draw(st.sampled_from([0.5, 1.0, 2.0])) + data.draw(TIED_CAPS)
            bid_gammas[t, liar] = data.draw(TIED_GAMMAS)
    valuation, cost = SqrtSumValuation(scale=float(n)), LinearCost()
    kind = data.draw(st.sampled_from(["zero", "analytic", "analytic_cap_lo", "learned"]))
    if kind == "zero":
        adjustment = ZeroAdjustment()
    elif kind == "learned":
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        nets = tuple(mlp_init([2 * (n - 1) + m, 4, 1], rng) for _ in range(n))
        adjustment = LearnedAdjustment(nets, PriorSupport.uniform_box(n, m))
    else:
        cap = (0.0, 5.0) if kind == "analytic" else (0.5, 5.0)
        adjustment = AnalyticAdjustment(PriorSupport.uniform_box(n, m, cap=cap), valuation, cost)
    return caps, gammas, thetas, bid_caps, bid_gammas, liars, valuation, cost, adjustment


def _assert_rows_equal_total_payment(batch, caps, gammas, thetas, bid_caps, bid_gammas, valuation, cost, **kwargs):
    for t in range(caps.shape[0]):
        economy = Economy(caps[t], gammas[t], thetas[t], valuation, cost)
        one = total_payment(economy, BidProfile(bid_caps[t], bid_gammas[t], thetas[t]), **kwargs)
        for field in dataclasses.fields(PaymentBreakdown):
            got, want = np.asarray(getattr(batch, field.name))[t], np.asarray(getattr(one, field.name))
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), field.name


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_payments_batch_rows_are_total_payment_bit_for_bit(data):
    """Every row of every field has the bytes of ``total_payment`` on that economy, liars and punishments included."""
    caps, gammas, thetas, bid_caps, bid_gammas, _, valuation, cost, adjustment = _payment_batch_case(data)
    batch = payments_batch(
        caps, gammas, thetas, valuation, cost, bid_caps, bid_gammas, adjustment=adjustment, punishment=1e6
    )
    _assert_rows_equal_total_payment(
        batch, caps, gammas, thetas, bid_caps, bid_gammas, valuation, cost, adjustment=adjustment, punishment=1e6
    )


@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_payments_batch_projected_gradient_rows_are_total_payment(data):
    caps, gammas, thetas, bid_caps, bid_gammas, _, valuation, cost, adjustment = _payment_batch_case(data, 3, 2)
    kwargs = dict(adjustment=adjustment, punishment=1e6, method="projected_gradient")
    batch = payments_batch(caps, gammas, thetas, valuation, cost, bid_caps, bid_gammas, **kwargs)
    _assert_rows_equal_total_payment(batch, caps, gammas, thetas, bid_caps, bid_gammas, valuation, cost, **kwargs)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_payments_batch_guarantees(data):
    """Pivot payments cover reported costs, removal never raises the optimum, h_i ignores i's own
    report, and truthful zero-adjustment rows are individually rational and weakly budget balanced."""
    caps, gammas, thetas, bid_caps, bid_gammas, liars, valuation, cost, adjustment = _payment_batch_case(data)
    truthful = payments_batch(caps, gammas, thetas, valuation, cost, adjustment=adjustment)
    lying = payments_batch(caps, gammas, thetas, valuation, cost, bid_caps, bid_gammas, adjustment=adjustment)
    for batch, reported in ((truthful, gammas), (lying, bid_gammas)):
        assert np.all(batch.tau >= reported * batch.accepted[..., 0] - SURPLUS_TOL)
        assert np.all(batch.surplus[:, None] >= batch.counterfactual_surpluses - SURPLUS_TOL)
    for t, liar in enumerate(liars):
        if liar >= 0:
            assert truthful.adjustment[t, liar] == lying.adjustment[t, liar]
    zero = payments_batch(caps, gammas, thetas, valuation, cost)
    assert not zero.punished.any()
    assert np.all(zero.utilities >= -SURPLUS_TOL)
    assert np.all(zero.budget_slack >= -SURPLUS_TOL)


def test_payments_batch_runs_the_tau_check(monkeypatch):
    _shift_removed_surplus(monkeypatch, (1, 3))
    caps = np.array([[1.0, 2.0, 1.5], [1.0, 2.0, 1.5]])[..., None]
    gammas = np.array([[0.1, 0.3, 0.2], [0.2, 0.1, 0.3]])
    with pytest.raises(RuntimeError, match="^pivot payment forms disagree for producer 2 of economy 1: "):
        payments_batch(caps, gammas, np.ones((2, 1)), SqrtSumValuation(scale=3.0), LinearCost())


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(punishment=0.0), "punishment must be positive"),
        (dict(capacities=-np.ones((2, 3, 1))), "capacities must be non-negative"),
        (dict(cost_types=np.full((2, 3), np.inf)), "cost types must be finite"),
        (dict(reported_capacities=np.full((2, 3, 1), np.inf)), "^reported capacities must be finite"),
        (dict(reported_cost_types=np.full((2, 3), np.inf)), "^reported cost types must be finite"),
        (dict(reported_capacities=np.ones((2, 3, 2))), "shapes of the true ones"),
        (dict(valuation_types=np.ones((3, 2))), "expected \\(T, n, dim\\)"),
        (dict(valuation_types=np.ones((2, 0))), "at least one producer and one consumer"),
    ],
)
def test_payments_batch_rejects_bad_input(change, message):
    args = dict(
        capacities=np.ones((2, 3, 1)), cost_types=np.full((2, 3), 0.5), valuation_types=np.ones((2, 2)),
        valuation=SqrtSumValuation(scale=3.0), cost=LinearCost(),
    )
    with pytest.raises(ValueError, match=message):
        payments_batch(**{**args, **change})


# The invariance tests price T = 200 water-fill auctions of n = 10 producers at the synergy scale n, capacities
# on the support's box. m = 3 consumers: the values of two sum to the same bits in either order.
_INVARIANCE_SIZES = (200, 10, 3)
_INVARIANCE_CAPS = (0.5, 5.0)
_INVARIANCE_VALUATION = SqrtSumValuation(scale=10.0)


def _invariance_batch(seed):
    """Continuous draws, so no two cost types tie and the producer-index tie rule never decides."""
    T, n, m = _INVARIANCE_SIZES
    rng = np.random.default_rng(seed)
    return rng, rng.uniform(*_INVARIANCE_CAPS, (T, n, 1)), rng.uniform(0.0, 1.0, (T, n)), rng.uniform(0.0, 1.0, (T, m))


def _invariance_payments(kind, support, caps, gammas, thetas):
    valuation = _INVARIANCE_VALUATION
    adjustment = ZeroAdjustment() if kind == "zero" else AnalyticAdjustment(support, valuation, LinearCost())
    return payments_batch(caps, gammas, thetas, valuation, LinearCost(), adjustment=adjustment)


@pytest.mark.parametrize("kind", ["zero", "analytic"])
def test_payments_batch_permutes_with_the_producers(kind):
    """Relabeling the producers of a symmetric support permutes tau, h, totals and utilities bit for bit.

    Income and budget slack sum the producers in their new order, so they move at ulp level only. The learned
    adjustment is left out: network i reads the others in index order, so it is not equivariant by design.
    """
    rng, caps, gammas, thetas = _invariance_batch(41)
    T, n, m = _INVARIANCE_SIZES
    support = PriorSupport.uniform_box(n, m, cap=_INVARIANCE_CAPS)
    base = _invariance_payments(kind, support, caps, gammas, thetas)
    perms = rng.permuted(np.tile(np.arange(n), (T, 1)), axis=1)
    moved = _invariance_payments(
        kind, support, np.take_along_axis(caps, perms[..., None], axis=1), np.take_along_axis(gammas, perms, axis=1),
        thetas,
    )
    for name in ("tau", "adjustment", "total", "utilities", "punished", "counterfactual_surpluses"):
        assert np.array_equal(getattr(moved, name), np.take_along_axis(getattr(base, name), perms, axis=1)), name
    assert np.array_equal(moved.accepted, np.take_along_axis(base.accepted, perms[..., None], axis=1))
    assert np.array_equal(moved.surplus, base.surplus)
    for name in ("coalition_income", "budget_slack"):
        assert np.allclose(getattr(moved, name), getattr(base, name), rtol=0.0, atol=1e-12), name


@pytest.mark.parametrize("kind", ["zero", "analytic"])
def test_payments_batch_does_not_depend_on_the_consumer_order(kind):
    """Reordering the consumers changes only the order of the value sums: every field moves at ulp level."""
    rng, caps, gammas, thetas = _invariance_batch(43)
    T, n, m = _INVARIANCE_SIZES
    support = PriorSupport.uniform_box(n, m, cap=_INVARIANCE_CAPS)
    base = _invariance_payments(kind, support, caps, gammas, thetas)
    order = rng.permuted(np.tile(np.arange(m), (T, 1)), axis=1)
    moved = _invariance_payments(kind, support, caps, gammas, np.take_along_axis(thetas, order, axis=1))
    assert np.array_equal(moved.punished, base.punished)
    for field in dataclasses.fields(PaymentBreakdown):
        if field.name != "punished":
            got, want = getattr(moved, field.name), getattr(base, field.name)
            assert np.allclose(got, want, rtol=0.0, atol=1e-12), field.name


@pytest.mark.parametrize("kind", ["zero", "analytic"])
def test_a_null_producer_changes_no_payment_and_is_paid_nothing(kind):
    """Appending a producer of capacity 0, at the unchanged synergy scale, moves the others' totals and
    utilities by at most 1e-12 and pays it exactly 0: its removed problem is the full problem, bit for bit.

    Its support box starts at capacity 0, as its capacity does: a pessimistic insert with capacity would pay it
    a real h whenever the others' problem accepts that insert.
    """
    rng, caps, gammas, thetas = _invariance_batch(47)
    T, n, m = _INVARIANCE_SIZES
    base = _invariance_payments(kind, PriorSupport.uniform_box(n, m, cap=_INVARIANCE_CAPS), caps, gammas, thetas)
    wide = PriorSupport.uniform_box(n + 1, m, cap=_INVARIANCE_CAPS)
    cap_lo = wide.cap_lo.copy()
    cap_lo[-1] = 0.0
    with_null = _invariance_payments(
        kind, dataclasses.replace(wide, cap_lo=cap_lo), np.concatenate([caps, np.zeros((T, 1, 1))], axis=1),
        np.concatenate([gammas, rng.uniform(0.0, 1.0, (T, 1))], axis=1), thetas,
    )
    for name in ("tau", "adjustment", "total", "utilities"):
        others, null = getattr(with_null, name)[:, :n], getattr(with_null, name)[:, n]
        assert np.allclose(others, getattr(base, name), rtol=0.0, atol=1e-12), name
        assert np.all(null == 0.0), name
    assert not with_null.punished.any()


def test_analytic_all_producers_permutes_with_the_producers():
    """``AnalyticAdjustment.all_producers`` on its own: relabeling the producers of a symmetric support permutes
    every h bit for bit. A capacity floor of 0.5 at cost type 0.2 is accepted in most rows, so h is not zero there."""
    rng, caps, gammas, thetas = _invariance_batch(53)
    T, n, m = _INVARIANCE_SIZES
    support = PriorSupport.uniform_box(n, m, cap=_INVARIANCE_CAPS, gamma=(0.0, 0.2))
    model = AnalyticAdjustment(support, _INVARIANCE_VALUATION, LinearCost())
    base = model.all_producers(caps, gammas, thetas)
    perms = rng.permuted(np.tile(np.arange(n), (T, 1)), axis=1)
    moved = model.all_producers(
        np.take_along_axis(caps, perms[..., None], axis=1), np.take_along_axis(gammas, perms, axis=1), thetas
    )
    assert moved.tobytes() == np.take_along_axis(base, perms, axis=1).tobytes()
    assert (base != 0.0).any(axis=1).mean() > 0.5


def test_truthful_utilities_at_n_8_are_not_below_zero_at_the_ulp():
    """Zero adjustment, truthful bids, n = 8 on the flagship prior box: no utility is below 0.0, and a producer
    with nothing accepted has utility exactly 0.0, since its zero-capacity row is the full row.

    Deleting the producer's slot instead regrouped numpy's pairwise sum of the fills at n = 8 and left 330 of
    these 32,000 utilities at about -1 ulp.
    """
    n = 8
    support = PriorSupport.uniform_box(n, 2, cap=(0.0, 5.0), gamma=(0.0, 1.0), theta=(0.0, 1.0))
    for seed in (0, 1):
        caps, gammas, thetas = sample_from(support, 2000, np.random.default_rng(seed))
        batch = payments_batch(caps, gammas, thetas, SqrtSumValuation(scale=float(n)), LinearCost())
        assert not (batch.utilities < 0.0).any()
        idle = ~batch.accepted.any(axis=-1)
        assert idle.any() and np.all(batch.utilities[idle] == 0.0)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_zero_capacity_removed_surplus_is_the_index_deleted_one(data):
    """The zero-capacity ``S*_{-i}`` is within 1e-12 of the n-1 producer solve it replaced, ties, zero
    capacities and zero valuation types included, up to twelve producers."""
    caps, gammas, thetas, *_, valuation, cost, _ = _payment_batch_case(data, n_max=12)
    removed = payments_batch(caps, gammas, thetas, valuation, cost).counterfactual_surpluses
    n = gammas.shape[1]
    others = others_index(n)
    deleted = solve_batch(caps[:, others], gammas[:, others], thetas[:, None, :], valuation, cost)[1]
    assert np.allclose(removed, deleted, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("family", ["sqrt_sum_dim2", "custom_dim1", "custom_dim2"])
def test_zero_capacity_removed_surplus_matches_the_index_deleted_projected_gradient(family):
    """Outside the water-fill both removed problems are projected-gradient solves with their own start rows;
    they agree within 1e-6."""
    valuation, cost, dim, method, counts = _GENERIC_FAMILIES[family]
    rng = np.random.default_rng(61)
    for n in counts:
        caps, gammas, thetas = rng.uniform(0.0, 5.0, (4, n, dim)), rng.uniform(0.0, 1.0, (4, n)), rng.uniform(0.0, 1.0, (4, 2))
        removed = payments_batch(caps, gammas, thetas, valuation, cost, method=method).counterfactual_surpluses
        others = others_index(n)
        deleted = solve_batch(caps[:, others], gammas[:, others], thetas[:, None, :], valuation, cost, method)[1]
        assert np.allclose(removed, deleted, rtol=0.0, atol=1e-6), (family, n)


def test_removed_surplus_barely_reads_the_removed_producers_report():
    """``S*_{-i}`` keeps producer i's reported cost type in its zero-capacity slot, where it only decides the slot's
    sort position and so the grouping of the pairwise sums: reporting another cost type moves ``S*_{-i}`` by at
    most 1e-12 (1 + |S*|). Its reported capacity is not read at all."""
    T, n, m = _INVARIANCE_SIZES
    rng = np.random.default_rng(59)
    caps, gammas, thetas = rng.uniform(0.0, 5.0, (T, n, 1)), rng.uniform(0.0, 1.0, (T, n)), rng.uniform(0.0, 1.0, (T, m))
    gammas[:, 1] = gammas[:, 0]  # ties for the tie rule
    valuation, cost = _INVARIANCE_VALUATION, LinearCost()
    truth = payments_batch(caps, gammas, thetas, valuation, cost)
    bound = 1e-12 * (1.0 + np.abs(truth.surplus))
    for i in (0, 1, n - 1):
        bid_caps = caps.copy()
        bid_caps[:, i] = 2.0 * caps[:, i] + 1.0
        removed = payments_batch(caps, gammas, thetas, valuation, cost, bid_caps).counterfactual_surpluses[:, i]
        assert removed.tobytes() == truth.counterfactual_surpluses[:, i].tobytes(), i
        for report in (0.0, 0.5, 1.0, 10.0, gammas[:, 1 - i % 2]):
            bid_gammas = gammas.copy()
            bid_gammas[:, i] = report
            removed = payments_batch(
                caps, gammas, thetas, valuation, cost, reported_cost_types=bid_gammas
            ).counterfactual_surpluses[:, i]
            assert np.all(np.abs(removed - truth.counterfactual_surpluses[:, i]) <= bound), (i, report)



_CUSTOM = (CustomValuation(fn=weighted_valuation), CustomCost(fn=convex_cost))
# (valuation, cost, dim, method, producer counts): every family and method but the water-fill
_GENERIC_FAMILIES = {
    "sqrt_sum_dim2": (SqrtSumValuation(scale=3.0), LinearCost(), 2, None, (1, 2, 3)),
    "sqrt_sum_squares": (SqrtSumSquaresValuation(scale=3.0), LinearCost(), 1, None, (1, 2, 3)),
    "custom_dim1": (*_CUSTOM, 1, None, (1, 2)),
    "custom_dim2": (*_CUSTOM, 2, None, (1, 2)),
    "sqrt_sum_projected_gradient": (SqrtSumValuation(scale=3.0), LinearCost(), 1, "projected_gradient", (1, 2, 3)),
}


@pytest.mark.parametrize("family", list(_GENERIC_FAMILIES))
def test_generic_payment_is_bit_equal_to_the_per_producer_oracle(family):
    """Every PaymentBreakdown field of a non-water-fill auction, and each producer's utility and pivot payment
    read from its rows, has the bits of the per-producer path, for each adjustment kind, truthful and with a
    punished over-report."""
    valuation, cost, dim, method, counts = _GENERIC_FAMILIES[family]
    rng = np.random.default_rng(sorted(_GENERIC_FAMILIES).index(family))
    kinds = ["zero", "analytic", "callable", "learned"]
    for case, (n, liar) in enumerate((n, liar) for n in counts for liar in (False, True)):
        m = 2
        economy = Economy(rng.uniform(0.0, 5.0, (n, dim)), rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, m),
                          valuation, cost)
        caps, gammas = economy.capacities.copy(), economy.cost_types.copy()
        if liar:
            # a free over-report is accepted beyond the true capacity and punished; a cost under-report is not
            i = int(rng.integers(n))
            caps[i] = 2.0 * economy.capacities[i] + 1.0
            gammas[i] = 0.0
            if n > 1:
                gammas[(i + 1) % n] *= 0.5
        bids = BidProfile(caps, gammas, economy.valuation_types)
        kind = kinds[case % len(kinds)]
        if kind == "zero":
            adjustment = ZeroAdjustment()
        elif kind == "analytic":
            support = PriorSupport.uniform_box(n, m, cap=(0.5, 5.0), dim=dim)
            adjustment = AnalyticAdjustment(support, valuation, cost, method=method)
        elif kind == "callable":
            adjustment = RuleAdjustment(
                lambda i, caps, gammas, thetas: 0.1 * float(caps.sum()) - 0.05 * float(gammas.sum()) - 0.01 * i
            )
        else:
            nets = tuple(mlp_init([(n - 1) * (dim + 1) + m, 4, 1], rng) for _ in range(n))
            adjustment = LearnedAdjustment(nets, PriorSupport.uniform_box(n, m, dim=dim))
        kwargs = dict(adjustment=adjustment, punishment=1e6, method=method)
        payment = total_payment(economy, bids, **kwargs)
        reference = reference_total_payment(economy, bids, **kwargs)
        assert payment.punished.any() == liar, (family, case)
        for field in dataclasses.fields(PaymentBreakdown):
            got, want = getattr(payment, field.name), getattr(reference, field.name)
            assert type(got) is type(want), (family, case, field.name)
            got, want = np.asarray(got), np.asarray(want)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), (
                family, case, field.name
            )
        for i in range(n):
            got = (payment.utilities[i], payment.tau[i])
            want = reference_producer_utility(economy, bids, i, **kwargs)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (family, case, i)


@pytest.mark.parametrize("method", [None, "projected_gradient"])
def test_an_auction_is_one_solve_and_its_analytic_adjustment_one_max_surplus(monkeypatch, method):
    """``total_payment`` and ``payments_batch`` solve the full and every removed problem in one call of
    ``solve_batch``'s kernel, and ``AnalyticAdjustment.all_producers`` its pessimistic and removed problems in one
    call of ``max_surplus``'s."""
    calls = []

    def counted(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(name) or original(*args, **kwargs))

    counted(pvcg.payments, "_solve")
    counted(pvcg.adjustment, "_max_surplus")
    rng, n, m = np.random.default_rng(67), 3, 2
    caps, gammas, thetas = rng.uniform(0.0, 5.0, (2, n, 1)), rng.uniform(0.0, 1.0, (2, n)), rng.uniform(0.0, 1.0, (2, m))
    valuation, cost = SqrtSumValuation(scale=float(n)), LinearCost()
    adjustment = AnalyticAdjustment(PriorSupport.uniform_box(n, m, cap=(0.5, 5.0)), valuation, cost, method=method)
    total_payment(Economy(caps[0], gammas[0], thetas[0], valuation, cost), adjustment=adjustment, method=method)
    assert calls == ["_solve", "_max_surplus"]
    calls.clear()
    payments_batch(caps, gammas, thetas, valuation, cost, adjustment=adjustment, method=method)
    assert calls == ["_solve", "_max_surplus"]
    calls.clear()
    adjustment.all_producers(caps, gammas, thetas)
    assert calls == ["_max_surplus"]


def test_pricing_costs_each_accepted_bundle_once_per_cost_type(monkeypatch):
    """Pivot payment and two-form check share one evaluation of the reported own costs: a custom cost is
    asked for each accepted bundle at its reported and at its true cost type, and once per bundle of the n removed
    allocations, the zero bundle in the removed producer's slot included."""
    shapes = []

    def counting_cost_rows(cost, bundles, gammas):
        shapes.append(np.shape(bundles))
        return cost_rows(cost, bundles, gammas)

    monkeypatch.setattr(pvcg.payments, "cost_rows", counting_cost_rows)
    economy = Economy([[1.0], [2.0], [3.0]], [0.2, 0.4, 0.1], [0.8, 0.5],
                      CustomValuation(fn=weighted_valuation), CustomCost(fn=convex_cost))
    bids = BidProfile(economy.capacities, [0.2, 0.3, 0.1], economy.valuation_types)
    total_payment(economy, bids)
    assert sorted(shapes) == [(1, 3, 1), (1, 3, 1), (1, 3, 3, 1)]
