import math

import numpy as np
import pytest

from pvcg import (
    BidProfile,
    Economy,
    ZeroAdjustment,
    analytic_waterfill,
    counterfactual_surplus,
    optimize_acceptance,
    producer_utility,
    total_payment,
    vcg_tau,
)
from pvcg.allocation import solve_with_counterfactuals
from pvcg.model import total_valuation

from conftest import random_sqrt_sum_economy


def test_tau_single_producer_equals_full_valuation():
    economy = Economy.sqrt_sum([2.0], [0.3], [0.7])
    view = economy.view()
    full, removed = solve_with_counterfactuals(view)
    taus = vcg_tau(view, full, removed)
    value = economy.valuation.value(full.accepted, 0.7)
    assert taus[0] == pytest.approx(value, abs=1e-12)


def test_tau_two_producer_example(split_cost_economy):
    view = split_cost_economy.view()
    full, removed = solve_with_counterfactuals(view)
    taus = vcg_tau(view, full, removed)
    # (sqrt(2) - 0.1) - 0.05 + 0.1
    assert taus[0] == pytest.approx(math.sqrt(2) - 0.05, abs=1e-12)
    assert taus[1] == pytest.approx(0.0, abs=1e-12)


def test_tau_zero_capacity_producer_is_zero():
    economy = Economy.sqrt_sum([1.0, 0.0], [0.1, 0.2], [1.0])
    view = economy.view()
    full, removed = solve_with_counterfactuals(view)
    taus = vcg_tau(view, full, removed)
    assert taus[1] == pytest.approx(0.0, abs=1e-12)


def test_tau_forms_agree_for_gradient_solver_too():
    rng = np.random.default_rng(29)
    for k in range(10):
        economy = random_sqrt_sum_economy(rng, n_choices=(2, 3))
        view = economy.view()
        full, removed = solve_with_counterfactuals(view, method="projected_gradient", seed=k)
        vcg_tau(view, full, removed)  # raises if the two expansions disagree


def test_tau_rejects_wrong_counterfactual_count(split_cost_economy):
    view = split_cost_economy.view()
    full, removed = solve_with_counterfactuals(view)
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


def test_total_payment_zero_valuation_types():
    economy = Economy.sqrt_sum([1.0, 2.0], [0.3, 0.4], [0.0])
    payments = total_payment(economy)
    assert payments.total == pytest.approx([0.0, 0.0], abs=1e-12)
    assert payments.utilities == pytest.approx([0.0, 0.0], abs=1e-12)
    assert payments.coalition_income == 0.0


def test_total_payment_requires_positive_punishment(split_cost_economy):
    with pytest.raises(ValueError):
        total_payment(split_cost_economy, punishment=0.0)


def test_coalition_income_examples(split_cost_economy):
    view = split_cost_economy.view()
    allocation = analytic_waterfill(view)
    assert total_valuation(view, allocation.accepted) == pytest.approx(math.sqrt(2), abs=1e-12)
    zero = Economy.sqrt_sum([1.0], [0.1], [0.0])
    assert total_valuation(zero.view(), [[1.0]]) == 0.0


def test_income_minus_costs_is_surplus():
    rng = np.random.default_rng(31)
    for _ in range(20):
        economy = random_sqrt_sum_economy(rng)
        view = economy.view()
        allocation = analytic_waterfill(view)
        income = total_valuation(view, allocation.accepted)
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


def test_producer_utility_matches_total_payment(cheap_pair_economy):
    bids = cheap_pair_economy.truthful_bids()
    payments = total_payment(cheap_pair_economy)
    for i in range(2):
        utility, tau = producer_utility(cheap_pair_economy, bids, i)
        assert utility == pytest.approx(payments.utilities[i], abs=1e-12)
        assert tau == pytest.approx(payments.tau[i], abs=1e-12)


def test_adjustment_model_dimension_mismatch_errors(cheap_pair_economy):
    from pvcg import LearnedAdjustment, PriorSupport
    from pvcg.learner import mlp_zero

    support = PriorSupport.uniform_box(3, 1)
    width = 2 * 2 + 1  # others' capacities + others' cost types + consumers
    model = LearnedAdjustment(tuple(mlp_zero([width, 4, 1]) for _ in range(3)), support)
    with pytest.raises(ValueError):
        total_payment(cheap_pair_economy, adjustment=model)
