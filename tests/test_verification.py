import math

import numpy as np
import pytest

from pvcg import (
    AnalyticAdjustment,
    BidProfile,
    Economy,
    LinearCost,
    PriorSupport,
    SqrtSumValuation,
    ZeroAdjustment,
    analytic_waterfill,
    check_efficiency,
    check_ir,
    check_surplus_monotonicity,
    check_wbb,
    loss_components,
    mixed_deviation_sampler,
    optimize_acceptance,
    probe_dsic,
    producer_utility,
    total_payment,
    uniform_economy_sampler,
)
from pvcg.allocation import waterfill_surplus

from conftest import random_sqrt_sum_economy


@pytest.fixture
def small_support():
    return PriorSupport.uniform_box(3, 2)


@pytest.fixture
def small_world(small_support):
    valuation, cost = SqrtSumValuation(scale=3.0), LinearCost()
    return (
        small_support,
        uniform_economy_sampler(small_support, valuation, cost),
        mixed_deviation_sampler(small_support),
    )


def test_overreport_triggers_punishment_not_violation(split_cost_economy):
    bids = split_cost_economy.truthful_bids()
    truth_utility, _ = producer_utility(split_cost_economy, bids, 0)
    lying = BidProfile([2.0, 1.0], [0.1, 10.0], [1.0])
    lie_utility, _ = producer_utility(split_cost_economy, lying, 0)
    assert lie_utility == -1e6
    assert lie_utility < truth_utility


def test_underreporting_capacity_strictly_hurts(cheap_pair_economy):
    """Shading capacity from 1.0 to 0.5 forfeits accepted quantity and payment."""
    bids = cheap_pair_economy.truthful_bids()
    truth_utility, _ = producer_utility(cheap_pair_economy, bids, 0)
    shaded = BidProfile([0.5, 1.0], [0.1, 0.2], [1.0])
    shaded_utility, _ = producer_utility(cheap_pair_economy, shaded, 0)
    # both checked against the hand-computed values
    assert truth_utility == pytest.approx(1.7 - (math.sqrt(2) - 0.2), abs=1e-9)
    assert shaded_utility == pytest.approx(
        (math.sqrt(3) - 0.25) - (math.sqrt(2) - 0.2), abs=1e-9
    )
    assert shaded_utility < truth_utility - 0.2


def test_probe_dsic_zero_adjustment_clean(small_world):
    _, economies, deviations = small_world
    report = probe_dsic(economies, deviations, ZeroAdjustment(), trials=60, deviations_per_trial=10, seed=7)
    assert report.passed, report.to_dict()
    assert report.max_gap <= 1e-6


def test_probe_dsic_analytic_adjustment_clean(small_world):
    support, economies, deviations = small_world
    model = AnalyticAdjustment(support, SqrtSumValuation(scale=3.0), LinearCost())
    report = probe_dsic(economies, deviations, model, trials=30, deviations_per_trial=8, seed=9)
    assert report.passed, report.to_dict()


def test_probe_dsic_rejects_toothless_punishment(small_world):
    _, economies, deviations = small_world
    with pytest.raises(ValueError, match="punishment"):
        probe_dsic(economies, deviations, ZeroAdjustment(), trials=5, deviations_per_trial=5,
                   seed=1, punishment=0.01)


def test_check_efficiency_grid(split_cost_economy):
    allocation = analytic_waterfill(split_cost_economy.view())
    report = check_efficiency(split_cost_economy, allocation, method="grid")
    assert report.passed
    zero = Economy.sqrt_sum([1.0, 1.0], [0.3, 0.4], [0.0])
    assert check_efficiency(zero, analytic_waterfill(zero.view()), method="grid").passed


def test_check_efficiency_grid_rejects_large_n():
    economy = Economy.sqrt_sum([1.0] * 4, [0.1] * 4, [1.0])
    allocation = analytic_waterfill(economy.view())
    with pytest.raises(ValueError):
        check_efficiency(economy, allocation, method="grid")
    assert check_efficiency(economy, allocation, method="multistart").passed


def test_check_efficiency_random_three_producer():
    rng = np.random.default_rng(101)
    for _ in range(25):
        economy = random_sqrt_sum_economy(rng, n_choices=(3,))
        allocation = analytic_waterfill(economy.view())
        assert check_efficiency(economy, allocation, method="grid").passed


def test_check_ir_zero_adjustment_passes(cheap_pair_economy):
    payments = total_payment(cheap_pair_economy)
    assert check_ir(cheap_pair_economy, payments).passed


def test_check_ir_flags_injected_deficit(cheap_pair_economy):
    probe = total_payment(cheap_pair_economy)
    gains = probe.surplus - probe.counterfactual_surpluses

    def bad_adjustment(i, caps_others, gammas_others, thetas):
        return -gains[i] - 1.0

    payments = total_payment(cheap_pair_economy, adjustment=bad_adjustment)
    report = check_ir(cheap_pair_economy, payments)
    assert not report.passed
    assert report.violations[0]["gap"] == pytest.approx(1.0, abs=1e-6)
    term1, _ = loss_components(payments)
    assert term1 == pytest.approx(2.0, abs=1e-6)  # both producers short by 1


def test_check_wbb_zero_adjustment_passes(split_cost_economy):
    payments = total_payment(split_cost_economy)
    assert check_wbb(split_cost_economy, payments).passed


def test_check_wbb_flags_injected_overdraft():
    economy = Economy.sqrt_sum([2.0], [0.3], [0.9])
    probe = total_payment(economy)
    overdraft = probe.coalition_income - probe.tau[0] + 1.0

    payments = total_payment(economy, adjustment=lambda *args: overdraft)
    report = check_wbb(economy, payments)
    assert not report.passed
    assert payments.budget_slack == pytest.approx(-1.0, abs=1e-9)
    _, term2 = loss_components(payments)
    assert term2 == pytest.approx(1.0, abs=1e-9)


def test_loss_terms_track_probes():
    """Rationality term zero iff the rationality probe passes, same for budget."""
    rng = np.random.default_rng(103)
    support = PriorSupport.uniform_box(3, 2)
    sampler = uniform_economy_sampler(support, SqrtSumValuation(scale=3.0), LinearCost())
    adjustments = [ZeroAdjustment(), AnalyticAdjustment(support, SqrtSumValuation(scale=3.0), LinearCost())]
    for _ in range(40):
        economy = sampler(rng)
        for adjustment in adjustments:
            payments = total_payment(economy, adjustment=adjustment)
            term1, term2 = loss_components(payments)
            assert (term1 <= economy.n * 1e-8) == check_ir(economy, payments).passed
            assert (term2 <= 1e-8) == check_wbb(economy, payments).passed


def test_monotonicity_worked_capacity_increase():
    """Raising the cheap producer's capacity 1 -> 2 lifts the optimum by the water-fill margin."""
    before = waterfill_surplus(np.array([1.0, 1.0]), np.array([0.1, 0.2]), 1.0, 2.0)
    after = waterfill_surplus(np.array([2.0, 1.0]), np.array([0.1, 0.2]), 1.0, 2.0)
    assert before == pytest.approx(1.7, abs=1e-12)
    assert after == pytest.approx(math.sqrt(6) - 0.4, abs=1e-12)
    assert after > before


def test_monotonicity_flat_after_exclusion():
    """Once a producer is priced out, further cost increases leave the optimum flat."""
    base = waterfill_surplus(np.array([1.0, 1.0]), np.array([1.0, 0.2]), 1.0, 2.0)
    worse = waterfill_surplus(np.array([1.0, 1.0]), np.array([2.0, 0.2]), 1.0, 2.0)
    assert base == pytest.approx(worse, abs=1e-12)
    assert base == pytest.approx(math.sqrt(2) - 0.2, abs=1e-12)


def test_monotonicity_zero_capacity_producer_is_inert():
    fam = SqrtSumValuation(scale=2.0)
    two = Economy([1.0, 1.0], [0.1, 0.2], [1.0], fam, LinearCost())
    three = Economy([1.0, 1.0, 0.0], [0.1, 0.2, 0.05], [1.0], fam, LinearCost())
    assert analytic_waterfill(three.view()).surplus == pytest.approx(
        analytic_waterfill(two.view()).surplus, abs=1e-12
    )


def test_check_surplus_monotonicity_sampled(small_world):
    _, economies, _ = small_world
    report = check_surplus_monotonicity(economies, trials=300, seed=13)
    assert report.passed, report.to_dict()
    assert report.max_gap <= 1e-8


def test_reports_are_deterministic(small_world):
    _, economies, deviations = small_world
    a = probe_dsic(economies, deviations, ZeroAdjustment(), trials=20, deviations_per_trial=5, seed=17)
    b = probe_dsic(economies, deviations, ZeroAdjustment(), trials=20, deviations_per_trial=5, seed=17)
    assert a.to_dict() == b.to_dict()


def test_probe_dsic_single_producer():
    support = PriorSupport.uniform_box(1, 1)
    sampler = uniform_economy_sampler(support, SqrtSumValuation(scale=1.0), LinearCost())
    report = probe_dsic(sampler, mixed_deviation_sampler(support), trials=5, deviations_per_trial=4, seed=2)
    assert report.trials == 20
    assert report.passed


def test_probe_dsic_utilities_match_producer_utility():
    economy = Economy.sqrt_sum([1.0, 2.0, 0.5], [0.1, 0.4, 0.3], [0.7, 0.9])
    support = PriorSupport.uniform_box(3, 2)
    adjustment = AnalyticAdjustment(support, economy.valuation, economy.cost)
    # producer 0 over-reports its capacity (punished), the others under-report it
    report = probe_dsic(
        lambda rng: economy,
        lambda rng, e, i: (np.array([1.5]), 0.05),
        adjustment=adjustment,
        trials=1,
        deviations_per_trial=12,
        tol=-math.inf,  # record every deviation as a witness
    )
    seen = set()
    for witness in report.violations:
        i = witness["producer"]
        seen.add(i)
        bids = economy.truthful_bids()
        truth, _ = producer_utility(economy, bids, i, adjustment=adjustment)
        caps = bids.capacities.copy()
        caps[i] = 1.5
        gammas = bids.cost_types.copy()
        gammas[i] = 0.05
        lie, _ = producer_utility(economy, BidProfile(caps, gammas, bids.valuation_types), i, adjustment=adjustment)
        assert witness["truth_utility"] == truth
        assert witness["deviation_utility"] == lie
    assert seen == {0, 1, 2}
    assert any(w["deviation_utility"] == -1e6 for w in report.violations)
