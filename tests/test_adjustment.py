import json
import math

import numpy as np
import pytest

from pvcg import (
    AnalyticAdjustment,
    CustomValuation,
    Economy,
    LearnedAdjustment,
    LinearCost,
    PriorSupport,
    SqrtSumSquaresValuation,
    SqrtSumValuation,
    analytic_adjustment,
    marginal_gains_check,
    existence_check,
    sample_prior,
    total_payment,
)
from pvcg.adjustment import sample_from
from pvcg.allocation import others_index, waterfill_surplus
from pvcg.learner import mlp_init

from oracles import reference_analytic_adjustment, reference_feasibility_check, reference_sample_from


def test_support_validation():
    with pytest.raises(ValueError):
        PriorSupport.uniform_box(2, 1, cap=(3.0, 1.0))
    with pytest.raises(ValueError):
        PriorSupport.uniform_box(2, 1, cap=(0.0, float("inf")))
    with pytest.raises(ValueError):
        PriorSupport(
            cap_lo=np.zeros((2, 1)), cap_hi=np.ones((2, 1)),
            gamma_lo=np.zeros(3), gamma_hi=np.ones(3),
            theta_lo=np.zeros(1), theta_hi=np.ones(1),
        )


@pytest.mark.parametrize(
    "field, bounds",
    [("gamma_lo", {"gamma": (-1.0, 0.0)}), ("theta_lo", {"theta": (-1.0, 0.0)})],
)
def test_support_rejects_negative_type_lower_bounds(field, bounds):
    with pytest.raises(ValueError, match=f"^{field} must be non-negative"):
        PriorSupport.uniform_box(2, 1, **bounds)


def test_sample_prior_bounds_and_determinism(paper_support):
    caps, gammas, thetas = sample_prior(paper_support, 500, seed=9)
    assert caps.shape == (500, 10, 1) and gammas.shape == (500, 10) and thetas.shape == (500, 2)
    assert caps.min() >= 0.0 and caps.max() <= 5.0
    assert gammas.min() >= 0.0 and gammas.max() <= 1.0
    again = sample_prior(paper_support, 500, seed=9)
    assert all(np.array_equal(a, b) for a, b in zip((caps, gammas, thetas), again))


def test_sample_prior_degenerate_support():
    support = PriorSupport.uniform_box(2, 1, cap=(2.0, 2.0), gamma=(0.3, 0.3), theta=(0.8, 0.8))
    caps, gammas, thetas = sample_prior(support, 50, seed=0)
    assert np.all(caps == 2.0) and np.all(gammas == 0.3) and np.all(thetas == 0.8)


def test_sample_from_has_the_bits_and_stream_of_rng_uniform():
    """One ``rng.random`` per box gives ``rng.uniform``'s draws, and leaves the generator where it would."""
    support = PriorSupport(
        cap_lo=[[0.0, 1.0], [0.5, 0.0], [2.0, 2.0]], cap_hi=[[2.0, 3.0], [1.5, 4.0], [2.0, 7.5]],
        gamma_lo=[0.1, 0.2, 0.0], gamma_hi=[0.9, 0.8, 0.3],
        theta_lo=[0.0, 0.3], theta_hi=[1.0, 0.7],
    )
    for seed in range(5):
        rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for count in (1, 7, 256):
            drawn = sample_from(support, count, rng)
            expected = reference_sample_from(support, count, expected_rng)
            assert [a.shape for a in drawn] == [(count, 3, 2), (count, 3), (count, 2)]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(drawn, expected))
        assert rng.random() == expected_rng.random()


def test_support_dict_roundtrip():
    support = PriorSupport(
        cap_lo=[[0.0, 1.0], [0.5, 0.0]], cap_hi=[[2.0, 3.0], [1.5, 4.0]],
        gamma_lo=[0.1, 0.2], gamma_hi=[0.9, 0.8],
        theta_lo=[0.0, 0.3, 0.1], theta_hi=[1.0, 0.7, 0.2],
    )
    doc = support.to_dict()
    assert list(doc) == ["cap_lo", "cap_hi", "gamma_lo", "gamma_hi", "theta_lo", "theta_hi"]
    loaded = PriorSupport.from_dict(json.loads(json.dumps(doc)))
    for name in doc:
        assert np.array_equal(getattr(loaded, name), getattr(support, name))


def test_sample_prior_empirical_mean(paper_support):
    caps, _, _ = sample_prior(paper_support, 100_000 // 10, seed=123)
    # 10 producers x 10^4 draws = 10^5 uniform[0,5] values
    assert abs(caps.mean() - 2.5) < 0.02


def test_zero_inclusive_support_gives_zero_adjustment(paper_support, paper_families):
    """With min capacity 0 the pessimistic insertion contributes nothing."""
    valuation, cost = paper_families
    model = AnalyticAdjustment(paper_support, valuation, cost)
    rng = np.random.default_rng(41)
    for _ in range(25):
        caps_others = rng.uniform(0, 5, (9, 1))
        gammas_others = rng.uniform(0, 1, 9)
        thetas = rng.uniform(0, 1, 2)
        i = int(rng.integers(10))
        assert abs(model(i, caps_others, gammas_others, thetas)) <= 1e-9


def test_degenerate_support_extracts_full_producer_surplus():
    """A perfectly informed coordinator pays producers exactly their cost."""
    economy = Economy.sqrt_sum([2.0, 3.0], [0.3, 0.1], [0.8])
    support = PriorSupport(
        cap_lo=economy.capacities, cap_hi=economy.capacities,
        gamma_lo=economy.cost_types, gamma_hi=economy.cost_types,
        theta_lo=economy.valuation_types, theta_hi=economy.valuation_types,
    )
    model = AnalyticAdjustment(support, economy.valuation, economy.cost)
    payments = total_payment(economy, adjustment=model)
    gains = payments.surplus - payments.counterfactual_surpluses
    assert payments.adjustment == pytest.approx(-gains, abs=1e-9)
    assert payments.utilities == pytest.approx(np.zeros(2), abs=1e-9)


def test_two_producer_worked_adjustment():
    """h_0 = -[S*((1,1),(10,0.2)) - S*((0,1),(10,0.2))] with support min cap 1, max gamma 10: the problem
    without producer 0 zeroes its capacity at the same cost type."""
    valuation, cost = SqrtSumValuation(scale=2.0), LinearCost()
    support = PriorSupport(
        cap_lo=np.array([[1.0], [1.0]]), cap_hi=np.array([[5.0], [5.0]]),
        gamma_lo=np.array([0.0, 0.0]), gamma_hi=np.array([10.0, 10.0]),
        theta_lo=np.array([0.0]), theta_hi=np.array([2.0]),
    )
    value = analytic_adjustment(support, valuation, cost, 0, [[1.0]], [0.2], [1.0])
    s_pessimistic = waterfill_surplus(np.array([1.0, 1.0]), np.array([10.0, 0.2]), 1.0, 2.0)
    s_without = waterfill_surplus(np.array([0.0, 1.0]), np.array([10.0, 0.2]), 1.0, 2.0)
    assert value == -(s_pessimistic - s_without)
    # both fills exclude the pessimistic producer entirely, so h_0 = 0 here
    assert value == pytest.approx(0.0, abs=1e-12)


def test_adjustment_ignores_own_report(paper_support, paper_families):
    valuation, cost = paper_families
    model = AnalyticAdjustment(paper_support, valuation, cost)
    rng = np.random.default_rng(43)
    caps_others = rng.uniform(0, 5, (9, 1))
    gammas_others = rng.uniform(0, 1, 9)
    thetas = rng.uniform(0, 1, 2)
    first = model(3, caps_others, gammas_others, thetas)
    second = model(3, caps_others, gammas_others, thetas)
    assert first == second  # bit-identical: nothing about producer 3 enters


# the finite-difference gradient of sqrt_sum_squares makes its n=10 solves take seconds each
@pytest.mark.parametrize(
    "valuation_cls, dim, method, counts",
    [
        pytest.param(SqrtSumValuation, 1, None, (1, 2, 3, 4, 10), id="sqrt_sum-waterfill"),
        pytest.param(SqrtSumValuation, 1, "projected_gradient", (1, 2, 3, 4, 10), id="sqrt_sum-projected_gradient"),
        pytest.param(SqrtSumValuation, 2, None, (1, 2, 3, 4, 10), id="sqrt_sum-dim2"),
        pytest.param(SqrtSumSquaresValuation, 1, None, (1, 2, 3, 4), id="sqrt_sum_squares"),
        pytest.param(SqrtSumSquaresValuation, 2, None, (1, 2, 3, 4), id="sqrt_sum_squares-dim2"),
    ],
)
def test_all_producers_is_bit_equal_to_the_per_producer_call(valuation_cls, dim, method, counts):
    """Row i of the batched analytic adjustment and ``model(i, ...)`` on the others' reports both have the bits
    of the one-producer reference."""
    for n in counts:
        # cheap producers above zero capacity: the pessimistic producer is accepted, so no adjustment is zero
        support = PriorSupport.uniform_box(n, 2, cap=(0.5, 2.0), gamma=(0.0, 0.05), dim=dim)
        model = AnalyticAdjustment(support, valuation_cls(scale=float(n)), LinearCost(), method=method)
        caps, gammas, thetas = sample_prior(support, 1, seed=n)
        batch = model.all_producers(caps, gammas, thetas)
        assert batch.shape == (1, n)
        for i, keep in enumerate(others_index(n)):
            expected = np.float64(reference_analytic_adjustment(model, i, caps[0, keep], gammas[0, keep], thetas[0]))
            value = model(i, caps[0, keep], gammas[0, keep], thetas[0])
            assert type(value) is float
            assert np.float64(value).tobytes() == expected.tobytes(), (n, i)
            assert batch[0, i].tobytes() == expected.tobytes(), (n, i)
            assert expected < 0.0, (n, i)


@pytest.mark.parametrize("kind", ["analytic", "learned"])
@pytest.mark.parametrize(
    "change, error, message",
    [
        pytest.param(dict(i=-1), IndexError, "^producer index -1 out of range for n=3$", id="producer-below-range"),
        pytest.param(dict(i=3), IndexError, "^producer index 3 out of range for n=3$", id="producer-above-range"),
        pytest.param(dict(gammas_others=[0.2]), ValueError, r"^others' cost types must have shape \(2,\), got \(1,\)$",
                     id="mismatched-lengths"),
        pytest.param(dict(capacities_others=[[1.0], [2.0], [3.0]]), ValueError,
                     r"^others' capacities must have shape \(2, 1\)", id="too-many-capacities"),
        pytest.param(dict(capacities_others=[[1.0], [-2.0]]), ValueError, "^others' capacities must be non-negative$",
                     id="negative-capacity"),
        pytest.param(dict(capacities_others=[[1.0], [math.inf]]), ValueError,
                     "^others' capacities must be finite, got inf$", id="inf-capacity"),
        pytest.param(dict(gammas_others=[0.2, math.nan]), ValueError, "^others' cost types must be finite, got nan$",
                     id="nan-cost-type"),
        pytest.param(dict(thetas=[0.5, math.nan]), ValueError, "^valuation types must be finite, got nan$",
                     id="nan-valuation-type"),
        pytest.param(dict(thetas=[0.5, 0.5, 0.5]), ValueError, r"^valuation types must have shape \(2,\), got \(3,\)$",
                     id="wrong-length-valuation-types"),
    ],
)
def test_per_producer_call_rejects_malformed_reports(kind, change, error, message):
    """Each malformed report raises with its field named, instead of being priced."""
    n, m = 3, 2
    valuation, cost = SqrtSumValuation(scale=float(n)), LinearCost()
    support = PriorSupport.uniform_box(n, m, cap=(0.5, 5.0))
    if kind == "analytic":
        model = AnalyticAdjustment(support, valuation, cost)
    else:
        model = LearnedAdjustment(tuple(mlp_init([2 * (n - 1) + m, 4, 1], np.random.default_rng(5)) for _ in range(n)),
                                  support)
    reports = dict(i=1, capacities_others=[[1.0], [2.0]], gammas_others=[0.2, 0.4], thetas=[0.5, 0.8])
    assert math.isfinite(model(**reports))
    with pytest.raises(error, match=message):
        model(**{**reports, **change})


def test_existence_check_paper_priors_clean(paper_support, paper_families):
    valuation, cost = paper_families
    report = existence_check(paper_support, valuation, cost, samples=10_000, seed=51)
    assert report.passed, report.to_dict()
    assert report.max_gap <= 1e-8


# a tolerance of -2 turns about half of the samples into witnesses; sqrt_sum_squares is solved by projected gradient
@pytest.mark.parametrize(
    "valuation, samples",
    [pytest.param(SqrtSumValuation(scale=3.0), 200, id="sqrt_sum"),
     pytest.param(SqrtSumSquaresValuation(scale=3.0), 8, id="sqrt_sum_squares")],
)
@pytest.mark.parametrize("check, pessimistic", [(existence_check, True), (marginal_gains_check, False)])
def test_feasibility_checks_are_bit_equal_to_the_per_economy_oracle(valuation, samples, check, pessimistic):
    """Every gap, sum and witness of a check has the bits of each replaced economy solved alone."""
    support = PriorSupport.uniform_box(3, 2, cap=(0.5, 3.0), gamma=(0.0, 0.05))
    got = check(support, valuation, LinearCost(), samples=samples, seed=4, tol=-2.0)
    name = "existence" if pessimistic else "marginal_gains"
    want = reference_feasibility_check(name, support, valuation, LinearCost(), samples, 4, None, -2.0, pessimistic)
    assert 0 < len(want.violations) < samples
    assert json.dumps(got.violations) == json.dumps(want.violations)
    assert (got.name, got.samples, repr(got.max_gap)) == (want.name, want.samples, repr(want.max_gap))


def test_existence_reduces_to_zero_capacity_form_on_zero_support(paper_families):
    valuation, cost = paper_families
    support = PriorSupport.uniform_box(10, 2)
    a = existence_check(support, valuation, cost, samples=300, seed=3)
    b = marginal_gains_check(support, valuation, cost, samples=300, seed=3)
    assert a.max_gap == pytest.approx(b.max_gap, abs=1e-9)


def test_marginal_gains_single_producer_is_tight():
    support = PriorSupport.uniform_box(1, 1, cap=(1.0, 5.0), gamma=(0.0, 0.5))
    report = marginal_gains_check(support, SqrtSumValuation(scale=1.0), LinearCost(), samples=200, seed=5)
    assert report.passed
    assert report.max_gap == pytest.approx(0.0, abs=1e-9)


def test_marginal_gains_separable_family_is_tight():
    """Additively separable values make every removal gap sum exactly to S*."""
    fam = CustomValuation(fn=lambda x, theta: theta * float(np.sum(np.sqrt(x.sum(axis=1)))))
    support = PriorSupport.uniform_box(2, 1, cap=(0.5, 3.0), gamma=(0.05, 0.3), theta=(0.5, 1.0))
    report = marginal_gains_check(support, fam, LinearCost(), samples=10, seed=7, method="projected_gradient")
    assert report.passed
    assert abs(report.max_gap) <= 1e-6


def test_complements_family_violates_feasibility():
    """Perfect complements: every producer is pivotal, so removal gaps overshoot S*."""
    fam = CustomValuation(fn=lambda x, theta: theta * 2.0 * float(x.sum(axis=1).min()))
    support = PriorSupport.uniform_box(2, 1, cap=(0.0, 1.0), gamma=(0.0, 0.0), theta=(1.0, 1.0))
    report = existence_check(support, fam, LinearCost(), samples=50, seed=11, method="projected_gradient")
    assert not report.passed
    witness = report.violations[0]
    assert witness["gap"] > 0
    assert "capacities" in witness
    report3 = marginal_gains_check(support, fam, LinearCost(), samples=50, seed=11, method="projected_gradient")
    assert not report3.passed
