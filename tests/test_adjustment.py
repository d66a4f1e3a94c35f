import dataclasses
import json
import math

import numpy as np
import pytest

import pvcg.adjustment
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
    payments_batch,
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
    # each side of the box is a profile: (n,) cost-type and (m,) valuation-type bounds, n >= 1 and m >= 1
    with pytest.raises(ValueError, match=r"^gamma_lo must have shape \(3,\), got \(3, 1\)$"):
        PriorSupport(np.zeros((3, 1)), np.ones((3, 1)), np.zeros((3, 1)), np.ones((3, 1)), np.zeros(2), np.ones(2))
    with pytest.raises(ValueError, match=r"^theta_lo must have shape \(2,\), got \(2, 2\)$"):
        PriorSupport(np.zeros((3, 1)), np.ones((3, 1)), np.zeros(3), np.ones(3), np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError, match=r"^cap_lo must have at least one producer, got shape \(0, 1\)$"):
        PriorSupport.uniform_box(0, 2)
    with pytest.raises(ValueError, match=r"^theta_lo must have at least one consumer, got shape \(0,\)$"):
        PriorSupport.uniform_box(2, 0)


@pytest.mark.parametrize(
    "field, bounds",
    [("gamma_lo", {"gamma": (-1.0, 0.0)}), ("theta_lo", {"theta": (-1.0, 0.0)})],
)
def test_support_rejects_negative_type_lower_bounds(field, bounds):
    with pytest.raises(ValueError, match=f"^{field} must be non-negative"):
        PriorSupport.uniform_box(2, 1, **bounds)


def test_sample_from_bounds_and_determinism(paper_support):
    caps, gammas, thetas = sample_from(paper_support, 500, np.random.default_rng(9))
    assert caps.shape == (500, 10, 1) and gammas.shape == (500, 10) and thetas.shape == (500, 2)
    assert caps.min() >= 0.0 and caps.max() <= 5.0
    assert gammas.min() >= 0.0 and gammas.max() <= 1.0
    again = sample_from(paper_support, 500, np.random.default_rng(9))
    assert all(np.array_equal(a, b) for a, b in zip((caps, gammas, thetas), again))


def test_sample_from_degenerate_support():
    support = PriorSupport.uniform_box(2, 1, cap=(2.0, 2.0), gamma=(0.3, 0.3), theta=(0.8, 0.8))
    caps, gammas, thetas = sample_from(support, 50, np.random.default_rng(0))
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


def test_sample_from_empirical_mean(paper_support):
    caps, _, _ = sample_from(paper_support, 100_000 // 10, np.random.default_rng(123))
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


def _support_floor(floor: str, n: int, dim: int) -> PriorSupport:
    """A support of n producers, capacities up to 2 and cheap cost types, whose minimum capacity is 0.5 everywhere
    (``interior``), 0 everywhere (``zero``), or by producer j % 3: 0.5, 0, and 0 in the first coordinate only, which
    is 0 everywhere at dim 1 (``mixed``)."""
    support = PriorSupport.uniform_box(n, 2, cap=(0.5, 2.0), gamma=(0.0, 0.05), dim=dim)
    cap_lo = np.full((n, dim), 0.0 if floor == "zero" else 0.5)
    if floor == "mixed":
        cap_lo[1::3] = 0.0
        cap_lo[2::3, 0] = 0.0
    return dataclasses.replace(support, cap_lo=cap_lo)


# the finite-difference gradient of sqrt_sum_squares makes its n=10 solves take seconds each
@pytest.mark.parametrize(
    "valuation_cls, dim, method, counts, floor",
    [
        pytest.param(SqrtSumValuation, 1, None, (1, 2, 3, 4, 10), "interior", id="sqrt_sum-waterfill"),
        pytest.param(SqrtSumValuation, 1, "projected_gradient", (1, 2, 3, 4, 10), "interior",
                     id="sqrt_sum-projected_gradient"),
        pytest.param(SqrtSumValuation, 2, None, (1, 2, 3, 4, 10), "interior", id="sqrt_sum-dim2-waterfill"),
        pytest.param(SqrtSumValuation, 2, "projected_gradient", (1, 2, 3, 4, 10), "interior", id="sqrt_sum-dim2"),
        pytest.param(SqrtSumSquaresValuation, 1, None, (1, 2, 3, 4), "interior", id="sqrt_sum_squares"),
        pytest.param(SqrtSumSquaresValuation, 2, None, (1, 2, 3, 4), "interior", id="sqrt_sum_squares-dim2"),
        pytest.param(SqrtSumValuation, 1, None, (1, 2, 3, 10), "zero", id="sqrt_sum-waterfill-zero-floor"),
        pytest.param(SqrtSumValuation, 2, "projected_gradient", (1, 2, 3, 10), "zero", id="sqrt_sum-dim2-zero-floor"),
        pytest.param(SqrtSumValuation, 1, None, (1, 2, 3, 10), "mixed", id="sqrt_sum-waterfill-mixed-floor"),
        pytest.param(SqrtSumValuation, 1, "projected_gradient", (1, 2, 3, 10), "mixed",
                     id="sqrt_sum-projected_gradient-mixed-floor"),
        pytest.param(SqrtSumValuation, 2, None, (1, 2, 3, 10), "mixed", id="sqrt_sum-dim2-waterfill-mixed-floor"),
        pytest.param(SqrtSumValuation, 2, "projected_gradient", (1, 2, 3, 10), "mixed", id="sqrt_sum-dim2-mixed-floor"),
        pytest.param(SqrtSumSquaresValuation, 2, None, (1, 2, 3), "mixed", id="sqrt_sum_squares-dim2-mixed-floor"),
    ],
)
def test_all_producers_is_bit_equal_to_the_per_producer_call(valuation_cls, dim, method, counts, floor):
    """Row i of the batched analytic adjustment and ``model(i, ...)`` on the others' reports both have the bits
    of the one-producer reference, which solves both problems: strictly negative where producer i's support
    minimum is non-zero in some coordinate, else -0.0, sign included."""
    for n in counts:
        # cheap producers: one above zero capacity is accepted at its minimum, so its adjustment is not zero
        support = _support_floor(floor, n, dim)
        model = AnalyticAdjustment(support, valuation_cls(scale=float(n)), LinearCost(), method=method)
        caps, gammas, thetas = sample_from(support, 1, np.random.default_rng(n))
        batch = model.all_producers(caps, gammas, thetas)
        assert batch.shape == (1, n)
        for i, keep in enumerate(others_index(n)):
            expected = np.float64(reference_analytic_adjustment(model, i, caps[0, keep], gammas[0, keep], thetas[0]))
            value = model(i, caps[0, keep], gammas[0, keep], thetas[0])
            assert type(value) is float
            assert np.float64(value).tobytes() == expected.tobytes(), (n, i)
            assert batch[0, i].tobytes() == expected.tobytes(), (n, i)
            if support.cap_lo[i].any():
                assert expected < 0.0, (n, i)
            else:
                assert expected.tobytes() == np.float64(-0.0).tobytes(), (n, i)


@pytest.mark.parametrize("dim", [1, 2])
def test_a_zero_minimum_support_prices_its_adjustment_without_a_solve(monkeypatch, dim):
    """Where every producer's support minimum is zero, the pessimistic and the zero-capacity problem are one
    problem: ``all_producers``, ``model(i, ...)``, ``total_payment`` and ``payments_batch`` write -0.0 without
    calling the surplus kernel ``_max_surplus``."""
    n, m = 3, 2
    valuation, cost = SqrtSumValuation(scale=float(n)), LinearCost()
    support = PriorSupport.uniform_box(n, m, dim=dim)
    model = AnalyticAdjustment(support, valuation, cost)

    def solve(*args, **kwargs):
        raise AssertionError("the analytic adjustment solved a problem")

    monkeypatch.setattr(pvcg.adjustment, "_max_surplus", solve)
    caps, gammas, thetas = sample_from(support, 4, np.random.default_rng(71))
    minus_zero = np.float64(-0.0).tobytes()
    assert model.all_producers(caps, gammas, thetas).tobytes() == np.full((4, n), -0.0).tobytes()
    assert np.float64(model(1, caps[0, [0, 2]], gammas[0, [0, 2]], thetas[0])).tobytes() == minus_zero
    payment = total_payment(Economy(caps[0], gammas[0], thetas[0], valuation, cost), adjustment=model)
    assert payment.adjustment.tobytes() == np.full(n, -0.0).tobytes()
    batch = payments_batch(caps, gammas, thetas, valuation, cost, adjustment=model)
    assert batch.adjustment.tobytes() == np.full((4, n), -0.0).tobytes()


def test_the_analytic_adjustment_checks_its_method_where_it_solves_nothing():
    """The method rule runs at construction, so a bad method raises even where no profile would reach a solver."""
    support = PriorSupport.uniform_box(3, 2)
    with pytest.raises(ValueError, match="^method: analytic water-fill requires the sqrt_sum valuation and linear"):
        AnalyticAdjustment(support, SqrtSumSquaresValuation(scale=3.0), LinearCost(), method="analytic")
    with pytest.raises(ValueError, match="^method must be None, 'analytic' or 'projected_gradient', got 'bogus'$"):
        AnalyticAdjustment(support, SqrtSumValuation(scale=3.0), LinearCost(), method="bogus")


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
    assert (got.name, got.trials, repr(got.max_gap)) == (want.name, want.trials, repr(want.max_gap))
    assert list(got.to_dict()) == ["name", "samples", "passed", "violation_count", "max_gap", "witnesses"]


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
