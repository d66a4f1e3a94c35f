import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvcg import (
    BidProfile,
    CustomValuation,
    Economy,
    LinearCost,
    SqrtSumSquaresValuation,
    SqrtSumValuation,
    check_assumptions,
    economy_from_dict,
    economy_to_dict,
    eval_cost,
    eval_valuation,
    social_surplus,
)


def test_sqrt_sum_value_examples():
    fam = SqrtSumValuation(scale=2.0)
    assert eval_valuation(fam, [1.0, 1.0], 1.0) == pytest.approx(2.0, abs=1e-12)
    assert eval_valuation(fam, [3.0, 4.0], 0.0) == 0.0
    fam10 = SqrtSumValuation(scale=10.0)
    # 0.5 * sqrt(10 * 25), checked by hand
    assert eval_valuation(fam10, [2.5] * 10, 0.5) == pytest.approx(7.905694150420948, abs=1e-12)


def test_valuation_rejects_bad_inputs():
    fam = SqrtSumValuation(scale=2.0)
    with pytest.raises(ValueError):
        eval_valuation(fam, [-1.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        eval_valuation(fam, [1.0, float("nan")], 1.0)
    with pytest.raises(ValueError):
        eval_valuation(fam, [1.0, 1.0], -0.5)
    with pytest.raises(ValueError):
        eval_valuation(fam, [[1.0, 2.0], [3.0]], 1.0)  # ragged bundle


def test_cost_examples():
    cost = LinearCost()
    assert eval_cost(cost, 0.0, 0.7) == 0.0
    assert eval_cost(cost, 2.5, 0.5) == pytest.approx(1.25, abs=1e-12)
    assert eval_cost(cost, [1.0, 2.0], 0.1) == pytest.approx(0.3, abs=1e-12)
    with pytest.raises(ValueError):
        eval_cost(cost, -1.0, 0.5)
    with pytest.raises(ValueError):
        eval_cost(cost, 1.0, -0.5)


def test_social_surplus_examples(cheap_pair_economy):
    view = cheap_pair_economy.view()
    assert social_surplus(view, [0.0, 0.0]) == 0.0
    assert social_surplus(view, [1.0, 1.0]) == pytest.approx(1.7, abs=1e-12)
    lonely = Economy.sqrt_sum([2.0], [0.4], [0.0])
    assert social_surplus(lonely.view(), [1.5]) == pytest.approx(-0.6, abs=1e-12)
    with pytest.raises(ValueError):
        social_surplus(view, [1.0, 1.0, 1.0])


def test_surplus_matches_independent_summation_order():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        economy = Economy.sqrt_sum(rng.uniform(0, 5, n), rng.uniform(0, 1, n), rng.uniform(0, 1, m))
        accepted = rng.uniform(0, 5, n)
        direct = social_surplus(economy.view(), accepted)
        # reversed iteration order, scalar accumulation
        value = sum(economy.valuation.value(accepted, t) for t in reversed(economy.valuation_types))
        costs = sum(
            economy.cost.cost(accepted[i], economy.cost_types[i]) for i in reversed(range(n))
        )
        other = value - costs
        assert direct == pytest.approx(other, rel=1e-12, abs=1e-12)


def test_zero_bundle_is_neutral():
    """A producer contributing nothing changes neither value nor cost."""
    rng = np.random.default_rng(1)
    for fam in (SqrtSumValuation(scale=4.0), SqrtSumSquaresValuation(scale=4.0)):
        for _ in range(200):
            x = rng.uniform(0, 5, 4)
            i = int(rng.integers(4))
            x_zeroed = x.copy()
            x_zeroed[i] = 0.0
            theta = float(rng.uniform(0, 1))
            assert fam.value(x_zeroed, theta) == pytest.approx(
                fam.value(np.delete(x, i), theta), abs=1e-12
            )
    assert LinearCost().cost(0.0, 0.9) == 0.0


@given(
    x=st.lists(st.floats(0, 10, allow_nan=False), min_size=2, max_size=5),
    bump=st.floats(0, 10, allow_nan=False),
    theta=st.floats(0, 2, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_sqrt_sum_monotone(x, bump, theta):
    fam = SqrtSumValuation(scale=len(x))
    base = fam.value(np.asarray(x), theta)
    bumped = np.asarray(x, dtype=float)
    bumped[0] += bump
    assert fam.value(bumped, theta) >= base - 1e-12
    assert fam.value(np.asarray(x), theta + bump) >= base - 1e-12


def test_check_assumptions_sqrt_sum_clean():
    report = check_assumptions(SqrtSumValuation(scale=4.0), LinearCost(), n=4, samples=10_000, seed=3)
    assert report.passed, report.summary()


def test_check_assumptions_sqrt_sum_squares_clean():
    report = check_assumptions(
        SqrtSumSquaresValuation(scale=3.0), LinearCost(), n=3, samples=5_000, seed=4
    )
    assert report.passed, report.summary()


def test_check_assumptions_separable_family_equality_case():
    """sum_i sqrt(x_i) is additively separable: joint value equals the solo sum."""
    fam = CustomValuation(fn=lambda x, theta: theta * float(np.sum(np.sqrt(x.sum(axis=1)))))
    report = check_assumptions(fam, LinearCost(), n=3, samples=3_000, seed=5)
    assert report.passed, report.summary()


def test_check_assumptions_square_family_breaks_cross_marginal():
    """(sum x)^2 is convex: one producer's marginal grows with the others' input."""
    fam = CustomValuation(fn=lambda x, theta: theta * float(x.sum()) ** 2)
    report = check_assumptions(fam, LinearCost(), n=2, samples=10_000, seed=6)
    assert report.cross_marginal, "expected cross-marginal violations"
    witness = report.cross_marginal[0]
    assert "x" in witness and witness["gap"] > 0
    # the explicit witness: x=(1,1) against x'=(0,0)
    lhs = fam.value(np.array([1.0, 1.0]), 1.0) - fam.value(np.array([0.0, 1.0]), 1.0)
    rhs = fam.value(np.array([1.0, 0.0]), 1.0) - fam.value(np.array([0.0, 0.0]), 1.0)
    assert lhs > rhs


def test_custom_family_standalone_defaults_to_singleton_profile():
    fam = CustomValuation(fn=lambda x, theta: theta * float(np.sum(np.sqrt(x.sum(axis=1)))))
    assert fam.standalone(4.0, 2.0) == pytest.approx(4.0, abs=1e-12)


def test_economy_validation():
    with pytest.raises(ValueError):
        Economy.sqrt_sum([], [], [1.0])
    with pytest.raises(ValueError):
        Economy.sqrt_sum([1.0], [0.1], [])
    with pytest.raises(ValueError):
        Economy.sqrt_sum([1.0, 2.0], [0.1], [1.0])
    with pytest.raises(ValueError):
        Economy.sqrt_sum([1.0], [-0.1], [1.0])


def test_economy_serialization_roundtrip():
    economy = Economy.sqrt_sum([1.5, 2.5, 0.0], [0.1, 0.2, 0.3], [0.7, 0.9])
    doc = economy_to_dict(economy)
    assert doc["n"] == 3 and doc["m"] == 2
    assert doc["valuation_family"] == {"tag": "sqrt_sum", "scale": 3.0}
    back = economy_from_dict(doc)
    assert np.array_equal(back.capacities, economy.capacities)
    assert np.array_equal(back.cost_types, economy.cost_types)
    assert np.array_equal(back.valuation_types, economy.valuation_types)
    assert back.valuation == economy.valuation
    view = economy.view()
    assert social_surplus(back.view(), [1.0, 1.0, 0.0]) == social_surplus(view, [1.0, 1.0, 0.0])


def test_view_rejects_mismatched_bids(cheap_pair_economy):
    from pvcg import BidProfile

    bad = BidProfile([1.0, 1.0, 1.0], [0.1, 0.1, 0.1], [1.0])
    with pytest.raises(ValueError):
        cheap_pair_economy.view(bad)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: Economy.sqrt_sum([1.0, math.inf], [0.1, 0.2], [1.0]), "capacities"),
        (lambda: BidProfile([1.0, math.inf], [0.1, 0.2], [1.0]), "reported capacities"),
        (lambda: Economy.sqrt_sum([1.0, 1.0], [0.1, math.inf], [1.0]), "cost types"),
        (lambda: Economy.sqrt_sum([1.0, 1.0], [0.1, 0.2], [math.inf]), "valuation types"),
        (lambda: eval_cost(LinearCost(), [math.inf], 0.1), "resource bundle"),
        (lambda: eval_cost(LinearCost(), [1.0], math.inf), "cost type"),
        (lambda: eval_valuation(SqrtSumValuation(), [1.0], -math.inf), "valuation type"),
    ],
    ids=["capacity", "reported_capacity", "cost_type", "valuation_type", "bundle", "scalar_cost_type", "scalar_valuation_type"],
)
def test_non_finite_input_is_rejected_by_field(build, field):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        build()
