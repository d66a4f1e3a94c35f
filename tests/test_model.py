import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvcg import (
    BidProfile,
    CustomCost,
    CustomValuation,
    Economy,
    LinearCost,
    SqrtSumSquaresValuation,
    SqrtSumValuation,
    check_assumptions,
    economy_from_dict,
    economy_to_dict,
    social_surplus,
)
from pvcg.model import (
    ASSUMPTION_CAP_HIGH, ASSUMPTION_GAMMA_HIGH, ASSUMPTION_THETA_HIGH, cost_rows, surplus_rows, value_rows,
)

from conftest import convex_cost, weighted_valuation
from oracles import reference_check_assumptions, social_surplus as loop_surplus, total_valuation as loop_valuation


def test_sqrt_sum_value_examples():
    fam = SqrtSumValuation(scale=2.0)
    assert value_rows(fam, np.array([[1.0], [1.0]]), [1.0]) == pytest.approx(2.0, abs=1e-12)
    assert value_rows(fam, np.array([[3.0], [4.0]]), [0.0]) == 0.0
    fam10 = SqrtSumValuation(scale=10.0)
    # 0.5 * sqrt(10 * 25), checked by hand
    assert value_rows(fam10, np.full((10, 1), 2.5), [0.5]) == pytest.approx(7.905694150420948, abs=1e-12)


def test_cost_examples():
    cost = LinearCost()
    assert cost_rows(cost, np.array([0.0]), 0.7) == 0.0
    assert cost_rows(cost, np.array([2.5]), 0.5) == pytest.approx(1.25, abs=1e-12)
    assert cost_rows(cost, np.array([1.0, 2.0]), 0.1) == pytest.approx(0.3, abs=1e-12)


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


@pytest.mark.parametrize("field", ["n", "dim", "samples"])
def test_check_assumptions_rejects_empty_sizes(field):
    sizes = {"n": 2, "dim": 1, "samples": 10, field: 0}
    with pytest.raises(ValueError, match=f"^{field} must be >= 1, got 0$"):
        check_assumptions(SqrtSumValuation(scale=2.0), LinearCost(), **sizes)


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


def _assumption_draws(n, dim, samples, seed):
    """``check_assumptions``'s draws: profiles, shrink factors, types, producers, bumps, coordinates, type steps."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, ASSUMPTION_CAP_HIGH, size=(samples, n, dim))
    x_small = x * rng.uniform(0.0, 1.0, size=(samples, n, dim))
    theta, gamma = rng.uniform(0.0, ASSUMPTION_THETA_HIGH, samples), rng.uniform(0.0, ASSUMPTION_GAMMA_HIGH, samples)
    producers, bumps = rng.integers(n, size=samples), rng.uniform(0.0, ASSUMPTION_CAP_HIGH, samples)
    coordinates = rng.integers(dim, size=samples)
    steps = rng.uniform(0.0, ASSUMPTION_THETA_HIGH, samples), rng.uniform(0.0, ASSUMPTION_GAMMA_HIGH, samples)
    return x, x_small, theta, gamma, producers, bumps, coordinates, *steps


ASSUMPTION_CASES = {
    "sqrt_sum-n1": (SqrtSumValuation(scale=1.0), LinearCost(), 1, 1),
    "sqrt_sum-n4-dim2": (SqrtSumValuation(scale=4.0), LinearCost(), 4, 2),
    "sqrt_sum-n10": (SqrtSumValuation(scale=10.0), LinearCost(), 10, 1),
    # a synergy multiplier below n breaks super-additivity
    "sqrt_sum-low-scale": (SqrtSumValuation(scale=1.0), LinearCost(), 4, 1),
    "sqrt_sum_squares-n10": (SqrtSumSquaresValuation(scale=10.0), LinearCost(), 10, 1),
    "sqrt_sum_squares-n3-dim2": (SqrtSumSquaresValuation(scale=3.0), LinearCost(), 3, 2),
    # convex: breaks cross marginal returns
    "custom-square-n2": (CustomValuation(fn=lambda x, theta: theta * float(x.sum()) ** 2), LinearCost(), 2, 1),
    # a value and a cost that fall as the bundle and the type grow break every monotonicity; the producer
    # count in the value and the cost at zero break zero-input neutrality
    "custom-falling-n5-dim2": (
        CustomValuation(fn=lambda x, theta: (1.5 - theta) * len(x) * math.exp(-float(x.sum()))),
        CustomCost(fn=lambda x_i, gamma: (1.5 - gamma) * math.exp(-float(x_i.sum()))),
        5, 2,
    ),
}


@pytest.mark.parametrize("case", list(ASSUMPTION_CASES))
def test_check_assumptions_equals_the_per_sample_check(case):
    valuation, cost, n, dim = ASSUMPTION_CASES[case]
    samples, seed = 1_000, 17
    got = check_assumptions(valuation, cost, n=n, samples=samples, seed=seed, dim=dim)
    want = reference_check_assumptions(valuation, cost, *_assumption_draws(n, dim, samples, seed))
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    for name in ("monotonicity", "zero_input", "super_additivity", "cross_marginal"):
        assert getattr(got, name) == getattr(want, name), name
    if case.startswith("custom-falling"):
        assert {w["kind"] for w in got.monotonicity} == {"valuation/x", "valuation/theta", "cost/x", "cost/gamma"}
        assert {w["kind"] for w in got.zero_input} == {"valuation", "cost"}


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
    with pytest.raises(ValueError, match="^capacities must be non-negative"):
        Economy.sqrt_sum([-1.0, 1.0], [0.1, 0.2], [1.0])
    with pytest.raises(ValueError, match="^capacities must be finite"):
        Economy.sqrt_sum([1.0, float("nan")], [0.1, 0.2], [1.0])
    with pytest.raises(ValueError, match="^valuation types must be non-negative"):
        Economy.sqrt_sum([1.0, 1.0], [0.1, 0.2], [-0.5])
    with pytest.raises(ValueError):
        Economy.sqrt_sum([[1.0, 2.0], [3.0]], [0.1, 0.2], [1.0])  # ragged bundles


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


def test_economy_and_bids_hold_read_only_copies_of_their_arrays():
    """A checked field cannot be written after its check, and the caller's own arrays stay its own and writable."""
    caps, gammas, thetas = np.array([[1.0], [2.0]]), np.array([0.1, 0.2]), np.array([1.0])
    economy = Economy(caps, gammas, thetas, SqrtSumValuation(scale=2.0), LinearCost())
    bids = economy.truthful_bids()
    for holder in (economy, bids, BidProfile(caps, gammas, thetas), economy.view(bids)):
        for field, given in zip(("capacities", "cost_types", "valuation_types"), (caps, gammas, thetas)):
            stored = getattr(holder, field)
            assert not np.shares_memory(stored, given)
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = -1.0
    caps[0, 0] = gammas[0] = thetas[0] = 3.0
    assert (economy.capacities[0, 0], economy.cost_types[0], economy.valuation_types[0]) == (1.0, 0.1, 1.0)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: Economy.sqrt_sum([1.0, math.inf], [0.1, 0.2], [1.0]), "capacities"),
        (lambda: BidProfile([1.0, math.inf], [0.1, 0.2], [1.0]), "reported capacities"),
        (lambda: Economy.sqrt_sum([1.0, 1.0], [0.1, math.inf], [1.0]), "cost types"),
        (lambda: Economy.sqrt_sum([1.0, 1.0], [0.1, 0.2], [math.inf]), "valuation types"),
    ],
    ids=["capacity", "reported_capacity", "cost_type", "valuation_type"],
)
def test_non_finite_input_is_rejected_by_field(build, field):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        build()


_RAGGED = {"capacities": [[1.0, 2.0], [3.0]], "cost_types": [0.1, 0.2], "valuation_types": [1.0]}


@pytest.mark.parametrize(
    "build",
    [lambda: Economy.sqrt_sum(*_RAGGED.values()), lambda: economy_from_dict(_RAGGED)],
    ids=["sqrt_sum", "economy_from_dict"],
)
def test_ragged_capacities_are_rejected_by_field(build):
    """Rows of two lengths raise a ValueError that names the capacities, not only numpy's shape message."""
    with pytest.raises(ValueError, match="^capacities must have rows of one length: .*inhomogeneous"):
        build()


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_value_rows_takes_valuation_types_row_by_row(data):
    """``(T, m)`` valuation types give row t of ``(T, n, dim)`` profiles the bits of a one-economy call on row t."""
    T, n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 12)), data.draw(st.integers(1, 4))
    dim = data.draw(st.integers(1, 2))
    size = T * n * dim
    accepted = np.array(data.draw(st.lists(st.floats(0.0, 5.0), min_size=size, max_size=size))).reshape(T, n, dim)
    thetas = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=T * m, max_size=T * m))).reshape(T, m)
    valuation = data.draw(st.sampled_from([SqrtSumValuation, SqrtSumSquaresValuation]))(scale=float(n))
    batched = valuation.value_rows(accepted, thetas)
    # a second batch axis: the rows of each economy share its valuation types
    stacked = valuation.value_rows(np.stack([accepted, accepted[:, ::-1]], axis=1), thetas[:, None, :])
    assert batched.shape == (T,) and stacked.shape == (T, 2)
    for t in range(T):
        one = valuation.value_rows(accepted[t], thetas[t])
        assert np.float64(batched[t]).tobytes() == np.float64(one).tobytes() == np.float64(stacked[t, 0]).tobytes()
        assert stacked[t, 1] == valuation.value_rows(accepted[t, ::-1], thetas[t])


_ROW_FAMILIES = {
    "sqrt_sum": (SqrtSumValuation(scale=3.0), LinearCost()),
    "sqrt_sum_squares": (SqrtSumSquaresValuation(scale=3.0), LinearCost()),
    "custom": (CustomValuation(fn=weighted_valuation), CustomCost(fn=convex_cost)),
}


@pytest.mark.parametrize("family", list(_ROW_FAMILIES))
def test_row_functions_have_the_bits_of_the_loop_oracle(family):
    """``surplus_rows``, ``value_rows`` and ``cost_rows`` against the loop over consumers and producers.

    n runs past numpy's eight-accumulator pairwise sum (n >= 9); each batch
    has an all-zero profile, and is checked as ``(R, ...)`` rows, as a
    ``(2, 3, ...)`` stack and one row at a time. The custom pair takes the
    row functions' fallback.
    """
    valuation, cost = _ROW_FAMILIES[family]
    rng = np.random.default_rng(sorted(_ROW_FAMILIES).index(family))
    for n, m, dim in itertools.product(range(1, 13), (1, 2, 3), (1, 2)):
        accepted = rng.uniform(0.0, 5.0, (6, n, dim))
        accepted[2] = 0.0
        gammas, thetas = rng.uniform(0.0, 1.0, (6, n)), rng.uniform(0.0, 1.0, (6, m))
        surplus = surplus_rows(valuation, cost, accepted, gammas, thetas)
        value = value_rows(valuation, accepted, thetas)
        costs = cost_rows(cost, accepted, gammas)
        stacked = surplus_rows(valuation, cost, accepted.reshape(2, 3, n, dim), gammas.reshape(2, 3, n),
                               thetas.reshape(2, 3, m))
        assert stacked.tobytes() == surplus.reshape(2, 3).tobytes(), (n, m, dim)
        for r in range(6):
            view = Economy(accepted[r], gammas[r], thetas[r], valuation, cost)
            want = np.float64(loop_surplus(view, accepted[r])).tobytes()
            assert np.float64(surplus[r]).tobytes() == want, (n, m, dim, r)
            assert np.float64(surplus_rows(valuation, cost, accepted[r], gammas[r], thetas[r])).tobytes() == want
            assert np.float64(social_surplus(view, accepted[r])).tobytes() == want
            assert np.float64(value[r]).tobytes() == np.float64(loop_valuation(view, accepted[r])).tobytes()
            assert costs[r].tolist() == [cost.cost(accepted[r, i], float(gammas[r, i])) for i in range(n)]
