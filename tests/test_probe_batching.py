"""The batched probes against their per-economy oracles: equal reports, witnesses included.

``tests/oracles.py`` keeps ``probe_dsic``, ``check_surplus_monotonicity``,
``payment_surface`` and ``ir_wbb_sweep`` as they were when they priced one
economy at a time. Every report is compared as a value and as its JSON text,
which also tells ``-0.0`` from ``0.0`` and an int from a float. The oracle
side draws its economies with one ``rng.uniform`` call per box; the DSIC and
monotonicity oracles take the arrays drawn in each probe's documented order.
"""

import json

import numpy as np
import pytest

from pvcg import (
    AnalyticAdjustment,
    LearnedAdjustment,
    LinearCost,
    PriorSupport,
    SqrtSumValuation,
    SurfaceGrid,
    ZeroAdjustment,
    check_surplus_monotonicity,
    draw_deviations,
    payment_surface,
    probe_dsic,
)
from pvcg.experiment import ir_wbb_sweep
from pvcg.learner import mlp_init

from oracles import (
    reference_check_surplus_monotonicity,
    reference_ir_wbb_sweep,
    reference_payment_surface,
    reference_probe_dsic,
    reference_sample_from,
)


def _adjustment(kind, support, valuation, cost, method=None):
    if kind == "zero":
        return ZeroAdjustment()
    if kind == "analytic":
        return AnalyticAdjustment(support, valuation, cost, method=method)
    rng = np.random.default_rng(support.n)
    width = (support.n - 1) * (support.dim + 1) + support.m
    return LearnedAdjustment(tuple(mlp_init([width, 10, 10, 1], rng) for _ in range(support.n)), support)


def _same(got, want):
    assert got == want
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def _same_probe(got, want):
    _same(got.to_dict(), want.to_dict())
    _same(got.violations, want.violations)
    _same(got.max_gap, want.max_gap)


def _same_surface(got, want):
    for name in ("x_values", "gamma_values", "tau", "payments"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    _same((got.adjustment, got.fixed), (want.adjustment, want.fixed))


# (n, m, scale, method, sizes): water-fill at the flagship's n, a lone producer,
# and a small projected-gradient economy
WORLDS = {
    "waterfill": (10, 2, 10.0, None, dict(ir=150, trials=12, deviations=8, monotonicity=100, grid=(6, 7))),
    "single": (1, 2, 1.0, None, dict(ir=40, trials=8, deviations=5, monotonicity=40, grid=(4, 3))),
    "gradient": (3, 2, 3.0, "projected_gradient", dict(ir=3, trials=2, deviations=3, monotonicity=3, grid=(2, 2))),
}


def _world(name):
    n, m, scale, method, sizes = WORLDS[name]
    support = PriorSupport.uniform_box(n, m)
    return support, SqrtSumValuation(scale=scale), LinearCost(), method, sizes


@pytest.mark.parametrize("kind", ["zero", "analytic", "learned"])
@pytest.mark.parametrize("world", list(WORLDS))
def test_ir_wbb_sweep_equals_the_per_economy_sweep(world, kind):
    support, valuation, cost, method, sizes = _world(world)
    adjustment = _adjustment(kind, support, valuation, cost, method)
    # an exact adjustment and a random network, both held to every instance
    args = dict(adjustment=adjustment, samples=sizes["ir"], seed=41, method=method, min_pass_rate=1.0)
    if kind == "learned":
        args["max_mean_penalty"] = 0.01
    got = ir_wbb_sweep(support, valuation, cost, **args)
    _same(got, reference_ir_wbb_sweep(support, valuation, cost, **args))
    if world == "waterfill" and kind == "learned":
        assert got["witnesses"] and not got["passed"]


def _dsic_draws(support, trials, deviations, seed):
    """``probe_dsic``'s draws: the economies, every deviation's producer, then the misreports."""
    rng = np.random.default_rng(seed)
    caps, gammas, thetas = reference_sample_from(support, trials, rng)
    producers = rng.integers(support.n, size=trials * deviations)
    own = (np.repeat(np.arange(trials), deviations), producers)
    return (caps, gammas, thetas), producers, draw_deviations(support, rng, caps[own], gammas[own], producers)


def _monotonicity_draws(support, trials, seed):
    """``check_surplus_monotonicity``'s draws: the economies, then the producers, coordinates and both steps."""
    rng = np.random.default_rng(seed)
    economies = reference_sample_from(support, trials, rng)
    producers, coordinates = rng.integers(support.n, size=trials), rng.integers(support.dim, size=trials)
    return economies, (producers, coordinates, rng.uniform(0.1, 2.0, trials), rng.uniform(0.1, 2.0, trials))


@pytest.mark.parametrize("tol", [1e-6, -1.0])
@pytest.mark.parametrize("kind", ["zero", "analytic", "learned"])
@pytest.mark.parametrize("world", list(WORLDS))
def test_probe_dsic_equals_the_per_economy_probe(world, kind, tol):
    support, valuation, cost, method, sizes = _world(world)
    adjustment = _adjustment(kind, support, valuation, cost, method)
    trials, deviations = sizes["trials"], sizes["deviations"]
    kwargs = dict(adjustment=adjustment, method=method, tol=tol)
    got = probe_dsic(support, valuation, cost, trials=trials, deviations_per_trial=deviations, seed=21, **kwargs)
    economies, producers, (dev_caps, dev_gammas) = _dsic_draws(support, trials, deviations, 21)
    want = reference_probe_dsic(*economies, valuation, cost, producers, dev_caps, dev_gammas, **kwargs)
    _same_probe(got, want)
    if tol < 0:
        assert got.violations


@pytest.mark.parametrize("tol", [1e-8, -1.0])
@pytest.mark.parametrize("world", list(WORLDS))
def test_surplus_monotonicity_equals_the_per_economy_check(world, tol):
    support, valuation, cost, method, sizes = _world(world)
    trials = sizes["monotonicity"]
    got = check_surplus_monotonicity(support, valuation, cost, trials=trials, seed=51, method=method, tol=tol)
    economies, steps = _monotonicity_draws(support, trials, 51)
    want = reference_check_surplus_monotonicity(*economies, valuation, cost, *steps, method=method, tol=tol)
    _same_probe(got, want)
    if tol < 0:
        assert got.violations


@pytest.mark.parametrize("kind", ["zero", "analytic", "learned"])
@pytest.mark.parametrize("world", list(WORLDS))
def test_payment_surface_equals_the_per_economy_surface(world, kind):
    support, valuation, cost, method, sizes = _world(world)
    adjustment = _adjustment(kind, support, valuation, cost, method)
    grid = SurfaceGrid(*sizes["grid"])
    args = (valuation, cost, support.n, support.m)
    got = payment_surface(*args, adjustment=adjustment, grid=grid, method=method)
    _same_surface(got, reference_payment_surface(*args, adjustment=adjustment, grid=grid, method=method))


def test_probe_dsic_with_a_toothless_punishment_raises_as_the_per_economy_probe():
    support, valuation, cost, _, _ = _world("waterfill")
    messages = []
    economies, producers, deviations = _dsic_draws(support, 4, 5, 3)
    for probe in (
        lambda: probe_dsic(support, valuation, cost, trials=4, deviations_per_trial=5, seed=3, punishment=0.05),
        lambda: reference_probe_dsic(*economies, valuation, cost, producers, *deviations, punishment=0.05),
    ):
        with pytest.raises(ValueError, match="punishment") as err:
            probe()
        messages.append(str(err.value))
    assert messages[0] == messages[1]
