import dataclasses
import math
from pathlib import Path

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
    check_ir,
    check_surplus_monotonicity,
    check_wbb,
    draw_deviations,
    load_economy,
    loss_components,
    mixed_deviation_sampler,
    optimize_acceptance,
    payments_batch,
    probe_dsic,
    total_payment,
    uniform_economy_sampler,
)
from pvcg.adjustment import sample_from
from pvcg.allocation import waterfill_surplus
from pvcg.experiment import ExperimentConfig
from pvcg.payments import deviation_utilities
from pvcg.verification import UTILITY_TOL

from conftest import RuleAdjustment, random_sqrt_sum_economy
from oracles import (
    grid_best_response,
    grid_max,
    grid_max_full,
    reference_mixed_deviation_sampler,
    reference_uniform_economy_sampler,
    vertex_max_squares,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def small_support():
    return PriorSupport.uniform_box(3, 2)


@pytest.fixture
def small_world(small_support):
    return small_support, SqrtSumValuation(scale=3.0), LinearCost()


def test_overreport_triggers_punishment_not_violation(split_cost_economy):
    truth_utility = total_payment(split_cost_economy).utilities[0]
    lying = BidProfile([2.0, 1.0], [0.1, 10.0], [1.0])
    lie_utility = total_payment(split_cost_economy, lying).utilities[0]
    assert lie_utility == -1e6
    assert lie_utility < truth_utility


def test_underreporting_capacity_strictly_hurts(cheap_pair_economy):
    """Shading capacity from 1.0 to 0.5 forfeits accepted quantity and payment."""
    truth_utility = total_payment(cheap_pair_economy).utilities[0]
    shaded = BidProfile([0.5, 1.0], [0.1, 0.2], [1.0])
    shaded_utility = total_payment(cheap_pair_economy, shaded).utilities[0]
    # both checked against the hand-computed values
    assert truth_utility == pytest.approx(1.7 - (math.sqrt(2) - 0.2), abs=1e-9)
    assert shaded_utility == pytest.approx(
        (math.sqrt(3) - 0.25) - (math.sqrt(2) - 0.2), abs=1e-9
    )
    assert shaded_utility < truth_utility - 0.2


def test_probe_dsic_zero_adjustment_clean(small_world):
    report = probe_dsic(*small_world, ZeroAdjustment(), trials=60, deviations_per_trial=10, seed=7)
    assert report.passed, report.to_dict()
    assert report.max_gap <= 1e-6


def test_probe_dsic_analytic_adjustment_clean(small_world):
    model = AnalyticAdjustment(*small_world)
    report = probe_dsic(*small_world, model, trials=30, deviations_per_trial=8, seed=9)
    assert report.passed, report.to_dict()


def test_probe_dsic_rejects_toothless_punishment(small_world):
    with pytest.raises(ValueError, match="punishment"):
        probe_dsic(*small_world, ZeroAdjustment(), trials=5, deviations_per_trial=5, seed=1, punishment=0.01)


@pytest.mark.parametrize("punishment", [0.0, -1.0, math.nan, math.inf])
def test_probe_dsic_rejects_a_punishment_that_is_not_positive_and_finite(small_world, punishment):
    """A nan or inf punishment would pass every comparison with the pivot payments and make the probe vacuous."""
    with pytest.raises(ValueError, match="^punishment must be positive and finite, got"):
        probe_dsic(*small_world, trials=5, deviations_per_trial=5, punishment=punishment)


@pytest.mark.parametrize("deviations_per_trial", [0, -1])
def test_probe_dsic_rejects_fewer_than_one_deviation_per_trial(small_world, deviations_per_trial):
    with pytest.raises(ValueError, match=f"^deviations_per_trial must be >= 1, got {deviations_per_trial}$"):
        probe_dsic(*small_world, trials=5, deviations_per_trial=deviations_per_trial)


@pytest.mark.parametrize("field", ["trials", "deviations_per_trial"])
@pytest.mark.parametrize("count, message", [(0, "must be >= 1, got 0"), (2.0, "must be an integer, got 2.0")])
def test_probe_dsic_rejects_a_count_that_is_not_a_positive_integer(small_world, field, count, message):
    with pytest.raises(ValueError, match=f"^{field} {message}$"):
        probe_dsic(*small_world, **{"trials": 5, "deviations_per_trial": 5, field: count})


def test_no_grid_report_beats_truth(paper_support, paper_families, trained_paper_model):
    """Best responses on a 64 x 64 grid of (capacity 0-10, cost type 0-1.5) reports, for every producer of 40
    flagship-prior economies with the others truthful: none beats truth by more than ``UTILITY_TOL`` under the zero,
    the analytic or the trained adjustment.

    The oracle prices each report itself; its truthful column is ``payments_batch``'s utility, and
    ``deviation_utilities`` on the same solves gives its utilities.
    """
    valuation, cost = paper_families
    caps, gammas, thetas = sample_from(paper_support, 40, np.random.default_rng(15))
    grid_caps, grid_gammas = (g.ravel() for g in np.meshgrid(np.linspace(0.0, 10.0, 64), np.linspace(0.0, 1.5, 64)))
    adjustments = (ZeroAdjustment(), AnalyticAdjustment(paper_support, valuation, cost), trained_paper_model[0])
    truths = [payments_batch(caps, gammas, thetas, valuation, cost, adjustment=a) for a in adjustments]
    h = np.stack([truth.adjustment for truth in truths])
    for i in range(paper_support.n):
        utilities, (reported_gammas, x_i, surplus, removed) = grid_best_response(
            caps[..., 0], gammas, thetas, valuation.scale, i, h[..., i], grid_caps, grid_gammas
        )
        for k, truth in enumerate(truths):
            np.testing.assert_allclose(utilities[k, :, -1], truth.utilities[:, i], rtol=0, atol=1e-9)
            library, _ = deviation_utilities(
                caps[:, None, i], gammas[:, None, i], reported_gammas, cost, x_i[..., None], surplus,
                removed[:, None], h[k, :, i, None], 1e6,
            )
            np.testing.assert_allclose(library, utilities[k], rtol=0, atol=1e-9)
        gains = utilities.max(axis=-1) - utilities[..., -1]
        worst = np.unravel_index(gains.argmax(), gains.shape)
        assert gains[worst] <= UTILITY_TOL, (i, worst, gains[worst])


def _grid_reference(view, step):
    """The grid oracle's best surplus for a sqrt_sum economy with one resource."""
    return grid_max(
        view.capacities[:, 0], view.cost_types, float(view.valuation_types.sum()), view.valuation.scale, step=step
    )


@pytest.mark.parametrize("method", ["analytic", "projected_gradient"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_solve_is_efficient_against_the_grid_oracle(n, method):
    """No acceptance on the grid beats the solve: every grid point is feasible, so the optimum is at least its best."""
    rng = np.random.default_rng(101)
    for t in range(25):
        view = random_sqrt_sum_economy(rng, n_choices=(n,)).view()
        surplus = optimize_acceptance(view, method=method).surplus
        reference = _grid_reference(view, step=1e-2)
        assert surplus >= reference - 1e-12, (t, surplus, reference)


def test_waterfill_is_efficient_on_a_split_cost_economy(split_cost_economy):
    """The optimum accepts the cheap producer in full and reaches the fine grid's best surplus."""
    view = split_cost_economy.view()
    allocation = analytic_waterfill(view)
    assert allocation.ratios[:, 0].tolist() == [1.0, 0.0]
    assert allocation.surplus >= _grid_reference(view, step=1e-3) - 1e-12


@pytest.mark.parametrize("method", ["analytic", "projected_gradient"])
def test_a_worthless_economy_accepts_nothing(method):
    """With every valuation type zero no acceptance is worth its cost: both solves accept nothing at surplus 0."""
    economy = Economy.sqrt_sum([1.0, 1.0], [0.3, 0.4], [0.0, 0.0])
    allocation = optimize_acceptance(economy.view(), method=method)
    assert allocation.surplus == 0.0
    assert not allocation.accepted.any()


def test_four_identical_producers_reach_the_full_grid_optimum():
    """Four producers, one past the line-search grid oracle: both solves match full enumeration at step 0.1."""
    economy = Economy.sqrt_sum([1.0] * 4, [0.1] * 4, [1.0])
    view = economy.view()
    reference = grid_max_full(view.capacities[:, 0], view.cost_types, 1.0, view.valuation.scale, step=0.1)
    for method in ("analytic", "projected_gradient"):
        assert optimize_acceptance(view, method=method).surplus == pytest.approx(reference, abs=1e-9)


def test_check_efficiency_grid_on_a_finite_difference_family():
    """The projected-gradient solve of the sqrt_sum_squares economy reaches its best all-or-nothing vertex.

    Its surplus is convex in the ratios, so the maximum is a vertex of the
    box; the oracle evaluates every vertex with its own formula.
    """
    economy = load_economy(CONFIGS / "economy3_squares.json")
    allocation = optimize_acceptance(economy.view(), method="projected_gradient")
    best = vertex_max_squares(economy.capacities, economy.cost_types, economy.valuation_types, economy.valuation.scale)
    assert abs(allocation.surplus - best) <= 1e-12


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_probes_reject_a_tolerance_no_gap_can_exceed(tol, small_world):
    """No probe passes vacuously: a NaN or +inf tolerance is an error, before any verdict."""
    economy = Economy.sqrt_sum([1.0, 2.0], [0.1, 0.3], [0.5, 0.4])
    payments = total_payment(economy)
    message = r"^tol must be a number below \+inf, got (nan|inf)$"
    with pytest.raises(ValueError, match=message):
        check_ir(economy, payments, tol=tol)
    with pytest.raises(ValueError, match=message):
        check_wbb(economy, payments, tol=tol)
    with pytest.raises(ValueError, match=message):
        check_surplus_monotonicity(*small_world, trials=2, tol=tol)
    with pytest.raises(ValueError, match=message):
        probe_dsic(*small_world, trials=1, deviations_per_trial=2, tol=tol)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_probes_check_the_tolerance_before_any_work(tol):
    """A bad tolerance fails before a probe draws or solves anything."""

    class Unread:
        """A support or family stand-in: reading any attribute of it fails the test."""

        def __getattribute__(self, name):
            raise AssertionError(f"a probe read .{name} before checking its tolerance")

    never = Unread()
    message = r"^tol must be a number below \+inf, got (nan|inf)$"
    with pytest.raises(ValueError, match=message):
        probe_dsic(never, never, never, trials=200, deviations_per_trial=20, tol=tol)
    with pytest.raises(ValueError, match=message):
        check_surplus_monotonicity(never, never, never, trials=1000, tol=tol)


def test_check_ir_zero_adjustment_passes(cheap_pair_economy):
    payments = total_payment(cheap_pair_economy)
    assert check_ir(cheap_pair_economy, payments).passed


def test_check_ir_flags_injected_deficit(cheap_pair_economy):
    probe = total_payment(cheap_pair_economy)
    gains = probe.surplus - probe.counterfactual_surpluses

    def bad_adjustment(i, caps_others, gammas_others, thetas):
        return -gains[i] - 1.0

    payments = total_payment(cheap_pair_economy, adjustment=RuleAdjustment(bad_adjustment))
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

    payments = total_payment(economy, adjustment=RuleAdjustment(lambda *args: overdraft))
    report = check_wbb(economy, payments)
    assert not report.passed
    assert payments.budget_slack == pytest.approx(-1.0, abs=1e-9)
    _, term2 = loss_components(payments)
    assert term2 == pytest.approx(1.0, abs=1e-9)


def test_restatement_mismatch_is_reported_unless_a_producer_is_punished(cheap_pair_economy):
    """Utilities and payments stay feasible while the adjustment vector breaks each restatement."""
    economy = cheap_pair_economy
    payments = total_payment(economy)
    gains = payments.surplus - payments.counterfactual_surpluses
    assert (payments.utilities >= 0).all() and check_ir(economy, payments).passed
    mismatch = {"kind": "restatement_mismatch", "direct": True, "restated": False}

    # h_0 below -(S* - S*_{-0}): the restated rationality fails, the utilities do not
    lowered = dataclasses.replace(payments, adjustment=np.array([-gains[0] - 1.0, 0.0]))
    ir = check_ir(economy, lowered)
    assert ir.violations == [mismatch] and not ir.passed
    assert ir.max_gap == -float(payments.utilities.min())
    assert check_wbb(economy, lowered).passed

    # sum h beyond S* - sum(S* - S*_{-i}): the restated budget fails, the payments do not
    raised = dataclasses.replace(payments, adjustment=np.array([payments.surplus + 1.0, 0.0]))
    wbb = check_wbb(economy, raised)
    assert wbb.violations == [mismatch] and not wbb.passed
    assert wbb.max_gap == float(payments.total.sum()) - payments.coalition_income
    assert check_ir(economy, raised).passed

    # one punished producer: a disagreement is no longer counted
    punished = np.array([False, True])
    assert check_ir(economy, dataclasses.replace(lowered, punished=punished)).passed
    assert check_wbb(economy, dataclasses.replace(raised, punished=punished)).passed


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
    report = check_surplus_monotonicity(*small_world, trials=300, seed=13)
    assert report.passed, report.to_dict()
    assert report.max_gap <= 1e-8


def test_reports_are_deterministic(small_world):
    a = probe_dsic(*small_world, ZeroAdjustment(), trials=20, deviations_per_trial=5, seed=17)
    b = probe_dsic(*small_world, ZeroAdjustment(), trials=20, deviations_per_trial=5, seed=17)
    assert a.to_dict() == b.to_dict()


def test_probe_dsic_single_producer():
    support = PriorSupport.uniform_box(1, 1)
    report = probe_dsic(support, SqrtSumValuation(scale=1.0), LinearCost(), trials=5, deviations_per_trial=4, seed=2)
    assert report.trials == 20
    assert report.passed


def test_probe_dsic_utilities_match_total_payment():
    economy = Economy.sqrt_sum([1.0, 2.0, 0.5], [0.1, 0.4, 0.3], [0.7, 0.9])
    adjustment = AnalyticAdjustment(PriorSupport.uniform_box(3, 2), economy.valuation, economy.cost)
    # a support box of one point draws this economy in every trial
    point = PriorSupport(
        economy.capacities, economy.capacities, economy.cost_types, economy.cost_types,
        economy.valuation_types, economy.valuation_types,
    )
    report = probe_dsic(
        point,
        economy.valuation,
        economy.cost,
        adjustment=adjustment,
        trials=1,
        deviations_per_trial=12,
        tol=-math.inf,  # record every deviation as a witness
    )
    seen = set()
    for witness in report.violations:
        i = witness["producer"]
        seen.add(i)
        assert (witness["capacities"], witness["cost_types"]) == (economy.capacities.tolist(), economy.cost_types.tolist())
        bids = economy.truthful_bids()
        truth = total_payment(economy, bids, adjustment=adjustment).utilities[i]
        caps = bids.capacities.copy()
        caps[i] = witness["deviation_capacity"]
        gammas = bids.cost_types.copy()
        gammas[i] = witness["deviation_gamma"]
        lying = BidProfile(caps, gammas, bids.valuation_types)
        lie = total_payment(economy, lying, adjustment=adjustment).utilities[i]
        assert witness["truth_utility"] == truth
        assert witness["deviation_utility"] == lie
    assert seen == {0, 1, 2}
    # an over-report is punished; some under-report is not
    assert any(w["deviation_utility"] == -1e6 for w in report.violations)
    assert any(w["deviation_utility"] != -1e6 for w in report.violations)


# the flagship support, a 2-D support with per-producer bounds, and a support of zero truths, where every mode but
# the over-report returns the truth and the nudge runs
STREAM_SUPPORTS = {
    "flagship": ExperimentConfig.load(CONFIGS / "flagship.json").support(),
    "2d": PriorSupport(
        [[0.0, 1.0], [0.5, 0.0], [2.0, 2.0]], [[1.0, 3.0], [4.0, 2.5], [2.0, 6.0]],
        [0.0, 0.2, 0.5], [1.0, 0.4, 1.5], [0.0, 0.5], [1.0, 2.0],
    ),
    "zero_truth": PriorSupport.uniform_box(3, 2, cap=(0.0, 0.0), gamma=(0.0, 0.0)),
}


@pytest.mark.parametrize("name", list(STREAM_SUPPORTS))
def test_one_draw_samplers_keep_the_per_draw_streams(name):
    """The one-economy and one-deviation samplers draw the per-draw oracles' values and leave their generator state."""
    support = STREAM_SUPPORTS[name]
    valuation, cost = SqrtSumValuation(scale=float(support.n)), LinearCost()
    ours, theirs = np.random.default_rng(23), np.random.default_rng(23)
    economies = uniform_economy_sampler(support, valuation, cost), reference_uniform_economy_sampler(support, valuation, cost)
    deviations = mixed_deviation_sampler(support), reference_mixed_deviation_sampler(support)
    nudged = 0
    for _ in range(1000):
        economy, want = economies[0](ours), economies[1](theirs)
        for field in ("capacities", "cost_types", "valuation_types"):
            a, b = getattr(economy, field), getattr(want, field)
            assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), field
        i = int(ours.integers(support.n))
        assert i == int(theirs.integers(support.n))
        (cap, gamma), (want_cap, want_gamma) = deviations[0](ours, economy, i), deviations[1](theirs, want, i)
        assert (cap.shape, cap.tobytes()) == (want_cap.shape, want_cap.tobytes())
        assert type(gamma) is float and np.float64(gamma).tobytes() == np.float64(want_gamma).tobytes()
        nudged += gamma == economy.cost_types[i] + 0.25 * (support.gamma_hi[i] - support.gamma_lo[i]) + 0.01
    assert ours.random() == theirs.random()
    assert (nudged > 0) == (name == "zero_truth")


def test_draw_deviations_follows_each_rows_mode():
    support = STREAM_SUPPORTS["2d"]
    rows = 2000
    rng = np.random.default_rng(4)
    producers = rng.integers(support.n, size=rows)
    caps = rng.uniform(support.cap_lo[producers], support.cap_hi[producers])
    gammas = rng.uniform(support.gamma_lo[producers], support.gamma_hi[producers])
    zero = np.arange(rows) % 10 == 0
    caps[zero], gammas[zero] = 0.0, 0.0
    caps[np.arange(rows) % 10 == 5] = 0.0  # a zero capacity alone: scaling still moves the cost type
    dev_caps, dev_gammas = draw_deviations(support, np.random.default_rng(9), caps, gammas, producers)
    mode = np.random.default_rng(9).integers(5, size=rows)  # the first draw
    assert set(mode.tolist()) == {0, 1, 2, 3, 4}
    assert dev_caps.shape == caps.shape and dev_gammas.shape == gammas.shape

    # the nudge fires on the scaled zero truths and nowhere else; every report differs from the truth
    nudge = zero & (mode >= 1) & (mode <= 3)
    assert nudge.any()
    span = support.gamma_hi - support.gamma_lo
    assert np.all(dev_caps[nudge] == 0.0)
    assert np.array_equal(dev_gammas[nudge], 0.25 * span[producers[nudge]] + 0.01)
    assert np.all((dev_caps != caps).any(axis=-1) | (dev_gammas != gammas))

    box = mode == 0
    lo, hi = support.cap_lo[producers[box]], support.cap_hi[producers[box]]
    assert np.all((lo <= dev_caps[box]) & (dev_caps[box] <= hi))
    g = producers[box]
    assert np.all((support.gamma_lo[g] <= dev_gammas[box]) & (dev_gammas[box] <= support.gamma_hi[g]))
    for m, factor in ((1, 0.5), (2, 0.9), (3, 1.1)):
        scaled = (mode == m) & ~nudge
        assert np.array_equal(dev_caps[scaled], factor * caps[scaled])
        assert np.array_equal(dev_gammas[scaled], factor * gammas[scaled])
    over = mode == 4
    assert np.array_equal(dev_gammas[over], gammas[over])
    assert np.all(dev_caps[over] > caps[over])
    # cap * f + s with f in [1.2, 2) and s in [0.05, 0.5), one (f, s) per row
    assert np.all(dev_caps[over] >= caps[over] * 1.2 + 0.05 - 1e-12)
    assert np.all(dev_caps[over] <= caps[over] * 2.0 + 0.5 + 1e-12)
