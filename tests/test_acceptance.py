"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its key numbers (run pytest with -s
to see them); a failure carries the offending witness in the assertion
message. The flagship trained model is a session fixture shared by the
criteria that need it, so the training cost is paid once.
"""

import time

import numpy as np
import pytest

from pvcg import (
    AnalyticAdjustment,
    Economy,
    ExperimentConfig,
    LinearCost,
    PriorSupport,
    SqrtSumValuation,
    SurfaceGrid,
    TrainingConfig,
    ZeroAdjustment,
    analytic_waterfill,
    check_surplus_monotonicity,
    optimize_acceptance,
    payment_surface,
    probe_dsic,
    run_experiment,
    total_payment,
    uniform_economy_sampler,
)
from pvcg.learner import _loss_and_grads, _stack, mlp_init, LearnedAdjustment
from pvcg.verification import loss_components
from pvcg.allocation import waterfill_gains

from oracles import fd_loss_grads, grid_max, grid_max_full, max_rel_error, per_network

PAPER_SUPPORT = PriorSupport.uniform_box(10, 2, cap=(0.0, 5.0), gamma=(0.0, 1.0), theta=(0.0, 1.0))
PAPER_VALUATION = SqrtSumValuation(scale=10.0)
PAPER_COST = LinearCost()


def _report(criterion: str, detail: str) -> None:
    print(f"\nPASS {criterion}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: solver surplus matches exhaustive ratio-grid search
# ---------------------------------------------------------------------------


def test_criterion_1_allocation_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    worst = {"analytic": 0.0, "projected_gradient": 0.0}
    for case in range(200):
        n = int(rng.choice([1, 2, 3]))
        m = int(rng.choice([1, 2]))
        caps = rng.uniform(0.0, 5.0, n)
        gammas = rng.uniform(0.0, 1.0, n)
        thetas = rng.uniform(0.0, 1.0, m)
        economy = Economy.sqrt_sum(caps, gammas, thetas)
        reference = grid_max(caps, gammas, float(thetas.sum()), float(n), step=1e-3)
        for method in worst:
            surplus = optimize_acceptance(economy.view(), method=method, seed=case).surplus
            gap = abs(surplus - reference)
            worst[method] = max(worst[method], gap)
            assert gap <= 2e-3, (
                f"{method} vs grid: |{surplus} - {reference}| = {gap} on case {case} "
                f"caps={caps} gammas={gammas} thetas={thetas}"
            )
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"criterion 1 took {elapsed:.0f}s"
    _report(
        "criterion 1 (oracle equivalence)",
        f"200 economies, worst gap analytic={worst['analytic']:.2e} "
        f"gradient={worst['projected_gradient']:.2e}, {elapsed:.0f}s",
    )


def test_criterion_1_oracle_self_check():
    """The n=3 line-search oracle must equal full enumeration where both run."""
    rng = np.random.default_rng(103)
    for _ in range(10):
        caps = rng.uniform(0.0, 5.0, 3)
        gammas = rng.uniform(0.0, 1.0, 3)
        theta_sum = float(rng.uniform(0.0, 2.0))
        assert grid_max(caps, gammas, theta_sum, 3.0, step=0.02) == pytest.approx(
            grid_max_full(caps, gammas, theta_sum, 3.0, step=0.02), abs=1e-12
        )


# ---------------------------------------------------------------------------
# criterion 2: water-fill vs projected gradient on n = 10
# ---------------------------------------------------------------------------


def test_criterion_2_analytic_vs_numeric_solver():
    rng = np.random.default_rng(202)
    started = time.monotonic()
    worst = 0.0
    for case in range(1000):
        caps = rng.uniform(0.0, 5.0, 10)
        gammas = rng.uniform(0.0, 1.0, 10)
        thetas = rng.uniform(0.0, 1.0, 2)
        economy = Economy.sqrt_sum(caps, gammas, thetas)
        wf = analytic_waterfill(economy.view()).surplus
        pg = optimize_acceptance(economy.view(), method="projected_gradient", seed=case).surplus
        gap = abs(wf - pg)
        worst = max(worst, gap)
        assert gap <= 1e-6, f"case {case}: water-fill {wf} vs gradient {pg}"
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"criterion 2 took {elapsed:.0f}s"
    _report("criterion 2 (solver agreement)", f"1000 economies, worst gap {worst:.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 3: truthfulness probe under all three adjustment models
# ---------------------------------------------------------------------------


def test_criterion_3_dsic_probe(trained_paper_model):
    model, _, _ = trained_paper_model
    adjustments = {
        "zero": ZeroAdjustment(),
        "analytic": AnalyticAdjustment(PAPER_SUPPORT, PAPER_VALUATION, PAPER_COST),
        "learned": model,
    }
    started = time.monotonic()
    gaps = {}
    for offset, (name, adjustment) in enumerate(adjustments.items()):
        report = probe_dsic(
            PAPER_SUPPORT,
            PAPER_VALUATION,
            PAPER_COST,
            adjustment,
            trials=1000,
            deviations_per_trial=50,
            seed=303 + offset,
            punishment=1e6,
        )
        assert report.passed, f"{name}: {report.violations[:3]}"
        gaps[name] = report.max_gap
    elapsed = time.monotonic() - started
    assert elapsed < 600.0, f"criterion 3 took {elapsed:.0f}s"
    _report(
        "criterion 3 (truthfulness)",
        "1000 trials x 50 deviations, max gaps "
        + " ".join(f"{k}={v:.2e}" for k, v in gaps.items())
        + f", {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criteria 4 + 5: rationality / budget sweep and the loss equivalence
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def truthful_sweep():
    """10^4 truthful payment runs with the zero adjustment under the flagship priors."""
    sampler = uniform_economy_sampler(PAPER_SUPPORT, PAPER_VALUATION, PAPER_COST)
    rng = np.random.default_rng(404)
    results = []
    for _ in range(10_000):
        economy = sampler(rng)
        payments = total_payment(economy)
        results.append((economy, payments))
    return results


def test_criterion_4_ir_and_wbb_zero_adjustment(truthful_sweep):
    worst_utility = 0.0
    worst_slack = 0.0
    for economy, payments in truthful_sweep:
        worst_utility = min(worst_utility, float(payments.utilities.min()))
        worst_slack = min(worst_slack, payments.budget_slack)
        assert payments.utilities.min() >= -1e-8, f"utility violation: {payments.utilities}"
        assert payments.total.sum() <= payments.coalition_income + 1e-8, (
            f"budget violation: paid {payments.total.sum()} vs income {payments.coalition_income}"
        )
    _report(
        "criterion 4 (rationality + budget)",
        f"10000 instances, worst utility {worst_utility:.2e}, worst slack {worst_slack:.2e}",
    )


def test_criterion_5_loss_probe_equivalence(truthful_sweep):
    for economy, payments in truthful_sweep:
        term1, term2 = loss_components(payments)
        ir_ok = bool(payments.utilities.min() >= -1e-8)
        wbb_ok = bool(payments.total.sum() <= payments.coalition_income + 1e-8)
        assert (term1 <= economy.n * 1e-8) == ir_ok, (term1, payments.utilities.min())
        assert (term2 <= 1e-8) == wbb_ok, (term2, payments.budget_slack)
    _report("criterion 5 (loss equivalence)", "term-by-term match on all 10000 instances")


# ---------------------------------------------------------------------------
# criterion 6: learner convergence on the flagship configuration
# ---------------------------------------------------------------------------


def test_criterion_6_learner_convergence(trained_paper_model):
    _, trace, config = trained_paper_model
    assert config.hidden == (10, 10, 10)
    below = [k for k, loss in enumerate(trace.losses) if loss < 1e-3]
    assert below, f"loss never fell below 1e-3; final {trace.final_loss}"
    first = below[0]
    assert first <= 500, f"first sub-1e-3 loss at epoch {first}"
    assert trace.wall_clock < 900.0, f"training took {trace.wall_clock:.0f}s"
    _report(
        "criterion 6 (learner convergence)",
        f"loss {trace.losses[first]:.2e} at epoch {first} "
        f"(start {trace.losses[0]:.2f}), {trace.wall_clock:.0f}s wall",
    )


# ---------------------------------------------------------------------------
# criterion 7: payment surface shape
# ---------------------------------------------------------------------------


def test_criterion_7_payment_surface_shape(trained_paper_model):
    model, _, _ = trained_paper_model
    record = payment_surface(
        PAPER_VALUATION,
        PAPER_COST,
        n=10,
        m=2,
        adjustment=model,
        grid=SurfaceGrid(),  # 50 x 50 over [0,5] x [0,1], others at (2.5, 0.5, 0.5)
    )
    steps_x = np.diff(record.payments, axis=0)
    steps_g = np.diff(record.payments, axis=1)
    assert steps_x.min() >= -1e-6, f"payment fell along capacity axis by {steps_x.min()}"
    assert steps_g.max() <= 1e-6, f"payment rose along cost-type axis by {steps_g.max()}"
    assert record.plateau_gap() <= 1e-3, (
        f"high-cost plateau {record.payments[:, -1]} vs adjustment {record.adjustment}"
    )
    _report(
        "criterion 7 (payment surface)",
        f"50x50 grid monotone both ways; plateau gap {record.plateau_gap():.2e}, "
        f"adjustment {record.adjustment:.3g}",
    )


# ---------------------------------------------------------------------------
# criterion 8: backprop gradients vs finite differences
# ---------------------------------------------------------------------------


def test_criterion_8_gradient_correctness():
    support = PriorSupport.uniform_box(3, 1, cap=(0.5, 3.0), gamma=(0.1, 0.9), theta=(0.2, 1.0))
    valuation = SqrtSumValuation(scale=3.0)
    checked = 0
    seed = 0
    worst = 0.0
    while checked < 20:
        seed += 1
        rng = np.random.default_rng(800 + seed)
        caps, gammas, thetas = (
            rng.uniform(support.cap_lo, support.cap_hi, (8, 3, 1)),
            rng.uniform(support.gamma_lo, support.gamma_hi, (8, 3)),
            rng.uniform(support.theta_lo, support.theta_hi, (8, 1)),
        )
        surpluses = np.empty(8)
        removed = np.empty((8, 3))
        for t in range(8):
            surpluses[t], removed[t] = waterfill_gains(
                caps[t, :, 0], gammas[t], float(thetas[t].sum()), 3.0
            )
        model = LearnedAdjustment(
            tuple(mlp_init([5, 4, 1], np.random.default_rng(900 + seed + i)) for i in range(3)),
            support,
        )
        gains = surpluses[:, None] - removed
        outputs = model.outputs_batch(caps, gammas, thetas)
        margins = np.concatenate(
            [(-gains - outputs).ravel(), (gains + outputs).sum(axis=1) - surpluses]
        )
        if float(np.abs(margins).min()) < 1e-3:
            continue  # too close to a penalty kink; central differences would straddle it
        inputs = model.inputs_batch(caps, gammas, thetas)
        _, analytic = _loss_and_grads(*_stack(model.nets), inputs, gains, surpluses)
        analytic = per_network(*analytic)
        numeric = fd_loss_grads(model, (caps, gammas, thetas, surpluses, removed))
        for a, b in zip(analytic, numeric):
            err = max_rel_error(a, b)
            worst = max(worst, err)
            assert err < 1e-4, f"gradient mismatch {err} at net seed {seed}"
        checked += 1
    _report("criterion 8 (gradient check)", f"20 nets/batches, worst relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 9: surplus monotonicity in capacities and cost types
# ---------------------------------------------------------------------------


def test_criterion_9_surplus_monotonicity():
    report = check_surplus_monotonicity(PAPER_SUPPORT, PAPER_VALUATION, PAPER_COST, trials=10_000, seed=909)
    assert report.passed, report.violations[:3]
    _report(
        "criterion 9 (surplus monotonicity)",
        f"10000 capacity raises and 10000 cost raises, worst gap {report.max_gap:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 10: full-pipeline determinism
# ---------------------------------------------------------------------------


def test_criterion_10_run_experiment_determinism(tmp_path):
    config = ExperimentConfig(
        n=5,
        m=2,
        training=TrainingConfig(
            batch_size=128, epochs=250, learning_rate=2e-2, momentum=0.9, hidden=(8, 8), seed=10
        ),
        surface=SurfaceGrid(x_points=10, gamma_points=8),
        dsic_trials=25,
        dsic_deviations=8,
        ir_samples=150,
        monotonicity_trials=80,
        existence_samples=150,
        seed=10,
    )
    first = run_experiment(config, tmp_path / "a")
    second = run_experiment(config, tmp_path / "b")
    assert first.passed and second.passed
    identical = []
    for name in ("loss_trace.csv", "model.json", "surface.csv", "report.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical seeded runs"
        identical.append(name)
    _report("criterion 10 (determinism)", f"byte-identical artifacts: {', '.join(identical)}")
