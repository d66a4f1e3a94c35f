import json

import numpy as np
import pytest

from pvcg import (
    ExperimentConfig,
    LinearCost,
    PriorSupport,
    SqrtSumValuation,
    SurfaceGrid,
    TrainingConfig,
    ZeroAdjustment,
    payment_surface,
    run_experiment,
)
from pvcg.experiment import ir_wbb_sweep, run_probes, surface_rows, write_csv
from pvcg.verification import mixed_deviation_sampler, probe_dsic, uniform_economy_sampler


def tiny_config(seed=5):
    return ExperimentConfig(
        n=5,
        m=2,
        training=TrainingConfig(
            batch_size=128, epochs=250, learning_rate=2e-2, momentum=0.9, hidden=(8, 8), seed=seed
        ),
        surface=SurfaceGrid(x_points=8, gamma_points=6),
        dsic_trials=20,
        dsic_deviations=5,
        ir_samples=100,
        monotonicity_trials=50,
        existence_samples=100,
        seed=seed,
    )


def test_surface_grid_validation():
    with pytest.raises(ValueError):
        SurfaceGrid(x_points=0)
    with pytest.raises(ValueError):
        SurfaceGrid(gamma_points=0)


def test_payment_surface_shape_properties():
    valuation, cost = SqrtSumValuation(scale=5.0), LinearCost()
    record = payment_surface(
        valuation, cost, n=5, m=2, adjustment=ZeroAdjustment(),
        grid=SurfaceGrid(x_points=12, gamma_points=9),
    )
    assert record.monotone_in_capacity()
    assert record.monotone_in_gamma()
    assert record.plateau_gap() <= 1e-3
    # a producer reporting no capacity earns exactly the adjustment
    assert record.tau[0] == pytest.approx(np.zeros(9), abs=1e-9)
    assert record.payments[0] == pytest.approx(np.full(9, record.adjustment), abs=1e-9)


def test_surface_rows_layout():
    valuation, cost = SqrtSumValuation(scale=3.0), LinearCost()
    record = payment_surface(
        valuation, cost, n=3, m=1, adjustment=ZeroAdjustment(),
        grid=SurfaceGrid(x_points=3, gamma_points=2),
    )
    rows = list(surface_rows(record))
    assert len(rows) == 6
    x0, g0, tau0, h0, p0 = rows[0]
    assert (x0, g0) == (0.0, 0.0)
    assert p0 == tau0 + h0


def test_config_roundtrip(tmp_path):
    config = tiny_config()
    path = tmp_path / "config.json"
    config.save(path)
    loaded = ExperimentConfig.load(path)
    assert loaded == config


def test_ir_wbb_sweep_zero_adjustment(paper_support, paper_families):
    valuation, cost = paper_families
    result = ir_wbb_sweep(paper_support, valuation, cost, samples=200, seed=3)
    assert result["passed"], result
    assert result["worst_utility"] >= -1e-8
    assert result["worst_budget_slack"] >= -1e-8


def test_write_csv_formats_numbers(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [(1, 0.5), (2, 1.0 / 3.0)])
    text = path.read_text()
    assert text.splitlines()[0] == "a,b"
    assert text.splitlines()[2] == "2,0.333333333"


def test_run_experiment_is_deterministic_and_passes(tmp_path):
    config = tiny_config()
    first = run_experiment(config, tmp_path / "run1")
    second = run_experiment(config, tmp_path / "run2")
    assert first.passed and second.passed
    for name in ("loss_trace.csv", "model.json", "surface.csv", "report.json"):
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    report = json.loads((tmp_path / "run1" / "report.json").read_text())
    assert report["passed"]
    assert report["training"]["final_loss"] <= config.training.loss_tol
    assert set(report["dsic"]) == {"zero", "analytic", "learned"}


def test_run_experiment_different_seed_changes_outputs(tmp_path):
    base = tiny_config(seed=5)
    other = tiny_config(seed=6)
    run_experiment(base, tmp_path / "a")
    run_experiment(other, tmp_path / "b")
    assert (tmp_path / "a" / "model.json").read_bytes() != (tmp_path / "b" / "model.json").read_bytes()


@pytest.mark.parametrize(
    "field", ["n", "m", "dsic_trials", "dsic_deviations", "ir_samples", "monotonicity_trials", "existence_samples"]
)
def test_config_rejects_non_positive_counts(field):
    with pytest.raises(ValueError, match=f"^{field} must be >= 1"):
        ExperimentConfig(**{field: 0})


@pytest.mark.parametrize("momentum", [-0.1, 1.0, 5.0])
def test_training_config_rejects_momentum_outside_unit_interval(momentum):
    with pytest.raises(ValueError, match="momentum"):
        TrainingConfig(momentum=momentum)


@pytest.mark.parametrize(
    "cls, doc",
    [
        (ExperimentConfig, {"n": 3, "dsic_trails": 5}),
        (TrainingConfig, {"epochs": 3, "dsic_trails": 5}),
        (SurfaceGrid, {"x_points": 3, "dsic_trails": 5}),
    ],
    ids=["experiment", "training", "surface"],
)
def test_from_dict_names_unknown_key(cls, doc):
    with pytest.raises(ValueError, match="dsic_trails"):
        cls.from_dict(doc)


def test_payment_surface_single_producer():
    record = payment_surface(
        SqrtSumValuation(scale=1.0), LinearCost(), n=1, m=1, grid=SurfaceGrid(x_points=2, gamma_points=2)
    )
    # the removed problem is the empty coalition, so tau is producer 0's whole surplus plus its cost
    assert record.tau.tolist() == [[0.0, 0.0], [0.5 * np.sqrt(5.0), 0.125]]


def test_run_probes_offsets_seeds_by_adjustment_position():
    config = ExperimentConfig(
        n=3, m=1, dsic_trials=3, dsic_deviations=2, ir_samples=4, monotonicity_trials=3,
        existence_samples=4, seed=7,
    )
    probes = run_probes(config, {"first": ZeroAdjustment(), "second": ZeroAdjustment()})
    support = config.support()
    valuation, cost = config.families()
    second = probe_dsic(
        uniform_economy_sampler(support, valuation, cost), mixed_deviation_sampler(support),
        trials=3, deviations_per_trial=2, seed=7 + 21 + 1,
    )
    assert probes["dsic"]["second"] == second.to_dict()
    assert probes["dsic"]["first"] != probes["dsic"]["second"]
    expected = ir_wbb_sweep(support, valuation, cost, samples=4, seed=7 + 41 + 1)
    assert probes["ir_wbb"]["second"] == expected
