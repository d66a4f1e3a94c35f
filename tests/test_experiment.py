import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from pvcg import (
    AnalyticAdjustment,
    ExperimentConfig,
    LearnedAdjustment,
    LinearCost,
    PriorSupport,
    SqrtSumValuation,
    SurfaceGrid,
    TrainingConfig,
    ZeroAdjustment,
    payment_surface,
    payments_batch,
    run_experiment,
)
from pvcg import experiment
from pvcg.experiment import ir_wbb_sweep, run_probes, surface_rows, write_csv
from pvcg.learner import mlp_init
from pvcg.verification import probe_dsic


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


@pytest.mark.parametrize(
    "field, value, message",
    [
        pytest.param("x_points", 2.5, " must be an integer", id="x_points-float"),
        pytest.param("gamma_points", True, " must be an integer", id="gamma_points-bool"),
        pytest.param("x_hi", math.inf, " must be finite, got inf", id="x_hi-inf"),
        pytest.param("x_lo", -1.0, " must be non-negative", id="x_lo-negative"),
        pytest.param("gamma_hi", math.nan, " must be finite, got nan", id="gamma_hi-nan"),
        pytest.param("fixed_capacity", -2.5, " must be non-negative", id="fixed_capacity-negative"),
        pytest.param("fixed_gamma", math.inf, " must be finite, got inf", id="fixed_gamma-inf"),
        pytest.param("fixed_theta", math.nan, " must be finite, got nan", id="fixed_theta-nan"),
    ],
)
def test_surface_grid_rejects_bad_field(field, value, message):
    with pytest.raises(ValueError, match=f"^{field}{message}"):
        SurfaceGrid(**{field: value})


@pytest.mark.parametrize("axis", ["x", "gamma"])
def test_surface_grid_rejects_reversed_bounds(axis):
    """A descending grid would read a correct surface as non-monotone, so it fails when the grid is built."""
    with pytest.raises(ValueError, match=f"^{axis}_lo must be <= {axis}_hi, got 5.0 > 0.0$"):
        SurfaceGrid(**{f"{axis}_lo": 5.0, f"{axis}_hi": 0.0})
    SurfaceGrid(**{f"{axis}_lo": 0.5, f"{axis}_hi": 0.5})  # equal bounds make a one-value axis


@pytest.mark.parametrize("field", ["n", "m"])
def test_payment_surface_rejects_empty_sizes(field):
    sizes = {"n": 2, "m": 1, field: 0}
    grid = SurfaceGrid(x_points=2, gamma_points=2)
    with pytest.raises(ValueError, match=f"^{field} must be >= 1, got 0$"):
        payment_surface(SqrtSumValuation(scale=2.0), LinearCost(), **sizes, grid=grid)


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


def test_flagship_config_load_save_is_byte_identical(tmp_path):
    source = Path(__file__).resolve().parents[1] / "configs" / "flagship.json"
    ExperimentConfig.load(source).save(tmp_path / "flagship.json")
    assert (tmp_path / "flagship.json").read_bytes() == source.read_bytes()


def test_non_default_nested_config_dict_roundtrip():
    config = ExperimentConfig(
        n=3, m=4, valuation_tag="sqrt_sum_squares", scale=2.5, cap_bounds=(1.0, 2.0),
        gamma_bounds=(0.25, 0.5), theta_bounds=(0.5, 0.5), method="projected_gradient", punishment=123.0,
        training=TrainingConfig(batch_size=7, epochs=9, learning_rate=0.5, momentum=0.25, hidden=(3, 2), seed=4,
                                loss_tol=0.125),
        surface=SurfaceGrid(x_points=2, gamma_points=3, x_lo=0.5, x_hi=1.5, fixed_theta=0.75),
        seed=8,
    )
    doc = json.loads(json.dumps(config.to_dict()))
    assert doc["training"]["hidden"] == [3, 2] and doc["cap_bounds"] == [1.0, 2.0]
    loaded = ExperimentConfig.from_dict(doc)
    assert loaded == config
    assert isinstance(loaded.training.hidden, tuple) and isinstance(loaded.gamma_bounds, tuple)
    assert TrainingConfig.from_dict(config.training.to_dict()) == config.training
    assert SurfaceGrid.from_dict(config.surface.to_dict()) == config.surface


def test_ir_wbb_sweep_zero_adjustment(paper_support, paper_families):
    valuation, cost = paper_families
    result = ir_wbb_sweep(paper_support, valuation, cost, samples=200, seed=3)
    assert result["passed"], result
    assert result["worst_utility"] >= -1e-8
    assert result["worst_budget_slack"] >= -1e-8


@pytest.mark.parametrize(
    "gate, message",
    [
        (dict(min_pass_rate=math.nan), r"^min_pass_rate must be in \[0, 1\], got nan$"),
        (dict(min_pass_rate=-0.1), r"^min_pass_rate must be in \[0, 1\], got -0.1$"),
        (dict(min_pass_rate=1.5), r"^min_pass_rate must be in \[0, 1\], got 1.5$"),
        (dict(max_mean_penalty=math.inf), "^max_mean_penalty must be None or finite and >= 0, got inf$"),
        (dict(max_mean_penalty=math.nan), "^max_mean_penalty must be None or finite and >= 0, got nan$"),
        (dict(max_mean_penalty=-1e-3), "^max_mean_penalty must be None or finite and >= 0, got -0.001$"),
    ],
    ids=["rate-nan", "rate-negative", "rate-above-1", "penalty-inf", "penalty-nan", "penalty-negative"],
)
def test_ir_wbb_sweep_rejects_a_gate_before_any_draw(monkeypatch, paper_support, paper_families, gate, message):
    """An infinite penalty cap would pass any penalties and a NaN gate would fail unexplained, so each is an error
    naming its field, raised before the sweep draws a sample."""
    monkeypatch.setattr(experiment, "sample_from", lambda *args: pytest.fail("the sweep drew before checking"))
    with pytest.raises(ValueError, match=message):
        ir_wbb_sweep(paper_support, *paper_families, samples=4, seed=0, **gate)


def test_ir_wbb_sweep_takes_the_edges_of_its_gates(paper_support, paper_families):
    for gate in (dict(min_pass_rate=0.0, max_mean_penalty=0.0), dict(min_pass_rate=1.0)):
        assert ir_wbb_sweep(paper_support, *paper_families, samples=4, seed=0, **gate)["passed"]


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


def test_ir_wbb_sweep_counts_restatement_mismatches(monkeypatch):
    """Doctored adjustment rows: a rationality and a budget restatement mismatch are violations with
    witnesses, and a punished producer suppresses one, which leaves its penalty term unmatched."""
    real = experiment.payments_batch

    def doctored(*args, **kwargs):
        p = real(*args, **kwargs)
        gains = p.surplus[:, None] - p.counterfactual_surpluses
        adjustment, punished = p.adjustment.copy(), p.punished.copy()
        adjustment[[1, 3], 0] = -gains[[1, 3], 0] - 1.0  # restated rationality fails on rows 1 and 3
        adjustment[2, 0] = p.surplus[2] + 1.0  # restated budget fails on row 2
        punished[3, 0] = True
        return dataclasses.replace(p, adjustment=adjustment, punished=punished)

    monkeypatch.setattr(experiment, "payments_batch", doctored)
    support = PriorSupport.uniform_box(3, 1)
    result = ir_wbb_sweep(support, SqrtSumValuation(scale=3.0), LinearCost(), samples=6, seed=4)
    mismatch = {"kind": "restatement_mismatch", "direct": True, "restated": False}
    assert result["ir_violations"] == 1 and result["wbb_violations"] == 1
    assert result["equivalence_mismatches"] == 1
    assert result["pass_rate"] == 4 / 6 and not result["passed"]
    ir, wbb, term = result["witnesses"]
    assert ir == {"sample": 1, **mismatch} and wbb == {"sample": 2, **mismatch}
    assert term["sample"] == 3 and term["kind"] == "rationality" and term["probe"] is True
    assert term["term"] == pytest.approx(1.0, abs=1e-9)
    assert result["worst_utility"] >= 0.0


_COUNTS = ["n", "m", "dsic_trials", "dsic_deviations", "ir_samples", "monotonicity_trials", "existence_samples"]


@pytest.mark.parametrize(
    "field, value, message",
    [pytest.param(name, 0, " must be >= 1", id=name) for name in _COUNTS]
    + [
        pytest.param("dsic_trials", 2.0, " must be an integer", id="dsic_trials-float"),
        pytest.param("n", True, " must be an integer", id="n-bool"),
        pytest.param("existence_samples", "10", " must be an integer", id="existence_samples-str"),
        pytest.param("cap_bounds", (5.0, 0.0), " must be finite", id="cap_bounds-inverted"),
        pytest.param("gamma_bounds", (0.0, math.inf), " must be finite", id="gamma_bounds-inf"),
        pytest.param("gamma_bounds", (-0.5, 1.0), " must be finite", id="gamma_bounds-negative"),
        pytest.param("theta_bounds", (math.nan, 1.0), " must be finite", id="theta_bounds-nan"),
        pytest.param("valuation_tag", "bogus", ": unknown valuation family tag 'bogus'", id="valuation_tag"),
        pytest.param("cost_tag", "quadratic", ": unknown cost family tag 'quadratic'", id="cost_tag"),
        pytest.param("method", "newton", " must be None, 'analytic' or 'projected_gradient'", id="method"),
        pytest.param("scale", -1.0, " must be positive and finite", id="scale-negative"),
        pytest.param("scale", 0.0, " must be positive and finite", id="scale-zero"),
        pytest.param("scale", math.inf, " must be positive and finite", id="scale-inf"),
        pytest.param("scale", math.nan, " must be positive and finite", id="scale-nan"),
        pytest.param("punishment", -5.0, " must be positive and finite", id="punishment-negative"),
        pytest.param("punishment", 0.0, " must be positive and finite", id="punishment-zero"),
        pytest.param("punishment", math.inf, " must be positive and finite", id="punishment-inf"),
        pytest.param("seed", -30, " must be >= 0", id="seed-negative"),
        pytest.param("seed", 2.5, " must be an integer", id="seed-fraction"),
        pytest.param("seed", True, " must be an integer", id="seed-bool"),
    ],
)
def test_config_rejects_non_positive_counts(field, value, message):
    """Counts, bounds, family tags and the solver name are all checked when a config is built."""
    with pytest.raises(ValueError, match=f"^{field}{message}"):
        ExperimentConfig(**{field: value})


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
        (PriorSupport, {"cap_lo": [[0.0]], "dsic_trails": 5}),
    ],
    ids=["experiment", "training", "surface", "support"],
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


@pytest.mark.parametrize("kind", ["zero", "analytic", "learned"])
@pytest.mark.parametrize(
    "name, points", [("surface_interior", (8, 6)), ("surface_squares", (8, 8))], ids=["waterfill", "squares"]
)
def test_payment_surface_is_producer_0s_column_of_payments_batch(name, points, kind):
    """The surface prices producer 0 as ``payments_batch`` does on every profile of the grid, bit for bit.

    ``surface_interior`` is a water-fill world with a non-zero analytic adjustment; ``surface_squares`` is the
    n = 4 sqrt_sum_squares world, solved by projected gradient.
    """
    config = ExperimentConfig.load(Path(__file__).resolve().parents[1] / "configs" / f"{name}.json")
    grid = dataclasses.replace(config.surface, x_points=points[0], gamma_points=points[1])
    support, (valuation, cost) = config.support(), config.families()
    width = (support.n - 1) * (support.dim + 1) + support.m
    adjustment = {
        "zero": ZeroAdjustment(),
        "analytic": AnalyticAdjustment(support, valuation, cost),
        "learned": LearnedAdjustment(
            tuple(mlp_init([width, 10, 1], np.random.default_rng(i)) for i in range(support.n)), support
        ),
    }[kind]
    record = payment_surface(valuation, cost, config.n, config.m, adjustment=adjustment, grid=grid)

    caps = np.full(points + (config.n, 1), grid.fixed_capacity)
    caps[..., 0, 0] = record.x_values[:, None]
    gammas = np.full(points + (config.n,), grid.fixed_gamma)
    gammas[..., 0] = record.gamma_values
    thetas = np.full((caps[..., 0, 0].size, config.m), grid.fixed_theta)
    p = payments_batch(caps.reshape(-1, config.n, 1), gammas.reshape(-1, config.n), thetas, valuation, cost,
                       adjustment=adjustment)
    assert not p.punished.any()
    h0 = np.full(points, record.adjustment)
    for got, column in ((record.tau, p.tau), (record.payments, p.total), (h0, p.adjustment)):
        assert got.tobytes() == column[:, 0].reshape(points).tobytes()
    if kind != "zero":
        assert record.adjustment != 0.0


def test_run_probes_offsets_seeds_by_adjustment_position(monkeypatch):
    config = ExperimentConfig(
        n=3, m=1, dsic_trials=3, dsic_deviations=2, ir_samples=4, monotonicity_trials=3,
        existence_samples=4, seed=7,
    )
    # two passing dsic reports of this size can read alike, so the seeds are read where they are passed
    seeds = []

    def seeded_probe(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return probe_dsic(*args, **kwargs)

    monkeypatch.setattr(experiment, "probe_dsic", seeded_probe)
    probes = run_probes(config, {"first": ZeroAdjustment(), "second": ZeroAdjustment()})
    assert seeds == [7 + 21, 7 + 21 + 1]
    support = config.support()
    valuation, cost = config.families()
    second = probe_dsic(support, valuation, cost, trials=3, deviations_per_trial=2, seed=7 + 21 + 1)
    assert probes["dsic"]["second"] == second.to_dict()
    expected = ir_wbb_sweep(support, valuation, cost, samples=4, seed=7 + 41 + 1)
    assert probes["ir_wbb"]["second"] == expected
