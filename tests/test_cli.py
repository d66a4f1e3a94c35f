import json

import numpy as np
import pytest

from pvcg import AnalyticAdjustment, Economy, LinearCost, PriorSupport, SqrtSumValuation, save_economy, total_payment
from pvcg.cli import main
from pvcg.experiment import ExperimentConfig, SurfaceGrid
from pvcg.learner import LearnedAdjustment, TrainingConfig, mlp_init, save_model


@pytest.fixture
def economy_file(tmp_path):
    economy = Economy.sqrt_sum([1.0, 1.0], [0.1, 10.0], [1.0])
    path = tmp_path / "economy.json"
    save_economy(economy, path)
    return economy, path


@pytest.fixture
def config_file(tmp_path):
    config = ExperimentConfig(
        n=4,
        m=2,
        training=TrainingConfig(
            batch_size=64, epochs=200, learning_rate=2e-2, momentum=0.9, hidden=(8,), seed=2
        ),
        surface=SurfaceGrid(x_points=6, gamma_points=5),
        dsic_trials=10,
        dsic_deviations=5,
        ir_samples=50,
        monotonicity_trials=30,
        existence_samples=50,
        seed=2,
    )
    path = tmp_path / "config.json"
    config.save(path)
    return config, path


def test_simulate_prints_payments(economy_file, capsys):
    economy, path = economy_file
    assert main(["simulate", "--economy", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    expected = total_payment(economy)
    assert record["total"] == pytest.approx(list(expected.total), abs=1e-9)
    assert record["surplus"] == pytest.approx(expected.surplus, abs=1e-9)
    assert record["punished"] == [False, False]


def test_simulate_prices_a_two_dimensional_economy_with_the_analytic_adjustment(tmp_path, capsys):
    economy = Economy([[2.0, 1.0], [3.0, 0.5], [1.5, 1.5]], [0.2, 0.5, 0.35], [0.8, 0.6],
                      SqrtSumValuation(scale=3.0), LinearCost())
    path = tmp_path / "economy.json"
    save_economy(economy, path)
    assert main(["simulate", "--economy", str(path), "--adjustment", "analytic"]) == 0
    record = json.loads(capsys.readouterr().out)
    support = PriorSupport.uniform_box(3, 2, dim=2)
    expected = total_payment(economy, adjustment=AnalyticAdjustment(support, economy.valuation, economy.cost))
    for name in ("tau", "adjustment", "total", "utilities", "accepted"):
        assert record[name] == getattr(expected, name).tolist(), name
    assert record["surplus"] == expected.surplus


def test_simulate_writes_file(economy_file, tmp_path):
    _, path = economy_file
    out = tmp_path / "out"
    assert main(["simulate", "--economy", str(path), "--out", str(out)]) == 0
    assert (out / "payments.json").exists()


def test_check_assumptions_clean_family(capsys):
    assert main(["check-assumptions", "--family", "sqrt_sum", "--producers", "3",
                 "--samples", "500", "--seed", "1"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["passed"] is True


def test_check_assumptions_detects_bad_scale(capsys):
    # scale far below the producer count breaks the synergy inequality
    code = main(["check-assumptions", "--family", "sqrt_sum", "--producers", "4",
                 "--scale", "1.0", "--samples", "500", "--seed", "1"])
    assert code == 1


@pytest.mark.parametrize("flag", ["--producers", "--samples"])
def test_check_assumptions_rejects_an_empty_count_by_its_flag(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["check-assumptions", flag, "0"])
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be >= 1, got 0" in capsys.readouterr().err


def test_check_assumptions_rejects_a_zero_scale_instead_of_defaulting_it(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["check-assumptions", "--scale", "0", "--samples", "10"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == "pvcg check-assumptions: error: scale must be positive and finite, got 0.0\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["--family", "bogus"],
                     "unknown valuation family tag 'bogus' (custom families are built in code)", id="family"),
        pytest.param(["--cost-family", "quadratic"],
                     "unknown cost family tag 'quadratic' (custom families are built in code)", id="cost-family"),
        pytest.param(["--scale", "-1"], "scale must be positive and finite, got -1.0", id="negative-scale"),
    ],
)
def test_check_assumptions_bad_family_input_is_one_error_line_with_exit_code_2(argv, message, capsys):
    """A family the CLI cannot build is a bad input (exit 2), not a violated assumption (exit 1)."""
    with pytest.raises(SystemExit) as exit_info:
        main(["check-assumptions", *argv, "--samples", "10"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == f"pvcg check-assumptions: error: {message}\n" and not captured.out


@pytest.mark.parametrize("command, flag", [
    (["train"], "--punishment"),
    (["surface"], "--seed"),
    (["surface"], "--punishment"),
    (["simulate", "--economy", "economy.json"], "--seed"),
])
def test_a_flag_the_command_does_not_read_is_rejected(command, flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(command + [flag, "1"])
    assert exit_info.value.code == 2
    assert f"pvcg: error: unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_train_and_surface_and_verify(config_file, tmp_path, capsys):
    _, config_path = config_file
    out = tmp_path / "artifacts"
    assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "model.json").exists() and (out / "loss_trace.csv").exists()

    assert main(["surface", "--config", str(config_path), "--out", str(out),
                 "--adjustment", f"learned:{out / 'model.json'}"]) == 0
    header = (out / "surface.csv").read_text().splitlines()[0]
    assert header == "x0,gamma0,tau0,adjustment0,p0"

    assert main(["verify", "--config", str(config_path), "--out", str(out),
                 "--adjustment", "analytic"]) == 0
    report = json.loads((out / "verification.json").read_text())
    assert report["passed"] is True
    assert report["ir_wbb"]["min_pass_rate"] == 1.0

    # a trained network is gated on expected penalty, not per-instance feasibility
    assert main(["verify", "--config", str(config_path), "--out", str(out),
                 "--adjustment", f"learned:{out / 'model.json'}"]) == 0
    report = json.loads((out / "verification.json").read_text())
    assert report["passed"] is True
    assert report["ir_wbb"]["max_mean_penalty"] == pytest.approx(0.01)
    capsys.readouterr()


def test_run_subcommand(config_file, tmp_path):
    _, config_path = config_file
    out = tmp_path / "full"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "report.json").exists()


def test_verify_learned_report_does_not_depend_on_model_path(config_file, tmp_path, capsys):
    config, config_path = config_file
    support = config.support()
    rng = np.random.default_rng(3)
    width = (config.n - 1) * 2 + config.m
    model = LearnedAdjustment(tuple(mlp_init([width, 4, 1], rng) for _ in range(config.n)), support)
    reports = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        save_model(model, tmp_path / name / "model.json")
        out = tmp_path / name / "out"
        main(["verify", "--config", str(config_path), "--out", str(out),
              "--adjustment", f"learned:{tmp_path / name / 'model.json'}"])
        reports.append((out / "verification.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["adjustment"] == "learned"
    capsys.readouterr()


def test_ragged_capacities_in_an_economy_file_are_one_error_line_with_exit_code_2(tmp_path, capsys):
    path = tmp_path / "economy.json"
    path.write_text(json.dumps({"capacities": [[1.0, 2.0], [3.0]], "cost_types": [0.1, 0.2], "valuation_types": [1.0]}))
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "--economy", str(path), "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("pvcg simulate: error: capacities must have rows of one length: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["run", "--seed", "-1"], "pvcg run: error: seed must be >= 0, got -1", id="negative-seed"),
        pytest.param(["verify", "--adjustment", "learned:{missing}"],
                     "pvcg verify: error: [Errno 2] No such file or directory: '{missing}'", id="missing-checkpoint"),
        pytest.param(["verify", "--adjustment", "bogus"],
                     "pvcg verify: error: unknown adjustment 'bogus'; expected zero, analytic, or learned:PATH",
                     id="unknown-adjustment"),
        pytest.param(["surface", "--adjustment", "bogus"],
                     "pvcg surface: error: unknown adjustment 'bogus'; expected zero, analytic, or learned:PATH",
                     id="unknown-adjustment-surface"),
    ],
)
def test_a_bad_input_is_one_error_line_with_exit_code_2(argv, message, config_file, tmp_path, capsys):
    """A config override or checkpoint that cannot be loaded ends the command before any work, without a traceback."""
    _, config_path = config_file
    missing = tmp_path / "missing.json"
    with pytest.raises(SystemExit) as exit_info:
        main([arg.format(missing=missing) for arg in argv] + ["--config", str(config_path), "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == message.format(missing=missing) + "\n"
    assert not (tmp_path / "out").exists()
