"""Experiment orchestration: config, training, probes, payment surfaces, CSV/JSON artifacts.

Every run is driven by one seed; stage seeds are derived from it by fixed
offsets, randomness flows through numpy's PCG64 generator only, and no
timestamps enter the output files, so identical configs produce byte-identical
artifacts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .adjustment import (
    AnalyticAdjustment,
    PriorSupport,
    marginal_gains_check,
    existence_check,
    sample_from,
)
from .allocation import _solve
from .learner import LearnedAdjustment, TrainingConfig, TrainingTrace, save_model, train
from .model import (
    _check_count, _check_entries, cost_rows, fields_from_dict, fields_to_dict, make_cost, make_valuation,
)
from .payments import ZeroAdjustment, _check_punishment, _pivot, payments_batch
from .verification import (
    SURPLUS_TOL,
    Feasibility,
    check_surplus_monotonicity,
    probe_dsic,
)

Array = np.ndarray

__all__ = [
    "SurfaceGrid",
    "SurfaceRecord",
    "ExperimentConfig",
    "ExperimentResult",
    "payment_surface",
    "ir_wbb_sweep",
    "run_probes",
    "run_experiment",
]

# stage seed offsets relative to the config seed; the dsic and ir_wbb stages
# add the adjustment's position in the probed set
_SEED_EXISTENCE = 11
_SEED_MARGINAL_GAINS = 12
_SEED_DSIC = 21
_SEED_IR_WBB = 41
_SEED_MONOTONICITY = 51


@dataclass(frozen=True)
class SurfaceGrid:
    """Grid over producer 0's reported capacity and cost type, others pinned."""

    x_points: int = 50
    gamma_points: int = 50
    x_lo: float = 0.0
    x_hi: float = 5.0
    gamma_lo: float = 0.0
    gamma_hi: float = 1.0
    fixed_capacity: float = 2.5
    fixed_gamma: float = 0.5
    fixed_theta: float = 0.5

    def __post_init__(self):
        _check_count("x_points", self.x_points)
        _check_count("gamma_points", self.gamma_points)
        for name in ("x_lo", "x_hi", "gamma_lo", "gamma_hi", "fixed_capacity", "fixed_gamma", "fixed_theta"):
            _check_entries(np.asarray(getattr(self, name), dtype=float), name)
        for axis in ("x", "gamma"):
            lo, hi = getattr(self, f"{axis}_lo"), getattr(self, f"{axis}_hi")
            if lo > hi:
                raise ValueError(f"{axis}_lo must be <= {axis}_hi, got {lo} > {hi}")

    def to_dict(self) -> dict:
        return fields_to_dict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "SurfaceGrid":
        return fields_from_dict(cls, doc)


@dataclass
class SurfaceRecord:
    """Payment to producer 0 over the report grid, with its pivot/adjustment split."""

    x_values: Array        # (K,)
    gamma_values: Array    # (L,)
    tau: Array             # (K, L)
    payments: Array        # (K, L) tau + adjustment
    adjustment: float      # constant across the grid: it never reads producer 0's report
    fixed: dict

    def monotone_in_capacity(self) -> bool:
        return bool(np.all(np.diff(self.payments, axis=0) >= -1e-6))

    def monotone_in_gamma(self) -> bool:
        return bool(np.all(np.diff(self.payments, axis=1) <= 1e-6))

    def plateau_gap(self) -> float:
        """Worst distance between the highest-cost-column payment and the adjustment alone."""
        return float(np.abs(self.payments[:, -1] - self.adjustment).max())


def payment_surface(
    valuation,
    cost,
    n: int,
    m: int,
    adjustment=None,
    grid: SurfaceGrid | None = None,
    method: str | None = None,
) -> SurfaceRecord:
    """Evaluate producer 0's payment over a grid of its own reports.

    All other producers report ``fixed_capacity``/``fixed_gamma`` and all consumers ``fixed_theta``; reports are
    taken at face value (no punishment). The producer-removed problem and the adjustment read no report of
    producer 0, so one ``payments_batch`` call prices them on the grid's first profile; the full problems of the
    grid are solved as one ``solve_batch``, which trusts the grid's arrays.
    """
    _check_count("n", n)
    _check_count("m", m)
    if grid is None:
        grid = SurfaceGrid()
    x_values = np.linspace(grid.x_lo, grid.x_hi, grid.x_points)
    gamma_values = np.linspace(grid.gamma_lo, grid.gamma_hi, grid.gamma_points)
    shape = (grid.x_points, grid.gamma_points)
    caps = np.full(shape + (n, 1), grid.fixed_capacity)
    caps[..., 0, 0] = x_values[:, None]
    gammas = np.full(shape + (n,), grid.fixed_gamma)
    gammas[..., 0] = gamma_values
    thetas = np.full(m, grid.fixed_theta)
    first = payments_batch(caps[:1, 0], gammas[:1, 0], thetas[None], valuation, cost, adjustment=adjustment,
                           method=method)
    removed, h0 = first.counterfactual_surpluses[0, 0], float(first.adjustment[0, 0])
    accepted, surplus = _solve(caps, gammas, thetas, valuation, cost, method)
    tau = _pivot(surplus, removed, cost_rows(cost, accepted[..., 0, :], gammas[..., 0]))
    return SurfaceRecord(
        x_values=x_values,
        gamma_values=gamma_values,
        tau=tau,
        payments=tau + h0,
        adjustment=h0,
        fixed={
            "capacity": grid.fixed_capacity,
            "gamma": grid.fixed_gamma,
            "theta": grid.fixed_theta,
            "n": n,
            "m": m,
        },
    )


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    n: int = 10
    m: int = 2
    valuation_tag: str = "sqrt_sum"
    cost_tag: str = "linear"
    scale: float | None = None  # synergy multiplier; defaults to n
    cap_bounds: tuple[float, float] = (0.0, 5.0)
    gamma_bounds: tuple[float, float] = (0.0, 1.0)
    theta_bounds: tuple[float, float] = (0.0, 1.0)
    training: TrainingConfig = field(default_factory=lambda: TrainingConfig(momentum=0.9))
    method: str | None = None
    punishment: float = 1e6
    surface: SurfaceGrid = field(default_factory=SurfaceGrid)
    dsic_trials: int = 200
    dsic_deviations: int = 20
    ir_samples: int = 2000
    monotonicity_trials: int = 1000
    existence_samples: int = 2000
    seed: int = 0

    def __post_init__(self):
        counts = ("n", "m", "dsic_trials", "dsic_deviations", "ir_samples", "monotonicity_trials", "existence_samples")
        for name in counts:
            _check_count(name, getattr(self, name))
        for name in ("cap_bounds", "gamma_bounds", "theta_bounds"):
            bounds = getattr(self, name)
            if len(bounds) != 2 or not all(map(math.isfinite, bounds)) or not 0 <= bounds[0] <= bounds[1]:
                raise ValueError(f"{name} must be finite (lo, hi) with 0 <= lo <= hi, got {bounds}")
        for name, make in (("valuation_tag", make_valuation), ("cost_tag", make_cost)):
            try:
                make(getattr(self, name))
            except ValueError as err:
                raise ValueError(f"{name}: {err}") from None
        if self.method not in (None, "analytic", "projected_gradient"):
            raise ValueError(f"method must be None, 'analytic' or 'projected_gradient', got {self.method!r}")
        if self.scale is not None and not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive and finite (None means n), got {self.scale}")
        _check_punishment(self.punishment)
        _check_count("seed", self.seed, least=0)

    def support(self) -> PriorSupport:
        return PriorSupport.uniform_box(
            self.n, self.m, cap=self.cap_bounds, gamma=self.gamma_bounds, theta=self.theta_bounds
        )

    def families(self):
        scale = self.scale if self.scale is not None else float(self.n)
        return make_valuation(self.valuation_tag, scale=scale), make_cost(self.cost_tag)

    def to_dict(self) -> dict:
        return fields_to_dict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        return fields_from_dict(cls, doc)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed, training=replace(self.training, seed=seed))


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".9g")
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_report(path, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def surface_rows(record: SurfaceRecord):
    for a, x0 in enumerate(record.x_values):
        for b, g0 in enumerate(record.gamma_values):
            yield (x0, g0, record.tau[a, b], record.adjustment, record.payments[a, b])


def write_training(out: Path, model: LearnedAdjustment, trace: TrainingTrace) -> tuple[Path, Path]:
    """Write a training run's ``loss_trace.csv`` and ``model.json`` under ``out``; return their paths."""
    trace_path, model_path = out / "loss_trace.csv", out / "model.json"
    write_csv(trace_path, ["epoch", "loss"], enumerate(trace.losses))
    save_model(model, model_path)
    return trace_path, model_path


def write_surface(out: Path, record: SurfaceRecord) -> tuple[Path, dict]:
    """Write ``surface.csv`` under ``out``; return its path and the surface's verdicts."""
    path = out / "surface.csv"
    write_csv(path, ["x0", "gamma0", "tau0", "adjustment0", "p0"], surface_rows(record))
    gap = record.plateau_gap()
    return path, {
        "monotone_in_capacity": record.monotone_in_capacity(),
        "monotone_in_gamma": record.monotone_in_gamma(),
        "plateau_gap": gap,
        "plateau_matches_adjustment": gap <= 1e-3,
    }


# ---------------------------------------------------------------------------
# sampled IR / WBB sweep with instance-wise loss equivalence
# ---------------------------------------------------------------------------


def ir_wbb_sweep(
    support: PriorSupport,
    valuation,
    cost,
    adjustment=None,
    samples: int = 1000,
    seed: int = 0,
    punishment: float = 1e6,
    method: str | None = None,
    min_pass_rate: float = 1.0,
    max_mean_penalty: float | None = None,
) -> dict:
    """Truthful payment runs over prior draws, checking rationality and budget per instance.

    Also asserts, instance by instance, that the rationality penalty term is
    zero exactly when the rationality probe passes, and likewise for the
    budget term (the loss/probe equivalence); mismatches always fail the
    sweep. Exact adjustments (zero, analytic) should be held to
    ``min_pass_rate=1.0`` at the strict tolerance. A trained network controls
    only the expected penalty, so it is gated by ``max_mean_penalty`` (a
    fresh-sample bound on its training loss) while its strict pass rate is
    still reported for inspection.

    The samples are drawn first, in one ``sample_from``, and priced in one
    ``payments_batch``; ``Feasibility`` gives every sample's
    verdicts and loss terms at once, and witnesses are built for failing
    samples only.
    """
    _check_count("samples", samples)
    caps, gammas, thetas = sample_from(support, samples, np.random.default_rng(seed))
    p = payments_batch(
        caps, gammas, thetas, valuation, cost, adjustment=adjustment, punishment=punishment, method=method
    )
    verdict = Feasibility(p)
    ir_passed, wbb_passed, term1, budget = verdict.ir_passed, verdict.wbb_passed, verdict.rationality, verdict.budget
    rationality_mismatch = (term1 <= gammas.shape[1] * SURPLUS_TOL) != ir_passed
    budget_mismatch = (budget <= SURPLUS_TOL) != wbb_passed

    def first_rows(mask):
        return np.flatnonzero(mask)[:10].tolist()

    # a failing sample's witness is the first violation of its check_ir or check_wbb report
    witnesses = [{"sample": k, **verdict.ir_report(k).violations[0]} for k in first_rows(~ir_passed)]
    witnesses += [{"sample": k, **verdict.wbb_report(k).violations[0]} for k in first_rows(~wbb_passed)]
    for k in first_rows(rationality_mismatch | budget_mismatch):
        if rationality_mismatch[k]:
            witnesses.append({"sample": k, "kind": "rationality", "term": float(term1[k]), "probe": bool(ir_passed[k])})
        if budget_mismatch[k]:
            witnesses.append({"sample": k, "kind": "budget", "term": float(budget[k]), "probe": bool(wbb_passed[k])})
    mismatch_count = int(np.count_nonzero(rationality_mismatch) + np.count_nonzero(budget_mismatch))
    pass_rate = int(np.count_nonzero(ir_passed & wbb_passed)) / samples
    # penalties add up sample by sample, left to right, from 0.0
    mean_penalty = float(np.add.accumulate(np.concatenate(([0.0], term1 + budget)))[-1]) / samples
    row_worst = p.utilities.min(axis=1)
    rate_ok = pass_rate >= min_pass_rate
    penalty_ok = max_mean_penalty is None or mean_penalty <= max_mean_penalty
    return {
        "samples": samples,
        "ir_violations": int(np.count_nonzero(~ir_passed)),
        "wbb_violations": int(np.count_nonzero(~wbb_passed)),
        "equivalence_mismatches": mismatch_count,
        "pass_rate": pass_rate,
        "min_pass_rate": min_pass_rate,
        "mean_penalty": mean_penalty,
        "max_mean_penalty": max_mean_penalty,
        # the first of equal minima, as repeated min() would keep
        "worst_utility": float(row_worst[np.argmin(row_worst)]),
        "worst_budget_slack": float(p.budget_slack[np.argmin(p.budget_slack)]),
        "passed": bool(rate_ok and penalty_ok and not mismatch_count),
        "witnesses": witnesses[:10],
    }


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def run_probes(config: ExperimentConfig, adjustments: dict) -> dict:
    """Every sampled probe of ``config``, the dsic and ir_wbb ones per named adjustment.

    Returns the ``existence``, ``marginal_gains`` and ``surplus_monotonicity``
    reports plus ``dsic`` and ``ir_wbb`` dicts keyed by adjustment name. Each
    stage seeds from ``config.seed`` plus its fixed offset; the k-th
    adjustment's dsic and ir_wbb stages add k. Exact adjustments must be
    feasible on every instance; a trained network is certified on its
    expected penalty, the quantity training controls, capped at
    ``10 * loss_tol``.
    """
    support = config.support()
    valuation, cost = config.families()
    learned_penalty_cap = 10.0 * config.training.loss_tol
    probes = {
        "existence": existence_check(
            support, valuation, cost, samples=config.existence_samples,
            seed=config.seed + _SEED_EXISTENCE, method=config.method,
        ).to_dict(),
        "marginal_gains": marginal_gains_check(
            support, valuation, cost, samples=config.existence_samples,
            seed=config.seed + _SEED_MARGINAL_GAINS, method=config.method,
        ).to_dict(),
        "dsic": {},
        "ir_wbb": {},
    }
    for offset, (name, adj) in enumerate(adjustments.items()):
        learned = isinstance(adj, LearnedAdjustment)
        probes["dsic"][name] = probe_dsic(
            support, valuation, cost, adjustment=adj,
            trials=config.dsic_trials, deviations_per_trial=config.dsic_deviations,
            seed=config.seed + _SEED_DSIC + offset, punishment=config.punishment, method=config.method,
        ).to_dict()
        probes["ir_wbb"][name] = ir_wbb_sweep(
            support, valuation, cost, adjustment=adj, samples=config.ir_samples,
            seed=config.seed + _SEED_IR_WBB + offset, punishment=config.punishment,
            method=config.method,
            min_pass_rate=0.0 if learned else 1.0,
            max_mean_penalty=learned_penalty_cap if learned else None,
        )
    probes["surplus_monotonicity"] = check_surplus_monotonicity(
        support, valuation, cost, trials=config.monotonicity_trials,
        seed=config.seed + _SEED_MONOTONICITY, method=config.method,
    ).to_dict()
    return probes


@dataclass
class ExperimentResult:
    passed: bool
    report: dict
    out_dir: Path
    model: LearnedAdjustment


def run_experiment(config: ExperimentConfig, out_dir) -> ExperimentResult:
    """Train the adjustment networks, run every probe, and emit all artifacts.

    Writes ``loss_trace.csv``, ``model.json``, ``surface.csv`` and
    ``report.json`` under ``out_dir``. The report carries a failing probe's
    witnesses; ``passed`` is False if any probe failed.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    support = config.support()
    valuation, cost = config.families()

    model, trace = train(valuation, cost, support, config.training, method=config.method)
    write_training(out, model, trace)

    probes = run_probes(
        config,
        {
            "zero": ZeroAdjustment(),
            "analytic": AnalyticAdjustment(support, valuation, cost, method=config.method),
            "learned": model,
        },
    )

    surface = payment_surface(
        valuation, cost, config.n, config.m, adjustment=model,
        grid=config.surface, method=config.method,
    )
    _, surface_report = write_surface(out, surface)

    passed = (
        trace.final_loss <= config.training.loss_tol
        and probes["existence"]["passed"]
        and probes["marginal_gains"]["passed"]
        and all(r["passed"] for r in probes["dsic"].values())
        and all(r["passed"] for r in probes["ir_wbb"].values())
        and probes["surplus_monotonicity"]["passed"]
        and surface_report["monotone_in_capacity"]
        and surface_report["monotone_in_gamma"]
        and surface_report["plateau_matches_adjustment"]
    )
    report = {
        "config": config.to_dict(),
        "training": {"epochs_run": trace.epochs_run, "final_loss": trace.final_loss},
        **probes,
        "surface": surface_report,
        "passed": passed,
    }
    write_report(out / "report.json", report)
    return ExperimentResult(passed=passed, report=report, out_dir=out, model=model)
