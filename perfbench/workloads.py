"""The benchmark's workloads: inputs drawn from the seed, the call, the output checks.

Each workload is a closed loop with one caller. ``next_input(k)`` draws the
k-th operation's input from the workload's seeded generator, so the input
stream depends only on the seed; ``call`` is the timed part; ``check``
inspects the output afterwards and returns a list of problems (empty when the
output is correct). ``cycle`` is the number of operations after which the
mix of operation kinds repeats; a run ends on a cycle boundary.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

FLAGSHIP_CONFIG = Path("configs") / "flagship.json"
ADJUSTMENT_NAMES = ("zero", "analytic", "learned")
SLACK_TOL = 1e-9
TAU_TOL = 1e-8
SURPLUS_TOL = 1e-6  # acceptance criterion 2: projected gradient vs water-fill


def _misreport(pv, rng, economy, deviations):
    """Bids where one random producer reports a mixed_deviation_sampler draw."""
    i = int(rng.integers(economy.n))
    cap, gamma = deviations(rng, economy, i)
    truth = economy.truthful_bids()
    caps = truth.capacities.copy()
    caps[i] = cap
    gammas = truth.cost_types.copy()
    gammas[i] = gamma
    return pv.model.BidProfile(caps, gammas, truth.valuation_types)


def _payment_problems(economy, bids, out, punishment) -> list[str]:
    problems = []
    punished = out.punished
    if not np.all(out.total[punished] == -punishment):
        problems.append("a punished producer is not paid exactly -P")
    if not np.all(np.isfinite(out.total[~punished])):
        problems.append("non-finite payment")
    if abs(out.budget_slack - (out.coalition_income - out.total.sum())) > SLACK_TOL:
        problems.append("budget_slack != coalition_income - sum(total)")
    reported = economy.cost_types if bids is None else bids.cost_types
    for i in np.flatnonzero(~punished):
        own_cost = economy.cost.cost(out.accepted[i], float(reported[i]))
        if out.tau[i] < own_cost - TAU_TOL:
            problems.append(f"tau_{i} below the producer's reported cost")
    return problems


class Pricing:
    """``total_payment`` on fresh n=10, m=2 flagship-prior economies.

    One operation prices six auctions, one after another: each adjustment
    (zero, analytic, learned) once with truthful bids and once with bids in
    which one producer misreports. The six kinds differ in cost by up to half,
    so the median of single auctions falls between their modes and jumps
    across runs; the median of the six-auction operation does not.
    """

    name = "pricing"
    cycle = 1
    trace_rate = 20.0  # traced operations per second of run length

    def __init__(self, pv, seed: int, root: Path, smoke: bool = False):
        self.pv = pv
        config = pv.experiment.ExperimentConfig.load(root / FLAGSHIP_CONFIG)
        support = config.support()
        valuation, cost = config.families()
        self.punishment = config.punishment
        net_seq, input_seq = np.random.SeedSequence(seed).spawn(2)
        net_rng = np.random.default_rng(net_seq)
        n, m, dim = support.n, support.m, support.dim
        sizes = [(n - 1) * dim + (n - 1) + m, *config.training.hidden, 1]
        nets = tuple(pv.learner.mlp_init(sizes, net_rng) for _ in range(n))
        self.adjustments = (
            pv.payments.ZeroAdjustment(),
            pv.adjustment.AnalyticAdjustment(support, valuation, cost),
            pv.learner.LearnedAdjustment(nets, support),
        )
        self.rng = np.random.default_rng(input_seq)
        self.economies = pv.verification.uniform_economy_sampler(support, valuation, cost)
        self.deviations = pv.verification.mixed_deviation_sampler(support)

    def _draw(self, misreport: bool):
        economy = self.economies(self.rng)
        bids = _misreport(self.pv, self.rng, economy, self.deviations) if misreport else None
        return economy, bids

    def next_input(self, k: int):
        return [(*self._draw(misreport), kind) for misreport in (False, True) for kind in range(3)]

    def call(self, auctions):
        return [
            self.pv.payments.total_payment(
                economy, bids=bids, adjustment=self.adjustments[kind], punishment=self.punishment,
            )
            for economy, bids, kind in auctions
        ]

    def check(self, auctions, outputs) -> list[str]:
        problems = []
        for (economy, bids, kind), out in zip(auctions, outputs):
            problems += _payment_problems(economy, bids, out, self.punishment)
            if bids is None and ADJUSTMENT_NAMES[kind] in ("zero", "analytic"):
                if not self.pv.verification.check_ir(economy, out).passed:
                    problems.append(f"truthful {ADJUSTMENT_NAMES[kind]} auction fails check_ir")
                if not self.pv.verification.check_wbb(economy, out).passed:
                    problems.append(f"truthful {ADJUSTMENT_NAMES[kind]} auction fails check_wbb")
        return problems

    def close(self) -> None:
        pass


class Gradient(Pricing):
    """One projected-gradient solve of a reported n=10, m=2 economy.

    Operations alternate between truthful bids and one misreporting producer.
    A whole auction is n+1 such solves; a few solves run to max_iter, so in a
    20 s run the median auction spread by a fifth across seeds while the
    median solve, with ten times the samples, is steady.
    """

    name = "gradient"
    cycle = 2
    trace_rate = 50.0

    def next_input(self, k: int):
        return self._draw(misreport=k % 2 == 1)

    def call(self, inp):
        economy, bids = inp
        return self.pv.allocation.optimize_acceptance(economy.view(bids), method="projected_gradient")

    def check(self, inp, out) -> list[str]:
        economy, bids = inp
        problems = []
        if not (np.all(out.ratios >= 0.0) and np.all(out.ratios <= 1.0)):
            problems.append("acceptance ratios outside [0, 1]")
        reference = self.pv.allocation.optimize_acceptance(economy.view(bids), method="analytic")
        if abs(out.surplus - reference.surplus) > SURPLUS_TOL:
            problems.append(f"projected-gradient surplus {out.surplus!r} vs water-fill {reference.surplus!r}")
        return problems


class Flagship:
    """``pvcg run`` in-process on a scaled-down flagship config.

    The config is configs/flagship.json with the sampled stages cut to 1/20,
    the surface grid to 11x11 and a training tolerance of 0.1, so one run
    takes seconds instead of most of a minute; batches stay at 256 samples.
    The training seed stays the config's own: the early-stopped epoch count,
    which wall time follows, varies by more than a quarter across training
    seeds. The probe seed of operation k is derived from the benchmark seed
    and k // 2, so operations 2j and 2j+1 are runs of one config and must
    write byte-identical artifacts.
    """

    name = "flagship"
    cycle = 1
    trace_rate = 0.1
    SWEEP_DIVISOR = 20
    LOSS_TOL = 0.1
    SWEEPS = ("dsic_trials", "ir_samples", "monotonicity_trials", "existence_samples")

    def __init__(self, pv, seed: int, root: Path, smoke: bool = False):
        self.pv = pv
        self.seed = seed
        with open(root / FLAGSHIP_CONFIG, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        divisor = 100 if smoke else self.SWEEP_DIVISOR
        for key in self.SWEEPS:
            doc[key] = max(1, doc[key] // divisor)
        for key in ("x_points", "gamma_points"):
            doc["surface"][key] = max(2, round(doc["surface"][key] / math.sqrt(divisor)))
        doc["training"]["loss_tol"] = 1e9 if smoke else self.LOSS_TOL
        self.doc = doc
        self.workdir = Path(tempfile.mkdtemp(prefix="flagship-", dir=root / "perfbench" / "out"))
        self.digests: dict[int, str] = {}
        self.bytes_written = 0

    def next_input(self, k: int) -> Path:
        j = k // 2
        path = self.workdir / f"config-{j}.json"
        if not path.exists():
            doc = dict(self.doc, seed=self.seed * 1000 + j)
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return path

    def call(self, config_path: Path):
        out = Path(tempfile.mkdtemp(prefix="run-", dir=self.workdir))
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.pv.cli.main(["run", "--config", str(config_path), "--out", str(out)])
        return code, out

    def check(self, config_path: Path, result) -> list[str]:
        code, out = result
        try:
            problems = [] if code == 0 else [f"pvcg run exited with {code}"]
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            if not report["passed"]:
                problems.append("report.json says passed=false")
            digest = hashlib.sha256()
            for path in sorted(out.iterdir()):
                data = path.read_bytes()
                self.bytes_written += len(data)
                digest.update(path.name.encode() + b"\0" + data)
            key = int(config_path.stem.split("-")[1])
            if self.digests.setdefault(key, digest.hexdigest()) != digest.hexdigest():
                problems.append(f"artifacts of {config_path.name} differ between two runs")
            return problems
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Flagship, Pricing, Gradient)}
