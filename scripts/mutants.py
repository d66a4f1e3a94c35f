#!/usr/bin/env python3
"""Mutation guard: every mutant is a one-token slip in a rule of the mechanism that the named tests must catch.

    python3 scripts/mutants.py

Each mutant is an exact source edit that must match its file once. It is applied to a fresh copy of ``src/``
in a temporary directory, next to copies of ``tests/``, ``configs/`` and ``pyproject.toml``, and the mutant's
tests run there with ``pytest -x`` at a fixed Hypothesis seed; the repository itself is never edited. First each
distinct set of tests runs once on the unmutated copy and must pass, so that a test failing in the copy for
another reason (a file not copied, a test already broken) cannot make its mutants read KILLED; a control run
that does not pass is an ERROR line and no mutant runs. Then one line per mutant: KILLED when a test fails,
SURVIVED when every test passes. An edit that does not match once, or a pytest run that ends in anything but
passed or failed (a collection error, no test selected), is an ERROR line. The exit status is 1 on any SURVIVED
or ERROR line, else 0. Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str         # under src/pvcg/
    old: str          # must occur exactly once in the file
    new: str
    tests: tuple      # pytest arguments: test files or node ids


PAYMENTS, VERIFY, ALLOC, LEARN, ADJUST = (
    "tests/test_payments.py", "tests/test_verification.py", "tests/test_allocation.py", "tests/test_learner.py",
    "tests/test_adjustment.py",
)

MUTANTS = (
    # pricing: the pivot, the settlement and the punishment
    Mutant("pivot-cost-sign", "payments.py",
           "return surplus - removed_surplus + own_costs", "return surplus - removed_surplus - own_costs", (PAYMENTS,)),
    Mutant("settle-drops-adjustment", "payments.py",
           "total = np.where(punished, -punishment, tau + h)", "total = np.where(punished, -punishment, tau)",
           (PAYMENTS,)),
    Mutant("settle-punished-utility-zero", "payments.py",
           "return tau, punished, total, np.where(punished, -punishment,",
           "return tau, punished, total, np.where(punished, 0.0,", (PAYMENTS,)),
    Mutant("punished-mask-all", "payments.py",
           "np.logical_or.reduce(accepted > true_capacities + guard",
           "np.logical_and.reduce(accepted > true_capacities + guard", (PAYMENTS,)),
    Mutant("punished-mask-guard-sign", "payments.py",
           "accepted > true_capacities + guard", "accepted > true_capacities - guard", (PAYMENTS,)),
    Mutant("tau-forms-removed-rows", "payments.py",
           "- row_costs[..., 1:])", "- row_costs[..., :-1])", (PAYMENTS,)),
    # the feasibility penalties and verdicts
    Mutant("penalty-rationality-sign", "adjustment.py",
           "np.maximum(-gains - adjustments, 0.0)", "np.maximum(-gains + adjustments, 0.0)", (LEARN,)),
    Mutant("penalty-budget-sign", "adjustment.py",
           "np.maximum((gains + adjustments).sum(axis=-1) - surpluses, 0.0)",
           "np.maximum((gains - adjustments).sum(axis=-1) - surpluses, 0.0)", (LEARN,)),
    Mutant("feasibility-restated-ir-tol", "verification.py",
           "np.all(payments.adjustment + gains >= -tol, axis=-1)", "np.all(payments.adjustment + gains >= tol, axis=-1)",
           (VERIFY,)),
    Mutant("feasibility-ignores-overdraft", "verification.py",
           "self.wbb_passed = ~self.overdraft & ~self.wbb_mismatch", "self.wbb_passed = ~self.wbb_mismatch",
           (VERIFY, "tests/test_experiment.py")),
    Mutant("record-all-ge", "model.py",
           "np.flatnonzero(gaps > tol)", "np.flatnonzero(gaps >= tol)", ("tests/test_model.py", VERIFY)),
    # the method rule and the water-fill
    Mutant("method-none-never-falls-back", "allocation.py",
           "if applies or method is None:", "if applies:", (ALLOC,)),
    Mutant("method-gradient-runs-waterfill", "allocation.py",
           "got {method!r}\")\n    return False", "got {method!r}\")\n    return True", (ALLOC,)),
    Mutant("cost-order-free-producer-stops", "allocation.py",
           "np.where(gammas_sorted > 0.0, scale * ratio * ratio, np.inf)",
           "np.where(gammas_sorted > 0.0, scale * ratio * ratio, 0.0)", (ALLOC,)),
    Mutant("cost-order-half-ratio", "allocation.py",
           "np.asarray(theta_sum)[..., None] / (2.0 * gammas_sorted)", "np.asarray(theta_sum)[..., None] / gammas_sorted",
           (ALLOC,)),
    Mutant("fills-previous-capacity-only", "allocation.py",
           "stops[..., 1:] -= np.add.accumulate(caps_sorted[..., :-1], axis=-1)",
           "stops[..., 1:] -= caps_sorted[..., :-1]", (ALLOC,)),
    Mutant("fills-unclipped-by-capacity", "allocation.py",
           "return np.minimum(np.maximum(stops, 0.0, out=stops), caps_sorted, out=stops)",
           "return np.maximum(stops, 0.0, out=stops)", (ALLOC,)),
    Mutant("gains-skip-mask", "allocation.py",
           "np.flatnonzero(fills > 0.0)", "np.flatnonzero(fills > 0.1)", (ALLOC, LEARN)),
    Mutant("spg-tie-largest", "allocation.py",
           "chosen = e * k + min(best,", "chosen = e * k + max(best,", (ALLOC,)),
    Mutant("spg-down-step-unclamped", "allocation.py",
           "np.maximum(steps[:, 1], 0.0, out=steps[:, 1])", "steps[:, 1]", (ALLOC,)),
    Mutant("spg-finished-check-strict", "allocation.py",
           "np.count_nonzero(done) >= k or", "np.count_nonzero(done) > k or", (ALLOC,)),
    Mutant("spg-first-trial-bar-drops-slope", "allocation.py",
           "reference + slope, 1.0", "reference, 1.0", (ALLOC,)),
    # the adjustments
    Mutant("analytic-solved-all-coordinates", "adjustment.py",
           "self.support.cap_lo.any(axis=-1)", "self.support.cap_lo.all(axis=-1)", (ADJUST,)),
    Mutant("analytic-skipped-positive-zero", "adjustment.py",
           "adjustments.fill(-0.0)", "adjustments.fill(0.0)", (ADJUST,)),
    Mutant("analytic-sign", "adjustment.py",
           "= -(surpluses[..., :k] - surpluses[..., k:])", "= surpluses[..., :k] - surpluses[..., k:]", (ADJUST,)),
    Mutant("learned-rows-untransposed", "learner.py",
           "np.ascontiguousarray(outputs.T).reshape", "np.ascontiguousarray(outputs).reshape", (LEARN,)),
    Mutant("learned-dead-column-fill", "learner.py",
           "/ span, 0.0)", "/ span, 1.0)", (LEARN,)),
    Mutant("loss-grad-rationality-sign", "learner.py",
           "d_out = (-(rationality > 0).astype(float)", "d_out = ((rationality > 0).astype(float)", (LEARN,)),
    Mutant("deviations-over-mode", "verification.py",
           "box, over = mode == 0, mode == 4", "box, over = mode == 0, mode == 3", (VERIFY,)),
    # the input boundary
    Mutant("zero-width-bundle-accepted", "model.py",
           "    if reports[0].shape[-1] < 1:\n        raise", "    if False:\n        raise",
           ("tests/test_model.py", ALLOC)),
    Mutant("bids-layout-unchecked", "model.py",
           "bids.valuation_types, support=self)", "bids.valuation_types)", ("tests/test_model.py", "tests/test_cli.py")),
    Mutant("sweep-infinite-penalty-cap", "experiment.py",
           "not 0.0 <= max_mean_penalty < math.inf", "not 0.0 <= max_mean_penalty", ("tests/test_experiment.py",)),
    Mutant("cli-learned-layout-unchecked", "cli.py",
           "if layout != want:", "if False:", ("tests/test_cli.py",)),
    Mutant("loss-tol-gate-overflow-accepted", "learner.py",
           "math.isfinite(10.0 * self.loss_tol)", "math.isfinite(self.loss_tol)", (LEARN,)),
)


def _copy_tree(tmp: Path) -> None:
    """The tests and what they read, copied once; ``src`` is copied per mutant."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("tests", "configs"):
        shutil.copytree(ROOT / name, tmp / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", tmp / "pyproject.toml")


def _fresh_src(tmp: Path) -> Path:
    """An unmutated copy of ``src`` in ``tmp``, replacing any earlier one."""
    shutil.rmtree(tmp / "src", ignore_errors=True)
    shutil.copytree(ROOT / "src", tmp / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp / "src"


def _apply(mutant: Mutant, tmp: Path) -> None:
    """A fresh ``src`` in ``tmp`` with the mutant's one edit; raises unless the edit matches exactly once."""
    path = _fresh_src(tmp) / "pvcg" / mutant.path
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"edit matches {count} times in src/pvcg/{mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _pytest(tests: tuple, tmp: Path) -> int:
    """pytest's exit status for ``tests`` run in ``tmp`` against ``tmp/src``."""
    env = {**os.environ, "PYTHONPATH": str(tmp / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    return subprocess.run(command, cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    killed = bad = 0
    with tempfile.TemporaryDirectory(prefix="pvcg-mutants-") as tmp_name:
        tmp = Path(tmp_name)
        _copy_tree(tmp)
        _fresh_src(tmp)
        for tests in dict.fromkeys(m.tests for m in MUTANTS):
            status = _pytest(tests, tmp)
            if status != 0:
                print(f"ERROR control run of {' '.join(tests)} on the unmutated source (pytest exit status {status})")
                return 1
        for m in MUTANTS:
            start = time.perf_counter()
            try:
                _apply(m, tmp)
                status = _pytest(m.tests, tmp)
                verdict = {0: "SURVIVED", 1: "KILLED"}.get(status, f"ERROR (pytest exit status {status})")
            except ValueError as err:
                verdict = f"ERROR ({err})"
            killed += verdict == "KILLED"
            bad += verdict != "KILLED"
            print(f"{verdict} {m.name} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{killed} killed, {bad} survived or failed to run")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
