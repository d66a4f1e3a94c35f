"""Outside-in span tracing of pvcg, installed from the benchmark's own files.

The tracer rebinds a fixed list of pvcg functions to timing wrappers. pvcg's
modules import each other with ``from .x import y``, so a function is bound
under its name in several module namespaces; the tracer rebinds it in every
``pvcg.*`` namespace that holds the same object, and patches the two adjustment
``__call__`` methods and ``EconomyView.__init__`` on their classes. Nothing
under ``src/`` changes, and ``restore`` puts every original back.

Spans (label, start, end, parent, operation id) are kept in memory while an
operation runs and aggregated at the end: a span's self time is its duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# label -> (module, attribute); "Class.method" patches the method on the class.
TARGETS = {
    "EconomyView_init": ("pvcg.model", "EconomyView.__init__"),
    "social_surplus": ("pvcg.model", "social_surplus"),
    "analytic_waterfill": ("pvcg.allocation", "analytic_waterfill"),
    "optimize_acceptance": ("pvcg.allocation", "optimize_acceptance"),
    # the only place a projected-gradient solve is distinguishable from a water-fill
    "pg_solve": ("pvcg.allocation", "_projected_gradient"),
    "waterfill_surplus": ("pvcg.allocation", "waterfill_surplus"),
    "waterfill_gains": ("pvcg.allocation", "waterfill_gains"),
    "total_payment": ("pvcg.payments", "total_payment"),
    "vcg_tau": ("pvcg.payments", "vcg_tau"),
    "tau_for_producer": ("pvcg.payments", "tau_for_producer"),
    "analytic_adjustment": ("pvcg.adjustment", "analytic_adjustment"),
    "analytic_call": ("pvcg.adjustment", "AnalyticAdjustment.__call__"),
    "existence_check": ("pvcg.adjustment", "existence_check"),
    "marginal_gains_check": ("pvcg.adjustment", "marginal_gains_check"),
    "train": ("pvcg.learner", "train"),
    "learned_call": ("pvcg.learner", "LearnedAdjustment.__call__"),
    "save_model": ("pvcg.learner", "save_model"),
    "probe_dsic": ("pvcg.verification", "probe_dsic"),
    "check_ir": ("pvcg.verification", "check_ir"),
    "check_wbb": ("pvcg.verification", "check_wbb"),
    "check_surplus_monotonicity": ("pvcg.verification", "check_surplus_monotonicity"),
    "ir_wbb_sweep": ("pvcg.experiment", "ir_wbb_sweep"),
    "payment_surface": ("pvcg.experiment", "payment_surface"),
    "write_csv": ("pvcg.experiment", "write_csv"),
    "write_report": ("pvcg.experiment", "write_report"),
    "run_experiment": ("pvcg.experiment", "run_experiment"),
    "main": ("pvcg.cli", "main"),
}

ADJUSTMENT_KINDS = ("zero", "analytic", "learned")
OP = "op"  # the root span of one benchmark operation


def _adjustment_kind(adjustment) -> str:
    name = type(adjustment).__name__
    if adjustment is None or name == "ZeroAdjustment":
        return "zero"
    return {"AnalyticAdjustment": "analytic", "LearnedAdjustment": "learned"}[name]


def _pvcg_modules():
    return [m for name, m in list(sys.modules.items()) if name == "pvcg" or name.startswith("pvcg.")]


def wrapped_names() -> list[str]:
    """Every name in a pvcg namespace, or method of a pvcg class, bound to a wrapper."""
    found = []
    for mod in _pvcg_modules():
        for name, value in vars(mod).items():
            members = vars(value).items() if isinstance(value, type) else [("", value)]
            found += [f"{mod.__name__}.{name}{'.' if m else ''}{m}"
                      for m, v in members if getattr(v, "_bench_traced", False)]
    return found


class Tracer:
    """Wraps the TARGETS while installed; records spans only inside operations."""

    def __init__(self):
        self.labels = [OP] + list(TARGETS) + [f"total_payment.{k}" for k in ADJUSTMENT_KINDS]
        self._ids = {label: k for k, label in enumerate(self.labels)}
        self.spans: list = []
        self._stack: list[int] = []
        self._op_id = -1
        self._patched: list = []  # (holder, attribute, original)
        # counts read from return values at the traced boundaries
        self.counts = {"pg_iterations": 0, "pg_max_iter_hits": 0, "punished": 0,
                       "epochs": 0, "dsic_deviations": 0}

    # -- installing and restoring ---------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = _pvcg_modules()
        for label, (module_name, attr) in TARGETS.items():
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                holder = getattr(module, cls_name)
                original = holder.__dict__[method]
                self._patch(holder, method, original, self._wrap(label, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(label, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, holder, name, original, wrapper) -> None:
        setattr(holder, name, wrapper)
        self._patched.append((holder, name, original))

    def restore(self) -> None:
        """Put every original back, then verify that no wrapper is reachable."""
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()
        leftovers = wrapped_names()
        if leftovers:
            raise RuntimeError(f"traced wrappers left behind: {leftovers}")

    # -- spans --------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._stack = [-1]
        self._open(self._ids[OP])

    def end_op(self) -> None:
        self._close(time.perf_counter())
        self._op_id = -1

    def _open(self, label_id: int) -> None:
        self._stack.append(len(self.spans))
        self.spans.append((label_id, time.perf_counter(), 0.0, self._stack[-2], self._op_id))

    def _close(self, end: float) -> None:
        idx = self._stack.pop()
        label_id, start, _, parent, op_id = self.spans[idx]
        self.spans[idx] = (label_id, start, end, parent, op_id)

    def _wrap(self, label: str, fn):
        tracer = self
        label_id = self._ids[label]
        on_return = getattr(self, f"_on_{label}", None)

        def traced(*args, **kwargs):
            if tracer._op_id < 0:
                return fn(*args, **kwargs)
            lid = label_id
            if label == "total_payment":
                lid = tracer._ids["total_payment." + _adjustment_kind(kwargs.get("adjustment"))]
            tracer._open(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(time.perf_counter())
            if on_return is not None:
                on_return(kwargs, result)
            return result

        traced._bench_traced = True
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    def _on_pg_solve(self, kwargs, result) -> None:
        self.counts["pg_iterations"] += result.diag.iterations
        if result.diag.iterations >= kwargs.get("max_iter", 10_000):
            self.counts["pg_max_iter_hits"] += 1

    def _on_total_payment(self, kwargs, result) -> None:
        self.counts["punished"] += int(np.count_nonzero(result.punished))

    def _on_train(self, kwargs, result) -> None:
        self.counts["epochs"] += result[1].epochs_run

    def _on_probe_dsic(self, kwargs, result) -> None:
        self.counts["dsic_deviations"] += result.trials

    # -- aggregation ----------------------------------------------------------

    def op_durations(self) -> dict[int, float]:
        op = self._ids[OP]
        return {s[4]: s[2] - s[1] for s in self.spans if s[0] == op}

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per label: calls, total_s (summed durations) and self_s."""
        if not self.spans:
            return {label: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for label in self.labels}
        arr = np.array(self.spans, dtype=float)
        label = arr[:, 0].astype(np.int64)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        k = len(self.labels)
        calls = np.bincount(label, minlength=k)
        total = np.bincount(label, weights=dur, minlength=k)
        selfs = np.bincount(label, weights=self_time, minlength=k)
        stats = {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(selfs[i])}
            for i, name in enumerate(self.labels)
        }
        parts = [stats[f"total_payment.{kind}"] for kind in ADJUSTMENT_KINDS]
        stats["total_payment"] = {key: sum(p[key] for p in parts) for key in ("calls", "total_s", "self_s")}
        return stats

    def save(self, path) -> None:
        """Write the raw spans; labels are indices into ``labels``."""
        arr = np.array(self.spans, dtype=float).reshape(-1, 5)
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            label=arr[:, 0].astype(np.int32),
            start=arr[:, 1],
            end=arr[:, 2],
            parent=arr[:, 3].astype(np.int64),
            op=arr[:, 4].astype(np.int32),
        )
