"""pvcg benchmark: one workload per run, end-to-end metrics or traced per-layer metrics.

    python3 perfbench/run.py --workload pricing --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it is the provenance record, which is also written with the result under
perfbench/out/. ``--trace 0`` reports the end-to-end metrics of an untraced
run; ``--trace 1`` reports per-layer metrics from a traced run of a fixed
number of operations, plus the tracing overhead. See perfbench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads: the benchmark has a single caller
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import importlib
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracing import Tracer, wrapped_names
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
PVCG_MODULES = ("model", "allocation", "payments", "adjustment", "learner", "verification", "experiment", "cli")
SETUP_INTERVAL_S = 2.0  # measured seconds between two timed set-ups
MAX_REPORTED_FAILURES = 5

END_TO_END = {
    "op_p50_ref": "ref",
    "op_p90_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    # allocation
    "analytic_waterfill.calls": "count",
    "analytic_waterfill.self_s": "s",
    "analytic_waterfill.mean_us": "us",
    "optimize_acceptance.calls": "count",
    "optimize_acceptance.self_s": "s",
    "solves_per_op": "count",
    "waterfill_gains.calls": "count",
    "waterfill_gains.self_s": "s",
    "waterfill_gains.mean_us": "us",
    "waterfill_surplus.calls": "count",
    "waterfill_surplus.self_s": "s",
    "pg_solves": "count",
    "pg_iterations": "count",
    "pg_max_iter_hits": "count",
    "pg_mean_ms": "ms",
    # model
    "social_surplus.calls": "count",
    "social_surplus.self_s": "s",
    "EconomyView_init.calls": "count",
    "EconomyView_init.self_s": "s",
    # payments
    "total_payment.calls": "count",
    "total_payment.self_s": "s",
    "total_payment.mean_ms": "ms",
    "total_payment_zero.mean_ms": "ms",
    "total_payment_analytic.mean_ms": "ms",
    "total_payment_learned.mean_ms": "ms",
    "vcg_tau.self_s": "s",
    "tau_for_producer.calls": "count",
    "tau_for_producer.self_s": "s",
    "punished": "count",
    # adjustment
    "analytic_adjustment.calls": "count",
    "analytic_adjustment.self_s": "s",
    "existence_check.total_s": "s",
    "marginal_gains_check.total_s": "s",
    # learner
    "train.total_s": "s",
    "train.self_s": "s",
    "epochs": "count",
    "epoch_mean_ms": "ms",
    "train_self_per_epoch_ms": "ms",
    "learned_call.calls": "count",
    "learned_call.self_s": "s",
    "save_model.total_s": "s",
    # verification
    "probe_dsic.total_s": "s",
    "probe_dsic.self_s": "s",
    "dsic_deviation_mean_ms": "ms",
    "check_ir.self_s": "s",
    "check_wbb.self_s": "s",
    "check_surplus_monotonicity.total_s": "s",
    # experiment
    "ir_wbb_sweep.total_s": "s",
    "ir_wbb_sweep.self_s": "s",
    "payment_surface.total_s": "s",
    "write_csv.total_s": "s",
    "write_report.total_s": "s",
    "bytes_written": "B",
    # cli
    "main.self_s": "s",
    # the traced run itself
    "traced_ops": "count",
    "spans": "count",
    "trace_overhead_s": "s",
    "trace_overhead_pct": "%",
}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def import_pvcg() -> SimpleNamespace:
    """Import pvcg afresh from this checkout's src/ and return its modules."""
    for name in [n for n in sys.modules if n == "pvcg" or n.startswith("pvcg.")]:
        del sys.modules[name]
    package = importlib.import_module("pvcg")
    if Path(package.__file__).resolve().parent != (SRC / "pvcg").resolve():
        raise RuntimeError(f"imported pvcg from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"pvcg.{m}") for m in PVCG_MODULES})


def set_up(name: str, seed: int, smoke: bool):
    """Import pvcg afresh and build the workload; return it with the time taken."""
    started = time.perf_counter()
    workload = WORKLOADS[name](import_pvcg(), seed, ROOT, smoke=smoke)
    return workload, time.perf_counter() - started


def time_set_up(name: str, seed: int, smoke: bool) -> float:
    """Time one more set-up, then put the running workload's pvcg modules back."""
    running = {k: v for k, v in sys.modules.items() if k == "pvcg" or k.startswith("pvcg.")}
    workload, elapsed = set_up(name, seed, smoke)
    workload.close()
    sys.modules.update(running)
    return elapsed


# ---------------------------------------------------------------------------
# the reference kernel
# ---------------------------------------------------------------------------

_REFERENCE_INPUTS = [np.random.default_rng(20071478).uniform(size=10) for _ in range(32)]


def reference_s() -> float:
    """Time one pass of a fixed kernel with pvcg's instruction mix.

    Small-array numpy calls inside Python loops, as in the water-fill and the
    payment code. The host this benchmark was tuned on changes speed by up to
    2x within seconds; the kernel, timed after every operation, slows with it,
    and operation times divided by it do not.
    """
    started = time.perf_counter()
    acc = 0.0
    for values in _REFERENCE_INPUTS:
        order = np.argsort(values, kind="stable")
        ranked = values[order]
        before = np.concatenate(([0.0], np.cumsum(ranked)[:-1]))
        acc += float(np.clip(1.0 - before, 0.0, ranked).sum())
        acc += sum(float(v) for v in values[:4]) + len({"order": order, "ranked": ranked})
    if not math.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite value")
    return time.perf_counter() - started


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Loop:
    """Runs operations one after another and checks each output outside the timing."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.failures: list = []

    def run_one(self, k: int, inp, tracer: Tracer | None = None) -> float:
        if tracer is not None:
            tracer.begin_op(k)
        started = time.perf_counter()
        try:
            out = self.workload.call(inp)
            error = None
        except Exception:  # a failed operation is counted, not fatal
            out, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.end_op()
        self.latencies.append(elapsed)
        try:
            problems = [error] if error else self.workload.check(inp, out)
        except Exception:  # output the check cannot read is a failed operation too
            problems = [traceback.format_exc()]
        if problems:
            self.failures.append({"op": k, "problems": problems})
            if len(self.failures) <= MAX_REPORTED_FAILURES:
                print(f"operation {k} failed: {problems}", file=sys.stderr)
        return elapsed


def measure(workload, seconds: float, set_ups: list[float], set_up_again) -> tuple[Loop, list[float]]:
    """Untraced: run whole cycles of operations until ``seconds`` of them are measured.

    The reference kernel is timed before the first operation and after each
    one. Every SETUP_INTERVAL_S measured seconds, between operations, one more
    set-up is timed into ``set_ups``; spreading them over the run exposes them
    to the same changes in machine speed as the operations.
    """
    loop = Loop(workload)
    references = [reference_s()]
    measured, k = 0.0, 0
    next_set_up = SETUP_INTERVAL_S
    while measured < seconds or k % workload.cycle:
        measured += loop.run_one(k, workload.next_input(k))
        references.append(reference_s())
        k += 1
        if measured >= next_set_up:
            set_ups.append(set_up_again())
            next_set_up += SETUP_INTERVAL_S
    return loop, references


def trace(workload, seconds: float) -> tuple[Loop, Tracer, dict]:
    """Traced: a fixed number of operations, then the first half again untraced."""
    count = workload.cycle * math.ceil(workload.trace_rate * seconds / workload.cycle)
    loop = Loop(workload)
    tracer = Tracer()
    inputs = []
    tracer.install()
    try:
        for k in range(count):
            inp = workload.next_input(k)
            if k < (count + 1) // 2:
                inputs.append(inp)
            loop.run_one(k, inp, tracer)
    finally:
        tracer.restore()
    traced = tracer.op_durations()
    untraced = sum(loop.run_one(k, inp) for k, inp in enumerate(inputs))
    traced_s = sum(traced[k] for k in range(len(inputs)))
    overhead = {"traced_ops": count, "overhead_s": traced_s - untraced,
                "overhead_pct": 100.0 * (traced_s - untraced) / untraced}
    return loop, tracer, overhead


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def relative_latencies(loop: Loop, references: list[float]) -> np.ndarray:
    """Each operation's time over the mean reference time just before and after it."""
    ref = np.array(references)
    return np.array(loop.latencies) / (0.5 * (ref[:-1] + ref[1:]))


def end_to_end(loop: Loop, references: list[float], set_ups: list[float]) -> dict:
    rel = relative_latencies(loop, references)
    return {
        "op_p50_ref": float(np.percentile(rel, 50)),
        "op_p90_ref": float(np.percentile(rel, 90)),
        "setup_s": statistics.median(set_ups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Tracer, overhead: dict, bytes_written: int) -> dict:
    stats = tracer.aggregate()
    counts = tracer.counts

    def mean(label: str, scale: float) -> float:
        calls = stats[label]["calls"]
        return scale * stats[label]["total_s"] / calls if calls else 0.0

    values = {}
    for key in PER_LAYER:
        label, _, stat = key.rpartition(".")
        if label in stats and stat in ("calls", "self_s", "total_s"):
            values[key] = stats[label][stat]
        elif label in stats and stat.startswith("mean_"):
            values[key] = mean(label, {"mean_us": 1e6, "mean_ms": 1e3}[stat])
    for kind in ("zero", "analytic", "learned"):
        values[f"total_payment_{kind}.mean_ms"] = mean(f"total_payment.{kind}", 1e3)
    epochs = counts["epochs"]
    values.update(
        solves_per_op=(stats["optimize_acceptance"]["calls"] + stats["waterfill_surplus"]["calls"])
        / overhead["traced_ops"],
        pg_solves=stats["pg_solve"]["calls"],
        pg_iterations=counts["pg_iterations"],
        pg_max_iter_hits=counts["pg_max_iter_hits"],
        pg_mean_ms=mean("pg_solve", 1e3),
        punished=counts["punished"],
        epochs=epochs,
        epoch_mean_ms=1e3 * stats["train"]["total_s"] / epochs if epochs else 0.0,
        train_self_per_epoch_ms=1e3 * stats["train"]["self_s"] / epochs if epochs else 0.0,
        dsic_deviation_mean_ms=(
            1e3 * stats["probe_dsic"]["total_s"] / counts["dsic_deviations"]
            if counts["dsic_deviations"] else 0.0
        ),
        bytes_written=bytes_written,
        traced_ops=overhead["traced_ops"],
        spans=len(tracer.spans),
        trace_overhead_s=overhead["overhead_s"],
        trace_overhead_pct=overhead["overhead_pct"],
    )
    if values.keys() != PER_LAYER.keys():
        raise RuntimeError(f"per-layer metrics out of sync: {sorted(values.keys() ^ PER_LAYER.keys())}")
    return values


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _blas_threads():
    """Threads the bundled OpenBLAS will use, or the pinned variable if it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*.so"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        fn = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return fn()
    return os.environ["OPENBLAS_NUM_THREADS"]


def _git_commit():
    """The checkout's commit when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, loop: Loop, references: list[float]) -> dict:
    """Where and how the result was measured, plus the raw wall-clock figures."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    ms = np.array(loop.latencies) * 1e3
    p50, p90, p99 = np.percentile(ms, [50, 90, 99])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": len(ms),
        "error_rate": len(loop.failures) / len(ms),
        "op_p50_ms": float(p50),
        "op_p90_ms": float(p90),
        "op_p99_ms": float(p99),
        "ops_per_s": len(ms) / (ms.sum() / 1e3),
        "reference_ms": 1e3 * statistics.median(references) if references else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run(args, smoke: bool = False) -> tuple[dict, dict]:
    workload, first_set_up = set_up(args.workload, args.seed, smoke)
    try:
        references = []
        if args.trace:
            loop, tracer, overhead = trace(workload, args.seconds)
            tracer.save(OUT / f"spans-{args.workload}.npz")
            metrics, units = per_layer(tracer, overhead, getattr(workload, "bytes_written", 0)), PER_LAYER
        else:
            set_ups = [first_set_up]
            loop, references = measure(workload, args.seconds, set_ups,
                                       lambda: time_set_up(args.workload, args.seed, smoke))
            metrics, units = end_to_end(loop, references, set_ups), END_TO_END
    finally:
        workload.close()
    result = {
        "correct": not loop.failures,
        "attempted": len(loop.latencies),
        "failed": len(loop.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return provenance(args, loop, references), result


def smoke() -> int:
    """Every workload at a tiny size, untraced and traced, against BENCHMARK.json."""
    spec = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    declared = {w["name"] for w in spec["workloads"]}
    if declared != set(WORKLOADS):
        raise AssertionError(f"BENCHMARK.json workloads {sorted(declared)} != {sorted(WORKLOADS)}")
    for name in WORKLOADS:
        for flag in (0, 1):
            args = SimpleNamespace(workload=name, seed=0, seconds=0.2, trace=flag)
            _, result = run(args, smoke=True)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != expected[flag]:
                raise AssertionError(f"{name} trace={flag}: metrics {emitted} != {expected[flag]}")
            if not result["correct"] or result["attempted"] < 1:
                raise AssertionError(f"{name} trace={flag}: {result}")
            if flag and wrapped_names():
                raise AssertionError(f"still wrapped after the traced run: {wrapped_names()}")
            print(f"smoke {name} trace={flag}: ok, {result['attempted']} operations")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload, then exit")
    args = parser.parse_args(argv)
    if not (SRC / "pvcg" / "__init__.py").is_file():
        sys.exit(f"no pvcg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    record, result = run(args)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": record, "result": result}, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
