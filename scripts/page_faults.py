#!/usr/bin/env python3
"""Wall time and minor page faults of repeated ``pvcg run`` calls in one process.

    python3 scripts/page_faults.py --config configs/flagship.json --runs 5

Each run is ``pvcg run --config CONFIG`` into a fresh temporary directory,
called in-process like perfbench's flagship workload, with BLAS pinned to one
thread as perfbench pins it. A minor fault is a page the process touches for
the first time since the OS mapped it; memory that the allocator hands back to
the OS and the program then allocates again faults in again, page by page.
The first run also pays for imports and first-time set-up; later runs show the
steady state. Prints one line per run with its exit code; ``pvcg run`` exits 1
when a probe fails, which is a result of the run, not an error of this script.
"""

import argparse
import contextlib
import io
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pvcg.cli import main as pvcg_main  # noqa: E402


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, required=True, help="experiment config JSON")
    parser.add_argument("--runs", type=int, default=5, help="number of runs (default 5)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    for k in range(1, args.runs + 1):
        with tempfile.TemporaryDirectory(prefix="pvcg-run-") as out:
            faults, started = minor_faults(), time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = pvcg_main(["run", "--config", str(args.config), "--out", out])
            wall, faults = time.perf_counter() - started, minor_faults() - faults
        print(f"run {k}: {wall:.3f} s wall, {faults} minor faults, exit {code}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
