"""stilab benchmark: run one workload and print its metrics.

Usage, from the root of a stilab checkout:

    python3 perfbench/run.py --workload pipeline-default --seed 1 --seconds 15 --trace 0

The process pins the BLAS/OpenMP thread counts before numpy loads, imports
``stilab.cli`` from the checkout's ``src`` directory (timing the import),
runs the workload's set-up and measured passes in-process, checks the
outputs, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps the program's public functions and
reports per-layer metrics instead. The line before it holds the environment,
sample counts, eval quality and artifact digests. See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The keys of workloads.WORKLOADS, which cannot be imported before the
# thread variables are set.
WORKLOAD_NAMES = ("pipeline-default", "saliency-burst", "train-large")
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
# One BLAS thread was the steadier setting in the sizing runs; it is also at
# most nproc on any machine.
BLAS_THREADS = "1"
# Fresh interpreters timing the import, besides the benchmark's own process.
IMPORT_PROBES = 12
PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import stilab.cli; print(time.perf_counter() - start)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def probe_import(src: Path) -> float:
    """Time ``import stilab.cli`` in a fresh interpreter, as a CLI user pays it."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(src)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "stilab" / "cli.py").is_file():
        print(f"run.py: no stilab sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    for name in THREAD_VARIABLES:
        os.environ[name] = BLAS_THREADS
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    import stilab.cli  # noqa: F401 - timed: every CLI invocation pays this import
    import_s = time.perf_counter() - start
    if not Path(stilab.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"run.py: stilab was imported from {stilab.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    from workloads import run_session

    import_times = [import_s]

    def probe_between_passes():
        for _ in range(3):
            if len(import_times) <= IMPORT_PROBES:
                import_times.append(probe_import(src))

    result = run_session(
        args.workload, args.seed, args.seconds, bool(args.trace), root / ".perfbench_work",
        between_passes=probe_between_passes,
    )
    info = result.pop("info")
    info["environment"] = environment()
    # Printed, not bounded: see "Quality and import time" in NOTES.md.
    info["import_s"] = {"value": statistics.median(import_times), "unit": "s",
                        "samples": import_times}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
