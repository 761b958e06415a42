"""Run one benchmark workload against the modleak sources in ../src.

    python3 perfbench/run.py --workload table1-paper --seed 1 --seconds 20 --trace 0

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics setup_s, items_per_s and peak_rss_mb; with --trace 1 it holds the
per-layer metrics.  Exits with 2 and prints no result when ../src/modleak
is missing.  See README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one modleak benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "modleak" / "__init__.py").is_file():
        print(f"error: no modleak sources under {SRC}", file=sys.stderr)
        return 2

    # One OpenBLAS/OpenMP thread for this process and the CLI processes it
    # starts, set before numpy loads: on the 2-core machine a second BLAS
    # thread only adds contention with the neighbours' load to every timing.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(SRC))

    import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
