"""tvroad benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload pipeline --seed 7 --seconds 30 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory and nowhere else.  With ``--trace 0`` the run reports the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` it
reports the per-layer metrics from a traced run instead.  Either way the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every operation's output is
checked, and a failed check counts the operation's units as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("pipeline", "batch-cli")
# One caller on a few shared cores: BLAS helper threads would compete with
# it for them, so the library runs single-threaded, as it does everywhere
# except inside numpy's linear algebra.
SINGLE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_library():
    """Import tvroad from this checkout's ``src/``; exit nonzero if absent."""
    if not (SRC / "tvroad" / "__init__.py").is_file():
        sys.exit(f"bench: no tvroad package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tvroad

    if Path(tvroad.__file__).resolve().parent != SRC / "tvroad":
        sys.exit(f"bench: tvroad imported from {tvroad.__file__}, not from {SRC}")
    return tvroad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    for var in SINGLE_THREAD:
        os.environ[var] = "1"
    import_library()
    import numpy

    import harness

    result, times = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
        "op_seconds": [round(t, 4) for t in times],
    }))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
