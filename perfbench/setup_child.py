"""Set-up step of the benchmark, run in a fresh interpreter.

Imports ``repro.api`` and generates one workload's seeded traces into an
empty trace store, then prints one JSON line with the import and generation
times and the trace digests.  ``run.py`` times the whole process.

Usage: ``python3 perfbench/setup_child.py <workload> <seed> <scale> <store dir>``
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro.api  # noqa: E402,F401

imported = time.perf_counter()

from perfbench.workloads import build_workloads, populate_store  # noqa: E402


def main() -> None:
    name, seed, scale, store_dir = sys.argv[1:5]
    workload = build_workloads(float(scale))[name]
    digests = populate_store(workload, Path(store_dir), int(seed))
    done = time.perf_counter()
    print(json.dumps({
        "import_s": imported - start,
        "generate_s": done - imported,
        "digests": digests,
    }))


if __name__ == "__main__":
    main()
