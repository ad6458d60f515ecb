"""The data layer loads without the simulator.

Describing, compiling and caching points, and parsing the CLI, import no
simulator component, nor the process pool's modules; the simulator loads on
the first simulated point, the pool when a run opens one.  Importing the
package also starts no BLAS worker threads, unless the environment asks.
Each check runs in a fresh interpreter, where ``sys.modules`` shows exactly
what an entry point imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.common.names import L1D_PREFETCHER_NAMES, SCHEMES

SRC = Path(__file__).resolve().parent.parent / "src"

#: Module prefixes of the simulator layer.
SIMULATOR_PREFIXES = (
    "repro.sim.batch",
    "repro.sim.native",
    "repro.memory.",
    "repro.cpu.",
    "repro.predictors.",
    "repro.prefetchers.",
    "repro.core.",
)

#: The process pool's modules and ``uuid``: the data layer opens no pool
#: and names its temporary files without ``uuid``.
POOL_MODULES = ("concurrent.futures", "multiprocessing", "uuid")

#: Prints the simulator and pool modules loaded so far, as one JSON line.
LOADED = (
    "import json, sys\n"
    f"prefixes = {SIMULATOR_PREFIXES!r}\n"
    f"pool = {POOL_MODULES!r}\n"
    "def loaded():\n"
    "    print(json.dumps(sorted(m for m in sys.modules\n"
    "                            if m.startswith(prefixes) or m in pool)))\n"
)


def run_python(script: str, *args: str, env: dict | None = None) -> list[list]:
    """Run ``script`` in a fresh interpreter, in ``env`` (by default this
    process's environment); its JSON lines, parsed."""
    env = {**(os.environ if env is None else env), "PYTHONPATH": str(SRC)}
    process = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert process.returncode == 0, process.stderr
    return [
        json.loads(line) for line in process.stdout.splitlines()
        if line.startswith("[")
    ]


def test_api_import_loads_no_simulator_until_a_point_runs():
    before, after = run_python(
        LOADED
        + "from repro import api\n"
        "loaded()\n"
        "api.simulate_point('spec.mcf_like', 'tlp', memory_accesses=400)\n"
        "loaded()\n"
    )
    assert before == []
    for prefix in SIMULATOR_PREFIXES:
        assert any(name.startswith(prefix) for name in after), prefix


def test_cli_help_loads_no_simulator():
    (loaded,) = run_python(
        LOADED
        + "import contextlib, io, runpy\n"
        "sys.argv = ['repro', '--help']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('repro.cli', run_name='__main__')\n"
        "    except SystemExit as done:\n"
        "        assert not done.code, done.code\n"
        "loaded()\n"
    )
    assert loaded == []


def test_plain_names_match_the_components():
    from repro.sim import scenarios

    assert scenarios.SCHEMES is SCHEMES
    assert tuple(scenarios.SCHEME_COMPONENTS) == SCHEMES
    assert tuple(scenarios.L1D_PREFETCHERS) == L1D_PREFETCHER_NAMES
    assert tuple(scenarios.PREFETCHER_7KB_SIZES) == L1D_PREFETCHER_NAMES


#: Prints ``OPENBLAS_NUM_THREADS`` and the process's thread count (None where
#: ``/proc`` has no task list) after the package and numpy load, in that
#: order, as one JSON line.
BLAS_THREADS = (
    "import json, os\n"
    "import repro.api\n"
    "import numpy\n"
    "task = '/proc/self/task'\n"
    "threads = len(os.listdir(task)) if os.path.isdir(task) else None\n"
    "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), threads]))\n"
)


def test_numpy_starts_no_blas_threads_by_default():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    ((value, threads),) = run_python(BLAS_THREADS, env=env)
    assert value == "1"
    if sys.platform.startswith("linux"):
        assert threads == 1


def test_a_preset_blas_thread_count_wins():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    ((value, _),) = run_python(BLAS_THREADS, env=env)
    assert value == "2"


#: Imports the repository benchmark's modules, then prints, as one JSON
#: line, why each ablation-ladder rung (built as the benchmark builds it)
#: cannot run in the kernel: None for every rung that can.
BENCHMARK_RUNGS = (
    "import json, sys\n"
    f"sys.path.insert(0, {str(SRC.parent)!r})\n"
    "import perfbench.layers, perfbench.checks, perfbench.workloads\n"
    "from dataclasses import replace\n"
    "from repro import api\n"
    "layers = perfbench.layers\n"
    "system = replace(api.cascade_lake_single_core(), sim_core='batch')\n"
    "print(json.dumps([\n"
    "    [rung, layers.batch_unsupported_reason(layers._rung(rung, system))]\n"
    "    for rung in layers.RUNGS\n"
    "]))\n"
)


def test_benchmark_imports_and_its_hierarchies_run_in_the_kernel():
    """A change that breaks what the benchmark imports or builds
    (``HermesPredictor()``, ``PerceptronPrefetchFilter()``, TLP's FLP and
    SLP) fails here, not only in the benchmark's own self-test."""
    (reasons,) = run_python(BENCHMARK_RUNGS)
    rungs = [rung for rung, _ in reasons]
    assert {"hermes", "flp", "slp", "ppf"} <= set(rungs)
    assert reasons == [[rung, None] for rung in rungs]
