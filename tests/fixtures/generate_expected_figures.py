"""Regenerate ``expected_figures_quick.json``, the figure parity fixture.

The fixture pins the exact output of every registered figure harness at the
quick experiment configuration.  It was first generated from the
pre-registry harnesses (the hand-rolled ``campaign.single_core(...)``
loops), so the registry parity suite in ``tests/test_experiment_specs.py``
proves the spec-driven refactor is bit-identical to the original code.

Only regenerate after an *intentional* simulator behaviour change (the same
kind of change that bumps ``CACHE_SCHEMA_VERSION``)::

    PYTHONPATH=src python tests/fixtures/generate_expected_figures.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.experiments.common import CampaignCache, quick_experiment_config
from repro.experiments.spec import registered_experiments, run_experiment

FIXTURE_PATH = Path(__file__).resolve().parent / "expected_figures_quick.json"

#: The bandwidth points pinned for Figure 16 (two points keep the fixture
#: generation fast; the sweep machinery is identical at every point).
FIG16_BANDWIDTHS = (1.6, 6.4)


def json_ready(result) -> dict:
    """Dataclass result -> the canonical JSON payload stored in the fixture.

    A JSON round trip normalises non-string dict keys (Figure 16 keys rows
    by float bandwidth) exactly the way the parity tests re-normalise the
    spec-driven outputs, and float values survive it bit-exactly.
    """
    return json.loads(json.dumps(dataclasses.asdict(result), sort_keys=True))


def generate() -> dict:
    """Run every figure at the quick configuration and collect the outputs."""
    cache = CampaignCache(quick_experiment_config(), use_result_cache=False)
    return {
        name: json_ready(
            run_experiment(
                name,
                cache=cache,
                **({"bandwidths": FIG16_BANDWIDTHS} if name == "fig16" else {}),
            )
        )
        for name in registered_experiments()
    }


def main() -> int:
    payload = generate()
    FIXTURE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH} ({len(payload)} figures)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
