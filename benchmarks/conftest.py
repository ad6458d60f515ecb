"""Benchmark harness configuration.

Each ``bench_*`` file regenerates one table or figure of the paper at the
default experiment configuration, through the figure registry
(``run_experiment``).  All files share one session-scoped
:class:`~repro.experiments.common.CampaignCache`, so a (workload, scheme,
prefetcher) simulation is only run once per ``pytest benchmarks/``
invocation: the single-core campaign behind Figures 10-12 is simulated once
and reused by the motivation figures (1, 2, 4, 5, 6).
"""

import pytest

from repro.experiments.common import CampaignCache


@pytest.fixture(scope="session")
def campaign():
    """The shared campaign cache used by every benchmark."""
    return CampaignCache()


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
