"""Hermes: the state-of-the-art off-chip predictor the paper compares against.

Hermes (Bera et al., MICRO 2022) attaches a hashed perceptron to the core
and, when the weight sum of the Table I features reaches its activation
threshold of 2, fires a speculative DRAM request in parallel with the cache
access.  That is FLP without selective delay: ``FirstLevelPerceptron(
selective_delay=False)`` fires an immediate request on ``confidence >=
tau_low = 2`` with the same features, tables and training.  The ``hermes``,
``hermes_ppf`` and ``hermes_7kb`` schemes build that configuration in
:data:`repro.sim.scenarios.SCHEME_COMPONENTS`; this builder names it.
"""

from __future__ import annotations

from repro.core.flp import FirstLevelPerceptron


def HermesPredictor() -> FirstLevelPerceptron:
    """Hermes: FLP firing every positive prediction immediately."""
    return FirstLevelPerceptron(selective_delay=False)
