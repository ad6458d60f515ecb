"""Two Level Perceptron (TLP) -- Section IV-C of the paper.

TLP is the combination of FLP (off-chip prediction with selective delay,
attached to the core) and SLP (off-chip prediction driving L1D prefetch
filtering, attached to the L1D).  The two predictors are connected: SLP's
leveling feature consumes the FLP prediction bit of the demand access from
which each prefetch originates.

:data:`repro.sim.scenarios.SCHEME_COMPONENTS` builds the ``tlp`` scheme;
the class below bundles the pair at the paper's configuration so that the
storage accounting of Table II can be computed from an instance.
"""

from __future__ import annotations

from repro.core.flp import FirstLevelPerceptron
from repro.core.slp import SecondLevelPerceptron


class TwoLevelPerceptron:
    """The complete TLP predictor: FLP + SLP at the paper's configuration
    (5-bit weights, the Table I features, selective delay and leveling)."""

    def __init__(self) -> None:
        self.flp = FirstLevelPerceptron()
        self.slp = SecondLevelPerceptron()
