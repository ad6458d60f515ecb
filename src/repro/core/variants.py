"""Ablation variants of TLP evaluated in Figure 15 of the paper.

The paper decomposes TLP's benefit into the contribution of each mechanism by
evaluating six designs:

* ``FLP``          -- just the first-level predictor, *without* selective
                      delay (it behaves like Hermes with FLP's thresholds);
* ``SLP``          -- just the second-level prefetch filter (no off-chip
                      prediction for demand loads, and no leveling feature
                      since there is no FLP to provide it);
* ``TSP``          -- FLP without selective delay + SLP without the leveling
                      feature ("Two-Step Predictor");
* ``Delayed TSP``  -- TSP, but FLP predictions are *always* delayed until the
                      L1D lookup resolves;
* ``Selective TSP``-- TSP with the selective delay mechanism;
* ``TLP``          -- Selective TSP + the leveling feature (the full design).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.flp import FirstLevelPerceptron
from repro.core.slp import SecondLevelPerceptron
from repro.predictors.base import OffChipPredictor


@dataclass
class AblationVariant:
    """One point of the Figure 15 ablation.

    Attributes:
        name: the label used in the figure.
        offchip_predictor: predictor attached to the core (None = baseline).
        l1d_prefetch_filter: filter attached to the L1D (None = no filtering).
    """

    name: str
    offchip_predictor: Optional[OffChipPredictor]
    l1d_prefetch_filter: Optional[SecondLevelPerceptron]


#: Names of the six designs, in the order the paper plots them.
ABLATION_VARIANTS = (
    "flp",
    "slp",
    "tsp",
    "delayed_tsp",
    "selective_tsp",
    "tlp",
)


def build_ablation_variant(name: str) -> AblationVariant:
    """Instantiate one of the Figure 15 designs by name, at FLP's and SLP's
    default thresholds."""
    normalized = name.lower()
    if normalized not in ABLATION_VARIANTS:
        raise ValueError(
            f"unknown ablation variant {name!r}; choose from {ABLATION_VARIANTS}"
        )

    def flp(selective: bool) -> FirstLevelPerceptron:
        return FirstLevelPerceptron(selective_delay=selective)

    def slp(leveling: bool) -> SecondLevelPerceptron:
        return SecondLevelPerceptron(use_leveling_feature=leveling)

    if normalized == "flp":
        # FLP without selective delay, no prefetch filtering.
        return AblationVariant("flp", flp(selective=False), None)
    if normalized == "slp":
        # Prefetch filtering only; no off-chip prediction for demand loads.
        return AblationVariant("slp", None, slp(leveling=False))
    if normalized == "tsp":
        return AblationVariant("tsp", flp(selective=False), slp(leveling=False))
    if normalized == "delayed_tsp":
        # No immediate threshold: every positive prediction waits for the
        # L1D lookup.
        predictor = FirstLevelPerceptron(tau_high=math.inf, selective_delay=True)
        return AblationVariant("delayed_tsp", predictor, slp(leveling=False))
    if normalized == "selective_tsp":
        return AblationVariant("selective_tsp", flp(selective=True), slp(leveling=False))
    # Full TLP.
    return AblationVariant("tlp", flp(selective=True), slp(leveling=True))
