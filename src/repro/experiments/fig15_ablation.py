"""Figure 15: performance contribution of each TLP component.

The paper decomposes TLP into six designs (FLP, SLP, TSP, Delayed TSP,
Selective TSP, TLP) and shows that each added mechanism compounds the
multi-core speedup.  This module runs the same six designs on the
multi-core mixes and reports their normalised weighted speedups;
``SPEC.claims`` are the checked claims.

The ``flp`` design is FLP without selective delay, which is Hermes: the
``flp`` and ``hermes`` schemes build the same predictor, field for field
(:data:`repro.sim.scenarios.SCHEME_COMPONENTS`).  So the first bar is
Hermes, and the claim ``tlp >= flp - 2`` is a claim against Hermes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import ExperimentConfig, compare_mixes, format_rows
from repro.experiments.spec import (
    Claim,
    ExperimentSpec,
    MultiCoreSweep,
    SweepResults,
    SweepSpec,
    ref,
    register,
)

#: The six designs in the order the paper plots them.
ABLATION_ORDER = ("flp", "slp", "tsp", "delayed_tsp", "selective_tsp", "tlp")


@dataclass
class Figure15Result:
    """Normalised weighted speedups of the six ablation designs."""

    per_mix: dict[str, dict[str, float]] = field(default_factory=dict)
    geomean: dict[str, float] = field(default_factory=dict)


def sweep(config: ExperimentConfig, l1d_prefetcher: str = "ipcp") -> SweepSpec:
    """Every mix under the baseline plus the six ablation designs."""
    return SweepSpec(
        multi_core=(
            MultiCoreSweep(
                schemes=("baseline",) + ABLATION_ORDER,
                l1d_prefetchers=(l1d_prefetcher,),
            ),
        )
    )


def reduce(
    config: ExperimentConfig, results: SweepResults, l1d_prefetcher: str = "ipcp"
) -> Figure15Result:
    """Fold the ablation campaign into normalised weighted speedups."""
    comparison = compare_mixes(config, results, ABLATION_ORDER, l1d_prefetcher)
    result = Figure15Result(geomean=comparison.geomean_speedup)
    for scheme, by_mix in comparison.speedups.items():
        for mix_name, speedup in by_mix.items():
            result.per_mix.setdefault(mix_name, {})[scheme] = speedup
    return result


def format_table(result: Figure15Result) -> str:
    """Render the geomean speedup of each ablation design."""
    rows = [[scheme, result.geomean.get(scheme, 0.0)] for scheme in ABLATION_ORDER]
    return format_rows(["design", "geomean weighted speedup (%)"], rows)


SPEC = register(
    ExperimentSpec(
        name="fig15",
        title="Figure 15: contribution of each TLP component (multi-core, IPCP)",
        build_sweep=sweep,
        reduce=reduce,
        format_table=format_table,
        claims=tuple(
            Claim(ref("geomean", "tlp"), ">=", ref("geomean", design, offset=-2.0))
            for design in ("flp", "tsp")
        ),
    )
)

