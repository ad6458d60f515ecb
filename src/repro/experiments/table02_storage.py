"""Table II: storage overhead of TLP.

The paper's headline hardware-cost claim is that TLP needs ~7KB of storage
per core (``SPEC.claims``).  This module recomputes the breakdown from
the implemented predictor configuration (weight tables, page buffers, Load
Queue and L1D MSHR metadata) rather than hard-coding the paper's numbers.
Its sweep is empty -- the registry still carries it so ``repro figure all``
reproduces every table of the paper, not just the simulated ones.
"""

from __future__ import annotations

from typing import Optional

from repro.core.storage import StorageBreakdown, tlp_storage_breakdown
from repro.core.tlp import TLPConfig, TwoLevelPerceptron
from repro.experiments.common import ExperimentConfig, format_rows
from repro.experiments.spec import (
    Claim,
    ExperimentSpec,
    SweepResults,
    SweepSpec,
    ref,
    register,
)


def sweep(
    config: ExperimentConfig, tlp_config: Optional[TLPConfig] = None
) -> SweepSpec:
    """Table II simulates nothing: the sweep is empty."""
    return SweepSpec()


def reduce(
    config: ExperimentConfig,
    results: SweepResults,
    tlp_config: Optional[TLPConfig] = None,
) -> StorageBreakdown:
    """Compute the storage breakdown of a (default) TLP instance."""
    tlp = TwoLevelPerceptron(tlp_config if tlp_config is not None else TLPConfig())
    return tlp_storage_breakdown(tlp)


def format_table(result: StorageBreakdown) -> str:
    """Render the Table II rows."""
    rows = [[component, kib] for component, kib in result.as_table()]
    return format_rows(["component", "KiB"], rows)


SPEC = register(
    ExperimentSpec(
        name="table02",
        title="Table II: TLP storage overhead",
        build_sweep=sweep,
        reduce=reduce,
        format_table=format_table,
        claims=(
            Claim(5.0, "<", ref("total"), "<", 9.0),
            Claim(2.5, "<", ref("flp_total"), "<", 4.5),
            Claim(2.5, "<", ref("slp_total"), "<", 4.7),
            Claim(ref("load_queue_metadata"), "<", 1.0),
        ),
    )
)

