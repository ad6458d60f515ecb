"""Table II: storage overhead of TLP.

The paper's headline hardware-cost claim is that TLP needs ~7KB of storage
per core (``SPEC.claims``).  This module recomputes the breakdown from
the implemented predictor configuration (weight tables, page buffers, Load
Queue and L1D MSHR metadata) rather than hard-coding the paper's numbers.
Its sweep is empty -- the registry still carries it so ``repro figure all``
reproduces every table of the paper, not just the simulated ones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.experiments.common import ExperimentConfig, format_rows
from repro.experiments.spec import (
    Claim,
    ExperimentSpec,
    SweepResults,
    SweepSpec,
    ref,
    register,
)

if TYPE_CHECKING:
    from repro.core.storage import StorageBreakdown


def sweep(config: ExperimentConfig) -> SweepSpec:
    """Table II simulates nothing: the sweep is empty."""
    return SweepSpec()


def reduce(config: ExperimentConfig, results: SweepResults) -> StorageBreakdown:
    """Compute the storage breakdown of the paper's TLP configuration."""
    from repro.core.storage import tlp_storage_breakdown

    return tlp_storage_breakdown()


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

