"""DRAM bandwidth and latency model.

The paper's key metric besides speedup is the *number of DRAM transactions*
(Figures 2, 3, 11, 14, 16b): every 64B transfer between the LLC/cores and
DRAM counts, regardless of whether it was a demand fill, a prefetch fill or a
speculative off-chip request fired by Hermes/FLP.

The timing side is a single-channel bandwidth model: each transaction keeps
the channel busy for ``cycles_per_transaction`` cycles (derived from the
configured GB/s), and a request arriving while the channel is backed up pays
the queuing delay on top of the fixed access latency.  This is what makes
useless speculative requests and useless prefetches *hurt* in
bandwidth-constrained configurations, which is the paper's central
observation.
"""

from __future__ import annotations

from array import array

from repro.common.config import DRAMConfig
from repro.common.counters import Counters
from repro.common.types import RequestSource


class DRAMStats(Counters, fields=(
    "total_transactions", "demand_transactions", "l1d_prefetch_transactions",
    "l2c_prefetch_transactions", "speculative_transactions",
    "total_queue_cycles", "max_queue_cycles",
)):
    """Transaction counters split by request source, and the queueing
    delay they saw (a sum and a maximum)."""

    def by_source(self) -> dict[str, int]:
        """Return the per-source transaction counts as a dictionary."""
        return {
            "demand": self.demand_transactions,
            "l1d_prefetch": self.l1d_prefetch_transactions,
            "l2c_prefetch": self.l2c_prefetch_transactions,
            "speculative": self.speculative_transactions,
        }


_D = DRAMStats.SLOT


class DRAMModel:
    """Single-channel DRAM with fixed access latency plus queuing delay."""

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config
        self.stats = DRAMStats()
        #: The cycle the channel frees up: a one-element array that the
        #: batch core's kernel uses in place.
        self._busy_until = array("d", [0.0])
        self._cycles_per_transaction = config.cycles_per_transaction

    @property
    def cycles_per_transaction(self) -> float:
        """Channel occupancy of one 64B transaction, in core cycles."""
        return self._cycles_per_transaction

    def access(self, cycle: int, source: RequestSource) -> int:
        """Issue one DRAM transaction at ``cycle``.

        Returns the latency in cycles until the data is available, including
        any queuing delay caused by earlier transactions still occupying the
        channel.
        """
        counts = self.stats.counts
        counts[_D.total_transactions] += 1
        if source is RequestSource.DEMAND:
            counts[_D.demand_transactions] += 1
        elif source is RequestSource.L1D_PREFETCH:
            counts[_D.l1d_prefetch_transactions] += 1
        elif source is RequestSource.L2C_PREFETCH:
            counts[_D.l2c_prefetch_transactions] += 1
        else:
            counts[_D.speculative_transactions] += 1

        busy_until = self._busy_until
        queue_delay = max(0.0, busy_until[0] - cycle)
        busy_until[0] = cycle + queue_delay + self._cycles_per_transaction
        queue_cycles = int(queue_delay)
        counts[_D.total_queue_cycles] += queue_cycles
        if queue_cycles > counts[_D.max_queue_cycles]:
            counts[_D.max_queue_cycles] = queue_cycles
        return int(queue_delay + self.config.access_latency)

    def queue_delay(self, cycle: int) -> float:
        """Queuing delay a request issued at ``cycle`` would currently see."""
        return max(0.0, self._busy_until[0] - cycle)

    def average_queue_delay(self) -> float:
        """Average queuing delay over all transactions, in cycles."""
        if self.stats.total_transactions == 0:
            return 0.0
        return self.stats.total_queue_cycles / self.stats.total_transactions

    def reset_timing(self) -> None:
        """Forget channel occupancy (used when replaying warm-up phases)."""
        self._busy_until[0] = 0.0

    def reset_stats(self) -> None:
        """Zero the transaction counters (post warm-up)."""
        self.stats.zero()
