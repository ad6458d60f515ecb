"""repro: reproduction of the TLP predictor (HPCA 2024).

A trace-driven simulation library reproducing "A Two Level Neural Approach
Combining Off-Chip Prediction with Adaptive Prefetch Filtering" (Jamet et
al., HPCA 2024): the TLP predictor (FLP + SLP), the Hermes and PPF baselines,
the IPCP/Berti/SPP prefetchers, the ChampSim-like memory hierarchy substrate
and the workload generators and experiment harnesses needed to regenerate
every figure of the paper's evaluation.

The supported Python surface is :mod:`repro.api`; import from it::

    from repro import api

    baseline = api.simulate_point("bfs.urand", "baseline")
    tlp = api.simulate_point("bfs.urand", "tlp")
    print(baseline.ipc, tlp.ipc, tlp.dram_transactions / baseline.dram_transactions)
"""

__version__ = "1.0.0"
