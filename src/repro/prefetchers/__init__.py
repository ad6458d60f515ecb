"""Hardware prefetchers and prefetch filters.

L1D prefetchers: IPCP and Berti, the two used in the paper's evaluation.
L2 prefetcher: SPP.  Prefetch filter baseline: PPF.
"""
