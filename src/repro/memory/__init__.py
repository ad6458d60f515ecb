"""Memory hierarchy substrate: caches, DRAM and the composed hierarchy."""
