"""Simulation drivers: scenario builders, single-core and multi-core runs,
their conservation checks, and the parallel campaign engine with its
persistent result cache."""
