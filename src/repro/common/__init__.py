"""Shared low-level building blocks used across the simulator.

This package contains the pieces that every other subsystem depends on:

* :mod:`repro.common.types` -- the memory access / request record types that
  flow between the trace generators, the core model and the cache hierarchy.
* :mod:`repro.common.addresses` -- block/page arithmetic helpers.
* :mod:`repro.common.hashing` -- the folded-XOR hashing used to index
  perceptron weight tables.
* :mod:`repro.common.config` -- configuration dataclasses mirroring Table III
  of the paper.
"""
