"""Workloads: GAP graph kernels, SPEC-like generators and the catalog."""
