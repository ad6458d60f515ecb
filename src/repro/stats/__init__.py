"""Metrics used by the paper's evaluation."""
