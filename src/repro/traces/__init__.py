"""Workload traces: the record container, synthetic generators, the
persistent memory-mapped trace store and external trace ingestion."""
