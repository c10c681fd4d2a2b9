"""Benchmark of the Taxogram stack: mine, serve and ingest workloads."""
