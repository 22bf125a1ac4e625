"""Benchmark for supratoa: seeded CLI workloads, oracles and per-layer tracing."""
