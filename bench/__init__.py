"""Benchmark harness for charfred; see bench/README.md."""
