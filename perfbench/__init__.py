"""Seeded end-to-end benchmark for fandec; see perfbench/README.md."""
