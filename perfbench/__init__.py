"""End-to-end and per-layer benchmark; run with ``python3 perfbench/run.py``."""
