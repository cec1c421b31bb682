"""End-to-end and per-layer benchmark of turanlab; entry point ``run.py``."""
