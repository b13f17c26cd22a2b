"""Self-tests of the benchmark: ``python -m pytest bench/tests`` (not tier-1)."""
