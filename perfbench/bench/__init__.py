"""The benchmark's own modules; ``perfbench/run.py`` is the entry point."""
