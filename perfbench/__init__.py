"""The repository benchmark: workloads, span recorder, metrics and checks.

See ``perfbench/README.md``; the entry point is ``perfbench/run.py``.
"""
