"""Repository tooling (reprolint, inspectors).

This package marker exists so ``python -m tools.reprolint`` works from the
repository root; the stand-alone scripts next to it (``check_links.py``,
``inspect_spill.py``) are still run directly.  Per-layer profiles of the
serving path come from ``perfbench/run.py --trace 1``.
"""
