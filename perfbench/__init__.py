"""Outside-in solve benchmark for the aap package.

`run.py` is the entry point; `measure.py` runs one workload in a child
process; `spans.py` records the per-layer spans of the traced pass.
"""
