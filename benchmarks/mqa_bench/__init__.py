"""mqa_bench: one harness, four named workloads, end-to-end and per-layer numbers.

See ``README.md`` in this directory.  The program under test is measured
from outside only; nothing here is imported by ``src/`` or collected by the
test suite.
"""
