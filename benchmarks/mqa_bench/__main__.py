"""``PYTHONPATH=src python -m benchmarks.mqa_bench [options]``."""

from .cli import main

raise SystemExit(main())
