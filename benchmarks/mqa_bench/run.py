"""Script entry point: ``python3 benchmarks/mqa_bench/run.py [options]``.

This is the ``command`` of ``BENCHMARK.json``.  It needs no ``PYTHONPATH``:
the repository root and ``src/`` are put on ``sys.path`` here, and the
script's own directory is taken off so that ``spans`` or ``metrics`` cannot
shadow a top-level module.  Options are those of :mod:`benchmarks.mqa_bench.cli`.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    root = here.parents[1]
    sys.path[:] = [str(root / "src"), str(root)] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != here
    ]
    # In a directory that holds nothing but the benchmark the program is
    # missing: end non-zero and print no result.
    try:
        from benchmarks.mqa_bench.cli import main
    except ImportError as exc:
        print(f"mqa_bench: cannot import the program under test: {exc}", file=sys.stderr)
        raise SystemExit(3)
    raise SystemExit(main())
