"""Make the package source and the benchmark modules importable for the self-tests."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
