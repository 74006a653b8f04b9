"""Import the benchmark's modules and the library from source for its tests.

Run from the repository root with ``python -m pytest bench -q``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
