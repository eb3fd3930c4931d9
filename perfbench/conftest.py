"""Make the benchmark's modules and the library importable for its tests
(``python3 -m pytest perfbench -q`` from the repository root)."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
for path in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
