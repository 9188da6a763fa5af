"""Test set-up: ``python -m pytest benchmarks/perf`` from the repository root.

The benchmark's modules import each other as top-level modules (they run
as scripts), and the simulator comes from the checkout's ``src/``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
