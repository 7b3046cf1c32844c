"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``."""

import sys
from pathlib import Path

# The error-accounting test raises the program's own BatchError.
_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.append(_SRC)
