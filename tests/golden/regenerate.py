"""Rewrite the golden CLI corpus next to this script from the current source.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

The invocation list lives in ``tests/test_golden.py``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import write_corpus  # noqa: E402

if __name__ == "__main__":
    write_corpus()
