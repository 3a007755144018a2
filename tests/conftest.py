"""Put `src/` on the import path, so the suite runs from a plain checkout.

It is prepended to `PYTHONPATH` as well, so the CLI subprocesses that the
tests start import the same package.
"""

import os
import sys

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
