"""Put `src/` on the import path, so the suite runs from a plain checkout.

It is prepended to `PYTHONPATH` as well, so the CLI subprocesses that the
tests start import the same package.
"""

import os
import sys

import pytest

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def _suite_pid():
    return os.getpid()


@pytest.fixture(autouse=True)
def _no_escaped_child(_suite_pid):
    """A forked benchmark worker that returns instead of leaving through
    `os._exit` would go on to run the rest of the suite a second time;
    stop it as soon as the test it escaped into ends."""
    yield
    if os.getpid() != _suite_pid:
        os.write(2, b"forked worker escaped into the test suite\n")
        os._exit(70)
