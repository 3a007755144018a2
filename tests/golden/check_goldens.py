"""Check every golden under tests/golden/ without pytest.

    python tests/golden/check_goldens.py

Runs each golden config (the hand-kept forecast golden directly under
tests/golden/ and one per task directory) through `run_benchmark` and
compares its timing-stripped report with `expected_report.txt`. For the
tasks in `regenerate.FITTED` it also compares the `save_fitted` bytes with
`fitted.json`. Prints one line per golden file and exits 0 only if every
one matches. It needs only the package, so any interpreter can run it:
the goldens must be byte-identical on every supported Python.
"""

from __future__ import annotations

import os
import sys

# First: it puts src/ and tests/ on the import path.
from regenerate import FITTED, GOLDENS, HERE, fitted_blob
from tempoframe.bench import load_config, report_text, run_benchmark, \
    strip_timing


def main() -> int:
    failed = 0
    for task in ("", *GOLDENS):
        config = load_config(os.path.join(HERE, task, "config.json"))
        got = {"expected_report.txt": strip_timing(
            report_text(run_benchmark(config))).encode("utf-8")}
        if task in FITTED:
            got["fitted.json"] = fitted_blob(config)
        for name, data in got.items():
            path = os.path.join(task, name)
            with open(os.path.join(HERE, path), "rb") as f:
                ok = f.read() == data
            failed += not ok
            print(f"{'ok' if ok else 'DIFFERS'}  {path}")
    print(f"python {sys.version.split()[0]}: "
          f"{'FAIL' if failed else 'all goldens match'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
