"""Check every golden under tests/golden/ without pytest.

    python tests/golden/check_goldens.py

Runs each golden config (the hand-kept forecast golden directly under
tests/golden/ and one per task directory) through `run_benchmark` and
compares its timing-stripped report with `expected_report.txt`. For the
tasks in `regenerate.FITTED` it also compares the `save_fitted` bytes with
`fitted.json`. Each golden bundle must read to a dataset that
`write_bundle` writes back as the committed files, and a `truth.csv` to
effects that `write_truth` writes back as the committed file. Prints one
line per golden file and exits 0 only if every one matches. It needs only
the package, so any interpreter can run it: the goldens must be
byte-identical on every supported Python.
"""

from __future__ import annotations

import os
import sys
import tempfile

# First: it puts src/ and tests/ on the import path.
from regenerate import FITTED, GOLDENS, HERE, fitted_blob
from tempoframe.bench import load_config, read_truth, report_text, \
    run_benchmark, strip_timing, write_truth
from tempoframe.bundle import read_bundle, write_bundle


def _read(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def rewritten(config, scratch) -> dict:
    """Golden file path, relative to its task directory -> the bytes the
    writers give for what its bundle and truth file read to."""
    bundle = os.path.join(scratch, "bundle")
    write_bundle(read_bundle(config.bundle), bundle)
    got = {f"bundle/{name}": _read(os.path.join(bundle, name))
           for name in sorted(os.listdir(bundle))}
    if config.truth is not None:
        truth = read_truth(config.truth)
        path = os.path.join(scratch, "truth.csv")
        write_truth(path, list(truth), truth.values())
        got["truth.csv"] = _read(path)
    return got


def main() -> int:
    failed = 0
    for task in ("", *GOLDENS):
        config = load_config(os.path.join(HERE, task, "config.json"))
        got = {"expected_report.txt": strip_timing(
            report_text(run_benchmark(config))).encode("utf-8")}
        if task in FITTED:
            got["fitted.json"] = fitted_blob(config)
        with tempfile.TemporaryDirectory() as scratch:
            got.update(rewritten(config, scratch))
        for name, data in got.items():
            path = os.path.join(task, name)
            ok = _read(os.path.join(HERE, path)) == data
            failed += not ok
            print(f"{'ok' if ok else 'DIFFERS'}  {path}")
    print(f"python {sys.version.split()[0]}: "
          f"{'FAIL' if failed else 'all goldens match'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
