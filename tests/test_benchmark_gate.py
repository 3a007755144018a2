"""The benchmark's correctness gate, run on one op of each workload.

`perfbench/` builds each workload's inputs and compares every report with
its recorded reference values (`perfbench/gate.py`). This runs input seed
0, config slot 0 of each workload through the CLI in-process and asserts
that the gate passes it, so a change that moves a gated value fails here
before it fails a benchmark run. Nothing under `perfbench/` is written.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

from tempoframe.cli import cli

_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(_PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


gate = _load("gate")
workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_passes_input_seed_0_slot_0(tmp_path, name):
    work = str(tmp_path)
    workloads.WORKLOADS[name].build(work, 0)
    for argv in workloads.op_argvs(name, work, 0, 0):
        assert cli(argv) == 0
    with open(workloads.report_path(work, 0), encoding="utf-8") as f:
        text = f.read()
    reference = gate.load_references()[name]["0"][0]
    assert gate.check_report(text, reference) is None
