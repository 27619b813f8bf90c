"""One pass of each benchmark workload runs through hermflow's public API
and checks every output; a call in ``perfbench/workloads.py`` that stops
binding, or an op that fails a check, fails here."""

import runpy
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.mark.parametrize("name", ["Table3", "FlowPres", "Queries"])
def test_one_workload_pass_has_no_failures(name):
    # run_path compiles the source without writing a bytecode cache
    workload = runpy.run_path(str(WORKLOADS))[name]()
    ops = workload.execute(workload.build(0, 0))
    assert ops
    assert [f for op in ops for f in op.failures] == []
