"""One pass of each benchmark workload runs through hermflow's public API
and checks every output; a call in ``perfbench/workloads.py`` that stops
binding, or an op that fails a check, fails here.  The batch workloads
decide every sign verdict at the starts, with no row alternated."""

import runpy
from pathlib import Path

import pytest

from hermflow import positivity

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


#: rows the batch workloads send to ``positivity._alternate`` at seed 0
ALTERNATED_ROWS = {"Table3": 0, "FlowPres": 0}


@pytest.mark.parametrize("name", ["Table3", "FlowPres", "Queries"])
def test_one_workload_pass_has_no_failures(monkeypatch, name):
    rows, inner = [], positivity._alternate

    def count(block, xi, *args):
        rows.append(len(xi))
        return inner(block, xi, *args)

    monkeypatch.setattr(positivity, "_alternate", count)
    # run_path compiles the source without writing a bytecode cache
    workload = runpy.run_path(str(WORKLOADS))[name]()
    ops = workload.execute(workload.build(0, 0))
    assert ops
    assert [f for op in ops for f in op.failures] == []
    if name in ALTERNATED_ROWS:
        assert sum(rows) == ALTERNATED_ROWS[name]
