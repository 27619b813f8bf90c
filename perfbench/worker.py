"""One workload in one fresh process; started by ``run.py``.

Prints ``ready`` once hermflow is imported and the workload set up (for
``table3`` that includes loading the fixture).  With ``--setup-only`` it
exits there; otherwise it runs the workload and prints a single JSON line
with the ops, failures and timings of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def measure(workload, seed: int, passes: int) -> tuple[list, list, list]:
    """Run ``passes`` whole passes.  Returns the inputs, ops and execution
    time of each pass (input generation excluded)."""
    inputs, ops, pass_s = [], [], []
    for k in range(passes):
        pass_inputs = workload.build(seed, k)
        start = time.perf_counter()
        pass_ops = workload.execute(pass_inputs)
        pass_s.append(time.perf_counter() - start)
        inputs.append(pass_inputs)
        ops.append(pass_ops)
    return inputs, ops, pass_s


def machine() -> str:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas['name']}-{blas['version']}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import hermflow
    if Path(hermflow.__file__).resolve().parent.parent != Path(args.src).resolve():
        print(f"hermflow imported from {hermflow.__file__}, not {args.src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    inputs, passes, pass_s = measure(workload, args.seed, workload.passes(args.seconds))
    ops = [op for pass_ops in passes for op in pass_ops]
    doc = {"kinds": [op.kind for op in ops],
           "latencies": [op.latency_s for op in ops],
           "failures": [f for op in ops for f in op.failures],
           "failed": sum(1 for op in ops if op.failures),
           "pass_s": pass_s}
    if args.trace:
        from tracer import Tracer, layer_metrics
        traced_ops = []
        with Tracer() as tracer:
            start = time.perf_counter()
            for pass_inputs in inputs:
                traced_ops += workload.execute(pass_inputs)
            traced_wall = time.perf_counter() - start
        doc["failures"] += [f for op in traced_ops for f in op.failures]
        doc["failed"] += sum(1 for op in traced_ops if op.failures)
        doc["traced_ops"] = len(traced_ops)
        doc["traced_wall_s"] = traced_wall
        doc["layers"] = layer_metrics(tracer)
        doc["root_s"] = tracer.root_seconds()
    doc["machine"] = machine()
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
