"""hermflow benchmark: one workload per call, in a fresh interpreter.

    python3 perfbench/run.py --workload table3 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; hermflow is imported from ``src/``.
With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics of a second, traced execution of the same inputs.  The
lines before it give the same numbers for a reader.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORKLOADS = ("table3", "flowpres", "queries")
#: fresh workers timed until ready per run (the measuring worker is one of
#: them); setup_s is their median
SETUP_SPAWNS = 5
#: the longest pass seen on the reference machine (table3, at its slowest);
#: a run is always at least one pass long
LONGEST_PASS_S = 50.0


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _worker_argv(workload: str, *args: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--src", str(SRC), *args]


def _spawn_until_ready(argv: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with the seconds until it printed
    ``ready``: interpreter start, imports and the workload's own set-up."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {' '.join(argv[2:4])} did not get ready "
                         f"(exit code {proc.returncode})")
    return proc, ready


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, float]:
    """Run the workload in a fresh worker; returns its result and its set-up
    time.  A run that outlasts twice its expected length is killed."""
    timeout = (1 + trace) * 2 * max(seconds, LONGEST_PASS_S) + 30
    proc, ready = _spawn_until_ready(_worker_argv(
        workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)))
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), ready


def setup_seconds(workload: str, first: float) -> float:
    """Median set-up time over ``first`` and further workers that exit once
    ready."""
    times = [first]
    for _ in range(SETUP_SPAWNS - 1):
        proc, ready = _spawn_until_ready(_worker_argv(workload, "--setup-only"))
        proc.communicate()
        if proc.returncode != 0:
            raise BenchError(f"{workload} set-up worker exited with code {proc.returncode}")
        times.append(ready)
    return statistics.median(times)


def typical_rate(kinds: list[str], latencies: list[float]) -> float:
    """Ops per second if every op took the median latency of its kind.

    A few inputs cost 10-100 times the median of their kind (a classify
    whose starts all run to the alternation limit, a flow that runs for
    seconds), and which of them a seed draws moves the total time of a run
    far more than the code does.  With one op per kind (a single pass of
    table3 or flowpres, whose kinds are the catalog cases) this is the plain
    rate, ops over execution time."""
    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(latency)
    return len(latencies) / sum(len(v) * statistics.median(v) for v in by_kind.values())


def end_to_end(doc: dict, setup_s: float) -> dict:
    return {
        "ops_per_s": (typical_rate(doc["kinds"], doc["latencies"]), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }


def per_layer(doc: dict) -> dict:
    metrics = {name: tuple(pair) for name, pair in doc["layers"].items()}
    metrics["trace.overhead_frac"] = (doc["traced_wall_s"] / sum(doc["pass_s"]) - 1.0,
                                      "ratio")
    metrics["trace.span_coverage"] = (doc["root_s"] / doc["traced_wall_s"], "ratio")
    return metrics


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    doc, ready = run_worker(workload, seed, seconds, trace)
    attempted = len(doc["latencies"]) + doc.get("traced_ops", 0)
    failed = doc["failed"]
    metrics = per_layer(doc) if trace else end_to_end(doc, setup_seconds(workload, ready))

    print(f"{workload}  seed {seed}  trace {trace}  machine {doc['machine']}")
    print(f"  ops {attempted} in {len(doc['pass_s'])} pass(es), failed {failed}, "
          f"fail_frac {failed / attempted:.4g}; busy {sum(doc['pass_s']):.2f} s"
          + (f", traced {doc['traced_wall_s']:.2f} s" if trace else ""))
    if workload == "queries" and not trace:
        lat_ms = [1e3 * x for x in doc["latencies"]]
        deciles = statistics.quantiles(lat_ms, n=10)
        print(f"  op latency samples {len(lat_ms)}, {len(lat_ms) // 10} beyond p90 "
              f"(printed, not gated):")
        print(f"  {'op_p50_ms':<44} {deciles[4]:.6g} ms")
        print(f"  {'op_p90_ms':<44} {deciles[8]:.6g} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    for failure in doc["failures"][:20]:
        print(f"  FAILED {failure}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hermflow" / "__init__.py").is_file():
        print(f"error: no hermflow sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run_one(name, args.seed, args.seconds, args.trace)
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
