"""The three benchmark workloads.

Each workload is a closed loop with one caller in one process.  Its work
comes in passes: ``passes(seconds)`` says how many a run has,
``build(seed, k)`` makes the inputs of pass ``k`` from the workload seed,
before any timing, and ``execute(inputs)`` runs them through
hermflow's public API and returns one ``Op`` per operation, with its latency
and every correctness failure found in its output.  hermflow receives only
the generated inputs, never the workload seed itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field

import numpy as np

from hermflow import catalog, cli
from hermflow.flows import NAMED_FLOWS
from hermflow.invariant import sample_admissible_metric
from hermflow.positivity import gamma_threshold


@dataclass
class Op:
    kind: str  # what the op does: a catalog case, or a CLI command kind
    latency_s: float
    failures: list[str] = field(default_factory=list)


def _passes(seconds: float, pass_s: float, period: int = 1) -> int:
    """Passes in a run of ``seconds``: as many as fill it at ``pass_s``
    each (a pass's time on the reference machine), in whole rotation
    periods, at least one period.  The count depends on ``--seconds`` only,
    never on how fast the code under test runs, so that every commit runs
    the same inputs."""
    return period * max(1, round(seconds / (pass_s * period)))


def _pass_seed(seed: int, k: int) -> int:
    """Pass 0 uses the workload seed itself; later passes derive theirs."""
    if k == 0:
        return seed
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# table3: the classification table at the published sample count
# ---------------------------------------------------------------------------

TABLE3_SAMPLES = 200
#: execution time of one table3 pass on the reference machine
TABLE3_PASS_S = 30.0


class Table3:
    """``regenerate_table3(200, seed)`` then ``compare_with_fixture``.
    One op is one of the 32 classification cases; a case fails when the
    fixture comparison reports any difference in its row."""

    name = "table3"

    def __init__(self) -> None:
        self.fixture = catalog.load_fixture()

    def passes(self, seconds: float) -> int:
        return _passes(seconds, TABLE3_PASS_S)

    def build(self, seed: int, k: int) -> int:
        return _pass_seed(seed, k)

    def execute(self, pass_seed: int) -> list[Op]:
        # time each case as regenerate_table3 calls it, through the name it
        # looks up in the catalog namespace
        inner = catalog.classify_case
        latencies: list[float] = []

        def timed_case(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                latencies.append(time.perf_counter() - start)

        catalog.classify_case = timed_case
        try:
            result = catalog.regenerate_table3(samples_per_family=TABLE3_SAMPLES,
                                               seed=pass_seed)
        finally:
            catalog.classify_case = inner
        start = time.perf_counter()
        _, diffs = catalog.compare_with_fixture(result, self.fixture)
        compare_s = time.perf_counter() - start
        keys = [row.key for row in result.rows]
        ops = [Op(key, lat) for key, lat in zip(keys, latencies)]
        ops[-1].latency_s += compare_s
        for diff in diffs:
            key = diff.split(":", 1)[0]
            ops[keys.index(key) if key in keys else -1].failures.append(diff)
        return ops


# ---------------------------------------------------------------------------
# flowpres: flow preservation over the acceptance-criterion-8 cases
# ---------------------------------------------------------------------------

FLOWPRES_CASES = ("Np/iwasawa", "Ni/h2/diagonal", "Ni/h8", "Nii/main",
                  "Si/flat", "Si/generic", "Siii1/+", "Siv1", "Siv3/generic")


# Criterion 8 runs 5 random flows per case and classifies with 24 starts.
# On a 2-core box such a pass takes 50-70 s, and its time swings with the
# few initial metrics whose classification runs every start to the
# alternation limit.  The benchmark runs 2 random flows per case (still
# enough for some to leave the admissible cone) and 8 starts, which gives a
# pass of about 30 s spent mostly in the flow tangent, the layer this
# workload exists to measure.
FLOWPRES_EXTRA_FLOWS = 2
FLOWPRES_STARTS = 8
FLOWPRES_PASS_S = 30.0


class FlowPres:
    """``flow_preservation_check(key, extra_flows=2, t_end=0.5, dt=2e-3,
    starts=8)``
    over the nine criterion-8 cases, each with its own seed drawn from the
    pass seed so that the random flows of different cases are independent.
    One op is one case; it fails when a criterion-8 predicate fails."""

    name = "flowpres"

    def passes(self, seconds: float) -> int:
        return _passes(seconds, FLOWPRES_PASS_S)

    def build(self, seed: int, k: int) -> list[tuple[str, int]]:
        rng = np.random.default_rng(_pass_seed(seed, k))
        return [(key, int(rng.integers(0, 2 ** 31))) for key in FLOWPRES_CASES]

    def execute(self, cases: list[tuple[str, int]]) -> list[Op]:
        ops = []
        for key, case_seed in cases:
            start = time.perf_counter()
            rep = catalog.flow_preservation_check(key, extra_flows=FLOWPRES_EXTRA_FLOWS,
                                                  t_end=0.5, dt=2e-3, seed=case_seed,
                                                  starts=FLOWPRES_STARTS)
            op = Op(key, time.perf_counter() - start)
            if not rep.slice_preserved:
                op.failures.append(f"{key}: slice drift {rep.slice_drift:.3e}")
            if not rep.verdict_preserved:
                op.failures.append(f"{key}: verdicts changed {rep.verdicts}")
            if key == "Si/flat" and not (rep.flat_drift is not None
                                         and rep.flat_drift < 1e-7):
                op.failures.append(f"{key}: flat drift {rep.flat_drift}")
            ops.append(op)
        return ops


# ---------------------------------------------------------------------------
# queries: single interactive CLI commands
# ---------------------------------------------------------------------------

SIGN_CASES = [case for case in catalog.CASES if case.expected_verdict is not None]
HOPF_DIMS = (2, 3, 4)
#: ratios closer than this to the sign threshold are not drawn, so that the
#: expected verdict is unambiguous
GAMMA_MARGIN = 0.05


@dataclass
class Query:
    argv: list[str]
    kind: str
    expect: object = None
    repeat_of: int | None = None


def _num(x: float) -> str:
    return repr(float(x))


def _cplx(c: complex) -> str:
    c = complex(c)
    if c == 0:
        return "0"
    return f"{c.real!r}{c.imag:+}i"  # repr digits, so the CLI parses the exact value


def _assignments(values: dict) -> str:
    parts = []
    for name, value in values.items():
        if isinstance(value, complex):
            parts.append(f"{name}={_cplx(value)}")
        elif isinstance(value, float):
            parts.append(f"{name}={_num(value)}")
        else:
            parts.append(f"{name}={value}")
    return ",".join(parts)


def _metric_arg(rng: np.random.Generator, fixed: dict | None) -> str:
    m = sample_admissible_metric(rng, fixed=dict(fixed or {}))
    return _assignments({"r2": float(m.r2), "s2": float(m.s2), "t2": float(m.t2),
                         "u": complex(m.u), "v": complex(m.v), "z": complex(m.z)})


# Every value is passed as ``--option=value``: argparse would take a separate
# value such as ``-5e-05`` or ``-0.3+0.1i,...`` for an option name.
def _family_argv(command: str, case, metric: str) -> list[str]:
    argv = [command, f"--family={case.family}", f"--metric={metric}"]
    if case.params:
        argv.append(f"--params={_assignments(case.params)}")
    return argv


def _point(rng: np.random.Generator, n: int) -> str:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v *= rng.uniform(0.7, 1.3) / np.linalg.norm(v)
    return ",".join(_cplx(x) for x in v)


def _gamma(rng: np.random.Generator, n: int) -> float:
    threshold = gamma_threshold(n)
    while True:
        gamma = rng.uniform(-0.9, 1.5)
        if abs(gamma - threshold) > GAMMA_MARGIN:
            return gamma


#: the queries mix rotates through the catalog in this many passes
QUERIES_PERIOD = 4
#: execution time of one queries pass on the reference machine
QUERIES_PASS_S = 2.9
#: each n-parameterised kind runs twice per n in a pass, so that every kind
#: runs about as often as classify --family and cplx (5-8 times)
QUERIES_DIMS = HOPF_DIMS * 2


class Queries:
    """A seeded mix of single commands run in-process through
    ``hermflow.cli.main(argv)`` with stdout and stderr captured.

    No record of how the CLI is used exists, so the mix is chosen for
    coverage, not measured usage, with every kind about equally often: a
    pass holds ``classify --family`` and ``cplx`` for a quarter of the
    catalog cases each (every case once in four passes, on a random metric
    of its slice where it has one), and two ``classify --hopf``, two
    ``hopf --verify`` and two ``flow`` for each n in 2, 3, 4; in a shuffled
    order, ending with a repeat of one of them.
    """

    name = "queries"

    def passes(self, seconds: float) -> int:
        return _passes(seconds, QUERIES_PASS_S, QUERIES_PERIOD)

    def build(self, seed: int, k: int) -> list[Query]:
        rng = np.random.default_rng(_pass_seed(seed, k))
        phase = k % QUERIES_PERIOD
        queries: list[Query] = []
        for case in SIGN_CASES[phase::QUERIES_PERIOD]:
            argv = _family_argv("classify", case, _metric_arg(rng, case.sign_slice))
            queries.append(Query(argv, "classify", case.expected_verdict))
        for case in catalog.CASES[phase::QUERIES_PERIOD]:
            fixed = case.cplx_slice if case.cplx == "slice" else None
            queries.append(Query(_family_argv("cplx", case, _metric_arg(rng, fixed)),
                                 "cplx", case.cplx != "never"))
        for n in QUERIES_DIMS:
            alpha = rng.uniform(0.5, 2.0)
            gamma = _gamma(rng, n)
            argv = ["classify", f"--hopf={n},{_num(alpha)},{_num(alpha * gamma)}",
                    f"--point={_point(rng, n)}"]
            queries.append(Query(argv, "classify-hopf", gamma <= gamma_threshold(n)))
        for n in QUERIES_DIMS:
            alpha = rng.uniform(0.5, 2.0)
            beta = alpha * rng.uniform(-0.9, 1.5)
            queries.append(Query(["hopf", f"--n={n}", f"--alpha={_num(alpha)}",
                                  f"--beta={_num(beta)}", f"--point={_point(rng, n)}",
                                  "--verify"], "hopf-verify"))
        # the three named flows and random --coeffs, rotating over n
        flow_names = sorted(NAMED_FLOWS) + ["coeffs"]
        for i, n in enumerate(QUERIES_DIMS):
            which = flow_names[(i + phase) % len(flow_names)]
            coeffs = (f"--name={which}" if which != "coeffs" else
                      f"--coeffs={','.join(_num(c) for c in rng.uniform(-1, 1, 4))}")
            queries.append(Query(["flow", coeffs, f"--n={n}",
                                  f"--alpha0={_num(rng.uniform(0.5, 2.0))}",
                                  f"--beta0={_num(rng.uniform(-0.4, 1.0))}", "--format=json"],
                                 "flow"))
        order = rng.permutation(len(queries))
        queries = [queries[i] for i in order]
        for q in queries:
            q.argv = [f"--seed={int(rng.integers(0, 2 ** 31))}", *q.argv]
        again = int(rng.integers(0, len(queries)))
        queries.append(Query(list(queries[again].argv), "repeat", repeat_of=again))
        return queries

    def execute(self, queries: list[Query]) -> list[Op]:
        ops: list[Op] = []
        outputs: list[str] = []
        for q in queries:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(q.argv)
                except SystemExit as exc:  # argparse rejected the command line
                    code = exc.code
            kind = q.kind if q.repeat_of is None else queries[q.repeat_of].kind
            op = Op(kind, time.perf_counter() - start)
            stdout = out.getvalue()
            outputs.append(stdout)
            op.failures = _check_query(q, code, stdout, err.getvalue(), outputs)
            ops.append(op)
        return ops


def _check_query(q: Query, code: int, stdout: str, stderr: str,
                 outputs: list[str]) -> list[str]:
    label = " ".join(q.argv)
    if code != 0:
        return [f"{label}: exit code {code}: {stderr.strip()[:200]}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"{label}: stdout is not JSON"]
    failures = []
    if q.kind == "classify" and doc.get("verdict") != q.expect:
        failures.append(f"{label}: verdict {doc.get('verdict')!r} != {q.expect!r}")
    elif q.kind == "classify-hopf":
        nonneg = doc.get("verdict") in ("flat", "non_negative")
        if nonneg != q.expect:
            failures.append(f"{label}: verdict {doc.get('verdict')!r}, expected "
                            f"{'non-negative' if q.expect else 'not non-negative'}")
    elif q.kind == "cplx" and doc.get("satisfied") is not q.expect:
        failures.append(f"{label}: satisfied {doc.get('satisfied')!r} != {q.expect!r}")
    elif q.kind == "hopf-verify" and doc.get("verified") is not True:
        failures.append(f"{label}: oracle defect {doc.get('oracle_defect')!r}")
    elif q.kind == "flow":
        try:
            summary = json.loads(stderr)["summary"]
        except (json.JSONDecodeError, KeyError):
            return [f"{label}: no JSON flow summary on stderr"]
        if summary["termination"] != doc["summary"]["termination"]:
            failures.append(f"{label}: summary and trajectory disagree")
    elif q.kind == "repeat" and stdout != outputs[q.repeat_of]:
        failures.append(f"{label}: repeated query changed its output bytes")
    return failures


WORKLOADS = {w.name: w for w in (Table3, FlowPres, Queries)}
