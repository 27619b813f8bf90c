"""Command-line surface.

Subcommands: ``families``, ``hopf``, ``flow``, ``cplx``, ``classify``,
``table3``.  All output is machine-readable (JSON, or CSV for trajectories);
runs are deterministic for a fixed ``--seed`` (default from the
``HERMFLOW_SEED`` environment variable, read for every command; a value that
is not an integer exits 2).  ``main`` builds the argument parser on its first
call and reuses it.  Exit codes: 0 success, 1 verification mismatch, 2
invalid input.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import catalog, flows, hopf, oracle
from .invariant import MetricCoefficients, check_cplx
from .positivity import DEFAULT_STARTS, CplxViolationError, classify, gamma_threshold
from .tensors import ZERO_RTOL, label_name


class CliError(ValueError):
    pass


def _finite(value, text: str):
    if not cmath.isfinite(value):
        raise CliError(f"number {text.strip()!r} must be finite")
    return value


def parse_complex(text: str) -> complex:
    """Numbers in ``re+imi`` form: ``0.5-0.25i``, ``i``, ``-2i``, ``1.5``.
    A real number is read first, so that ``inf`` and ``nan`` are refused as
    non-finite rather than read with an imaginary unit."""
    try:
        value = complex(float(text))
    except ValueError:
        try:
            value = complex(text.strip().replace("I", "j").replace("i", "j"))
        except ValueError:
            raise CliError(f"cannot parse complex number {text!r}") from None
    return _finite(value, text)


def parse_vector(text: str, n: int) -> np.ndarray:
    """Comma-separated complex entries, or the shortcuts e1..en."""
    text = text.strip()
    if text.startswith("e") and text[1:].isdigit():
        k = int(text[1:])
        if not 1 <= k <= n:
            raise CliError(f"{text!r} out of range for n={n}")
        vec = np.zeros(n, dtype=complex)
        vec[k - 1] = 1.0
        return vec
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != n:
        raise CliError(f"expected {n} components, got {len(parts)} in {text!r}")
    return np.array([parse_complex(p) for p in parts])


def _parse_value(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        return parse_complex(text)
    return _finite(value, text)


def parse_assignments(text: str | None) -> dict:
    out: dict = {}
    if not text:
        return out
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise CliError(f"expected name=value, got {piece!r}")
        name, value = piece.split("=", 1)
        out[name.strip()] = _parse_value(value)
    return out


def parse_metric(text: str | None) -> MetricCoefficients:
    vals = parse_assignments(text)
    unknown = set(vals) - {"r2", "s2", "t2", "u", "v", "z"}
    if unknown:
        raise CliError(f"unknown metric coefficients {sorted(unknown)}")
    for name in ("r2", "s2", "t2"):
        value = vals.setdefault(name, 1.0)
        if isinstance(value, complex):
            raise CliError(f"{name} must be a positive real number, got {value}")
    m = MetricCoefficients(**vals)
    m.validate()
    return m


def _default_seed() -> int:
    text = os.environ.get("HERMFLOW_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise CliError(f"HERMFLOW_SEED must be an integer, got {text!r}") from None


def _emit(doc: dict, out=None) -> None:
    out = sys.stdout if out is None else out
    json.dump(doc, out, sort_keys=True, indent=2, default=_json_default)
    out.write("\n")


def _write(body: str, path: str | None, end: str = "") -> None:
    """``body`` into the file ``path``, or ``body + end`` to stdout without one."""
    if not path:
        sys.stdout.write(body + end)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}") from None


def _read_fixture(path: str) -> dict:
    """The fixture at ``path``: a JSON object whose ``rows`` are objects
    with ``key`` and ``cplx``, as ``compare_with_fixture`` reads them."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read fixture {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise CliError(f"fixture {path} is not JSON: {exc}") from None
    rows = doc.get("rows") if isinstance(doc, dict) else None
    if not isinstance(rows, list) or not all(
            isinstance(row, dict) and "key" in row and "cplx" in row for row in rows):
        raise CliError(f"fixture {path} must be a JSON object whose rows are "
                       "objects with key and cplx")
    return doc


def _json_default(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value)}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_families(args) -> int:
    doc = {"families": [
        {"id": spec.family_id, "parameters": spec.parameters,
         "structure": spec.description}
        for spec in catalog.FAMILIES.values()
    ]}
    _emit(doc)
    return 0


def cmd_hopf(args) -> int:
    h = hopf.HopfMetric(args.n, args.alpha, args.beta)
    if not math.isfinite(h.gamma):
        raise CliError("gamma = beta / alpha is not finite")
    z = parse_vector(args.point, args.n)
    block = hopf.bismut_mixed_block(h, z)
    with np.errstate(over="ignore"):
        max_component = float(np.max(np.abs(block)))
    if not math.isfinite(max_component):
        raise CliError("curvature block is not finite")
    doc = {
        "n": args.n,
        "alpha": args.alpha,
        "beta": args.beta,
        "gamma": h.gamma,
        "gamma_threshold": gamma_threshold(args.n),
        "point": [complex(x) for x in z],
        "tolerance": ZERO_RTOL,
        "max_component": max_component,
        "components": [
            [i + 1, j + 1, k + 1, l + 1, block[i, j, k, l].real, block[i, j, k, l].imag]
            for (i, j, k, l) in np.ndindex(*block.shape)
            if abs(block[i, j, k, l]) > 1e-12
        ],
    }
    if (args.xi is None) != (args.nu is None):
        raise CliError("--xi and --nu must be given together")
    if args.xi is not None:
        xi = parse_vector(args.xi, args.n)
        nu = parse_vector(args.nu, args.n)
        doc["bisectional"] = hopf.bisectional(h, z, xi, nu)
        if not math.isfinite(doc["bisectional"]):
            raise CliError("bisectional value is not finite")
    exit_code = 0
    if args.verify:
        field = oracle.PointMetricField(
            args.n, metric=lambda w: hopf.metric_at(h, w),
            christoffels=hopf.connection_field(h, "bismut"))
        fd = oracle.fd_curvature(field, z)
        closed = hopf.bismut_curvature_at(h, z)
        defect = float(np.max(np.abs(fd.data - closed.data)))
        doc["oracle_defect"] = defect
        doc["verified"] = defect < 1e-6
        if not doc["verified"]:
            exit_code = 1
    _emit(doc)
    return exit_code


def cmd_flow(args) -> int:
    if (args.name is None) == (args.coeffs is None):
        raise CliError("give exactly one of --name or --coeffs")
    if args.name is not None:
        try:
            fc = flows.named_flow(args.name)
        except ValueError as exc:
            raise CliError(str(exc)) from None
    else:
        parts = [p for p in args.coeffs.split(",") if p.strip()]
        if len(parts) != 4:
            raise CliError(f"--coeffs needs a,b,c,d; got {args.coeffs!r}")
        fc = flows.FlowCoefficients(*(float(p) for p in parts))
    try:
        traj = flows.integrate(args.alpha0, args.beta0, fc, args.n,
                               t_end=args.t_end, dt=args.dt)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    body = flows.trajectory_csv(traj) if args.format == "csv" \
        else flows.trajectory_json(traj)
    _write(body, args.output, "" if body.endswith("\n") else "\n")
    sc = flows.scalars(fc, args.n)
    preservation = flows.preserves_nonnegativity(fc, args.n)
    summary = {
        "flow": fc.name or "custom",
        "coefficients": list(fc.as_tuple()),
        "F": sc.F,
        "L": sc.L,
        "static_ratio": sc.static_ratio,
        "preserves_nonnegativity": preservation.preserved,
        "margin": preservation.margin,
        "termination": traj.termination.value,
        "exit_time": traj.exit_time,
        "final_gamma": float(traj.gammas[-1]),
    }
    _emit({"summary": summary}, out=sys.stderr if args.output is None else sys.stdout)
    return 0


def _family_curvature(args):
    if args.family is None:
        raise CliError("--family is required")
    params = parse_assignments(args.params)
    m = parse_metric(args.metric)
    eqs = catalog.instantiate(args.family, **params)
    # huge admissible coefficients overflow to a non-finite curvature, which
    # CurvatureTensor refuses
    with np.errstate(over="ignore", invalid="ignore"):
        return catalog.bismut_curvature(eqs, m), m


def cmd_cplx(args) -> int:
    omega, m = _family_curvature(args)
    report = check_cplx(omega)
    _emit({
        "family": args.family,
        "satisfied": report.satisfied,
        "max_violation": report.max_violation,
        "tolerance": report.tolerance,
        "witness": None if report.witness is None else [label_name(x) for x in report.witness],
    })
    return 0


def cmd_classify(args) -> int:
    if args.family is not None:
        omega, _ = _family_curvature(args)
    else:
        if args.hopf is None:
            raise CliError("give --family or --hopf n,alpha,beta")
        parts = args.hopf.split(",")
        if len(parts) != 3:
            raise CliError("--hopf takes n,alpha,beta")
        h = hopf.HopfMetric(int(parts[0]), float(parts[1]), float(parts[2]))
        z = parse_vector(args.point, h.n) if args.point else \
            np.full(h.n, 1.0 / np.sqrt(h.n), dtype=complex)
        omega = hopf.bismut_curvature_at(h, z)
    try:
        result = classify(omega, starts=args.starts, seed=args.seed)
    except CplxViolationError as exc:
        _emit({"refused": True, "reason": str(exc)})
        return 2
    _emit({
        "verdict": result.verdict.value,
        "min_value": result.min_value,
        "max_value": result.max_value,
        "tolerance": result.tolerance,
        "magnitude": result.magnitude,
        "seed": args.seed,
        "starts": args.starts,
    })
    return 0


def cmd_table3(args) -> int:
    fixture = _read_fixture(args.fixture) if args.fixture else None
    result = catalog.regenerate_table3(samples_per_family=args.samples,
                                       seed=args.seed)
    ok, diffs = catalog.compare_with_fixture(result, fixture)
    body = catalog.render_markdown(result) if args.format == "markdown" \
        else catalog.render_json(result)
    _write(body, args.output)
    if not ok:
        for diff in diffs:
            print(f"mismatch: {diff}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reads every token that starts with ``-`` and a digit or ``.`` as a
    value, so ``--beta -5e-05`` and ``--point -1,0`` parse; argparse alone
    accepts only plain negative integers and decimals there.  No hermflow
    option starts that way.  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[\d.]")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hermflow",
        description="Bismut/Chern curvature, positivity classification and "
                    "Hermitian curvature flows")
    parser.add_argument("--seed", type=int, default=_default_seed(),
                        help="random seed (default: HERMFLOW_SEED or 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("families", help="list the catalog families")

    p = sub.add_parser("hopf", help="curvature of the two-parameter Hopf family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--point", required=True, help="complex coordinates, e.g. 1,0")
    p.add_argument("--xi", help="direction vector or e1..en")
    p.add_argument("--nu", help="direction vector or e1..en")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the finite-difference oracle")

    p = sub.add_parser("flow", help="integrate the (alpha, beta) flow system")
    p.add_argument("--name", choices=sorted(flows.NAMED_FLOWS))
    p.add_argument("--coeffs", help="a,b,c,d")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha0", type=float, required=True)
    p.add_argument("--beta0", type=float, required=True)
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--output", help="write the trajectory to this file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    for name, help_text in (("cplx", "pure-type vanishing check"),
                            ("classify", "sign classification")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--family", choices=sorted(catalog.FAMILIES))
        p.add_argument("--params", help="family parameters, e.g. rho=0,lam=0,D=i")
        p.add_argument("--metric", help="r2=..,s2=..,t2=..,u=..,v=..,z=..")
        if name == "classify":
            p.add_argument("--hopf", help="n,alpha,beta instead of --family")
            p.add_argument("--point", help="evaluation point for --hopf")
            p.add_argument("--starts", type=int, default=DEFAULT_STARTS)

    p = sub.add_parser("table3", help="regenerate the classification table")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--format", choices=("markdown", "json"), default="markdown")
    p.add_argument("--output")
    p.add_argument("--fixture", help="override the expected-verdict fixture")

    return parser


_HANDLERS = {
    "families": cmd_families,
    "hopf": cmd_hopf,
    "flow": cmd_flow,
    "cplx": cmd_cplx,
    "classify": cmd_classify,
    "table3": cmd_table3,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first command and reused."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        # read for every command: the cached parser's default is stale
        namespace = argparse.Namespace(seed=_default_seed())
        args = _parser().parse_args(argv, namespace)
        return _HANDLERS[args.command](args)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
