"""Catalog of invariant complex-structure families on six-dimensional
solvmanifolds with holomorphically trivial canonical bundle, plus the
classification harness that regenerates the reference verdict table.

Families carry an id (Np, Ni, Nii, Niii, Si, Sii, Siii1..Siii4, Siv1..Siv3,
Sv), a parameter schema, and a builder returning structure equations.  The
classification rows pair a parameter point with the observed symmetry
condition of the Bismut curvature (the pure-type vanishing), the metric
slice on which it holds, and the sign verdict of the bisectional biquadratic
on that slice; `regenerate_table3` recomputes all of it from scratch and
diffs against the checked-in fixture.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable

import numpy as np

from .flows import NAMED_FLOWS, FlowCoefficients
from .invariant import (ComplexStructureEquations, MetricCoefficients, bismut_curvatures,
                        bismut_pure_type, check_cplx, integrate_invariant_flows,
                        sample_admissible_metrics)
from .positivity import DEFAULT_STARTS, sign_verdicts
from .tensors import CurvatureTensor

MIN_SAMPLES = 50
#: sign samples per classified case, and records per flow after its start
SIGN_SAMPLES = 8
FLOW_CHECKPOINTS = 2
#: metrics per stack in the pure-type scans.  The per-call overhead it
#: saves levels off while the traced peak grows: 200 metrics scanned one
#: at a time, in chunks of 16, 32, 64 and in one call took 8.2, 1.8, 1.6,
#: 1.4 and 2.1 ms (mean of the 32 cases, 2-core Xeon), at a peak of 0.02,
#: 0.27, 0.50, 0.88 and 2.49 MiB, which would dominate a case's peak.
SCAN_CHUNK = 16
OFF_SLICE_FLOOR = 0.05
WITNESS_RTOL = 1e-8


class CatalogError(ValueError):
    pass


# ---------------------------------------------------------------------------
# family definitions
# ---------------------------------------------------------------------------

def _np_builder(rho: int) -> ComplexStructureEquations:
    _require(rho in (0, 1), f"rho must be 0 or 1, got {rho}")
    return ComplexStructureEquations.from_terms(
        3, c_terms=[(3, 1, 2, rho)] if rho else [])


def _ni_builder(rho: int, lam: float, D: complex) -> ComplexStructureEquations:
    _require(rho in (0, 1), f"rho must be 0 or 1, got {rho}")
    _require(lam >= 0, f"lambda must be >= 0, got {lam}")
    _require(complex(D).imag >= 0, f"Im D must be >= 0, got {D}")
    return ComplexStructureEquations.from_terms(
        3,
        c_terms=[(3, 1, 2, rho)] if rho else [],
        d_terms=[(3, 1, 1, 1.0), (3, 1, 2, lam), (3, 2, 2, D)])


def _nii_builder(rho: int, B: complex, c: float) -> ComplexStructureEquations:
    _require(rho in (0, 1), f"rho must be 0 or 1, got {rho}")
    _require(c >= 0, f"c must be >= 0, got {c}")
    _require((rho, complex(B), float(c)) != (0, 0j, 0.0),
             "(rho, B, c) = (0, 0, 0) is excluded")
    return ComplexStructureEquations.from_terms(
        3,
        c_terms=[(3, 1, 2, rho)] if rho else [],
        d_terms=[(2, 1, 1, 1.0), (3, 1, 2, B), (3, 2, 1, c)])


def _niii_builder(rho: int, delta: int) -> ComplexStructureEquations:
    _require(rho in (0, 1), f"rho must be 0 or 1, got {rho}")
    _require(delta in (1, -1), f"delta must be +-1, got {delta}")
    return ComplexStructureEquations.from_terms(
        3,
        c_terms=[(2, 1, 3, 1.0)],
        d_terms=[(2, 1, 3, 1.0), (3, 1, 1, 1j * rho),
                 (3, 1, 2, 1j * delta), (3, 2, 1, -1j * delta)])


def _si_builder(theta: float) -> ComplexStructureEquations:
    _require(0 <= theta < np.pi, f"theta must lie in [0, pi), got {theta}")
    A = np.exp(1j * theta)
    return ComplexStructureEquations.from_terms(
        3,
        c_terms=[(1, 1, 3, A), (2, 2, 3, -A)],
        d_terms=[(1, 1, 3, A), (2, 2, 3, -A)])


def _sii_builder(x: float) -> ComplexStructureEquations:
    _require(x > 0, f"x must be > 0, got {x}")
    return ComplexStructureEquations.from_terms(
        3,
        c_terms=[(2, 1, 3, -0.5), (3, 1, 2, 0.5)],
        d_terms=[(2, 1, 3, -(0.5 + 1j * x)), (2, 3, 1, 1j * x),
                 (3, 1, 2, 0.5 - 0.25j / x), (3, 2, 1, 0.25j / x)])


def _siii_builder(x: int, y: int) -> ComplexStructureEquations:
    return ComplexStructureEquations.from_terms(
        3,
        c_terms=[(1, 1, 3, 1j), (2, 2, 3, -1j)],
        d_terms=[(1, 1, 3, 1j), (2, 2, 3, -1j), (3, 1, 1, x), (3, 2, 2, y)])


def _siii1_builder(delta: int) -> ComplexStructureEquations:
    _require(delta in (1, -1), f"delta must be +-1, got {delta}")
    return _siii_builder(delta, 0)


def _siii2_builder() -> ComplexStructureEquations:
    return ComplexStructureEquations.from_terms(
        3,
        c_terms=[(1, 1, 3, 1.0), (2, 2, 3, -1.0)],
        d_terms=[(1, 1, 3, 1.0), (2, 2, 3, -1.0), (3, 1, 2, 1.0), (3, 2, 1, 1.0)])


def _siii3_builder() -> ComplexStructureEquations:
    return _siii_builder(1, 1)


def _siii4_builder(delta: int) -> ComplexStructureEquations:
    _require(delta in (1, -1), f"delta must be +-1, got {delta}")
    return _siii_builder(delta, -delta)


def _siv1_builder() -> ComplexStructureEquations:
    return ComplexStructureEquations.from_terms(
        3, c_terms=[(1, 1, 3, -1.0), (2, 2, 3, 1.0)])


def _siv2_builder(x: int) -> ComplexStructureEquations:
    _require(x in (0, 1), f"x must be 0 or 1, got {x}")
    return ComplexStructureEquations.from_terms(
        3,
        c_terms=[(1, 1, 3, 2j), (2, 2, 3, -2j)],
        d_terms=[(1, 3, 3, 1.0), (2, 3, 3, -x)])


def _siv3_builder(A: complex) -> ComplexStructureEquations:
    _require(abs(abs(complex(A)) - 1.0) > 1e-12, f"|A| = 1 is excluded, got A={A}")
    return ComplexStructureEquations.from_terms(
        3,
        c_terms=[(1, 1, 3, A), (2, 2, 3, -A)],
        d_terms=[(1, 1, 3, -1.0), (2, 2, 3, 1.0)])


def _sv_builder() -> ComplexStructureEquations:
    return ComplexStructureEquations.from_terms(
        3,
        c_terms=[(2, 1, 2, 0.5j), (3, 1, 3, -0.5j)],
        d_terms=[(1, 3, 3, -1.0), (2, 1, 3, 0.5), (2, 2, 1, -0.5j),
                 (3, 3, 1, 0.5j)])


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CatalogError(message)


@dataclass(frozen=True)
class FamilySpec:
    family_id: str
    parameters: str
    builder: Callable[..., ComplexStructureEquations]
    description: str


FAMILIES: dict[str, FamilySpec] = {
    spec.family_id: spec for spec in [
        FamilySpec("Np", "rho in {0, 1}", _np_builder,
                   "d phi3 = rho phi^{12} (torus / Iwasawa-type)"),
        FamilySpec("Ni", "rho in {0,1}, lam >= 0, D complex with Im D >= 0",
                   _ni_builder,
                   "d phi3 = rho phi^{12} + phi^{1 1~} + lam phi^{1 2~} + D phi^{2 2~}"),
        FamilySpec("Nii", "rho in {0,1}, B complex, c >= 0, (rho,B,c) != 0",
                   _nii_builder,
                   "d phi2 = phi^{1 1~}, d phi3 = rho phi^{12} + B phi^{1 2~} + c phi^{2 1~}"),
        FamilySpec("Niii", "rho in {0,1}, delta = +-1", _niii_builder,
                   "d phi2 = phi^{13} + phi^{1 3~}, d phi3 = i rho phi^{1 1~} "
                   "+ delta i (phi^{1 2~} - phi^{2 1~})"),
        FamilySpec("Si", "theta in [0, pi), A = exp(i theta)", _si_builder,
                   "d phi1 = A(phi^{13} + phi^{1 3~}), d phi2 = -A(phi^{23} + phi^{2 3~})"),
        FamilySpec("Sii", "x > 0", _sii_builder,
                   "d phi2, d phi3 with the x-coefficients of the g3 algebra"),
        FamilySpec("Siii1", "delta = +-1", _siii1_builder,
                   "d phi1 = i(phi^{13} + phi^{1 3~}), ..., d phi3 = delta phi^{1 1~}"),
        FamilySpec("Siii2", "none", _siii2_builder,
                   "d phi1 = phi^{13} + phi^{1 3~}, ..., d phi3 = phi^{1 2~} + phi^{2 1~}"),
        FamilySpec("Siii3", "none", _siii3_builder,
                   "d phi3 = phi^{1 1~} + phi^{2 2~} over the Siii coframe"),
        FamilySpec("Siii4", "delta = +-1", _siii4_builder,
                   "d phi3 = delta(phi^{1 1~} - phi^{2 2~}) over the Siii coframe"),
        FamilySpec("Siv1", "none", _siv1_builder,
                   "d phi1 = -phi^{13}, d phi2 = phi^{23}"),
        FamilySpec("Siv2", "x in {0, 1}", _siv2_builder,
                   "d phi1 = 2i phi^{13} + phi^{3 3~}, d phi2 = -2i phi^{23} - x phi^{3 3~}"),
        FamilySpec("Siv3", "A complex with |A| != 1", _siv3_builder,
                   "d phi1 = A phi^{13} - phi^{1 3~}, d phi2 = -A phi^{23} + phi^{2 3~}"),
        FamilySpec("Sv", "none", _sv_builder,
                   "d phi1 = -phi^{3 3~} plus the g9 lower-triangular terms"),
    ]
}


def instantiate(family_id: str, **params) -> ComplexStructureEquations:
    """Structure equations of a family at a parameter point.

    Raises for missing, unknown or inadmissible parameters, and for a
    complex value of a parameter the builder annotates ``int`` or ``float``;
    the returned equations have passed the closedness and Jacobi checks (via
    dualization).
    """
    try:
        spec = FAMILIES[family_id]
    except KeyError:
        raise CatalogError(f"unknown family {family_id!r}; known: "
                           f"{sorted(FAMILIES)}") from None
    signature = inspect.signature(spec.builder).parameters
    names = list(signature)
    missing, unknown = [p for p in names if p not in params], sorted(set(params) - set(names))
    if missing or unknown:
        raise CatalogError(f"family {family_id} takes parameters {names} ({spec.parameters}): "
                           f"missing {missing}, unknown {unknown}")
    for name, value in params.items():
        # the builders compare their int and float parameters with numbers
        if isinstance(value, complex) and signature[name].annotation in ("int", "float"):
            raise CatalogError(f"family {family_id} takes a real {name}, got {value!r}")
    eqs = spec.builder(**params)
    eqs.bracket  # dualize validates integrability; raises IntegrabilityError
    return eqs


# ---------------------------------------------------------------------------
# classification cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationCase:
    """One row of the classification run.

    ``cplx`` is "always", "never" or "slice"; ``cplx_slice`` fixes metric
    coefficients when the condition holds only there.  ``sign_slice`` pins
    the metric sample used for the sign verdict (None: generic metrics).
    ``never_slices`` lists extra constrained slices that must still violate
    the condition for a "never" case.
    """

    key: str
    family: str
    params: dict
    cplx: str
    cplx_slice: dict | None = None
    sign_slice: dict | None = None
    expected_verdict: str | None = None
    never_slices: tuple = ()
    note: str = ""


DIAG = {"u": 0, "v": 0, "z": 0}
NI_SLICE = {"r2": 1.0, "v": 0, "z": 0}

CASES: list[ClassificationCase] = [
    ClassificationCase("Np/torus", "Np", {"rho": 0}, "always",
                       sign_slice=None, expected_verdict="flat"),
    ClassificationCase("Np/iwasawa", "Np", {"rho": 1}, "always",
                       sign_slice=None, expected_verdict="indefinite"),
    ClassificationCase("Ni/h2/diagonal", "Ni", {"rho": 0, "lam": 0.0, "D": 1j},
                       "always", sign_slice={**NI_SLICE, "u": 0},
                       expected_verdict="non_negative"),
    ClassificationCase("Ni/h2/off-diagonal", "Ni", {"rho": 0, "lam": 0.0, "D": 1j},
                       "always", sign_slice=NI_SLICE,
                       expected_verdict="indefinite",
                       note="non-negative exactly when u = 0"),
    ClassificationCase("Ni/h3/D=+1", "Ni", {"rho": 0, "lam": 0.0, "D": 1.0},
                       "always", sign_slice=NI_SLICE,
                       expected_verdict="non_negative"),
    ClassificationCase("Ni/h3/D=-1", "Ni", {"rho": 0, "lam": 0.0, "D": -1.0},
                       "always", sign_slice=NI_SLICE,
                       expected_verdict="indefinite"),
    ClassificationCase("Ni/h4", "Ni", {"rho": 0, "lam": 1.0, "D": 0.25},
                       "always", sign_slice=NI_SLICE,
                       expected_verdict="indefinite"),
    ClassificationCase("Ni/h5", "Ni", {"rho": 0, "lam": 1.0, "D": 0.1},
                       "always", sign_slice=NI_SLICE,
                       expected_verdict="indefinite"),
    ClassificationCase("Ni/h8", "Ni", {"rho": 0, "lam": 0.0, "D": 0.0},
                       "always", sign_slice=NI_SLICE,
                       expected_verdict="non_negative"),
    ClassificationCase("Ni/rho=1", "Ni", {"rho": 1, "lam": 0.0, "D": 1j},
                       "never", never_slices=(NI_SLICE, DIAG)),
    ClassificationCase("Nii/main", "Nii", {"rho": 1, "B": 0j, "c": 0.0},
                       "slice", cplx_slice={"v": 0}, sign_slice={"v": 0},
                       expected_verdict="indefinite"),
    ClassificationCase("Nii/rho=0", "Nii", {"rho": 0, "B": 0.4 + 0.3j, "c": 0.6},
                       "never", never_slices=(DIAG,)),
    ClassificationCase("Nii/B!=0", "Nii", {"rho": 1, "B": 0.5 - 0.2j, "c": 0.0},
                       "never", never_slices=(DIAG,)),
    ClassificationCase("Nii/c!=0", "Nii", {"rho": 1, "B": 0j, "c": 0.8},
                       "never", never_slices=(DIAG,)),
    ClassificationCase("Niii/rho=0", "Niii", {"rho": 0, "delta": 1},
                       "never", never_slices=(DIAG,)),
    ClassificationCase("Niii/rho=1", "Niii", {"rho": 1, "delta": -1},
                       "never", never_slices=(DIAG,)),
    ClassificationCase("Si/flat", "Si", {"theta": np.pi / 2}, "slice",
                       cplx_slice=DIAG, sign_slice=DIAG,
                       expected_verdict="flat"),
    ClassificationCase("Si/generic", "Si", {"theta": 0.7}, "slice",
                       cplx_slice=DIAG, sign_slice=DIAG,
                       expected_verdict="indefinite"),
    ClassificationCase("Si/theta=0", "Si", {"theta": 0.0}, "slice",
                       cplx_slice=DIAG, sign_slice=DIAG,
                       expected_verdict="indefinite"),
    ClassificationCase("Sii", "Sii", {"x": 0.8}, "never",
                       never_slices=({**DIAG, "tie_s2_t2": True},)),
    ClassificationCase("Siii1/+", "Siii1", {"delta": 1}, "slice",
                       cplx_slice=DIAG, sign_slice=DIAG,
                       expected_verdict="non_negative"),
    ClassificationCase("Siii1/-", "Siii1", {"delta": -1}, "slice",
                       cplx_slice=DIAG, sign_slice=DIAG,
                       expected_verdict="non_negative"),
    ClassificationCase("Siii2", "Siii2", {}, "never",
                       never_slices=({"v": 0, "z": 0},)),
    ClassificationCase("Siii3", "Siii3", {}, "slice",
                       cplx_slice=DIAG, sign_slice=DIAG,
                       expected_verdict="non_negative",
                       note="computed verdict; not part of the source table"),
    ClassificationCase("Siii4", "Siii4", {"delta": 1}, "slice",
                       cplx_slice=DIAG, sign_slice=DIAG,
                       expected_verdict="indefinite",
                       note="computed verdict; not part of the source table"),
    ClassificationCase("Siv1", "Siv1", {}, "always",
                       sign_slice=None, expected_verdict="indefinite"),
    ClassificationCase("Siv2/x=0", "Siv2", {"x": 0}, "never",
                       never_slices=(DIAG,)),
    ClassificationCase("Siv2/x=1", "Siv2", {"x": 1}, "never",
                       never_slices=(DIAG,)),
    ClassificationCase("Siv3/generic", "Siv3", {"A": 2.0 + 0.5j}, "slice",
                       cplx_slice=DIAG, sign_slice=DIAG,
                       expected_verdict="indefinite"),
    ClassificationCase("Siv3/real", "Siv3", {"A": 0.5}, "slice",
                       cplx_slice=DIAG, sign_slice=DIAG,
                       expected_verdict="indefinite"),
    ClassificationCase("Siv3/A=0", "Siv3", {"A": 0j}, "slice",
                       cplx_slice={"v": 0, "z": 0}, sign_slice={"v": 0, "z": 0},
                       expected_verdict="indefinite"),
    ClassificationCase("Sv", "Sv", {}, "never",
                       never_slices=({"z": 0, "v": 0},)),
]

CASE_INDEX = {case.key: case for case in CASES}


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------

def _sample_slice(rng: np.random.Generator, slice_spec: dict | None) -> np.ndarray:
    spec = dict(slice_spec or {})
    tie = spec.pop("tie_s2_t2", False)
    x = sample_admissible_metrics(rng, 1, spec)[0]
    if tie:
        x = sample_admissible_metrics(rng, 1, {**spec, "s2": x[1], "t2": x[1]})[0]
    return x


def _sample_off_slice(rng: np.random.Generator, slice_spec: dict) -> np.ndarray:
    """A metric row violating every zero-constraint of the slice by at least
    ``OFF_SLICE_FLOOR`` in modulus (other coefficients random)."""
    fixed = {}
    for name, value in slice_spec.items():
        if name in ("u", "v", "z") and value == 0:
            radius = rng.uniform(OFF_SLICE_FLOOR, 0.4)
            fixed[name] = radius * np.exp(2j * np.pi * rng.uniform())
    if not fixed:
        raise CatalogError("slice has no zero-constraints to violate")
    return sample_admissible_metrics(rng, 1, fixed)[0]


def bismut_curvature(eqs: ComplexStructureEquations, x: np.ndarray) -> CurvatureTensor:
    """The stack of the Bismut curvatures of an invariant structure at the
    rows of the (R, 9) stack ``x`` of ``as_array`` coordinates."""
    return bismut_curvatures(eqs.bracket, x)


# ---------------------------------------------------------------------------
# numeric witnesses (regression values recomputed per run)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessResult:
    name: str
    value: complex
    reference: complex
    ok: bool


def _witnesses(case: ClassificationCase, m: MetricCoefficients,
               omega: CurvatureTensor) -> list[WitnessResult]:
    """Closed-form components of the case at ``m``: on the sign slice of a
    classified family, and the exact violating components on the constrained
    slices of the never-satisfied families (Niii, Sii, Siii2, Siv2, Sv)."""
    out: list[WitnessResult] = []
    detG = float(np.linalg.det(m.hermitian_matrix()).real)
    e = omega.entry

    def add(name, value, reference):
        value, reference = complex(value), complex(reference)
        out.append(WitnessResult(name, value, reference,
                                 abs(value - reference) <= WITNESS_RTOL * (2.0 + abs(reference))))

    if case.key == "Np/iwasawa":
        add("Om(1,-1,3,-3)", e(1, -1, 3, -3),
            m.t2 ** 2 * (m.r2 * m.t2 - abs(m.z) ** 2) / (16 * detG))
        det2 = e(1, -1, 3, -3) * e(2, -2, 3, -3) - e(1, -2, 3, -3) * e(2, -1, 3, -3)
        add("|pair determinant|", abs(det2), m.t2 ** 5 / (32 * detG))
    elif case.key == "Ni/h2/off-diagonal":
        det3 = e(3, -3, 1, -1) * e(3, -3, 2, -2) - e(3, -3, 1, -2) * e(3, -3, 2, -1)
        add("h2 determinant", det3,
            -m.t2 ** 4 * abs(m.u) ** 2 / (m.s2 - abs(m.u) ** 2) ** 2)
    elif case.key == "Ni/h4":
        Ginv = np.linalg.inv(m.hermitian_matrix())
        ric2 = np.einsum("lk,klij->ij", Ginv, omega.mixed_block())
        det2 = ric2[0, 0] * ric2[1, 1] - ric2[0, 1] * ric2[1, 0]
        out.append(WitnessResult("Ric2 determinant negativity", complex(det2),
                                 complex(-1), det2.real < -1e-10))
        pair = e(1, -1, 1, -1) * e(1, -1, 2, -2) - e(1, -1, 1, -2) * e(1, -1, 2, -1)
        add("pair determinant (D=1/4)", pair, 0.0)
    elif case.key == "Ni/h5":
        pair = e(1, -1, 1, -1) * e(1, -1, 2, -2) - e(1, -1, 1, -2) * e(1, -1, 2, -1)
        add("pair determinant", pair,
            m.t2 ** 2 * (complex(case.params["D"]) - 0.25))
        add("Om(1,-1,1,-1)", e(1, -1, 1, -1), m.t2)
    elif case.family == "Ni" and case.params.get("rho") == 0 \
            and case.params.get("lam") == 0.0:
        D = complex(case.params["D"])
        add("Om(1,-1,1,-1)", e(1, -1, 1, -1), m.t2)
        add("Om(1,-1,2,-2)", e(1, -1, 2, -2), D.real * m.t2)
        add("Om(2,-2,2,-2)", e(2, -2, 2, -2), abs(D) ** 2 * m.t2)
        add("Om(3,-3,1,-2)", e(3, -3, 1, -2),
            -((1j * D).real) * m.t2 ** 2 * m.u / (m.s2 - abs(m.u) ** 2))
    elif case.key == "Nii/main":
        add("Om(2,-2,3,-3)", e(2, -2, 3, -3), m.s2 * m.t2 ** 3 / (16 * detG))
        det2 = e(2, -2, 3, -3) * e(1, -1, 3, -3) - e(1, -2, 3, -3) * e(2, -1, 3, -3)
        add("|pair determinant|", abs(det2), m.t2 ** 5 / (32 * detG))
    elif case.family == "Si":
        A = np.exp(1j * float(case.params["theta"]))
        add("Om(1,-1,1,-1)", e(1, -1, 1, -1),
            2 * A.real ** 2 * m.r2 ** 2 / m.t2)
        add("Om(1,-1,3,-3)", e(1, -1, 3, -3), -2 * m.r2 * A.real ** 2)
    elif case.family == "Siii1":
        block = omega.mixed_block()
        rest = block.copy()
        rest[0, 0, 0, 0] = 0.0
        add("Om(1,-1,1,-1)", e(1, -1, 1, -1), m.t2)
        out.append(WitnessResult("all other mixed components",
                                 complex(np.max(np.abs(rest))), 0j,
                                 float(np.max(np.abs(rest))) <= 1e-9 * (1 + m.t2)))
    elif case.key == "Siv1":
        r2s2u = m.r2 * m.s2 - abs(m.u) ** 2
        add("Om(1,-1,1,-1)", e(1, -1, 1, -1), r2s2u * m.r2 ** 2 / (16 * detG))
        det2 = e(1, -1, 1, -1) * e(1, -1, 3, -3) - e(1, -1, 1, -3) * e(1, -1, 3, -1)
        add("pair determinant", det2, -r2s2u * m.r2 ** 3 / (32 * detG))
    elif case.family == "Siv3":
        A = complex(case.params["A"])
        r2s2u = m.r2 * m.s2 - abs(m.u) ** 2
        add("Om(1,-1,1,-1)", e(1, -1, 1, -1),
            0.5 * m.r2 ** 2 / m.t2 * abs(A - 1) ** 2)
        add("Om(1,-1,3,-3)", e(1, -1, 3, -3),
            -0.5 * (abs(A - 1) ** 2 * m.r2 ** 2 * m.s2
                    - ((A - 1) * np.conj(A) - A - 3) * m.r2 * abs(m.u) ** 2) / r2s2u)
    elif case.family == "Niii" and m.u == 0 and m.v == 0 and m.z == 0:
        delta = case.params["delta"]
        add("Om(1,3,3,-1)", e(1, 3, 3, -1), 0.5 * (m.s2 - delta * 1j * m.t2))
    elif case.family == "Sii" and m.s2 == m.t2 and m.u == 0:
        x = float(case.params["x"])
        add("Om(1,2,1,-2)", e(1, 2, 1, -2),
            -1j * m.t2 * (4 * x ** 2 + 1) / (16 * x))
    elif case.family == "Siii2" and m.v == 0 and m.z == 0:
        add("Om(1,3,3,-2)", e(1, 3, 3, -2),
            m.r2 * m.s2 * m.t2 * (m.t2 + 2j * m.u) / (8 * detG))
    elif case.family == "Siv2" and case.params.get("x") == 0 \
            and m.u == 0 and m.v == 0 and m.z == 0:
        add("Om(1,2,3,-2)", e(1, 2, 3, -2), -(m.r2 * m.s2) ** 2 / (8 * (-1j * detG)))
    elif case.family == "Sv" and m.v == 0 and m.z == 0:
        add("Om(1,2,3,-1)", e(1, 2, 3, -1),
            -(m.r2 * m.s2 - abs(m.u) ** 2) / (4 * m.t2))
    return out


# ---------------------------------------------------------------------------
# the regeneration harness
# ---------------------------------------------------------------------------

@dataclass
class ClassificationRow:
    key: str
    family: str
    params: dict
    cplx_observed: str
    cplx_detail: dict
    verdict_observed: str | None
    witnesses: list[WitnessResult] = field(default_factory=list)
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "family": self.family,
            "params": {k: _param_repr(v) for k, v in sorted(self.params.items())},
            "cplx": self.cplx_observed,
            "cplx_detail": self.cplx_detail,
            "verdict": self.verdict_observed,
            "witnesses": [
                {"name": w.name, "value": _cplx_repr(w.value),
                 "reference": _cplx_repr(w.reference), "ok": bool(w.ok)}
                for w in self.witnesses
            ],
            "note": self.note,
        }


def _param_repr(v) -> str:
    if isinstance(v, complex):
        return _cplx_repr(v)
    return f"{v:.10g}" if isinstance(v, float) else str(v)


def _cplx_repr(v: complex) -> str:
    v = complex(v)
    return f"{v.real:.10g}{v.imag:+.10g}i"


def classify_case(case: ClassificationCase,
                  samples: int,
                  rng: np.random.Generator) -> ClassificationRow:
    """Recompute one classification row from scratch.

    Each phase draws all of its metrics first, in the order of the rng, and
    then scans them in stacks of ``SCAN_CHUNK``: ``bismut_pure_type`` decides
    the random, slice and off-slice metrics from one curvature block,
    ``data[..., h, a]``, and only the never-slice metrics, whose witnesses
    read components, get curvature tensors.  The ``SIGN_SAMPLES`` sign
    samples are classified in one stack, through ``sign_verdicts``, as only
    their verdicts are kept.
    """
    eqs = instantiate(case.family, **case.params)
    detail: dict = {}
    witnesses: list[WitnessResult] = []

    def passes(x: np.ndarray) -> int:
        """How many rows have vanishing pure-type components, decided as
        ``check_cplx`` decides them, without forming the curvatures."""
        count = 0
        for at in range(0, len(x), SCAN_CHUNK):
            violation, tolerance = bismut_pure_type(eqs.bracket, x[at:at + SCAN_CHUNK])
            count += int(np.count_nonzero(violation <= tolerance))
        return count

    def witnessed(x: np.ndarray, omegas: CurvatureTensor) -> None:
        for row, omega in zip(x, omegas):
            witnesses.extend(_witnesses(case, MetricCoefficients.from_array(row), omega))

    # (a) random full metrics
    random_pass = passes(sample_admissible_metrics(rng, samples))
    detail["random_pass"] = random_pass
    detail["random_total"] = samples

    n_aux = max(10, samples // 10)

    def drawn(sample, spec) -> np.ndarray:
        return np.array([sample(rng, spec) for _ in range(n_aux)])

    if case.cplx == "always":
        observed = "always" if random_pass == samples else "violated"
    elif case.cplx == "slice":
        slice_pass = passes(drawn(_sample_slice, case.cplx_slice))
        off_fail = n_aux - passes(drawn(_sample_off_slice, case.cplx_slice))
        detail["slice_pass"] = slice_pass
        detail["slice_total"] = n_aux
        detail["off_slice_fail"] = off_fail
        if slice_pass == n_aux and off_fail == n_aux and random_pass == 0:
            observed = "slice"
        else:
            observed = "inconsistent"
    else:  # never
        slice_fail = True
        x = np.concatenate([drawn(_sample_slice, spec) for spec in case.never_slices])
        for at in range(0, len(x), SCAN_CHUNK):
            chunk = x[at:at + SCAN_CHUNK]
            omegas = bismut_curvature(eqs, chunk)
            slice_fail &= not any(r.satisfied for r in check_cplx(omegas))
            witnessed(chunk, omegas)
        observed = "never" if (random_pass == 0 and slice_fail) else "inconsistent"

    # (c) sign classification on the slice
    verdict: str | None = None
    if case.expected_verdict is not None:
        rows, seeds = [], []
        for _ in range(SIGN_SAMPLES):
            rows.append(_sample_slice(rng, case.sign_slice))
            seeds.append(int(rng.integers(0, 2 ** 31)))
        omegas = bismut_curvature(eqs, np.array(rows))
        verdicts = {v.value for v in sign_verdicts(omegas, DEFAULT_STARTS, seeds)}
        witnessed(rows, omegas)
        verdict = verdicts.pop() if len(verdicts) == 1 else "mixed:" + ",".join(sorted(verdicts))

    # de-duplicate witnesses by name, keeping any failure
    dedup: dict[str, WitnessResult] = {}
    for w in witnesses:
        if w.name not in dedup or not w.ok:
            dedup[w.name] = w
    return ClassificationRow(key=case.key, family=case.family, params=case.params,
                             cplx_observed=observed, cplx_detail=detail,
                             verdict_observed=verdict,
                             witnesses=list(dedup.values()), note=case.note)


@dataclass
class Table3Result:
    rows: list[ClassificationRow]
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return {"samples": self.samples, "seed": self.seed,
                "rows": [r.to_dict() for r in self.rows]}


def regenerate_table3(samples_per_family: int = 200, seed: int = 0) -> Table3Result:
    """Recompute the whole classification table.

    Per case: scan random admissible metrics for the pure-type vanishing,
    verify the metric slice (and its violation off the slice) when one is
    listed, then classify the sign of the bisectional form on the slice and
    evaluate the closed-form component witnesses.
    """
    if samples_per_family < MIN_SAMPLES:
        raise CatalogError(f"samples_per_family {samples_per_family} is below "
                           f"the minimum {MIN_SAMPLES}")
    rng = np.random.default_rng(seed)
    rows = [classify_case(case, samples_per_family, rng) for case in CASES]
    return Table3Result(rows=rows, samples=samples_per_family, seed=seed)


# ---------------------------------------------------------------------------
# fixture comparison and rendering
# ---------------------------------------------------------------------------

def load_fixture() -> dict:
    text = resources.files("hermflow").joinpath("data/table3_expected.json") \
        .read_text(encoding="utf-8")
    return json.loads(text)


def compare_with_fixture(result: Table3Result, fixture: dict | None = None
                         ) -> tuple[bool, list[str]]:
    """Diff the regenerated rows against the expected table; returns
    (matches, list of human-readable differences)."""
    fixture = fixture if fixture is not None else load_fixture()
    expected = {row["key"]: row for row in fixture["rows"]}
    diffs: list[str] = []
    seen = set()
    for row in result.rows:
        seen.add(row.key)
        exp = expected.get(row.key)
        if exp is None:
            diffs.append(f"{row.key}: missing from fixture")
            continue
        if row.cplx_observed != exp["cplx"]:
            diffs.append(f"{row.key}: cplx {row.cplx_observed!r} != expected {exp['cplx']!r}")
        if (row.verdict_observed or None) != exp.get("verdict"):
            diffs.append(f"{row.key}: verdict {row.verdict_observed!r} != "
                         f"expected {exp.get('verdict')!r}")
        for w in row.witnesses:
            if not w.ok:
                diffs.append(f"{row.key}: witness {w.name} value {_cplx_repr(w.value)}"
                             f" != reference {_cplx_repr(w.reference)}")
    for key in expected:
        if key not in seen:
            diffs.append(f"{key}: expected row was not regenerated")
    return (not diffs), diffs


def render_markdown(result: Table3Result) -> str:
    lines = [
        "| case | family | condition | verdict | witnesses |",
        "|------|--------|-----------|---------|-----------|",
    ]
    for row in result.rows:
        slice_txt = {"always": "always satisfied",
                     "never": "never satisfied",
                     "slice": "on slice"}.get(row.cplx_observed, row.cplx_observed)
        case = CASE_INDEX[row.key]
        if row.cplx_observed == "slice" and case.cplx_slice:
            fixed = ", ".join(f"{k}={v}" for k, v in sorted(case.cplx_slice.items()))
            slice_txt += f" ({fixed})"
        wit = "; ".join(f"{w.name}{'' if w.ok else ' [MISMATCH]'}"
                        for w in row.witnesses) or "-"
        lines.append(f"| {row.key} | {row.family} | {slice_txt} "
                     f"| {row.verdict_observed or '-'} | {wit} |")
    return "\n".join(lines) + "\n"


def render_json(result: Table3Result) -> str:
    return json.dumps(result.to_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# flow preservation
# ---------------------------------------------------------------------------

@dataclass
class FlowPreservationReport:
    key: str
    flows: list[str]
    slice_drift: float
    verdicts: dict
    flat_drift: float | None
    degenerated: list[str]

    @property
    def slice_preserved(self) -> bool:
        return self.slice_drift <= 1e-8

    @property
    def verdict_preserved(self) -> bool:
        return all(len(set(v)) == 1 for v in self.verdicts.values())


def flow_preservation_check(case_key: str,
                            extra_flows: int = 5,
                            t_end: float = 0.5,
                            dt: float = 2e-3,
                            seed: int = 0,
                            starts: int = 24) -> FlowPreservationReport:
    """Integrate the coefficient flow for one classification case and verify
    that the metric slice conditions and the sign verdict class persist.

    Runs the named flows plus ``extra_flows`` random coefficient tuples,
    each recorded at ``FLOW_CHECKPOINTS`` evenly spaced times up to ``t_end``.
    For the flat cases the report carries the largest curvature magnitude
    seen along the flow instead.
    """
    case = CASE_INDEX.get(case_key)
    if case is None or case.expected_verdict is None:
        why = "is not a catalog case" if case is None else "has no classified slice to track"
        raise CatalogError(f"case {case_key!r} {why}; classified cases: "
                           + ", ".join(c.key for c in CASES if c.expected_verdict is not None))
    if extra_flows < 0:
        raise ValueError(f"extra_flows must be >= 0, got {extra_flows!r}")
    eqs = instantiate(case.family, **case.params)
    rng = np.random.default_rng(seed)
    m0 = MetricCoefficients.from_array(_sample_slice(rng, case.sign_slice))

    flows = list(NAMED_FLOWS.values())
    for k in range(extra_flows):
        a, b, c, d = rng.uniform(-1.0, 1.0, size=4)
        flows.append(FlowCoefficients(a, b, c, d, name=f"random-{k}"))

    labels = [fc.name or "anon" for fc in flows]
    zero_names = [name for name, val in (case.sign_slice or {}).items()
                  if name in ("u", "v", "z") and val == 0]
    results = integrate_invariant_flows(eqs, m0, flows, t_end=t_end, dt=dt,
                                        checkpoints=FLOW_CHECKPOINTS)
    # all checkpoints of the case form one curvature stack; their seeds are
    # drawn flow by flow, record by record
    metrics = [m for result in results for m in result.metrics]
    owners = [label for label, result in zip(labels, results) for _ in result.metrics]
    slice_drift = max([0.0] + [abs(getattr(m, name)) for m in metrics for name in zero_names])
    omegas = bismut_curvature(eqs, np.array([m.as_array() for m in metrics]))
    if case.expected_verdict == "flat":
        flat_drift, classes = omegas.magnitude, ["flat"] * len(metrics)
    else:
        seeds = [int(rng.integers(0, 2 ** 31)) for _ in metrics]
        flat_drift = None
        classes = [v.value for v in sign_verdicts(omegas, starts, seeds)]
    verdicts: dict = {label: [] for label in labels}
    for label, verdict in zip(owners, classes):
        verdicts[label].append(verdict)
    return FlowPreservationReport(
        key=case_key, flows=labels, slice_drift=slice_drift, verdicts=verdicts,
        flat_drift=flat_drift,
        degenerated=[label for label, r in zip(labels, results) if r.degenerated])
