"""Invariant Hermitian geometry on the complexified frame of a Lie algebra.

Everything here is finite multilinear algebra over the frame
``(Z_1, .., Z_n, conj Z_1, .., conj Z_n)`` dual to an invariant coframe of
(1,0)-forms ``phi^1, .., phi^n``.  Conventions, fixed once and pinned by the
regression suite:

* structure equations ``d phi^k = sum_{i<j} C[k,i,j] phi^i ^ phi^j
  + sum_{i,j} D[k,i,j] phi^i ^ conj(phi^j)`` with the determinant wedge
  normalization ``(a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X)``;
* invariant 1-forms differentiate against brackets as
  ``d a (X, Y) = -a([X, Y])``;
* the Hermitian form is ``2*omega = i(r2 phi^{1 1~} + s2 phi^{2 2~}
  + t2 phi^{3 3~}) + u phi^{1 2~} - conj(u) phi^{2 1~} + v phi^{2 3~}
  - conj(v) phi^{3 2~} + z phi^{1 3~} - conj(z) phi^{3 1~}``, so that
  ``g(Z_i, conj Z_j)`` is ``-i`` times the coefficient matrix of ``omega``;
* the corrections turning Levi-Civita into the Bismut and Chern connections
  are fixed by their characterizations (totally skew lowered torsion,
  respectively vanishing (1,1)-torsion) rather than by a sign convention for
  ``d^c omega``;
* reported curvature components are ``Omega(A, B, C, D) =
  -g(R(e_A, e_B) e_C, e_D)`` with ``R(X, Y) = [grad_X, grad_Y] -
  grad_[X,Y]``; the sign is calibrated against the reference values of the
  classification suite (e.g. the t^2 diagonal component of the nilpotent
  family with ``d phi^3 = phi^{1 1~}``) and frozen.
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .flows import Termination, check_finite
from .tensors import (ZERO_RTOL, CurvatureTensor, TensorError, frame_label, label_name,
                      zero_threshold)

#: calibrated sign relating reported curvature components to g(R(A,B)C, D)
CURVATURE_COMPONENT_SIGN = -1.0

JACOBI_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-12


class IntegrabilityError(ValueError):
    pass


class MetricError(ValueError):
    pass


class FlowDegenerationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# structure equations and brackets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexStructureEquations:
    """Coefficients of ``d phi^k`` over the basis ``phi^{ij}``, ``phi^{i j~}``.

    ``C[k, i, j]`` multiplies ``phi^i ^ phi^j`` (antisymmetric in ``i, j``),
    ``D[k, i, j]`` multiplies ``phi^i ^ conj(phi^j)``.  All indices 0-based in
    storage; the JSON interchange format is 1-based.
    """

    n: int
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self) -> None:
        C = np.asarray(self.C, dtype=complex)
        D = np.asarray(self.D, dtype=complex)
        shape = (self.n,) * 3
        if C.shape != shape or D.shape != shape:
            raise ValueError(f"C and D must have shape {shape}")
        if np.max(np.abs(C + np.einsum("kij->kji", C))) > 1e-13:
            raise ValueError("C must be antisymmetric in its last two indices")
        for arr, name in ((C, "C"), (D, "D")):
            a = arr.copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @classmethod
    def from_terms(cls, n: int,
                   c_terms: Iterable[tuple[int, int, int, complex]] = (),
                   d_terms: Iterable[tuple[int, int, int, complex]] = ()
                   ) -> "ComplexStructureEquations":
        """Build from 1-based ``(k, i, j, coefficient)`` terms.

        ``c_terms`` are antisymmetrized automatically, so passing
        ``(3, 1, 2, rho)`` encodes ``d phi^3 = rho phi^{12}``.
        """
        C = np.zeros((n, n, n), dtype=complex)
        D = np.zeros((n, n, n), dtype=complex)
        for k, i, j, val in c_terms:
            C[k - 1, i - 1, j - 1] += val
            C[k - 1, j - 1, i - 1] -= val
        for k, i, j, val in d_terms:
            D[k - 1, i - 1, j - 1] += val
        return cls(n=n, C=C, D=D)

    # JSON schema: {"n": int, "C": [[k, i, j, re, im], ...], "D": [...]}
    # with 1-based indices and C listed once per unordered pair (i < j).
    def to_json_dict(self) -> dict:
        c_rows = []
        for k in range(self.n):
            for i in range(self.n):
                for j in range(i + 1, self.n):
                    val = self.C[k, i, j]
                    if val != 0:
                        c_rows.append([k + 1, i + 1, j + 1, val.real, val.imag])
        d_rows = []
        for k in range(self.n):
            for i in range(self.n):
                for j in range(self.n):
                    val = self.D[k, i, j]
                    if val != 0:
                        d_rows.append([k + 1, i + 1, j + 1, val.real, val.imag])
        return {"n": self.n, "C": c_rows, "D": d_rows}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ComplexStructureEquations":
        n = int(doc["n"])
        c_terms = [(int(k), int(i), int(j), complex(re, im))
                   for k, i, j, re, im in doc.get("C", [])]
        d_terms = [(int(k), int(i), int(j), complex(re, im))
                   for k, i, j, re, im in doc.get("D", [])]
        return cls.from_terms(n, c_terms, d_terms)

    @classmethod
    def from_json(cls, text: str) -> "ComplexStructureEquations":
        return cls.from_json_dict(json.loads(text))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @functools.cached_property
    def bracket(self) -> "BracketTable":
        """The validated ``dualize`` table, built on first use and kept."""
        return dualize(self)


@dataclass(frozen=True)
class BracketTable:
    """Structure constants ``[e_A, e_B] = f[A, B, C] e_C`` over the frame."""

    n: int
    f: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.f, dtype=complex)
        if f.shape != (2 * self.n,) * 3:
            raise ValueError(f"bracket table must have shape {(2 * self.n,) * 3}")
        f = f.copy()
        f.setflags(write=False)
        object.__setattr__(self, "f", f)

    def jacobi_residual(self) -> tuple[float, tuple[int, int, int]]:
        f = self.f
        jac = (np.einsum("abe,ecf->abcf", f, f)
               + np.einsum("bce,eaf->abcf", f, f)
               + np.einsum("cae,ebf->abcf", f, f))
        worst = float(np.max(np.abs(jac)))
        flat = int(np.argmax(np.abs(jac)))
        a, b, c, _ = np.unravel_index(flat, jac.shape)
        return worst, (int(a), int(b), int(c))

    @functools.cached_property
    def tangent_map(self) -> np.ndarray:
        """The (9, 225) matrix with which ``x @ tangent_map`` holds the blocks
        of ``_tangent_rows`` that are linear in the metric coordinates ``x``
        (n = 3), flattened: ``G[i, k~]``, the lowered (2,0) Chern torsion
        ``t[i, j, k] = low[i, j, k~] - low[j, i, k~] - f[i, j, m] G[m, k]``,
        the lowered Chern block ``low[A, i, k~]`` ordered ``(i, A, k)``, the
        trace sources ``(-low[b~], low[a])`` and ``W[(b, a)] = f[a, b~, E]
        low[E]``; row ``c`` holds them at the ``c``-th unit vector, by the
        ``connection()`` formula."""
        n, g = 3, _frame_metrics_of(np.eye(9))
        G = g[:, :n, n:]
        low = _lowered(ConnectionKind.CHERN, self.f, g)[:, :, :n, n:]
        t_low = (low[:, :n] - low[:, :n].swapaxes(1, 2)
                 - (self.f[:n, :n, :n].reshape(n * n, n) @ G).reshape(9, n, n, n))
        W = self.f[:n, n:].swapaxes(0, 1).reshape(n * n, 2 * n) @ low.reshape(9, 2 * n, n * n)
        return np.concatenate([b.reshape(9, -1) for b in (
            G, t_low, low.transpose(0, 2, 1, 3), -low[:, n:], low[:, :n], W)], axis=1)

    @functools.cached_property
    def bismut_map(self) -> np.ndarray:
        """The (9, 117) matrix with which ``x @ bismut_map`` holds ``G[i, k~]``
        and the lowered Bismut blocks ``SIGN L[A, c, d~]`` and ``SIGN L[A,
        c~, d]``, ``SIGN = CURVATURE_COMPONENT_SIGN``, flattened, in the same
        way as ``tangent_map``."""
        n, g = 3, _frame_metrics_of(np.eye(9))
        low = CURVATURE_COMPONENT_SIGN * _lowered(ConnectionKind.BISMUT, self.f, g)
        return np.concatenate([b.reshape(9, -1) for b in (
            g[:, :n, n:], low[:, :, :n, n:], low[:, :, n:, :n])], axis=1)


def dualize(eqs: ComplexStructureEquations) -> BracketTable:
    """Brackets of the frame dual to the structure equations.

    Uses ``d a (X, Y) = -a([X, Y])``; e.g. ``d phi^3 = phi^{12}`` gives
    ``[Z_1, Z_2] = -Z_3``.
    """
    n = eqs.n
    f = np.zeros((2 * n,) * 3, dtype=complex)
    h = slice(0, n)
    a = slice(n, 2 * n)
    f[h, h, h] = -np.einsum("kij->ijk", eqs.C)
    f[a, a, a] = -np.conj(np.einsum("kij->ijk", eqs.C))
    f[h, a, h] = -np.einsum("kij->ijk", eqs.D)
    f[h, a, a] = np.conj(np.einsum("kji->ijk", eqs.D))
    f[a, h, :] = -np.einsum("abc->bac", f[h, a, :].copy())
    table = BracketTable(n=n, f=f)

    worst, triple = table.jacobi_residual()
    if worst > JACOBI_TOL:
        labels = ", ".join(label_name(frame_label(x, n)) for x in triple)
        raise IntegrabilityError(
            f"Jacobi identity fails with residual {worst:.3e} at triple ({labels})")
    _check_reconstruction(eqs, table)
    return table


def _check_reconstruction(eqs: ComplexStructureEquations, table: BracketTable) -> None:
    """Applying d through the brackets must return the input coefficients."""
    n = eqs.n
    C_back = -np.einsum("ijk->kij", table.f[:n, :n, :n])
    D_back = -np.einsum("ijk->kij", table.f[:n, n:, :n])
    err = max(float(np.max(np.abs(C_back - eqs.C))),
              float(np.max(np.abs(D_back - eqs.D))))
    if err > RECONSTRUCTION_TOL:
        raise IntegrabilityError(f"bracket dualization mismatch {err:.3e}")


# ---------------------------------------------------------------------------
# invariant metrics
# ---------------------------------------------------------------------------

def _cone_test(r2: float, s2: float, t2: float, ur: float, ui: float, vr: float,
               vi: float, zr: float, zi: float) -> tuple[tuple, tuple]:
    """The seven cone conditions at the coordinates of ``as_array``, in the
    order ``validate`` reports them, and the terms they compare: ``|u|^2``,
    ``|v|^2``, ``|z|^2`` and the determinant indicator.  Raises nothing."""
    uu, vv, zz = ur * ur + ui * ui, vr * vr + vi * vi, zr * zr + zi * zi
    # 2 Re(i conj(u) conj(v) z), in the order of the complex products
    cross = (ui * vr + ur * vi) * zr - (ur * vr - ui * vi) * zi
    det = r2 * s2 * t2 + 2.0 * cross - (r2 * vv + t2 * uu + s2 * zz)
    held = (r2 > 0, s2 > 0, t2 > 0, r2 * s2 > uu, r2 * t2 > zz, s2 * t2 > vv, det > 0)
    return held, (uu, vv, zz, det)


#: stacks up to this many rows take the cone test row by row on floats,
#: cheaper there than the forty numpy calls of the test on columns
_FEW_ROWS = 8


def _admissible_rows(x: np.ndarray) -> np.ndarray:
    """``from_array(r).is_admissible()`` for each row of the (R, 9) stack
    ``x``: the same float operations, row by row or on columns."""
    if len(x) <= _FEW_ROWS:
        return np.array([all(_cone_test(*r)[0]) for r in x.tolist()], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.logical_and.reduce(_cone_test(*x.T)[0])


@dataclass(frozen=True)
class MetricCoefficients:
    """The six coefficients of an invariant Hermitian form in dimension 3."""

    r2: float
    s2: float
    t2: float
    u: complex = 0.0
    v: complex = 0.0
    z: complex = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "r2", float(self.r2))
        object.__setattr__(self, "s2", float(self.s2))
        object.__setattr__(self, "t2", float(self.t2))
        for name in ("u", "v", "z"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    def _cone(self):
        u, v, z = self.u, self.v, self.z
        return _cone_test(self.r2, self.s2, self.t2, u.real, u.imag, v.real, v.imag,
                          z.real, z.imag)

    def validate(self) -> None:
        held, (uu, vv, zz, det) = self._cone()
        if all(held):
            return
        r2, s2, t2 = self.r2, self.s2, self.t2
        # the first failing condition in order is reported
        raise MetricError((f"r2 > 0 fails: r2={r2!r}",
                           f"s2 > 0 fails: s2={s2!r}",
                           f"t2 > 0 fails: t2={t2!r}",
                           f"r2*s2 > |u|^2 fails: {r2 * s2!r} <= {uu!r}",
                           f"r2*t2 > |z|^2 fails: {r2 * t2!r} <= {zz!r}",
                           f"s2*t2 > |v|^2 fails: {s2 * t2!r} <= {vv!r}",
                           f"8i*det(Xi) > 0 fails: {np.float64(det)!r}")[held.index(False)])

    def is_admissible(self) -> bool:
        return all(self._cone()[0])

    def hermitian_matrix(self) -> np.ndarray:
        """``G[i, j] = g(Z_i, conj Z_j)``; Hermitian positive definite."""
        u, v, z = self.u, self.v, self.z
        G = np.array([
            [self.r2 / 2, -0.5j * u, -0.5j * z],
            [np.conj(-0.5j * u), self.s2 / 2, -0.5j * v],
            [np.conj(-0.5j * z), np.conj(-0.5j * v), self.t2 / 2],
        ], dtype=complex)
        return G

    @classmethod
    def from_hermitian_matrix(cls, G: np.ndarray) -> "MetricCoefficients":
        G = np.asarray(G, dtype=complex)
        return cls(r2=2 * G[0, 0].real, s2=2 * G[1, 1].real, t2=2 * G[2, 2].real,
                   u=2j * G[0, 1], v=2j * G[1, 2], z=2j * G[0, 2])

    def as_array(self) -> np.ndarray:
        """Real coordinates (r2, s2, t2, Re u, Im u, Re v, Im v, Re z, Im z)."""
        return np.array([self.r2, self.s2, self.t2,
                         self.u.real, self.u.imag,
                         self.v.real, self.v.imag,
                         self.z.real, self.z.imag])

    @classmethod
    def from_array(cls, x: np.ndarray) -> "MetricCoefficients":
        return cls(r2=x[0], s2=x[1], t2=x[2],
                   u=complex(x[3], x[4]), v=complex(x[5], x[6]),
                   z=complex(x[7], x[8]))


def _refuse_inadmissible(x: np.ndarray) -> np.ndarray:
    """``x`` as floats; refuses its first row outside the cone, as ``validate``."""
    x = np.ascontiguousarray(x, dtype=float)
    bad = ~_admissible_rows(x)
    if bad.any():
        MetricCoefficients.from_array(x[np.argmax(bad)]).validate()
    return x


def frame_metrics(x: np.ndarray) -> np.ndarray:
    """The complex-bilinear metrics ``g[r, A, B] = g(e_A, e_B)`` over the full
    frame of the rows of the (R, 9) stack ``x`` of ``as_array`` coordinates,
    with ``hermitian_matrix``'s operations; refuses the first row outside
    the cone with ``validate``'s error."""
    return _frame_metrics_of(_refuse_inadmissible(x))


def _frame_metrics_of(x: np.ndarray) -> np.ndarray:
    """``frame_metrics`` without the cone test, linear in ``x``."""
    R, n = len(x), 3
    # -i u / 2, -i v / 2 and -i z / 2 from the (re, im) pairs of u, v, z
    u, v, z = (-0.5j * x[:, 3:].view(complex)).T
    G = np.empty((R, n, n), dtype=complex)
    G[:, 0, 0], G[:, 1, 1], G[:, 2, 2] = x[:, 0] / 2, x[:, 1] / 2, x[:, 2] / 2
    G[:, 0, 1], G[:, 1, 2], G[:, 0, 2] = u, v, z
    G[:, 1, 0], G[:, 2, 1], G[:, 2, 0] = np.conj(u), np.conj(v), np.conj(z)
    g = np.zeros((R, 2 * n, 2 * n), dtype=complex)
    g[:, :n, n:] = G
    g[:, n:, :n] = G.swapaxes(1, 2)
    return g


def frame_metric(m: MetricCoefficients) -> np.ndarray:
    """The complex-bilinear metric over the full frame, ``g[A, B] = g(e_A, e_B)``."""
    return frame_metrics(m.as_array()[None])[0]


#: consecutive draws ``sample_admissible_metrics`` makes before it gives up
SAMPLE_MAX_TRIES = 200
#: bounds of the nine uniforms of one attempt: r2, s2, t2, then for each of
#: u, v, z the squared radius over 0.4^2 and the angle
_SAMPLE_LOW = np.array([0.5, 0.5, 0.5, 0, 0, 0, 0, 0, 0])
_SAMPLE_HIGH = np.array([2.0, 2.0, 2.0, 1, 2 * np.pi, 1, 2 * np.pi, 1, 2 * np.pi])
_SAMPLE_SPAN = _SAMPLE_HIGH - _SAMPLE_LOW
#: the coordinate columns of each coefficient a ``fixed`` entry pins
_COLUMNS = {"r2": 0, "s2": 1, "t2": 2, "u": slice(3, 5), "v": slice(5, 7), "z": slice(7, 9)}


def sample_admissible_metrics(rng: np.random.Generator, count: int,
                              fixed: dict | None = None) -> np.ndarray:
    """``as_array`` rows of ``count`` random admissible metrics, as a (count,
    9) stack: r2, s2, t2 uniform in [0.5, 2] and u, v, z in the complex disk
    of radius 0.4 (rejection sampling), keeping the determinant indicator
    away from zero.  ``fixed`` pins coefficients, e.g. ``{"v": 0, "z": 0}``.

    Attempts are drawn in order, nine uniforms each, as many at a time as
    metrics are missing: each metric takes at least one attempt, so the
    stream is never read beyond the attempt that completes the last metric,
    and ``count`` metrics read it as ``count`` samples of one do.  After
    ``SAMPLE_MAX_TRIES`` failed attempts in a row it raises ``MetricError``.
    """
    pinned = []
    for name, value in (fixed or {}).items():
        if name not in _COLUMNS:
            raise TypeError(f"unknown metric coefficient {name!r}")
        if name in ("u", "v", "z"):
            value = complex(value)
            pinned.append((_COLUMNS[name], [value.real, value.imag]))
        else:
            pinned.append((_COLUMNS[name], float(value)))
    out: list[np.ndarray] = []
    failed = 0
    while len(out) < count:
        tries = min(count - len(out), SAMPLE_MAX_TRIES - failed)
        # rng.uniform(_SAMPLE_LOW, _SAMPLE_HIGH, (tries, 9)) in its own
        # arithmetic, without its broadcasting checks
        draws = _SAMPLE_LOW + _SAMPLE_SPAN * rng.random((tries, 9))
        x = np.empty((tries, 9))
        x[:, :3] = draws[:, :3]
        x[:, 3:].view(complex)[:] = 0.4 * np.sqrt(draws[:, 3::2]) * np.exp(1j * draws[:, 4::2])
        for columns, value in pinned:
            x[:, columns] = value
        ok = _admissible_rows(x)
        out.extend(x[ok])
        # the attempts that failed in a row since the last admissible one
        hits = np.flatnonzero(ok)
        failed = tries - 1 - int(hits[-1]) if hits.size else failed + tries
        if failed >= SAMPLE_MAX_TRIES:
            raise MetricError("could not sample an admissible metric under the given constraints")
    return np.array(out).reshape(count, 9)


def sample_admissible_metric(rng: np.random.Generator,
                             fixed: dict | None = None) -> MetricCoefficients:
    """One metric of ``sample_admissible_metrics``."""
    return MetricCoefficients.from_array(sample_admissible_metrics(rng, 1, fixed)[0])


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------

class ConnectionKind(enum.Enum):
    LEVI_CIVITA = "levi-civita"
    BISMUT = "bismut"
    CHERN = "chern"


@dataclass(frozen=True)
class ConnectionCoefficients:
    """``grad_{e_A} e_B = gamma[A, B, C] e_C = lowered[A, B, D] inv(g)[D, C]``
    over the complexified frame; ``[..., A, B, C]`` for a stack of metrics."""

    kind: ConnectionKind
    n: int
    gamma: np.ndarray
    g: np.ndarray = field(repr=False)
    lowered: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for name in ("gamma", "g", "lowered"):
            arr = np.asarray(getattr(self, name), dtype=complex).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _j_diagonal(n: int) -> np.ndarray:
    return np.concatenate([1j * np.ones(n), -1j * np.ones(n)])


def _koszul_lowered(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``K[A,B,C] = g(grad^{LC}_{e_A} e_B, e_C)`` for invariant fields, on a
    stack of metrics ``g[..., A, B]``, from the product ``f[(a, b), e] g[e, c]``."""
    gb = (f.reshape(-1, len(f)) @ g).reshape(g.shape[:-2] + f.shape)
    # gb[..., b, c, a] and gb[..., c, a, b] reordered to [..., a, b, c]
    return 0.5 * (gb - gb.swapaxes(-1, -2).swapaxes(-2, -3)
                  + gb.swapaxes(-3, -2).swapaxes(-2, -1))


def d_omega(f: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """Exterior derivative of the invariant 2-form ``omega(X, Y) = g(JX, Y)``,
    on a stack of metrics ``g[..., A, B]``."""
    wb = (f.reshape(-1, len(f)) @ (_j_diagonal(n)[:, None] * g)).reshape(g.shape[:-2] + f.shape)
    return -wb + wb.swapaxes(-1, -2) - wb.swapaxes(-1, -2).swapaxes(-2, -3)


def connection(kind: ConnectionKind,
               bracket: BracketTable,
               g: np.ndarray) -> ConnectionCoefficients:
    """Levi-Civita, Bismut or Chern connection of an invariant structure.

    Levi-Civita comes from the Koszul formula (derivative terms vanish on
    invariant fields).  Bismut adds ``+1/2 domega(J., J., J.)`` to the lowered
    coefficients, Chern adds ``-1/2 domega(J., ., .)``; with the conventions
    of this module those are the corrections that make the lowered torsion
    totally skew, respectively kill the (1,1)-torsion, while keeping the
    (1,0)-frame parallel.

    ``g`` is one frame metric or a stack ``g[..., A, B]`` of them; the
    coefficients then carry the same leading axes.
    """
    n, lead = bracket.n, g.shape[:-2]
    lowered = _lowered(kind, bracket.f, g)
    gamma = lowered.reshape(lead + (4 * n * n, 2 * n)) @ np.linalg.inv(g)
    return ConnectionCoefficients(kind, n, gamma.reshape(lowered.shape), g, lowered)


def _lowered(kind: ConnectionKind, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``g(grad_{e_A} e_B, e_C)`` of ``connection`` on a stack of frame metrics
    ``g[..., A, B]``: the Koszul term, plus the Bismut or Chern correction."""
    n = len(f) // 2
    lowered = _koszul_lowered(f, g)
    if kind is ConnectionKind.LEVI_CIVITA:
        return lowered
    dw, jd = d_omega(f, g, n), _j_diagonal(n)
    if kind is ConnectionKind.BISMUT:
        return lowered + 0.5 * (jd[:, None, None] * jd[:, None] * jd) * dw
    return lowered - 0.5 * jd[:, None, None] * dw


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def curvature(conn: ConnectionCoefficients, bracket: BracketTable) -> CurvatureTensor:
    """Lowered curvature of an invariant connection.

    Components are ``CURVATURE_COMPONENT_SIGN * g(R(e_A, e_B) e_C, e_D)``
    with ``R(X, Y) = [grad_X, grad_Y] - grad_[X,Y]``, which is ``T[B, C, A,
    D] - T[A, C, B, D] - f[A, B, E] L[E, C, D]`` in the lowered coefficients
    ``L``, with the product ``T[(B, C), (A, D)] = gamma[(B, C), E] L[A, E,
    D]``.  A connection over a stack of metrics gives the stack of their
    curvatures.
    """
    N, lead = 2 * conn.n, conn.gamma.shape[:-3]
    # signed on the small factor, formed in place: fresh (2n)^4 temporaries page-fault
    low = CURVATURE_COMPONENT_SIGN * conn.lowered
    T = (conn.gamma.reshape(lead + (N * N, N))
         @ low.swapaxes(-3, -2).reshape(lead + (N, N * N))).reshape(lead + (N,) * 4)
    direct = (bracket.f.reshape(N * N, N) @ low.reshape(lead + (N, N * N))).reshape(T.shape)
    np.subtract(np.moveaxis(T, -2, -4), direct, out=direct)
    direct -= T.swapaxes(-3, -2)
    return CurvatureTensor(n=conn.n, connection=conn.kind.value, data=direct)


def _bismut_mixed_blocks(bracket: BracketTable, x: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """The Bismut curvature blocks ``data[..., h, a]`` and ``data[..., a, h]``
    of ``bismut_curvatures``, each (R, 2n, 2n, n, n), for the (R, 9) stack
    ``x`` of ``as_array`` rows (n = 3), refusing as ``frame_metrics`` does.
    They take ``BracketTable.bismut_map`` and, of the lowered ``L``, only
    ``gamma[B, c, e] = L[B, c, a~] Ginv[a, e]`` and ``gamma[B, c~, e~] =
    L[B, c~, a] Ginv[e, a]``."""
    x = _refuse_inadmissible(x)
    R, n = len(x), 3
    N, nn = 2 * n, n * n
    # one product per row: a stack of one is then any row of a stack, bit for bit
    blocks = (x[:, None, :] @ bracket.bismut_map)[:, 0]
    # the signed blocks times SIGN Ginv (a factor of +-1, so exact) give gamma
    Ginv = CURVATURE_COMPONENT_SIGN * np.linalg.inv(blocks[:, :nn].reshape(R, n, n))
    lows = blocks[:, nn:].reshape(R, 2, N, n, n)
    out = []
    for low, P in ((lows[:, 0], Ginv), (lows[:, 1], Ginv.swapaxes(1, 2))):
        gam = low.reshape(R, N * n, n) @ P
        T = (gam @ low.swapaxes(1, 2).reshape(R, n, N * n)).reshape(R, N, n, N, n)
        direct = (bracket.f.reshape(N * N, N) @ low.reshape(R, N, nn)).reshape(R, N, N, n, n)
        np.subtract(T.transpose(0, 3, 1, 2, 4), direct, out=direct)
        direct -= T.transpose(0, 1, 3, 2, 4)
        out.append(direct)
    return tuple(out)


def bismut_curvatures(bracket: BracketTable, x: np.ndarray) -> CurvatureTensor:
    """``curvature`` of the Bismut connection at ``frame_metrics(x)``, to
    round-off, for the (R, 9) stack ``x`` of ``as_array`` rows (n = 3),
    refusing as ``frame_metrics`` does.  The connection is Hermitian, so the
    blocks with a pure-type second pair are exact zeros; the mixed ones are
    ``_bismut_mixed_blocks``."""
    blocks = _bismut_mixed_blocks(bracket, x)
    n = 3
    data = np.zeros((len(blocks[0]),) + (2 * n,) * 4, dtype=complex)
    h, a = slice(0, n), slice(n, 2 * n)
    data[..., h, a], data[..., a, h] = blocks
    return CurvatureTensor(n=n, connection=ConnectionKind.BISMUT.value, data=data)


def bismut_pure_type(bracket: BracketTable, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``max_violation`` and ``tolerance`` of ``check_cplx(bismut_curvatures(
    bracket, x))`` for each row of the (R, 9) stack ``x``, bit for bit, as
    two (R,) arrays, with the same refusals; no curvature tensor is formed.
    The blocks with a pure-type second pair are exact zeros, so the largest
    pure-type modulus is that of a pure first pair in the two mixed blocks,
    and the largest modulus of all is theirs."""
    n = 3
    most, pure = [], []
    for block in _bismut_mixed_blocks(bracket, x):
        moduli = np.abs(block)
        most.append(moduli.reshape(len(moduli), -1).max(axis=1))
        # a non-finite component has a non-finite modulus; a finite one may
        # overflow its modulus, which check_cplx then reads as it is
        if not np.isfinite(most[-1]).all() and not np.isfinite(block.view(float)).all():
            raise TensorError("curvature entries must be finite")
        for half in (slice(0, n), slice(n, 2 * n)):
            pure.append(moduli[:, half, half].max(axis=(1, 2, 3, 4)))
    return np.maximum.reduce(pure), ZERO_RTOL * (1.0 + np.maximum(*most))


@dataclass(frozen=True)
class CplxReport:
    satisfied: bool
    max_violation: float
    witness: tuple[int, int, int, int] | None
    tolerance: float

    @property
    def margin(self) -> float:
        """``max_violation / tolerance``: at most 1 exactly when satisfied."""
        return self.max_violation / self.tolerance


@functools.cache
def _pure_type_offsets(n: int) -> np.ndarray:
    """Flat offsets into a (2n)^4 tensor of its components with a pure-type
    pair, block by block: a holomorphic first pair, an antiholomorphic first
    pair, then the same for the second pair, each block in C order."""
    h, a, full = slice(0, n), slice(n, 2 * n), slice(None)
    flat = np.arange((2 * n) ** 4).reshape((2 * n,) * 4)
    blocks = [(h, h, full, full), (a, a, full, full), (full, full, h, h), (full, full, a, a)]
    offsets = np.concatenate([flat[blk].ravel() for blk in blocks])
    offsets.setflags(write=False)
    return offsets


def check_cplx(omega: CurvatureTensor) -> list[CplxReport]:
    """Check that every component with a pure-type index pair vanishes.

    A pair is pure when both slots are holomorphic or both antiholomorphic;
    the first and the second pair of the curvature are examined.  The
    witness holds the signed labels, as ``entry`` takes them, of the first
    component in the order of ``_pure_type_offsets`` within 1e-12 relative
    of the largest violation, so that rounding does not choose between equal
    partners such as ``(2, 3, 1, -2)`` and ``(2, 3, -2, 1)``.  Returns the
    list of the reports of a stack's tensors; one tensor is a stack of one.
    """
    n = omega.n
    moduli = np.abs(omega.data).reshape(-1, (2 * n) ** 4)
    offsets = _pure_type_offsets(n)
    # np.take keeps the gathered rows C-ordered, where the row maxima are fast
    pure = np.take(moduli, offsets, axis=1)
    worst = pure.max(axis=1)
    first = np.argmax(pure >= (1.0 - 1e-12) * worst[:, None], axis=1)
    # frame_label of each slot of each tensor's first worst component
    at = np.array(np.unravel_index(offsets[first], (2 * n,) * 4))
    labels = np.where(at < n, at + 1, n - at - 1).T.tolist()
    reports = []
    for violation, magnitude, label in zip(worst.tolist(), moduli.max(axis=1).tolist(), labels):
        tol = zero_threshold(magnitude)
        satisfied = violation <= tol
        reports.append(CplxReport(satisfied=satisfied, max_violation=violation,
                                  witness=None if satisfied else tuple(label), tolerance=tol))
    return reports


# ---------------------------------------------------------------------------
# flow tangent -S + a Q1 + b Q2 + c Q3 + d Q4
# ---------------------------------------------------------------------------

def q_terms(Ginv: np.ndarray, t_low: np.ndarray) -> np.ndarray:
    """The four torsion quadratics as a (4, ..., n, n) array, from stacks of
    the lowered Chern torsion ``t[..., i, j, k] = T_{i j k~}`` and the inverse
    metric.  With ``P[k, l] = g^{k l~} = Ginv[l, k]``: ``Q1[i, j] = t[i, k,
    m] (P conj(t[j]) P)[k, m]`` and ``Q2[i, j] = (P (x) P conj(t))[k, m, i]
    t[k, m, j]``, as products with Kronecker matrices ``(A (x) B)[(k, n), (l,
    m)] = A[k, l] B[n, m]``; ``Q3`` is the outer product of ``tau = t[:, k,
    l] P[k, l]`` and ``sig = conj(t)[:, k, l] Ginv[k, l]``, ``Q4`` averages
    ``(Ginv tau)[m] conj(t)[m, j, i]`` and ``(sig Ginv)[m] t[m, i, j]``."""
    n, lead = Ginv.shape[-1], Ginv.shape[:-2]
    nn = n * n
    P = Ginv.swapaxes(-1, -2)
    tc = np.conj(t_low)
    rows, rows_c = t_low.reshape(lead + (n, nn)), tc.reshape(lead + (n, nn))
    PG = (P[..., :, None, :, None] * Ginv[..., None, :, None, :]).reshape(lead + (nn, nn))
    GG = (Ginv[..., :, None, :, None] * Ginv[..., None, :, None, :]).reshape(lead + (nn, nn))
    q = np.empty((4,) + lead + (n, n), dtype=complex)
    np.matmul(rows @ PG, rows_c.swapaxes(-1, -2), out=q[0])
    np.matmul(tc.reshape(lead + (nn, n)).swapaxes(-1, -2) @ GG,
              t_low.reshape(lead + (nn, n)), out=q[1])
    tau = rows @ P.reshape(lead + (nn, 1))
    sig = (rows_c @ Ginv.reshape(lead + (nn, 1))).swapaxes(-1, -2)
    np.matmul(tau, sig, out=q[2])
    # Q4 from the halved inverse: a power of two scales every product exactly
    half = 0.5 * Ginv
    first = ((half @ tau).swapaxes(-1, -2) @ rows_c).reshape(lead + (n, n))
    np.add(first.swapaxes(-1, -2), (sig @ half @ rows).reshape(lead + (n, n)), out=q[3])
    return q


def _inverse_rows(G: np.ndarray) -> np.ndarray:
    """``inv`` of each block of the stack ``G``; NaN, which fails the row, for
    a block singular to working precision at the rim of the cone."""
    try:
        return np.linalg.inv(G)
    except np.linalg.LinAlgError:
        return np.array([_inverse_rows(B[None])[0] if len(G) > 1
                         else np.full(B.shape, np.nan) for B in G])


def _tangent_rows(bracket: BracketTable, x: np.ndarray, coeffs: np.ndarray,
                  chern_flat: bool) -> np.ndarray:
    """Unsymmetrized ``-S + a Q1 + b Q2 + c Q3 + d Q4`` at each admissible row
    of the (R, 9) coordinate stack ``x``, with the (R, 4) rows ``coeffs``.

    The lowered torsion of the quadratics is linear in ``x`` and read off
    ``BracketTable.tangent_map``.  ``S = P[a, b] Omega[a, b~]`` is traced
    before the mixed block ``Omega[a, b~] = gam[b~] low[a] - gam[a] low[b~]
    - f[a, b~, E] low[E]`` is formed, with only the Chern Christoffels
    ``gam[A, i, j] = low[A, i, k~] Ginv[k, j]`` of holomorphic ``i, j``:
    ``gam[A] lift[A]`` over the frame, with ``lift[a] = -P[a, b] low[b~]``
    and ``lift[b~] = P[a, b] low[a]``, minus ``Ginv[b, a] W[(b, a)]``.  On a
    ``chern_flat`` bracket, one with no mixed terms, ``low`` and ``W``
    vanish for every metric, so ``S`` does and is not formed.
    """
    R, n = len(x), 3
    N, nn = 2 * n, n * n
    blocks = x @ (bracket.tangent_map[:, :4 * nn] if chern_flat else bracket.tangent_map)
    G = blocks[:, :nn].reshape(R, n, n)
    Ginv = _inverse_rows(G)
    q = q_terms(Ginv, blocks[:, nn:4 * nn].reshape(R, n, n, n)).reshape(4, R, nn)
    K = (coeffs[:, None, :] @ q.swapaxes(0, 1)).reshape(R, n, n)
    if chern_flat:
        return K
    # gam[A, c, e] at [c, (A, e)]
    gam = (blocks[:, 4 * nn:10 * nn].reshape(R, N * n, n) @ Ginv).reshape(R, n, N * n)
    sources = blocks[:, 10 * nn:16 * nn].reshape(R, 2, n, nn)
    lift = np.concatenate([Ginv.swapaxes(1, 2) @ sources[:, 0], Ginv @ sources[:, 1]], axis=1)
    S = (gam @ lift.reshape(R, N * n, n)
         - (Ginv.reshape(R, 1, nn) @ blocks[:, 16 * nn:].reshape(R, nn, nn)).reshape(R, n, n))
    return K - S


def hcf_tangent(eqs: ComplexStructureEquations, x: np.ndarray, coeffs: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian matrices ``K[i, j] = (-S + a Q1 + b Q2 + c Q3 + d Q4)_{i j~}``
    at the (R, 9) stack ``x`` of ``as_array`` rows, with the (R, 4) rows
    ``coeffs`` of (a, b, c, d); returns the (R, 3, 3) stack and the mask of
    the rows that are admissible, finite and Hermitian to ``1e-8 * (1 +
    max|K|)``, raising nothing.  The bracket is ``eqs.bracket``.

    ``S`` is the inverse-metric trace of the Chern curvature over its
    curvature plane, taken in the direct sign convention
    ``g(R(e_A, e_B) e_C, e_D)`` so that the flow direction agrees with the
    coordinate picture on homogeneous model spaces.
    """
    x, coeffs = np.asarray(x, dtype=float), np.asarray(coeffs, dtype=float)
    ok = _admissible_rows(x)
    chern_flat = not eqs.D.any()
    # a row that overflows at the rim of the cone fails the finite test below
    with np.errstate(invalid="ignore", over="ignore"):
        if ok.all():
            K = _tangent_rows(eqs.bracket, x, coeffs, chern_flat)
        else:
            K = np.zeros((len(x), eqs.n, eqs.n), dtype=complex)
            K[ok] = _tangent_rows(eqs.bracket, x[ok], coeffs[ok], chern_flat)
        KH = K.conj().swapaxes(1, 2)
        size, defect = np.abs(K).max(axis=(1, 2)), np.abs(K - KH).max(axis=(1, 2))
    # a NaN row fails both tests
    ok &= np.isfinite(size) & (defect <= 1e-8 * (1.0 + size))
    return 0.5 * (K + KH), ok


def _coefficient_rates(K: np.ndarray) -> np.ndarray:
    """Map ``d/dt g(Z_i, conj Z_j) = K[i, j]`` to the coefficient chart, for
    one (3, 3) matrix or a (..., 3, 3) stack: ``2 Re K[i, i]``, then ``2i
    K[i, j]`` for u, v and z."""
    picked = K.reshape(K.shape[:-2] + (9,)).take(_RATE_ENTRIES, axis=-1) * _RATE_SCALE
    return picked.view(float).take(_RATE_PARTS, axis=-1)


#: entries 00, 11, 22, 01, 12, 02 of a flattened 3 x 3 matrix, their factors,
#: and the real and imaginary parts kept (all but the imaginary diagonal)
_RATE_ENTRIES, _RATE_SCALE = np.array([0, 4, 8, 1, 5, 2]), np.array([2, 2, 2, 2j, 2j, 2j])
_RATE_PARTS = np.array([0, 2, 4, 6, 7, 8, 9, 10, 11])


# Dormand-Prince 5(4) pair (Dormand and Prince, J. Comput. Appl. Math. 6
# (1980); Hairer, Norsett and Wanner, Solving ODEs I, Table II.5.2).  Row i of
# _DP_A gives stage i + 1; the last row holds the fifth-order weights, so the
# seventh stage is the rate at the new state and is reused as the first stage
# of the next step.  _DP_E is the fifth- minus the fourth-order weights.  The
# flow is autonomous, so the stage times are not needed.
_DP_A = np.array([
    [0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])

#: tolerances of the local error estimate, per real coordinate of the state
FLOW_RTOL = 1e-10
FLOW_ATOL = 1e-12
#: a flow whose proposed step falls below this is degenerate
FLOW_MIN_STEP = 1e-6


@dataclass
class FlowStepStats:
    """One flow's integrator state and work: ``step`` is the next trial step
    the controller proposes and ``t`` the time reached."""

    step: float
    t: float = 0.0
    accepted: int = 0
    rejected: int = 0
    min_step: float = math.inf
    tangent_evals: int = 0


def _flow_rows(eqs: ComplexStructureEquations, coeffs: np.ndarray, x0: np.ndarray,
               stats: list[FlowStepStats], records: list[float]
               ) -> list[list[np.ndarray]]:
    """Advance each row of the (R, 9) stack ``x0`` under its row of ``coeffs``
    from time 0 through the times ``records``; returns each row's states
    at the record times it reached.  The rows step in lockstep and share one
    stacked ``hcf_tangent`` call per stage; step, time, FSAL stages, step
    decisions and ``stats[r]`` are the row's own.  Only time 0 evaluates a
    first stage: an accepted step's seventh stage opens the next, across
    record times too.  A failing stage rejects its row's step, skips its
    remaining stages and shrinks the step five-fold.  A row whose proposed
    step falls below ``FLOW_MIN_STEP`` is degenerate at ``stats[r].t``."""
    x = np.array(x0, dtype=float)
    k = np.empty((len(x), 7, x.shape[1]))
    out: list[list[np.ndarray]] = [[] for _ in x]
    evals = np.zeros(len(x), dtype=int)

    def rates(rows: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # looked up in the module on every call, where the tracer wraps it
        K, ok = hcf_tangent(eqs, states, coeffs[rows])
        evals[rows] += 1
        return _coefficient_rates(K), ok

    k[:, 0], ok = rates(np.arange(len(x)), x)
    # a first stage fails only at an unusable start: degenerate there
    active = np.flatnonzero(ok).tolist()
    while active:
        rows = np.array(active)
        t_stop = [records[len(out[r])] for r in active]
        landing = [stats[r].t + stats[r].step >= ts for r, ts in zip(active, t_stop)]
        h = np.array([ts - stats[r].t if land else stats[r].step
                      for r, ts, land in zip(active, t_stop, landing)])
        # the rows still in the step: all of them (a slice) until a stage fails
        xs, ks, alive = x[rows], k[rows], slice(None)
        for i in range(1, 7):
            x_new = xs[alive] + h[alive, None] * (_DP_A[i, :i] @ ks[alive, :i])
            ks[alive, i], ok = rates(rows[alive], x_new)
            if not ok.all():
                alive, x_new = np.arange(len(rows))[alive][ok], x_new[ok]
                if not alive.size:
                    break
        err = np.full(len(rows), np.nan)            # NaN: a stage failed
        scale = FLOW_ATOL + FLOW_RTOL * np.maximum(np.abs(xs[alive]), np.abs(x_new))
        err[alive] = np.sqrt(np.mean((h[alive, None] * (_DP_E @ ks[alive]) / scale) ** 2,
                                     axis=1))
        xs[alive] = x_new
        still = []
        for p, r in enumerate(active):
            st, h_p, e = stats[r], float(h[p]), float(err[p])
            if math.isnan(e):
                st.rejected += 1
                st.step = 0.2 * h_p
            else:
                grow = 5.0 if e == 0 else min(5.0, max(0.2, 0.9 * e ** -0.2))
                if e <= 1.0:
                    # the new state passed the cone test in the seventh stage
                    st.accepted += 1
                    st.min_step = min(st.min_step, h_p)
                    x[r], k[r], k[r, 0] = xs[p], ks[p], ks[p, 6]
                    # a step shortened to land on t_stop says nothing against h
                    st.step = max(st.step, h_p * grow) if landing[p] else h_p * grow
                    st.t = t_stop[p] if landing[p] else st.t + h_p
                else:
                    st.rejected += 1
                    st.step = h_p * grow
            if st.t >= t_stop[p]:  # landed, so the step did not shrink
                out[r].append(x[r].copy())
            if st.step >= FLOW_MIN_STEP and len(out[r]) < len(records):
                still.append(r)
        active = still
    for st, e in zip(stats, evals.tolist()):
        st.tangent_evals += e
    return out


@dataclass(frozen=True)
class InvariantFlowResult:
    times: np.ndarray
    metrics: list
    degenerated: bool
    exit_time: float | None
    termination: Termination
    accepted: int
    rejected: int
    min_step: float
    tangent_evals: int


def integrate_invariant_flows(eqs: ComplexStructureEquations,
                              m0: MetricCoefficients,
                              fcs,
                              t_end: float,
                              dt: float = 1e-3,
                              checkpoints: int = 1) -> list[InvariantFlowResult]:
    """Integrate the coefficient flow of each tuple in ``fcs`` from ``m0`` to
    ``t_end``, recording the state at the times ``t_end * k / checkpoints``,
    k = 0, .., checkpoints; one result per flow.  The flows advance as one
    stack (``_flow_rows``), each row exactly as its flow alone; ``dt`` is
    the first trial step.  A degenerate flow keeps its records before the
    exit."""
    check_finite(t_end=t_end, dt=dt)
    for fc in fcs:
        check_finite(**dict(zip("abcd", fc.as_tuple())))
    if t_end <= 0 or dt <= 0:
        raise ValueError("t_end and dt must be positive")
    if dt < FLOW_MIN_STEP:
        raise ValueError(f"dt must be at least the step floor FLOW_MIN_STEP = "
                         f"{FLOW_MIN_STEP:g}, got {dt!r}")
    if checkpoints < 1:
        raise ValueError(f"checkpoints must be >= 1, got {checkpoints}")
    m0.validate()
    stats = [FlowStepStats(step=dt) for _ in fcs]
    records = [t_end * j / checkpoints for j in range(1, checkpoints + 1)]
    coeffs = np.array([fc.as_tuple() for fc in fcs], dtype=float).reshape(-1, 4)
    runs = _flow_rows(eqs, coeffs, np.tile(m0.as_array(), (len(stats), 1)), stats, records)
    return [InvariantFlowResult(
        times=np.array([0.0] + records[:len(states)]),
        metrics=[m0] + [MetricCoefficients.from_array(s) for s in states],
        degenerated=len(states) < checkpoints,
        exit_time=st.t if len(states) < checkpoints else None,
        termination=(Termination.LEFT_ADMISSIBLE_CONE if len(states) < checkpoints
                     else Termination.REACHED_T_END),
        accepted=st.accepted, rejected=st.rejected,
        min_step=st.min_step, tangent_evals=st.tangent_evals)
        for states, st in zip(runs, stats)]


def integrate_invariant_flow(eqs: ComplexStructureEquations,
                             m0: MetricCoefficients,
                             fc,
                             t_end: float,
                             dt: float = 1e-3,
                             checkpoints: int = 1) -> InvariantFlowResult:
    """``integrate_invariant_flows`` for the one flow ``fc``."""
    return integrate_invariant_flows(eqs, m0, [fc], t_end, dt=dt,
                                     checkpoints=checkpoints)[0]


def invariant_flow_step(eqs: ComplexStructureEquations,
                        m: MetricCoefficients,
                        fc,
                        dt: float) -> MetricCoefficients:
    """The metric at ``dt``: ``integrate_invariant_flow(eqs, m, fc, t_end=dt,
    dt=dt)`` as a stack of one, raising ``FlowDegenerationError`` at its
    ``exit_time`` for a degenerate flow."""
    check_finite(dt=dt)
    result = integrate_invariant_flow(eqs, m, fc, t_end=dt, dt=dt)
    if result.degenerated:
        raise FlowDegenerationError(f"flow left admissible cone at t={result.exit_time:.6g}")
    return result.metrics[-1]
