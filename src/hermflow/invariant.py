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
import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .tensors import CurvatureTensor, FrameIndex, zero_threshold

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
        labels = tuple(FrameIndex.from_flat(x, n) for x in triple)
        raise IntegrabilityError(
            f"Jacobi identity fails with residual {worst:.3e} at triple {labels}")
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


def conjugation_symmetry_residual(table: BracketTable) -> float:
    """Max deviation from ``[conj a, conj b] = conj([a, b])``."""
    n = table.n
    f = table.f
    swap = np.concatenate([np.arange(n, 2 * n), np.arange(0, n)])
    swapped = np.conj(f[np.ix_(swap, swap, swap)])
    return float(np.max(np.abs(f - swapped)))


# ---------------------------------------------------------------------------
# invariant metrics
# ---------------------------------------------------------------------------

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

    def validate(self) -> None:
        r2, s2, t2, u, v, z = self.r2, self.s2, self.t2, self.u, self.v, self.z
        checks = [
            (r2 > 0, f"r2 > 0 fails: r2={r2!r}"),
            (s2 > 0, f"s2 > 0 fails: s2={s2!r}"),
            (t2 > 0, f"t2 > 0 fails: t2={t2!r}"),
            (r2 * s2 > abs(u) ** 2, f"r2*s2 > |u|^2 fails: {r2 * s2!r} <= {abs(u) ** 2!r}"),
            (r2 * t2 > abs(z) ** 2, f"r2*t2 > |z|^2 fails: {r2 * t2!r} <= {abs(z) ** 2!r}"),
            (s2 * t2 > abs(v) ** 2, f"s2*t2 > |v|^2 fails: {s2 * t2!r} <= {abs(v) ** 2!r}"),
        ]
        det = self.det_indicator()
        checks.append((det > 0, f"8i*det(Xi) > 0 fails: {det!r}"))
        for ok, message in checks:
            if not ok:
                raise MetricError(message)

    def det_indicator(self) -> float:
        """The determinant-positivity scalar ``r2 s2 t2 + 2 Re(i conj(u v) z)
        - (r2 |v|^2 + t2 |u|^2 + s2 |z|^2)`` (equals 8 det of the frame
        metric block)."""
        u, v, z = self.u, self.v, self.z
        return (self.r2 * self.s2 * self.t2
                + 2.0 * (1j * np.conj(u) * np.conj(v) * z).real
                - (self.r2 * abs(v) ** 2 + self.t2 * abs(u) ** 2
                   + self.s2 * abs(z) ** 2))

    def is_admissible(self) -> bool:
        try:
            self.validate()
        except MetricError:
            return False
        return True

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


def frame_metric(m: MetricCoefficients) -> np.ndarray:
    """The complex-bilinear metric over the full frame, ``g[A, B] = g(e_A, e_B)``."""
    m.validate()
    G = m.hermitian_matrix()
    n = G.shape[0]
    g = np.zeros((2 * n, 2 * n), dtype=complex)
    g[:n, n:] = G
    g[n:, :n] = G.T
    return g


def sample_admissible_metric(rng: np.random.Generator,
                             fixed: dict
                             | None = None,
                             max_tries: int = 200) -> MetricCoefficients:
    """Random admissible coefficients: r2, s2, t2 uniform in [0.5, 2] and
    u, v, z in the complex disk of radius 0.4 (rejection sampling), keeping
    the determinant indicator away from zero.  ``fixed`` pins individual
    coefficients, e.g. ``{"v": 0, "z": 0}`` or ``{"r2": 1}``.
    """
    fixed = dict(fixed or {})
    for _ in range(max_tries):
        vals = {
            "r2": rng.uniform(0.5, 2.0),
            "s2": rng.uniform(0.5, 2.0),
            "t2": rng.uniform(0.5, 2.0),
        }
        for name in ("u", "v", "z"):
            radius = 0.4 * np.sqrt(rng.uniform())
            angle = rng.uniform(0, 2 * np.pi)
            vals[name] = radius * np.exp(1j * angle)
        vals.update(fixed)
        m = MetricCoefficients(**vals)
        if m.is_admissible():
            return m
    raise MetricError("could not sample an admissible metric under the given constraints")


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------

class ConnectionKind(enum.Enum):
    LEVI_CIVITA = "levi-civita"
    BISMUT = "bismut"
    CHERN = "chern"


@dataclass(frozen=True)
class ConnectionCoefficients:
    """``grad_{e_A} e_B = gamma[A, B, C] e_C`` over the complexified frame."""

    kind: ConnectionKind
    n: int
    gamma: np.ndarray
    g: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for name in ("gamma", "g"):
            arr = np.asarray(getattr(self, name), dtype=complex).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _j_diagonal(n: int) -> np.ndarray:
    return np.concatenate([1j * np.ones(n), -1j * np.ones(n)])


def _koszul_lowered(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``K[A,B,C] = g(grad^{LC}_{e_A} e_B, e_C)`` for invariant fields."""
    gb = np.einsum("abe,ec->abc", f, g)
    return 0.5 * (gb - np.einsum("bca->abc", gb) + np.einsum("cab->abc", gb))


def d_omega(f: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """Exterior derivative of the invariant 2-form ``omega(X, Y) = g(JX, Y)``."""
    jd = _j_diagonal(n)
    w = jd[:, None] * g
    wb = np.einsum("abe,ec->abc", f, w)
    return -wb + np.einsum("acb->abc", wb) - np.einsum("bca->abc", wb)


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
    """
    n = bracket.n
    f = bracket.f
    lowered = _koszul_lowered(f, g)
    if kind is not ConnectionKind.LEVI_CIVITA:
        dw = d_omega(f, g, n)
        jd = _j_diagonal(n)
        if kind is ConnectionKind.BISMUT:
            lowered = lowered + 0.5 * np.einsum("a,b,c,abc->abc", jd, jd, jd, dw)
        else:
            lowered = lowered - 0.5 * np.einsum("a,abc->abc", jd, dw)
    ginv = np.linalg.inv(g)
    gamma = np.einsum("abd,dc->abc", lowered, ginv)
    return ConnectionCoefficients(kind=kind, n=n, gamma=gamma, g=g)


def torsion_components(conn: ConnectionCoefficients, bracket: BracketTable
                       ) -> np.ndarray:
    """Raised torsion ``T[A, B, C]`` with ``T(e_A, e_B) = T[A,B,C] e_C``."""
    gamma = conn.gamma
    return gamma - np.einsum("abc->bac", gamma) - bracket.f


@dataclass(frozen=True)
class TorsionData:
    """Chern torsion: full raised tensor plus its holomorphic blocks."""

    n: int
    raised: np.ndarray          # (2n, 2n, 2n)
    hol: np.ndarray             # T^k_{ij}: [i, j, k], all holomorphic
    lowered_hol: np.ndarray     # T_{i j k~}: [i, j, k]


def chern_torsion(conn: ConnectionCoefficients, bracket: BracketTable) -> TorsionData:
    if conn.kind is not ConnectionKind.CHERN:
        raise ValueError("chern_torsion expects a Chern connection")
    n = conn.n
    raised = torsion_components(conn, bracket)
    hol = raised[:n, :n, :n]
    G = conn.g[:n, n:]
    lowered_hol = np.einsum("ijm,mk->ijk", hol, G)
    return TorsionData(n=n, raised=raised, hol=hol, lowered_hol=lowered_hol)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def curvature(conn: ConnectionCoefficients, bracket: BracketTable) -> CurvatureTensor:
    """Lowered curvature of an invariant connection.

    Components are reported with the calibrated sign
    ``CURVATURE_COMPONENT_SIGN * g(R(e_A, e_B) e_C, e_D)``.
    """
    direct = _direct_lowered_curvature(conn.gamma, bracket.f, conn.g)
    return CurvatureTensor(n=conn.n, connection=conn.kind.value,
                           data=CURVATURE_COMPONENT_SIGN * direct)


def _direct_lowered_curvature(gamma: np.ndarray, f: np.ndarray, g: np.ndarray,
                              A: slice = slice(None), B: slice = slice(None),
                              C: slice = slice(None), D: slice = slice(None)
                              ) -> np.ndarray:
    """``g(R(e_A, e_B) e_C, e_D)`` with ``R(X,Y) = [grad_X, grad_Y] - grad_[X,Y]``,
    restricted to the frame blocks ``A, B, C, D`` (the whole frame by default)."""
    action = (np.einsum("bce,aef->abcf", gamma[B, C], gamma[A])
              - np.einsum("ace,bef->abcf", gamma[A, C], gamma[B])
              - np.einsum("abe,ecf->abcf", f[A, B], gamma[:, C]))
    return np.einsum("abcf,fd->abcd", action, g[:, D])


@dataclass(frozen=True)
class CplxReport:
    satisfied: bool
    max_violation: float
    witness: tuple[FrameIndex, ...] | None
    tolerance: float


def check_cplx(omega: CurvatureTensor) -> CplxReport:
    """Check that every component with a pure-type index pair vanishes.

    A pair is pure when both slots are holomorphic or both antiholomorphic;
    the first and the second pair of the curvature are examined.
    """
    n = omega.n
    data = omega.data
    h = slice(0, n)
    a = slice(n, 2 * n)
    pure_first = [(h, h), (a, a)]
    pure_second = pure_first
    blocks: list[tuple[slice, slice, slice, slice]] = []
    full = slice(0, 2 * n)
    for p1, p2 in pure_first:
        blocks.append((p1, p2, full, full))
    for q1, q2 in pure_second:
        blocks.append((full, full, q1, q2))
    max_violation = 0.0
    witness: tuple[FrameIndex, ...] | None = None
    for blk in blocks:
        sub = np.abs(data[blk])
        local = float(sub.max()) if sub.size else 0.0
        if local > max_violation:
            max_violation = local
            idx = np.unravel_index(int(np.argmax(sub)), sub.shape)
            offsets = tuple(s.start for s in blk)
            flat = tuple(o + i for o, i in zip(offsets, idx))
            witness = tuple(FrameIndex.from_flat(x, n) for x in flat)
    tol = zero_threshold(omega.magnitude)
    satisfied = max_violation <= tol
    return CplxReport(satisfied=satisfied, max_violation=max_violation,
                      witness=None if satisfied else witness, tolerance=tol)


# ---------------------------------------------------------------------------
# flow tangent -S + a Q1 + b Q2 + c Q3 + d Q4
# ---------------------------------------------------------------------------

def metric_inverse_block(G: np.ndarray) -> np.ndarray:
    """Matrix inverse of the Hermitian block; ``g^{k l~} = Ginv[l, k]``."""
    return np.linalg.inv(G)


def second_ricci_trace(Ginv: np.ndarray, mixed_direct: np.ndarray) -> np.ndarray:
    """``S[i, j] = g^{k l~} Omega[k, l~, i, j~]`` traced over the curvature plane."""
    return np.einsum("lk,klij->ij", Ginv, mixed_direct)


def q_terms(Ginv: np.ndarray, t_low: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four torsion quadratics from the lowered Chern torsion
    ``t_low[i, j, k] = T_{i j k~}`` and the inverse metric."""
    tc = np.conj(t_low)
    q1 = np.einsum("lk,nm,ikn,jlm->ij", Ginv, Ginv, t_low, tc)
    q2 = np.einsum("lk,nm,kmj,lni->ij", Ginv, Ginv, t_low, tc)
    q3 = np.einsum("lk,nm,ikl,jnm->ij", Ginv, Ginv, t_low, tc)
    q4 = 0.5 * (np.einsum("lk,nm,mkl,nji->ij", Ginv, Ginv, t_low, tc)
                + np.einsum("lk,nm,mij,nlk->ij", Ginv, Ginv, t_low, tc))
    return q1, q2, q3, q4


def hcf_tangent(eqs: ComplexStructureEquations,
                m: MetricCoefficients,
                fc,
                bracket: BracketTable | None = None) -> np.ndarray:
    """Hermitian matrix ``K[i, j] = (-S + a Q1 + b Q2 + c Q3 + d Q4)_{i j~}``.

    ``S`` is the inverse-metric trace of the Chern curvature over its
    curvature plane, taken in the direct sign convention
    ``g(R(e_A, e_B) e_C, e_D)`` so that the flow direction agrees with the
    coordinate picture on homogeneous model spaces.
    """
    n = eqs.n
    if bracket is None:
        bracket = dualize(eqs)
    g = frame_metric(m)
    conn = connection(ConnectionKind.CHERN, bracket, g)
    h = slice(0, n)
    a = slice(n, 2 * n)
    mixed_direct = _direct_lowered_curvature(conn.gamma, bracket.f, g, h, a, h, a)
    Ginv = metric_inverse_block(g[h, a])
    S = second_ricci_trace(Ginv, mixed_direct)
    tor = chern_torsion(conn, bracket)
    q1, q2, q3, q4 = q_terms(Ginv, tor.lowered_hol)
    K = -S + fc.a * q1 + fc.b * q2 + fc.c * q3 + fc.d * q4
    if not np.isfinite(K).all():
        raise MetricError("flow tangent overflowed")
    herm_defect = float(np.max(np.abs(K - K.conj().T)))
    if herm_defect > zero_threshold(float(np.max(np.abs(K))), rtol=1e-8):
        raise FlowDegenerationError(f"flow tangent lost Hermitian symmetry ({herm_defect:.2e})")
    return 0.5 * (K + K.conj().T)


def _coefficient_rates(K: np.ndarray) -> np.ndarray:
    """Map ``d/dt g(Z_i, conj Z_j) = K[i, j]`` to the coefficient chart."""
    return np.array([
        2 * K[0, 0].real, 2 * K[1, 1].real, 2 * K[2, 2].real,
        (2j * K[0, 1]).real, (2j * K[0, 1]).imag,
        (2j * K[1, 2]).real, (2j * K[1, 2]).imag,
        (2j * K[0, 2]).real, (2j * K[0, 2]).imag,
    ])


def invariant_flow_step(eqs: ComplexStructureEquations,
                        m: MetricCoefficients,
                        fc,
                        dt: float,
                        bracket: BracketTable | None = None,
                        t_now: float = 0.0,
                        min_dt: float = 1e-6) -> MetricCoefficients:
    """Advance the coefficient flow by ``dt`` with classical Runge-Kutta.

    When an intermediate or final state leaves the admissible cone the step
    is retried as two halves; below ``min_dt`` the flow is declared
    degenerate.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if bracket is None:
        bracket = dualize(eqs)

    def rate(x: np.ndarray) -> np.ndarray:
        # an inadmissible state raises MetricError from frame_metric
        mm = MetricCoefficients.from_array(x)
        return _coefficient_rates(hcf_tangent(eqs, mm, fc, bracket=bracket))

    x0 = m.as_array()
    try:
        k1 = rate(x0)
        k2 = rate(x0 + 0.5 * dt * k1)
        k3 = rate(x0 + 0.5 * dt * k2)
        k4 = rate(x0 + dt * k3)
        x1 = x0 + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out = MetricCoefficients.from_array(x1)
        out.validate()
        return out
    except MetricError:
        if 0.5 * dt < min_dt:
            raise FlowDegenerationError(
                f"flow left admissible cone at t={t_now:.6g}") from None
        mid = invariant_flow_step(eqs, m, fc, 0.5 * dt, bracket=bracket,
                                  t_now=t_now, min_dt=min_dt)
        return invariant_flow_step(eqs, mid, fc, 0.5 * dt, bracket=bracket,
                                   t_now=t_now + 0.5 * dt, min_dt=min_dt)


@dataclass(frozen=True)
class InvariantFlowResult:
    times: np.ndarray
    metrics: list
    degenerated: bool
    exit_time: float | None


def integrate_invariant_flow(eqs: ComplexStructureEquations,
                             m0: MetricCoefficients,
                             fc,
                             t_end: float,
                             dt: float = 1e-3,
                             bracket: BracketTable | None = None,
                             record_every: int = 1) -> InvariantFlowResult:
    """Drive ``invariant_flow_step`` to ``t_end``, recording the trajectory."""
    if bracket is None:
        bracket = dualize(eqs)
    times = [0.0]
    metrics = [m0]
    t = 0.0
    m = m0
    step_count = 0
    while t < t_end - 1e-12:
        h = min(dt, t_end - t)
        try:
            m = invariant_flow_step(eqs, m, fc, h, bracket=bracket, t_now=t)
        except FlowDegenerationError:
            return InvariantFlowResult(times=np.array(times), metrics=metrics,
                                       degenerated=True, exit_time=t)
        t += h
        step_count += 1
        if step_count % record_every == 0 or t >= t_end - 1e-12:
            times.append(t)
            metrics.append(m)
    return InvariantFlowResult(times=np.array(times), metrics=metrics,
                               degenerated=False, exit_time=None)


# ---------------------------------------------------------------------------
# invariant exterior calculus (used for the pluriclosed predicate)
# ---------------------------------------------------------------------------

def invariant_d(form: np.ndarray, bracket: BracketTable) -> np.ndarray:
    """Exterior derivative of an invariant k-form given as an antisymmetric
    array over the frame: ``d eta(X_0..X_k) = sum_{i<j} (-1)^{i+j}
    eta([X_i, X_j], X_0.. omit i, j ..X_k)``.
    """
    k = form.ndim
    dim = form.shape[0]
    f = bracket.f
    out = np.zeros((dim,) * (k + 1), dtype=complex)
    for idx in np.ndindex(*out.shape):
        total = 0.0 + 0.0j
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                rest = tuple(idx[m] for m in range(k + 1) if m != i and m != j)
                bracket_vec = f[idx[i], idx[j], :]
                total += ((-1) ** (i + j)) * np.dot(bracket_vec,
                                                    form[(slice(None),) + rest])
        out[idx] = total
    return out


def _type_projection(form: np.ndarray, n: int, anti_count: int) -> np.ndarray:
    """Zero every component whose number of antiholomorphic slots differs
    from ``anti_count``."""
    k = form.ndim
    out = np.zeros_like(form)
    for idx in np.ndindex(*form.shape):
        if sum(1 for x in idx if x >= n) == anti_count:
            out[idx] = form[idx]
    return out


def bismut_chern_comparison_defect(eqs: ComplexStructureEquations,
                                   m: MetricCoefficients,
                                   bracket: BracketTable | None = None) -> float:
    """Residual of the pluriclosed comparison identity

        B[i, j~, k, l~] = Ch[k, l~, i, j~] - g^{p q~} T_{i p l~} conj(T_{j q k~})

    between the direct-convention Bismut and Chern curvatures.  Vanishes (to
    round-off) exactly on pluriclosed metrics; the returned defect is the max
    component of the difference.
    """
    n = eqs.n
    if bracket is None:
        bracket = dualize(eqs)
    g = frame_metric(m)
    cb = connection(ConnectionKind.BISMUT, bracket, g)
    cc = connection(ConnectionKind.CHERN, bracket, g)
    h = slice(0, n)
    a = slice(n, 2 * n)
    db = _direct_lowered_curvature(cb.gamma, bracket.f, g, h, a, h, a)
    dc = _direct_lowered_curvature(cc.gamma, bracket.f, g, h, a, h, a)
    tor = chern_torsion(cc, bracket)
    Ginv = metric_inverse_block(m.hermitian_matrix())
    tt = np.einsum("qp,ipl,jqk->ijkl", Ginv, tor.lowered_hol,
                   np.conj(tor.lowered_hol))
    return float(np.max(np.abs(db - (np.einsum("klij->ijkl", dc) - tt))))


def pluriclosed_residual(eqs: ComplexStructureEquations, m: MetricCoefficients,
                         bracket: BracketTable | None = None) -> float:
    """Max component of the (2,2)-part of d of the (1,2)-part of d omega.

    Zero (to tolerance) exactly when the metric is pluriclosed.
    """
    n = eqs.n
    if bracket is None:
        bracket = dualize(eqs)
    g = frame_metric(m)
    jd = _j_diagonal(n)
    w = jd[:, None] * g
    dw = invariant_d(w, bracket)
    dbar_w = _type_projection(dw, n, anti_count=2)
    ddbar = invariant_d(dbar_w, bracket)
    return float(np.max(np.abs(_type_projection(ddbar, n, anti_count=2))))
