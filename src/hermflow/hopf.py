"""Closed-form geometry of the two-parameter metric family on linear Hopf
manifolds.

The family is ``g(alpha, beta)_{i j~} = alpha delta_ij / |z|^2
+ beta conj(z)_i z_j / |z|^4`` on ``C^n \\ {0}`` with ``alpha > 0`` and
``beta > -alpha``.  All tensors here are evaluated from explicit formulas in
holomorphic coordinates; nothing is shared with the frame-algebra engine or
the finite-difference oracle, so the three can cross-check each other.

Curvature components follow the direct convention
``Omega[i, j, k, l] = g(R(d_i, conj d_j) d_k, conj d_l)``; the Bismut tensor
splits as ``alpha * U_A + 2 beta * U_B`` with both pieces scale-invariant of
degree -4.

Dot products in the bisectional expansion are Hermitian,
``x . y = sum_i x_i conj(y_i)``; this is what the tensor contraction of the
component formulas produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import CurvatureTensor, curvature_from_mixed_block


@dataclass(frozen=True)
class HopfMetric:
    """Parameters (n, alpha, beta) with alpha > 0 and beta > -alpha."""

    n: int
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"complex dimension must be >= 2, got {self.n}")
        if not self.alpha > 0:
            raise ValueError(f"alpha > 0 fails: alpha={self.alpha!r}")
        if not self.beta > -self.alpha:
            raise ValueError(
                f"beta > -alpha fails: beta={self.beta!r}, alpha={self.alpha!r}")

    @property
    def gamma(self) -> float:
        return self.beta / self.alpha


def _check_point(h: HopfMetric, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=complex).reshape(-1)
    if z.shape != (h.n,):
        raise ValueError(f"point must have {h.n} complex coordinates")
    if np.linalg.norm(z) == 0:
        raise ValueError("the metric family lives on C^n minus the origin")
    return z


def metric_at(h: HopfMetric, z: np.ndarray) -> np.ndarray:
    """``G[i, j] = g_{i j~}(z)``, Hermitian positive definite."""
    z = _check_point(h, z)
    n2 = float(np.vdot(z, z).real)
    zb = np.conj(z)
    return h.alpha * np.eye(h.n) / n2 + h.beta * np.outer(zb, z) / n2 ** 2


def bismut_christoffels_at(h: HopfMetric, z: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form Bismut Christoffel symbols ``(pure, mixed)``.

    ``pure[i, j, k]`` is the coefficient of ``d_k`` in ``grad_{d_i} d_j``;
    ``mixed[i, j, k]`` the coefficient of ``d_k`` in ``grad_{conj d_i} d_j``.
    """
    z = _check_point(h, z)
    n = h.n
    n2 = float(np.vdot(z, z).real)
    zb = np.conj(z)
    gam = h.gamma
    eye = np.eye(n)
    # pure[i, j, k] = (gam * delta_j^k zb_i - delta_i^k zb_j) / |z|^2
    #                 - gam * zb_i zb_j z_k / |z|^4
    pure = (gam * np.einsum("jk,i->ijk", eye, zb)
            - np.einsum("ik,j->ijk", eye, zb)) / n2 \
        - gam * np.einsum("i,j,k->ijk", zb, zb, z) / n2 ** 2
    # mixed[i, j, k] = (delta_ij z_k - (1+gam) delta_j^k z_i) / |z|^2
    #                  + gam * z_i zb_j z_k / |z|^4
    mixed = (np.einsum("ij,k->ijk", eye, z)
             - (1.0 + gam) * np.einsum("jk,i->ijk", eye, z)) / n2 \
        + gam * np.einsum("i,j,k->ijk", z, zb, z) / n2 ** 2
    return pure, mixed


def chern_christoffels_at(h: HopfMetric, z: np.ndarray) -> np.ndarray:
    """Closed-form Chern Christoffels ``gamma[i, j, k]`` (mixed part is zero)."""
    z = _check_point(h, z)
    n2 = float(np.vdot(z, z).real)
    zb = np.conj(z)
    gam = h.gamma
    eye = np.eye(h.n)
    return (gam * np.einsum("ik,j->ijk", eye, zb)
            - np.einsum("jk,i->ijk", eye, zb)) / n2 \
        - gam * np.einsum("i,j,k->ijk", zb, zb, z) / n2 ** 2


def connection_field(h: HopfMetric, which: str):
    """Full-frame Christoffel evaluator ``z -> gamma[A, K, L]`` over the
    complexified coordinate directions, for feeding the finite-difference
    oracle.  ``which`` is "bismut" or "chern"."""
    n = h.n

    def gamma_full(z: np.ndarray) -> np.ndarray:
        if which == "bismut":
            pure, mixed = bismut_christoffels_at(h, z)
        elif which == "chern":
            pure = chern_christoffels_at(h, z)
            mixed = np.zeros_like(pure)
        else:
            raise ValueError(f"unknown connection {which!r}")
        out = np.zeros((2 * n,) * 3, dtype=complex)
        out[:n, :n, :n] = pure
        out[n:, :n, :n] = mixed
        out[n:, n:, n:] = np.conj(pure)
        out[:n, n:, n:] = np.conj(mixed)
        return out

    return gamma_full


def u_alpha_at(z: np.ndarray, n: int) -> np.ndarray:
    """The curvature block of the round-type metric (the ``alpha`` part)."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    n2 = float(np.vdot(z, z).real)
    zb = np.conj(z)
    eye = np.eye(n)
    dd = (np.einsum("il,jk->ijkl", eye, eye) - np.einsum("ij,kl->ijkl", eye, eye)) / n2 ** 2
    zz = (np.einsum("ij,k,l->ijkl", eye, zb, z)
          + np.einsum("kl,i,j->ijkl", eye, zb, z)
          - np.einsum("il,j,k->ijkl", eye, z, zb)
          - np.einsum("jk,i,l->ijkl", eye, zb, z)) / n2 ** 3
    return dd + zz


def u_beta_at(z: np.ndarray, n: int) -> np.ndarray:
    """The non-positive rank-one-type piece multiplying ``2 beta``."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    n2 = float(np.vdot(z, z).real)
    zb = np.conj(z)
    eye = np.eye(n)
    return (-np.einsum("ij,kl->ijkl", eye, eye) / n2 ** 2
            + (np.einsum("ij,k,l->ijkl", eye, zb, z)
               + np.einsum("kl,i,j->ijkl", eye, zb, z)) / n2 ** 3
            - np.einsum("i,j,k,l->ijkl", zb, z, zb, z) / n2 ** 4)


def bismut_mixed_block(h: HopfMetric, z: np.ndarray) -> np.ndarray:
    """``Omega[i, j, k, l]`` on ``(d_i, conj d_j, d_k, conj d_l)``."""
    z = _check_point(h, z)
    return h.alpha * u_alpha_at(z, h.n) + 2.0 * h.beta * u_beta_at(z, h.n)


def bismut_curvature_at(h: HopfMetric, z: np.ndarray) -> CurvatureTensor:
    """Full-frame Bismut curvature; pure-type components vanish identically."""
    return curvature_from_mixed_block(bismut_mixed_block(h, z), h.n, "bismut")


@dataclass(frozen=True)
class BisectionalValue:
    value: float
    point: np.ndarray
    xi: np.ndarray
    nu: np.ndarray


def bisectional(h: HopfMetric, z: np.ndarray, xi: np.ndarray, nu: np.ndarray
                ) -> BisectionalValue:
    """``Omega^B(xi, conj xi, nu, conj nu)`` at ``z``; always real."""
    z = _check_point(h, z)
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    nu = np.asarray(nu, dtype=complex).reshape(-1)
    if xi.shape != (h.n,) or nu.shape != (h.n,):
        raise ValueError(f"direction vectors must have {h.n} components")
    block = bismut_mixed_block(h, z)
    val = np.einsum("ijkl,i,j,k,l->", block, xi, np.conj(xi), nu, np.conj(nu))
    if abs(val.imag) > 1e-10 * (1.0 + abs(val)):
        raise AssertionError(f"bisectional value is not real: {val!r}")
    return BisectionalValue(value=float(val.real), point=z, xi=xi, nu=nu)


# ---------------------------------------------------------------------------
# Chern data and the torsion quadratics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChernData:
    christoffels: np.ndarray    # gamma[i, j, k]
    curvature: np.ndarray       # R[i, j, k, l] = Omega^l on (d_i, conj d_j, d_k)
    trace2: np.ndarray          # inverse-metric trace over the curvature plane
    torsion: np.ndarray         # T[i, j, k] = T^k_{ij}
    q1: np.ndarray
    q2: np.ndarray
    q3: np.ndarray
    q4: np.ndarray


def chern_data_at(h: HopfMetric, z: np.ndarray) -> ChernData:
    """Every closed-form Chern quantity entering the flow tangent."""
    z = _check_point(h, z)
    n = h.n
    n2 = float(np.vdot(z, z).real)
    zb = np.conj(z)
    gam = h.gamma
    eye = np.eye(n)
    proj_z = np.outer(zb, z) / n2      # [i, j] -> zb_i z_j / |z|^2

    gamma = chern_christoffels_at(h, z)

    # R[i, j, k, l]: delta_k^l (delta_ij - zb_i z_j/|z|^2)
    #   - gam delta_i^l (delta_jk - zb_k z_j/|z|^2)
    #   + gam ((delta_jk zb_i + delta_ij zb_k)|z|^2 - 2 zb_i z_j zb_k) z_l / |z|^4
    curv = (np.einsum("kl,ij->ijkl", eye, eye - proj_z)
            - gam * np.einsum("il,jk->ijkl", eye, eye - np.einsum("kj->jk", proj_z))
            + gam * np.einsum("ijk,l->ijkl",
                              (np.einsum("jk,i->ijk", eye, zb)
                               + np.einsum("ij,k->ijk", eye, zb)) * n2
                              - 2 * np.einsum("i,j,k->ijk", zb, z, zb),
                              z) / n2 ** 2) / n2

    trace2 = ((n - 1 - gam) * eye
              + gam * (2 * n - 1 + gam * (n - 1)) * proj_z) / n2

    torsion = (1.0 + gam) * (np.einsum("ik,j->ijk", eye, zb)
                             - np.einsum("jk,i->ijk", eye, zb)) / n2

    f2 = (1.0 + gam) ** 2
    ratio = h.alpha / (h.alpha + h.beta)     # = 1 / (1 + gam)
    q1 = f2 * (ratio * eye + (n - 2 + h.beta / (h.alpha + h.beta)) * proj_z) / n2
    q2 = 2.0 * f2 * ratio * (eye - proj_z) / n2
    q3 = (n - 1) ** 2 * f2 * np.outer(zb, z) / n2 ** 2
    q4 = f2 * ratio * (n - 1) * (eye - proj_z) / n2
    return ChernData(christoffels=gamma, curvature=curv, trace2=trace2,
                     torsion=torsion, q1=q1, q2=q2, q3=q3, q4=q4)


def hcf_tangent_at(h: HopfMetric, fc, z: np.ndarray) -> np.ndarray:
    """``-S + a Q1 + b Q2 + c Q3 + d Q4`` assembled from the closed forms."""
    data = chern_data_at(h, z)
    return (-data.trace2 + fc.a * data.q1 + fc.b * data.q2
            + fc.c * data.q3 + fc.d * data.q4)


def decompose_invariant_hermitian(K: np.ndarray, z: np.ndarray
                                  ) -> tuple[float, float, float]:
    """Split a Hermitian matrix over ``{delta/|z|^2, zb z/|z|^4}``.

    Returns ``(A, B, residual)`` with ``K ~ A delta/|z|^2 + B zb z/|z|^4``;
    the residual is the max-norm distance to that span.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    n = z.shape[0]
    n2 = float(np.vdot(z, z).real)
    m1 = np.eye(n) / n2
    m2 = np.outer(np.conj(z), z) / n2 ** 2
    basis = np.stack([m1.ravel(), m2.ravel()], axis=1)
    coeffs, *_ = np.linalg.lstsq(basis, K.ravel(), rcond=None)
    resid = float(np.max(np.abs(K.ravel() - basis @ coeffs)))
    if max(abs(coeffs[0].imag), abs(coeffs[1].imag)) > 1e-9 * (1 + np.max(np.abs(K))):
        raise AssertionError("invariant decomposition produced complex rates")
    return float(coeffs[0].real), float(coeffs[1].real), resid


def verify_general_ode_consistency(h: HopfMetric, fc, z: np.ndarray) -> float:
    """Defect between the tensor-assembled flow tangent and the scalar ODE.

    Assembles ``-S + Q`` from the closed forms, splits it over the invariant
    basis, and compares the two coefficients with the right-hand sides of the
    reduced (alpha, beta) system.  Also folds in the distance of the tangent
    to the invariant span, which flags any transcription error.
    """
    from .flows import ode_rhs

    K = hcf_tangent_at(h, fc, z)
    A, B, resid = decompose_invariant_hermitian(K, z)
    alpha_dot, beta_dot = ode_rhs((h.alpha, h.beta), fc, h.n)
    # the chart rates refer to g = alpha delta/|z|^2 + beta zb z/|z|^4,
    # while K was assembled at fixed (alpha, beta); A and B are the rates.
    return resid + abs(A - alpha_dot) + abs(B - beta_dot)
