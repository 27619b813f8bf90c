"""Independent finite-difference curvature engine on C^n minus the origin.

Given closed-form metric and Christoffel evaluators this module rebuilds the
curvature purely from numerical Wirtinger derivatives,

    R^l_{A B k} = d_A gamma^l_{B k} - d_B gamma^l_{A k}
                  + gamma^l_{A m} gamma^m_{B k} - gamma^l_{B m} gamma^m_{A k},

over the complexified coordinate directions (coordinate fields commute), then
lowers the endomorphism index with the metric.  It shares no tensor assembly
with the closed-form module, so agreement between the two is a genuine
cross-check.

Derivatives are central differences with ``h = 1e-5 * max(1, |z|)`` by
default (second order); the optional Richardson extrapolation combines
stencils at ``h`` and ``h/2`` for the near-roundoff accuracy needed by the
flatness checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tensors import CurvatureTensor

DEFAULT_STEP_SCALE = 1e-5
RICHARDSON_STEP_SCALE = 1e-4
MIN_RADIUS = 0.1


@dataclass(frozen=True)
class PointMetricField:
    """A Hermitian metric on C^n minus the origin given by an evaluator
    ``z -> G`` with ``G[i, j] = g_{i j~}(z)``, plus an optional full-frame
    Christoffel evaluator ``z -> gamma[A, K, L]``."""

    n: int
    metric: Callable[[np.ndarray], np.ndarray]
    christoffels: Callable[[np.ndarray], np.ndarray] | None = None


def _check_point(n: int, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=complex).reshape(-1)
    if z.shape != (n,):
        raise ValueError(f"point must have {n} complex coordinates")
    if np.linalg.norm(z) <= MIN_RADIUS:
        raise ValueError(
            f"refusing finite differences at |z| <= {MIN_RADIUS} (step underflow)")
    return z


def wirtinger_derivative(fun: Callable[[np.ndarray], np.ndarray],
                         z: np.ndarray,
                         direction: int,
                         n: int,
                         h: float,
                         richardson: bool = False) -> np.ndarray:
    """Central-difference Wirtinger derivative of ``fun`` along a frame
    direction: ``direction < n`` is ``d/dz_a = (d_x - i d_y) / 2``, otherwise
    the conjugate direction ``(d_x + i d_y) / 2``."""

    def central(step: float) -> np.ndarray:
        a = direction % n
        sign = -1j if direction < n else 1j
        ex = np.zeros(n, dtype=complex)
        ex[a] = step
        ey = np.zeros(n, dtype=complex)
        ey[a] = 1j * step
        dx = (np.asarray(fun(z + ex)) - np.asarray(fun(z - ex))) / (2 * step)
        dy = (np.asarray(fun(z + ey)) - np.asarray(fun(z - ey))) / (2 * step)
        return 0.5 * (dx + sign * dy)

    if not richardson:
        return central(h)
    return (4.0 * central(0.5 * h) - central(h)) / 3.0


def fd_curvature(field: PointMetricField,
                 z: np.ndarray,
                 gamma: Callable[[np.ndarray], np.ndarray] | None = None,
                 h: float | None = None,
                 richardson: bool = False) -> CurvatureTensor:
    """Lowered curvature of the supplied connection at ``z`` by finite
    differences, full-frame components ``g(R(e_A, e_B) e_C, e_D)``."""
    n = field.n
    z = _check_point(n, z)
    gamma = gamma if gamma is not None else field.christoffels
    if gamma is None:
        raise ValueError("no Christoffel evaluator supplied")
    if h is None:
        scale = RICHARDSON_STEP_SCALE if richardson else DEFAULT_STEP_SCALE
        h = scale * max(1.0, float(np.linalg.norm(z)))

    g0 = np.asarray(gamma(z), dtype=complex)
    if g0.shape != (2 * n,) * 3:
        raise ValueError(f"Christoffel evaluator must return shape {(2 * n,) * 3}")
    dgamma = np.stack([
        wirtinger_derivative(gamma, z, a, n, h, richardson=richardson)
        for a in range(2 * n)
    ])  # dgamma[A, B, K, L] = d_A gamma[B, K, L]

    raised = (np.einsum("abkl->abkl", dgamma)
              - np.einsum("bakl->abkl", dgamma)
              + np.einsum("amf,bkm->abkf", g0, g0)
              - np.einsum("bmf,akm->abkf", g0, g0))

    G = np.asarray(field.metric(z), dtype=complex)
    gfull = np.zeros((2 * n, 2 * n), dtype=complex)
    gfull[:n, n:] = G
    gfull[n:, :n] = G.T
    lowered = np.einsum("abkm,md->abkd", raised, gfull)
    return CurvatureTensor(n=n, connection="finite-difference", data=lowered)
