"""The invariant leg and the Hopf leg on one manifold.

The Hopf surface (C^2 minus 0) modulo a dilation is the Lie group
U(1) x SU(2).  With ``psi = -2 phi`` for its right-invariant (1,0)-forms
``phi1 = (z1 dz2 - z2 dz1) / |z|^2`` and ``phi2 = conj(z) . dz / |z|^2``
the structure equations are ``d psi1 = psi^{12} / 2 - psi^{1 2~} / 2`` and
``d psi2 = psi^{1 1~} / 2``, and the Hopf metric (alpha, beta) is the frame
metric ``G = diag(alpha / 4, (alpha + beta) / 4)``.  At z = (1, 0) the frame
is ``psi1 <-> dz2``, ``psi2 <-> dz1``.

The two legs give one Bismut tensor up to the factor
``CURVATURE_COMPONENT_SIGN / 16``, so they label it with opposite signs:
the sign verdicts are opposite wherever the curvature is not flat.  This
pins today's relation; why the conventions differ is open.
"""

import numpy as np
import pytest

from hermflow import hopf
from hermflow.invariant import (CURVATURE_COMPONENT_SIGN, ComplexStructureEquations,
                                ConnectionKind, connection, curvature)
from hermflow.positivity import Verdict, classify

U1_SU2 = ComplexStructureEquations.from_terms(
    2, [(1, 1, 2, 0.5)], [(1, 1, 2, -0.5), (2, 1, 1, 0.5)])
POINT = np.array([1.0, 0.0], dtype=complex)
#: psi1 <-> dz2 and psi2 <-> dz1 in every slot
SWAP = [1, 0]
GAMMAS = (-0.75, -0.3, 0.0, 0.4, 3.0)


def _frame_metric(G):
    n = len(G)
    g = np.zeros((2 * n, 2 * n), dtype=complex)
    g[:n, n:], g[n:, :n] = G, G.T
    return g


def _invariant_curvature(eqs, kind, G):
    bracket = eqs.bracket
    return curvature(connection(kind, bracket, _frame_metric(G)), bracket)


def _invariant_bismut(alpha, beta):
    G = np.diag([alpha / 4, (alpha + beta) / 4]).astype(complex)
    return _invariant_curvature(U1_SU2, ConnectionKind.BISMUT, G)


def _hopf_block_in_frame(h):
    block = hopf.bismut_mixed_block(h, POINT)
    return block[np.ix_(SWAP, SWAP, SWAP, SWAP)]


def _assert_one_tensor(alpha, beta):
    got = _invariant_bismut(alpha, beta).mixed_block()
    want = CURVATURE_COMPONENT_SIGN / 16 * _hopf_block_in_frame(hopf.HopfMetric(2, alpha, beta))
    scale = 1.0 + np.max(np.abs(got))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale, (alpha, beta)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_invariant_bismut_block_is_the_signed_hopf_block(gamma):
    for alpha in (0.5, 1.0, 1.7):
        _assert_one_tensor(alpha, gamma * alpha)


def test_relation_holds_at_random_metrics(rng):
    for _ in range(20):
        alpha = rng.uniform(0.2, 3.0)
        _assert_one_tensor(alpha, alpha * rng.uniform(-0.95, 3.0))


@pytest.mark.parametrize("gamma", GAMMAS)
def test_the_two_legs_give_opposite_verdicts(gamma):
    h = hopf.HopfMetric(2, 1.3, 1.3 * gamma)
    invariant_verdict = classify(_invariant_bismut(h.alpha, h.beta), starts=16).verdict
    hopf_verdict = classify(hopf.bismut_curvature_at(h, POINT), starts=16).verdict
    if gamma == 0:
        # a bi-invariant metric: the Bismut connection is flat
        assert invariant_verdict is hopf_verdict is Verdict.FLAT
    elif gamma < 0:
        assert (invariant_verdict, hopf_verdict) == (Verdict.NON_POSITIVE,
                                                     Verdict.NON_NEGATIVE)
    else:
        assert (invariant_verdict, hopf_verdict) == (Verdict.NON_NEGATIVE,
                                                     Verdict.NON_POSITIVE)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_invariant_chern_block_is_the_signed_hopf_chern_block(gamma):
    for alpha in (0.5, 1.0, 1.7):
        h = hopf.HopfMetric(2, alpha, gamma * alpha)
        G = np.diag([alpha / 4, (alpha + h.beta) / 4]).astype(complex)
        got = _invariant_curvature(U1_SU2, ConnectionKind.CHERN, G).mixed_block()
        lowered = np.einsum("ijkm,ml->ijkl", hopf.chern_data_at(h, POINT).curvature,
                            hopf.metric_at(h, POINT))
        want = CURVATURE_COMPONENT_SIGN / 16 * lowered[np.ix_(SWAP, SWAP, SWAP, SWAP)]
        scale = 1.0 + np.max(np.abs(got))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, (alpha, gamma)


#: CH^2 as the group of d psi1 = psi^{12} / 4 + psi^{1 2~} / 4 and
#: d psi2 = psi^{1 1~} / 2 + psi^{2 2~} / 2, Kaehler at G = I
CH2 = ComplexStructureEquations.from_terms(
    2, [(1, 1, 2, 0.25)], [(1, 1, 2, 0.25), (2, 1, 1, 0.5), (2, 2, 2, 0.5)])
#: H^2 as the ax+b group, d psi1 = psi^{1 1~} / 2, Kaehler at every G = [[a]]
H2 = ComplexStructureEquations.from_terms(1, [], [(1, 1, 1, 0.5)])


def test_the_three_connections_agree_on_ch2():
    omegas = [_invariant_curvature(CH2, kind, np.eye(2, dtype=complex))
              for kind in ConnectionKind]
    for omega in omegas[1:]:
        assert np.array_equal(omega.data, omegas[0].data)
    for omega in omegas:
        assert classify(omega, starts=16).verdict is Verdict.NON_NEGATIVE


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_the_three_connections_agree_on_h2(a):
    for kind in ConnectionKind:
        omega = _invariant_curvature(H2, kind, np.array([[a]], dtype=complex))
        assert omega.entry(1, -1, 1, -1) == a / 2, kind
        assert classify(omega, starts=16).verdict is Verdict.NON_NEGATIVE, kind
