"""Regression suite for the closed-form curvature components of the catalog
families.  These are the frozen reference values that pin every sign and
normalization convention of the invariant engine."""

import numpy as np
import pytest

from hermflow.catalog import bismut_curvature, instantiate
from hermflow.invariant import (MetricCoefficients, check_cplx,
                                sample_admissible_metric)

ABS = 1e-10


def detG(m):
    return np.linalg.det(m.hermitian_matrix()).real


def test_ni_lambda_zero_component_table(rng):
    for D in (0.0, 1j, 1.0, -1.0, 0.3 + 0.4j):
        eqs = instantiate("Ni", rho=0, lam=0.0, D=D)
        m = sample_admissible_metric(rng, fixed={"r2": 1.0, "v": 0, "z": 0})
        om = bismut_curvature(eqs, m)
        D = complex(D)
        assert om.entry(1, -1, 1, -1) == pytest.approx(m.t2, abs=ABS)
        assert om.entry(1, -1, 2, -2) == pytest.approx(D.real * m.t2, abs=ABS)
        assert om.entry(2, -2, 1, -1) == pytest.approx(D.real * m.t2, abs=ABS)
        assert om.entry(2, -2, 2, -2) == pytest.approx(abs(D) ** 2 * m.t2, abs=ABS)
        coef = -(1j * D).real * m.t2 ** 2 / (m.s2 - abs(m.u) ** 2)
        assert om.entry(3, -3, 1, -2) == pytest.approx(coef * m.u, abs=ABS)
        assert om.entry(3, -3, 2, -1) == pytest.approx(coef * np.conj(m.u), abs=ABS)


def test_ni_h2_determinant(rng):
    eqs = instantiate("Ni", rho=0, lam=0.0, D=1j)
    for _ in range(4):
        m = sample_admissible_metric(rng, fixed={"r2": 1.0, "v": 0, "z": 0})
        om = bismut_curvature(eqs, m)
        det3 = (om.entry(3, -3, 1, -1) * om.entry(3, -3, 2, -2)
                - om.entry(3, -3, 1, -2) * om.entry(3, -3, 2, -1))
        ref = -m.t2 ** 4 * abs(m.u) ** 2 / (m.s2 - abs(m.u) ** 2) ** 2
        assert det3 == pytest.approx(ref, abs=ABS)


def test_ni_h4_h5_pair_determinant(rng):
    for D in (0.25, 0.0, 0.1, 0.2):
        eqs = instantiate("Ni", rho=0, lam=1.0, D=D)
        m = sample_admissible_metric(rng, fixed={"r2": 1.0, "v": 0, "z": 0})
        om = bismut_curvature(eqs, m)
        pair = (om.entry(1, -1, 1, -1) * om.entry(1, -1, 2, -2)
                - om.entry(1, -1, 1, -2) * om.entry(1, -1, 2, -1))
        assert pair == pytest.approx(m.t2 ** 2 * (D - 0.25), abs=ABS)
        assert om.entry(1, -1, 1, -1) == pytest.approx(m.t2, abs=ABS)


def test_ni_h4_second_ricci_determinant_is_negative(rng):
    eqs = instantiate("Ni", rho=0, lam=1.0, D=0.25)
    for _ in range(4):
        m = sample_admissible_metric(rng, fixed={"r2": 1.0, "v": 0, "z": 0})
        om = bismut_curvature(eqs, m)
        Ginv = np.linalg.inv(m.hermitian_matrix())
        ric2 = np.einsum("lk,klij->ij", Ginv, om.mixed_block())
        det2 = (ric2[0, 0] * ric2[1, 1] - ric2[0, 1] * ric2[1, 0]).real
        assert det2 < -1e-6


def test_nii_slice_components(rng):
    eqs = instantiate("Nii", rho=1, B=0j, c=0.0)
    for _ in range(3):
        m = sample_admissible_metric(rng, fixed={"v": 0})
        om = bismut_curvature(eqs, m)
        assert check_cplx(om).satisfied
        d = detG(m)
        assert om.entry(2, -2, 3, -3) == pytest.approx(
            m.s2 * m.t2 ** 3 / (16 * d), abs=ABS)
        det2 = (om.entry(2, -2, 3, -3) * om.entry(1, -1, 3, -3)
                - om.entry(1, -2, 3, -3) * om.entry(2, -1, 3, -3))
        assert abs(det2) == pytest.approx(m.t2 ** 5 / (32 * d), abs=ABS)


def test_nii_cplx_violation_witnesses(rng):
    # rho = 0 with (B, c) != 0: the two listed components cannot both vanish
    B, c = 0.3 + 0.2j, 0.7
    eqs = instantiate("Nii", rho=0, B=B, c=c)
    m = MetricCoefficients(1.1, 0.9, 1.3, u=0.1, v=0.2 - 0.1j, z=-0.05j)
    om = bismut_curvature(eqs, m)
    d = detG(m)
    s2t2v = (m.s2 * m.t2 - abs(m.v) ** 2) ** 2
    assert om.entry(2, 3, 1, -2) == pytest.approx(c * s2t2v / (16 * d), abs=ABS)
    assert om.entry(2, 3, 2, -1) == pytest.approx(
        -np.conj(B) * s2t2v / (16 * d), abs=ABS)
    # rho = 1 with B != 0
    eqs = instantiate("Nii", rho=1, B=B, c=0.0)
    om = bismut_curvature(eqs, m)
    assert om.entry(2, 3, 2, -3) == pytest.approx(
        (m.s2 * m.t2 - abs(m.v) ** 2) * m.t2 ** 2 * np.conj(B) / (16 * d), abs=ABS)
    # rho = 1, B = c = 0 still needs v = 0
    eqs = instantiate("Nii", rho=1, B=0j, c=0.0)
    om = bismut_curvature(eqs, m)
    assert abs(om.entry(2, 3, 1, -2)) == pytest.approx(
        (m.s2 * m.t2 - abs(m.v) ** 2) * abs(m.v) ** 2 / (16 * d), abs=ABS)
    assert not check_cplx(om).satisfied


def test_niii_never_witness():
    for delta in (1, -1):
        for rho in (0, 1):
            eqs = instantiate("Niii", rho=rho, delta=delta)
            m = MetricCoefficients(1.2, 0.9, 1.1)
            om = bismut_curvature(eqs, m)
            assert om.entry(1, 3, 3, -1) == pytest.approx(
                0.5 * (m.s2 - delta * 1j * m.t2), abs=ABS)
            assert not check_cplx(om).satisfied


def test_si_slice_components(rng):
    for theta in (0.0, 0.7, 2.2):
        eqs = instantiate("Si", theta=theta)
        m = sample_admissible_metric(rng, fixed={"u": 0, "v": 0, "z": 0})
        om = bismut_curvature(eqs, m)
        assert check_cplx(om).satisfied
        A = np.exp(1j * theta)
        assert om.entry(1, -1, 1, -1) == pytest.approx(
            2 * A.real ** 2 * m.r2 ** 2 / m.t2, abs=ABS)
        assert om.entry(1, -1, 3, -3) == pytest.approx(
            -2 * m.r2 * A.real ** 2, abs=ABS)


def test_sii_never_witness():
    x = 0.8
    eqs = instantiate("Sii", x=x)
    for m in (MetricCoefficients(1.0, 0.7, 0.7), MetricCoefficients(1.3, 0.7, 0.7)):
        om = bismut_curvature(eqs, m)
        assert om.entry(1, 2, 1, -2) == pytest.approx(
            -1j * m.t2 * (4 * x ** 2 + 1) / (16 * x), abs=ABS)
        assert not check_cplx(om).satisfied


def test_siii1_sole_component(rng):
    for delta in (1, -1):
        eqs = instantiate("Siii1", delta=delta)
        m = sample_admissible_metric(rng, fixed={"u": 0, "v": 0, "z": 0})
        om = bismut_curvature(eqs, m)
        assert check_cplx(om).satisfied
        block = om.mixed_block()
        assert block[0, 0, 0, 0] == pytest.approx(m.t2, abs=ABS)
        rest = block.copy()
        rest[0, 0, 0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-10


def test_siii2_never_witnesses():
    eqs = instantiate("Siii2")
    m = MetricCoefficients(1.2, 0.9, 1.1, u=0.2 + 0.1j)
    om = bismut_curvature(eqs, m)
    d = detG(m)
    assert om.entry(1, 3, 3, -1) == pytest.approx(
        1j * m.r2 * m.t2 * m.u * (m.t2 + 2j * np.conj(m.u)) / (8 * d), abs=ABS)
    assert om.entry(1, 3, 3, -2) == pytest.approx(
        m.r2 * m.s2 * m.t2 * (m.t2 + 2j * m.u) / (8 * d), abs=ABS)
    assert not check_cplx(om).satisfied


def test_siv1_component_and_determinant(rng):
    eqs = instantiate("Siv1")
    for m in (MetricCoefficients(1, 1, 1), sample_admissible_metric(rng)):
        om = bismut_curvature(eqs, m)
        assert check_cplx(om).satisfied
        d = detG(m)
        r2s2u = m.r2 * m.s2 - abs(m.u) ** 2
        assert om.entry(1, -1, 1, -1) == pytest.approx(
            r2s2u * m.r2 ** 2 / (16 * d), abs=ABS)
        det2 = (om.entry(1, -1, 1, -1) * om.entry(1, -1, 3, -3)
                - om.entry(1, -1, 1, -3) * om.entry(1, -1, 3, -1))
        assert det2 == pytest.approx(-r2s2u * m.r2 ** 3 / (32 * d), abs=ABS)


def test_siv1_unit_metric_values(unit_metric):
    om = bismut_curvature(instantiate("Siv1"), unit_metric)
    assert om.entry(1, -1, 1, -1).real == pytest.approx(0.5)
    det2 = (om.entry(1, -1, 1, -1) * om.entry(1, -1, 3, -3)
            - om.entry(1, -1, 1, -3) * om.entry(1, -1, 3, -1))
    assert det2.real == pytest.approx(-0.25)


def test_siv2_never_witness():
    eqs = instantiate("Siv2", x=0)
    m = MetricCoefficients(1.2, 0.9, 1.1)
    om = bismut_curvature(eqs, m)
    det_xi = -1j * detG(m)
    assert om.entry(1, 2, 3, -2) == pytest.approx(
        -(m.r2 * m.s2) ** 2 / (8 * det_xi), abs=ABS)
    for x in (0, 1):
        om = bismut_curvature(instantiate("Siv2", x=x), m)
        assert not check_cplx(om).satisfied


def test_siv3_slice_components(rng):
    for A in (0.5, 2.0 + 0.5j, 0j):
        eqs = instantiate("Siv3", A=A)
        fixed = {"v": 0, "z": 0} if A == 0 else {"u": 0, "v": 0, "z": 0}
        m = sample_admissible_metric(rng, fixed=fixed)
        om = bismut_curvature(eqs, m)
        assert check_cplx(om).satisfied
        A = complex(A)
        r2s2u = m.r2 * m.s2 - abs(m.u) ** 2
        assert om.entry(1, -1, 1, -1) == pytest.approx(
            0.5 * m.r2 ** 2 / m.t2 * abs(A - 1) ** 2, abs=ABS)
        ref = -0.5 * (abs(A - 1) ** 2 * m.r2 ** 2 * m.s2
                      - ((A - 1) * np.conj(A) - A - 3) * m.r2 * abs(m.u) ** 2) / r2s2u
        assert om.entry(1, -1, 3, -3) == pytest.approx(ref, abs=ABS)


def test_sv_never_witnesses(rng):
    eqs = instantiate("Sv")
    m = sample_admissible_metric(rng, fixed={"v": 0, "z": 0})
    om = bismut_curvature(eqs, m)
    assert om.entry(1, 2, 3, -1) == pytest.approx(
        -(m.r2 * m.s2 - abs(m.u) ** 2) / (4 * m.t2), abs=ABS)
    m = sample_admissible_metric(rng, fixed={"u": 0, "v": 0, "z": 0.2 - 0.1j})
    om = bismut_curvature(eqs, m)
    assert om.entry(2, 3, 3, -3) == pytest.approx(
        m.s2 ** 2 * abs(m.z) ** 2 / (32 * detG(m)), abs=ABS)
    assert not check_cplx(om).satisfied
    # fully generic metrics still violate the condition
    om = bismut_curvature(eqs, sample_admissible_metric(rng))
    assert not check_cplx(om).satisfied
