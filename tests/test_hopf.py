"""Closed-form geometry of the g(alpha, beta) family: curvature split,
bisectional values, Chern data, torsion quadratics and the consistency of the
tensor-assembled flow tangent with the scalar ODE system."""

import numpy as np
import pytest

from hermflow import hopf
from hermflow.flows import FlowCoefficients, named_flow, ode_rhs
from hermflow.invariant import check_cplx
from hermflow.positivity import classify
from tests.conftest import random_point
from tests.reference import (chern_curvature_lowered, inverse_metric_at, q_terms,
                             stacked_second_ricci_trace)


def random_hopf(rng, n=None):
    n = n or int(rng.integers(2, 5))
    alpha = rng.uniform(0.5, 1.5)
    beta = rng.uniform(-0.9, 1.5) * alpha
    return hopf.HopfMetric(n, alpha, beta)


def test_parameter_validation():
    with pytest.raises(ValueError, match="alpha"):
        hopf.HopfMetric(2, -1.0, 0.0)
    with pytest.raises(ValueError, match="beta"):
        hopf.HopfMetric(2, 1.0, -2.0)
    with pytest.raises(ValueError, match="dimension"):
        hopf.HopfMetric(1, 1.0, 0.0)
    assert hopf.HopfMetric(3, 2.0, -0.5).gamma == pytest.approx(-0.25)


def test_metric_inverse_identity(rng):
    for _ in range(10):
        h = random_hopf(rng)
        z = random_point(rng, h.n)
        G = hopf.metric_at(h, z)
        Ginv = inverse_metric_at(h, z)
        assert np.max(np.abs(G @ Ginv - np.eye(h.n))) < 1e-12


def test_surface_is_flat():
    h = hopf.HopfMetric(2, 1.0, 0.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = random_point(rng, 2)
        assert hopf.bismut_curvature_at(h, z).magnitude < 1e-14


def test_canonical_metric_diagonal_entry():
    # Omega(1,-1,2,-2) at the third coordinate axis is -alpha - 2 beta
    z = np.array([0.0, 0.0, 1.0], dtype=complex)
    for alpha, beta in ((1.0, 0.0), (1.0, -0.5), (2.0, 1.0)):
        h = hopf.HopfMetric(3, alpha, beta)
        omega = hopf.bismut_curvature_at(h, z)
        assert omega.entry(1, -1, 2, -2) == pytest.approx(-alpha - 2 * beta)


def test_two_zero_coordinate_violation():
    # the sharp threshold: at ratio -1/2 + eps the (k, l) diagonal entry at a
    # point with those coordinates zero equals -2 eps / |z|^4
    for eps in (0.1, 0.01):
        h = hopf.HopfMetric(3, 1.0, -0.5 + eps)
        z = np.array([0.0, 0.0, 1.3 - 0.4j])
        n4 = float(np.vdot(z, z).real) ** 2
        val = hopf.bisectional(h, z, np.eye(3)[0], np.eye(3)[1])
        assert val == pytest.approx(-2 * eps / n4, abs=1e-12)


def test_cplx_identically(rng):
    for _ in range(5):
        h = random_hopf(rng)
        z = random_point(rng, h.n)
        omega = hopf.bismut_curvature_at(h, z)
        report = check_cplx(omega)[0]
        assert report.satisfied and report.max_violation == 0.0


def test_u_beta_nonpositive_with_equality_iff_parallel(rng):
    # 10^4 random draws plus the exact equality cases
    n = 3
    z = random_point(rng, n)
    ub = hopf.u_beta_at(z, n)
    for _ in range(10_000 // 20):
        for _ in range(20):
            xi = rng.normal(size=n) + 1j * rng.normal(size=n)
            nu = rng.normal(size=n) + 1j * rng.normal(size=n)
            val = np.einsum("ijkl,i,j,k,l->", ub, xi, xi.conj(), nu, nu.conj())
            assert val.real <= 1e-12
        z = random_point(rng, n)
        ub = hopf.u_beta_at(z, n)
    lam = 0.3 - 0.8j
    xi = lam * z
    nu = rng.normal(size=n) + 1j * rng.normal(size=n)
    val = np.einsum("ijkl,i,j,k,l->", ub, xi, xi.conj(), nu, nu.conj())
    assert abs(val) < 1e-12
    val = np.einsum("ijkl,i,j,k,l->", ub, nu, nu.conj(), xi, xi.conj())
    assert abs(val) < 1e-12
    # strict negativity away from the parallel directions
    nu_perp = nu - np.vdot(z, nu) / np.vdot(z, z) * z
    xi2 = rng.normal(size=n) + 1j * rng.normal(size=n)
    xi2 -= np.vdot(z, xi2) / np.vdot(z, z) * z
    val = np.einsum("ijkl,i,j,k,l->", ub, xi2, xi2.conj(), nu_perp, nu_perp.conj())
    assert val.real < -1e-10


def test_u_alpha_vanishes_for_surfaces(rng):
    for _ in range(20):
        z = random_point(rng, 2)
        assert np.max(np.abs(hopf.u_alpha_at(z, 2))) < 1e-13


def test_bisectional_symmetry_and_zero_along_z(rng):
    for _ in range(10):
        h = random_hopf(rng)
        z = random_point(rng, h.n)
        xi = rng.normal(size=h.n) + 1j * rng.normal(size=h.n)
        nu = rng.normal(size=h.n) + 1j * rng.normal(size=h.n)
        v1 = hopf.bisectional(h, z, xi, nu)
        v2 = hopf.bisectional(h, z, nu, xi)
        assert v1 == pytest.approx(v2, abs=1e-10 * (1 + abs(v1)))
        lam = rng.normal() + 1j * rng.normal()
        assert hopf.bisectional(h, z, lam * z, nu) == pytest.approx(0.0, abs=1e-12)
        assert hopf.bisectional(h, z, xi, lam * z) == pytest.approx(0.0, abs=1e-12)


def test_half_ratio_identity(rng):
    # at beta = -alpha/2 the value is alpha |(xi.nu)|z|^2 - (xi.z)(z.nu)|^2/|z|^8
    # with Hermitian dots x.y = sum x conj(y)
    for _ in range(20):
        alpha = rng.uniform(0.5, 2.0)
        h = hopf.HopfMetric(int(rng.integers(2, 5)), alpha, -alpha / 2)
        z = random_point(rng, h.n)
        xi = rng.normal(size=h.n) + 1j * rng.normal(size=h.n)
        nu = rng.normal(size=h.n) + 1j * rng.normal(size=h.n)
        n2 = float(np.vdot(z, z).real)
        expected = alpha * abs(np.vdot(nu, xi) * n2
                               - np.vdot(z, xi) * np.vdot(nu, z)) ** 2 / n2 ** 4
        got = hopf.bisectional(h, z, xi, nu)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)
        assert got >= -1e-12


def test_half_ratio_worked_value():
    h = hopf.HopfMetric(3, 1.0, -0.5)
    z = np.array([0.0, 0.0, 1.0], dtype=complex)
    e1 = np.eye(3)[0]
    assert hopf.bisectional(h, z, e1, e1) == pytest.approx(1.0)


def test_ricci_trace_of_canonical_metric(rng):
    # both Bismut-Ricci traces of the round-type tensor coincide and are
    # (2 - n)(|xi|^2 |z|^2 - |xi . z|^2)/|z|^4 <= 0
    n = 3
    h = hopf.HopfMetric(n, 1.0, 0.0)
    for _ in range(5):
        z = random_point(rng, n)
        xi = rng.normal(size=n) + 1j * rng.normal(size=n)
        block = hopf.bismut_mixed_block(h, z)
        Ginv = np.linalg.inv(hopf.metric_at(h, z))
        ric = np.einsum("lk,ijkl->ij", Ginv, block)
        val = np.einsum("ij,i,j->", ric, xi, xi.conj()).real
        n2 = float(np.vdot(z, z).real)
        expected = (2 - n) / n2 ** 2 * (np.vdot(xi, xi).real * n2
                                        - abs(np.vdot(z, xi)) ** 2)
        assert val == pytest.approx(expected, rel=1e-9, abs=1e-12)
        assert val <= 1e-12


def test_scale_invariance_degree(rng):
    h = random_hopf(rng)
    z = random_point(rng, h.n)
    lam = 0.7 + 1.1j
    b1 = hopf.bismut_mixed_block(h, z)
    b2 = hopf.bismut_mixed_block(h, lam * z)
    assert np.allclose(b2, b1 / abs(lam) ** 4, atol=1e-10)
    t1 = hopf.chern_data_at(h, z).trace2
    t2 = hopf.chern_data_at(h, lam * z).trace2
    assert np.allclose(t2, t1 / abs(lam) ** 2, atol=1e-10)


def test_torsion_worked_value():
    h = hopf.HopfMetric(2, 1.0, 0.0)
    data = hopf.chern_data_at(h, np.array([1.0, 0.0]))
    assert data.torsion[0, 1, 1] == pytest.approx(-1.0)  # T^2_{12} = -1


def test_torsion_vanishes_at_boundary_ratio():
    # all torsion quadratics carry the factor (gamma + 1)^2
    h = hopf.HopfMetric(3, 1.0, -1.0 + 1e-9)
    data = hopf.chern_data_at(h, np.array([0.3, -0.2, 1.0]))
    for q in (data.q1, data.q2, data.q3, data.q4):
        assert np.max(np.abs(q)) < 1e-7


def test_trace2_worked_value():
    h = hopf.HopfMetric(3, 1.0, 0.0)
    t2 = hopf.chern_data_at(h, np.array([0.0, 0.0, 1.0])).trace2
    assert t2[0, 0] == pytest.approx(2.0)


def test_q3_structure(rng):
    h = random_hopf(rng)
    z = random_point(rng, h.n)
    q3 = hopf.chern_data_at(h, z).q3
    n2 = float(np.vdot(z, z).real)
    scalar = (h.n - 1) ** 2 * (h.gamma + 1) ** 2 / n2 ** 2
    assert np.allclose(q3, scalar * np.outer(np.conj(z), z), atol=1e-12)


def test_trace2_equals_inverse_metric_trace_of_curvature(rng):
    for _ in range(5):
        h = random_hopf(rng)
        z = random_point(rng, h.n)
        data = hopf.chern_data_at(h, z)
        lowered = chern_curvature_lowered(h, z)
        Ginv = np.linalg.inv(hopf.metric_at(h, z))
        S = stacked_second_ricci_trace(Ginv, lowered)
        assert np.max(np.abs(S - data.trace2)) < 1e-10


def test_closed_form_q_terms_match_generic_contraction(rng):
    # the generic einsum torsion contractions, which the frame engine's
    # tangent matches, reproduce the printed quadratics when fed the
    # closed-form torsion and metric
    for _ in range(5):
        h = random_hopf(rng)
        z = random_point(rng, h.n)
        data = hopf.chern_data_at(h, z)
        G = hopf.metric_at(h, z)
        Ginv = np.linalg.inv(G)
        t_low = np.einsum("ijm,mk->ijk", data.torsion, G)
        q1, q2, q3, q4 = q_terms(Ginv, t_low)
        assert np.max(np.abs(q1 - data.q1)) < 1e-10
        assert np.max(np.abs(q2 - data.q2)) < 1e-10
        assert np.max(np.abs(q3 - data.q3)) < 1e-10
        assert np.max(np.abs(q4 - data.q4)) < 1e-10


def test_ode_consistency_worked_examples():
    # gradient flow at the static ratio of dimension three
    fc = named_flow("gradient")
    h = hopf.HopfMetric(3, 1.0, -0.5)
    z = np.array([0.4, -0.1j, 1.0])
    assert hopf.verify_general_ode_consistency(h, fc, z) < 1e-10
    alpha_dot, beta_dot = ode_rhs((1.0, -0.5), fc, 3)
    # gamma is static there, so the rates are proportional: beta' = gamma alpha'
    assert beta_dot == pytest.approx(-0.5 * alpha_dot, abs=1e-12)
    assert alpha_dot == pytest.approx(-1.5)
    # pluriclosed flow on the surface at gamma = 0 is static in both rates
    fc = named_flow("pluriclosed")
    assert ode_rhs((1.0, 0.0), fc, 2) == pytest.approx((0.0, 0.0))
    h = hopf.HopfMetric(2, 1.0, 0.0)
    assert hopf.verify_general_ode_consistency(h, fc, np.array([1.0, 0.2])) < 1e-10


def test_ode_consistency_random(rng):
    for _ in range(30):
        h = random_hopf(rng)
        fc = FlowCoefficients(*rng.uniform(-1, 1, size=4))
        z = random_point(rng, h.n)
        assert hopf.verify_general_ode_consistency(h, fc, z) < 1e-8


def test_boundary_ratio_rate():
    # as gamma + 1 -> 0 the alpha rate tends to -n
    fc = FlowCoefficients(0.3, -0.2, 0.5, 0.1)
    for n in (2, 3, 5):
        alpha_dot, _ = ode_rhs((1.0, -1.0 + 1e-9), fc, n)
        assert alpha_dot == pytest.approx(-n, abs=1e-6)


def test_threshold_verdicts_against_classifier(rng):
    z = random_point(rng, 3)
    flat = classify(hopf.bismut_mixed_block(hopf.HopfMetric(2, 1.0, 0.0),
                                            random_point(rng, 2)), seed=1)
    assert flat.verdict.value == "flat"
    nonneg = classify(hopf.bismut_mixed_block(hopf.HopfMetric(3, 1.0, -0.5), z), seed=1)
    assert nonneg.verdict.value == "non_negative"
    assert nonneg.min_value == pytest.approx(0.0, abs=1e-9)
