"""Connection-level invariants across the whole catalog, the calibration
anchors that pin the sign conventions, and the pluriclosed comparison."""

import numpy as np
import pytest

from hermflow.catalog import CASES, bismut_curvature, instantiate
from hermflow.invariant import (ConnectionKind, MetricCoefficients, connection,
                                curvature, dualize, frame_metric, hcf_tangent,
                                sample_admissible_metric)
from hermflow.flows import FlowCoefficients, named_flow
from tests.reference import (_direct_lowered_curvature,
                             bismut_chern_comparison_defect, chern_torsion,
                             pluriclosed_residual, torsion_components)

FAMILY_POINTS = [(case.family, case.params) for case in CASES]


def _connection_data(eqs, m, kind):
    table = dualize(eqs)
    g = frame_metric(m)
    conn = connection(kind, table, g)
    return conn, table, g


@pytest.mark.parametrize("family,params", FAMILY_POINTS,
                         ids=[c.key for c in CASES])
def test_connection_invariants_per_family(family, params, rng):
    eqs = instantiate(family, **params)
    n = eqs.n
    h, a = slice(0, n), slice(n, 2 * n)
    for _ in range(3):
        m = sample_admissible_metric(rng)
        for kind in ConnectionKind:
            conn, table, g = _connection_data(eqs, m, kind)
            gamma = conn.gamma
            lowered = np.einsum("abe,ec->abc", gamma, g)
            # metric compatibility: g(grad_A B, C) + g(B, grad_A C) = 0
            compat = np.max(np.abs(lowered + np.einsum("acb->abc", lowered)))
            assert compat < 1e-9, (family, kind)
            # the mixed block computed on its own is the slice of the full tensor
            full = _direct_lowered_curvature(gamma, table.f, g)
            block = _direct_lowered_curvature(gamma, table.f, g, h, a, h, a)
            assert np.array_equal(block, full[h, a, h, a]), (family, kind)
            tor = torsion_components(conn, table)
            if kind is ConnectionKind.LEVI_CIVITA:
                assert np.max(np.abs(tor)) < 1e-9
                continue
            # Hermitian: the (1,0)-frame stays (1,0)
            assert np.max(np.abs(gamma[:, :n, n:])) < 1e-9, (family, kind)
            assert np.max(np.abs(gamma[:, n:, :n])) < 1e-9, (family, kind)
            low_t = np.einsum("abe,ec->abc", tor, g)
            if kind is ConnectionKind.BISMUT:
                skew = max(
                    np.max(np.abs(low_t + np.einsum("bac->abc", low_t))),
                    np.max(np.abs(low_t + np.einsum("acb->abc", low_t))))
                assert skew < 1e-9, family
            else:
                # vanishing (1,1)-part of the Chern torsion
                assert np.max(np.abs(tor[:n, n:, :])) < 1e-9, family


def test_abelian_connections_vanish(torus, unit_metric):
    for kind in ConnectionKind:
        conn, _, _ = _connection_data(torus, unit_metric, kind)
        assert np.max(np.abs(conn.gamma)) == 0.0


# --- the three calibration anchors that freeze the conventions -------------

def test_anchor_nilpotent_diagonal_component(rng):
    # d phi3 = phi^{1 1~} + D phi^{2 2~} families: Omega(1,-1,1,-1) = t2
    for D in (0.0, 1j, 1.0, -1.0):
        eqs = instantiate("Ni", rho=0, lam=0.0, D=D)
        for _ in range(3):
            m = sample_admissible_metric(rng, fixed={"r2": 1.0, "v": 0, "z": 0})
            omega = bismut_curvature(eqs, m)
            assert omega.entry(1, -1, 1, -1) == pytest.approx(m.t2, abs=1e-10)


def test_anchor_iwasawa_component(iwasawa, rng):
    for _ in range(3):
        m = sample_admissible_metric(rng)
        omega = bismut_curvature(iwasawa, m)
        detG = np.linalg.det(m.hermitian_matrix()).real
        expected = m.t2 ** 2 * (m.r2 * m.t2 - abs(m.z) ** 2) / (16 * detG)
        assert omega.entry(1, -1, 3, -3) == pytest.approx(expected, abs=1e-10)


def test_anchor_flat_solvmanifold():
    eqs = instantiate("Si", theta=np.pi / 2)
    m = MetricCoefficients(1.4, 0.7, 1.1)
    omega = bismut_curvature(eqs, m)
    assert omega.magnitude < 1e-12


def test_iwasawa_unit_metric_values(iwasawa, unit_metric):
    omega = bismut_curvature(iwasawa, unit_metric)
    assert omega.entry(1, -1, 3, -3) == pytest.approx(0.5)
    det = (omega.entry(1, -1, 3, -3) * omega.entry(2, -2, 3, -3)
           - omega.entry(1, -2, 3, -3) * omega.entry(2, -1, 3, -3))
    assert abs(det) == pytest.approx(0.25)
    # indefiniteness witness pair on the same row of the tensor
    assert omega.entry(1, -1, 2, -2).real == pytest.approx(-0.5)


def test_chern_flat_families(unit_metric, iwasawa):
    # the complex-parallelizable structure and the Si family are Chern-flat
    # for diagonal metrics
    for eqs, m in ((iwasawa, unit_metric),
                   (instantiate("Si", theta=0.7),
                    MetricCoefficients(1.2, 0.9, 1.4))):
        table = dualize(eqs)
        g = frame_metric(m)
        conn = connection(ConnectionKind.CHERN, table, g)
        omega = curvature(conn, table)
        assert omega.magnitude < 1e-12


def test_chern_torsion_matches_structure_coefficient(iwasawa, unit_metric):
    # for d phi3 = phi^{12} the (2,0)-torsion of the Chern connection is the
    # negative of the dual bracket: T(Z_1, Z_2) = -[Z_1, Z_2] = Z_3
    table = dualize(iwasawa)
    g = frame_metric(unit_metric)
    conn = connection(ConnectionKind.CHERN, table, g)
    tor = chern_torsion(conn, table)
    assert tor.hol[0, 1, 2] == pytest.approx(1.0)
    assert np.max(np.abs(tor.hol[0, 1, :2])) < 1e-12
    # d-duality: the (2,0)-part of the torsion equals -f on holomorphic slots
    assert np.allclose(tor.raised[:3, :3, :3], -table.f[:3, :3, :3], atol=1e-12)


def test_chern_torsion_zero_on_kaehler_torus(torus, unit_metric):
    table = dualize(torus)
    conn = connection(ConnectionKind.CHERN, table, frame_metric(unit_metric))
    tor = chern_torsion(conn, table)
    assert np.max(np.abs(tor.raised)) == 0.0


# --- pluriclosed comparison -------------------------------------------------

def test_pluriclosed_predicate():
    cases = [
        ("Ni", {"rho": 0, "lam": 0.0, "D": 1j}, {"v": 0, "z": 0}, True),
        ("Ni", {"rho": 0, "lam": 0.0, "D": 0.0}, {"v": 0, "z": 0}, True),
        ("Ni", {"rho": 0, "lam": 0.0, "D": 1.0}, {"v": 0, "z": 0}, False),
        ("Np", {"rho": 1}, {"u": 0, "v": 0, "z": 0}, False),
        ("Np", {"rho": 0}, {}, True),
    ]
    rng = np.random.default_rng(3)
    for family, params, fixed, expect in cases:
        eqs = instantiate(family, **params)
        m = sample_admissible_metric(rng, fixed=fixed)
        resid = pluriclosed_residual(eqs, m)
        if expect:
            assert resid < 1e-12, (family, params)
        else:
            assert resid > 1e-6, (family, params)


def test_bismut_chern_comparison_on_pluriclosed_samples(rng):
    for D in (0.0, 1j):
        eqs = instantiate("Ni", rho=0, lam=0.0, D=D)
        for _ in range(5):
            m = sample_admissible_metric(rng, fixed={"v": 0, "z": 0})
            assert pluriclosed_residual(eqs, m) < 1e-12
            assert bismut_chern_comparison_defect(eqs, m) < 1e-8


def test_bismut_chern_comparison_fails_off_pluriclosed():
    eqs = instantiate("Ni", rho=0, lam=0.0, D=1.0)
    m = MetricCoefficients(1.0, 1.3, 0.8)
    assert pluriclosed_residual(eqs, m) > 1e-3
    assert bismut_chern_comparison_defect(eqs, m) > 1e-3


# --- flow tangent -----------------------------------------------------------

def _tangent(eqs, m, fc):
    """``hcf_tangent`` at one admissible metric and flow, as a stack of one."""
    K, ok = hcf_tangent(eqs, m.as_array()[None], np.array([fc.as_tuple()]))
    assert ok.all()
    return K[0]


def test_tangent_zero_on_torus(torus, unit_metric):
    for fc in (named_flow("gradient"), FlowCoefficients(0.3, -0.7, 0.2, 0.9)):
        K = _tangent(torus, unit_metric, fc)
        assert np.max(np.abs(K)) == 0.0


def test_tangent_diagonal_on_diagonal_nilpotent_metrics(rng):
    eqs = instantiate("Ni", rho=0, lam=0.0, D=1j)
    fc = FlowCoefficients(0.4, -0.2, 0.3, 0.6)
    m = sample_admissible_metric(rng, fixed={"u": 0, "v": 0, "z": 0})
    K = _tangent(eqs, m, fc)
    off = K - np.diag(np.diag(K))
    assert np.max(np.abs(off)) < 1e-12


def test_tangent_preserves_nii_slice(rng):
    # with d phi2 = phi^{1 1~}, d phi3 = phi^{12}: the v-component of the
    # tangent vanishes on the v = 0 slice
    eqs = instantiate("Nii", rho=1, B=0j, c=0.0)
    fc = FlowCoefficients(0.7, 0.1, -0.4, 0.2)
    for _ in range(3):
        m = sample_admissible_metric(rng, fixed={"v": 0})
        K = _tangent(eqs, m, fc)
        assert abs(K[1, 2]) < 1e-12


def test_tangent_is_hermitian(rng):
    eqs = instantiate("Nii", rho=1, B=0j, c=0.0)
    fc = FlowCoefficients(-0.3, 0.8, 0.5, -0.6)
    m = sample_admissible_metric(rng)
    K = _tangent(eqs, m, fc)
    assert np.max(np.abs(K - K.conj().T)) < 1e-12


def test_flow_step_torus_is_fixed_point(torus, unit_metric):
    from hermflow.invariant import invariant_flow_step
    out = invariant_flow_step(torus, unit_metric, named_flow("gradient"), dt=0.1)
    assert np.max(np.abs(out.as_array() - unit_metric.as_array())) < 1e-14


def test_flow_step_reports_cone_exit():
    from hermflow.invariant import FlowDegenerationError, invariant_flow_step
    eqs = instantiate("Nii", rho=1, B=0j, c=0.0)
    m = MetricCoefficients(1.0, 1.0, 1.0)
    fc = FlowCoefficients(-8.0, -8.0, -8.0, -8.0)
    with pytest.raises(FlowDegenerationError, match="admissible cone at t="):
        state = m
        for _ in range(100):
            state = invariant_flow_step(eqs, state, fc, dt=0.05)
