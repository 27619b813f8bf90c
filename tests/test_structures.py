import numpy as np
import pytest

from hermflow.catalog import CASES, instantiate
from hermflow.invariant import (ComplexStructureEquations, IntegrabilityError,
                                MetricCoefficients, MetricError, dualize,
                                frame_metric, sample_admissible_metric)
from hermflow.tensors import frame_offset
from tests.reference import conjugation_symmetry_residual


def test_abelian_dualizes_to_zero_brackets(torus):
    table = dualize(torus)
    assert np.max(np.abs(table.f)) == 0.0


def test_iwasawa_bracket_sign(iwasawa):
    table = dualize(iwasawa)
    # [Z_1, Z_2] = -Z_3 under d a (X, Y) = -a([X, Y])
    assert table.f[0, 1, 2] == pytest.approx(-1.0)
    assert np.max(np.abs(np.delete(table.f[0, 1, :], 2))) == 0.0
    # no other brackets among holomorphic fields
    assert np.max(np.abs(table.f[0, 2, :])) == 0.0
    assert np.max(np.abs(table.f[1, 2, :])) == 0.0


def test_nii_mixed_bracket_components():
    eqs = instantiate("Nii", rho=0, B=0j, c=0.5)
    table = dualize(eqs)
    # d phi^2 = phi^{1 1~}: [Z_1, conj Z_1] lands in the Z_2 / conj Z_2 line
    vec = table.f[0, 3, :]
    assert vec[1] == pytest.approx(-1.0)
    assert vec[4] == pytest.approx(1.0)
    mask = np.ones(6, dtype=bool)
    mask[[1, 4]] = False
    assert np.max(np.abs(vec[mask])) == 0.0


def test_every_family_satisfies_jacobi_and_conjugation(rng):
    for case in CASES:
        eqs = instantiate(case.family, **case.params)
        table = dualize(eqs)
        worst, _ = table.jacobi_residual()
        assert worst < 1e-10, case.key
        assert conjugation_symmetry_residual(table) < 1e-12, case.key


def test_jacobi_violation_is_rejected():
    # d phi^1 = phi^{2 3~} alone breaks d^2 = 0
    eqs = ComplexStructureEquations.from_terms(
        3, c_terms=[(3, 1, 2, 1.0)], d_terms=[(1, 2, 3, 1.0)])
    with pytest.raises(IntegrabilityError, match="Jacobi"):
        dualize(eqs)


def test_json_round_trip():
    eqs = instantiate("Ni", rho=1, lam=0.5, D=0.25 + 0.5j)
    text = eqs.to_json()
    back = ComplexStructureEquations.from_json(text)
    assert back.n == 3
    assert np.allclose(back.C, eqs.C)
    assert np.allclose(back.D, eqs.D)


def test_json_schema_shape():
    doc = instantiate("Np", rho=1).to_json_dict()
    assert doc["n"] == 3
    assert doc["C"] == [[3, 1, 2, 1.0, 0.0]]
    assert doc["D"] == []


def test_diagonal_metric_block():
    g = frame_metric(MetricCoefficients(1.0, 1.0, 1.0))
    assert g[frame_offset(1, 3), frame_offset(-1, 3)] == pytest.approx(0.5)
    assert g[frame_offset(1, 3), frame_offset(2, 3)] == 0.0
    assert g[frame_offset(-2, 3), frame_offset(2, 3)] == pytest.approx(0.5)


def test_metric_rejects_u_too_large():
    m = MetricCoefficients(1.0, 1.0, 1.0, u=2.0)
    with pytest.raises(MetricError, match=r"r2\*s2 > \|u\|\^2"):
        m.validate()


@pytest.mark.parametrize("m,message", [
    (MetricCoefficients(-1.0, 1.0, 1.0), "r2 > 0 fails: r2=-1.0"),
    (MetricCoefficients(1.0, 0.0, 1.0), "s2 > 0 fails: s2=0.0"),
    (MetricCoefficients(1.0, 1.0, -0.5), "t2 > 0 fails: t2=-0.5"),
    (MetricCoefficients(1.0, 1.0, 1.0, u=2.0), "r2*s2 > |u|^2 fails: 1.0 <= 4.0"),
    (MetricCoefficients(1.0, 1.0, 1.0, z=2j), "r2*t2 > |z|^2 fails: 1.0 <= 4.0"),
    (MetricCoefficients(1.0, 1.0, 1.0, v=1.5), "s2*t2 > |v|^2 fails: 1.0 <= 2.25"),
    (MetricCoefficients(1.0, 1.0, 1.0, u=0.6, v=0.6, z=0.6j),
     "8i*det(Xi) > 0 fails: np.float64(-0.512)"),
    # several failures: the first condition in order is reported
    (MetricCoefficients(-1.0, 1.0, 1.0, u=2.0, z=2.0), "r2 > 0 fails: r2=-1.0"),
    (MetricCoefficients(float("nan"), 1.0, 1.0), "r2 > 0 fails: r2=nan"),
], ids=["r2", "s2", "t2", "u", "z", "v", "det", "first-wins", "nan"])
def test_metric_validate_messages(m, message):
    with pytest.raises(MetricError) as info:
        m.validate()
    assert str(info.value) == message
    assert not m.is_admissible()


def test_metric_determinant_indicator_value():
    m = MetricCoefficients(1.0, 1.0, 1.0, z=0.5)
    assert m.det_indicator() == pytest.approx(0.75)
    m.validate()
    # matches 8 * det of the Hermitian block
    assert m.det_indicator() == pytest.approx(
        8 * np.linalg.det(m.hermitian_matrix()).real)


def test_metric_rejects_negative_determinant_indicator():
    # pairwise inequalities hold but the full determinant fails
    m = MetricCoefficients(1.0, 1.0, 1.0, u=0.6, v=0.6, z=0.6j)
    assert m.r2 * m.s2 > abs(m.u) ** 2
    assert m.det_indicator() < 0
    with pytest.raises(MetricError, match="det"):
        m.validate()


def test_metric_coefficient_chart_round_trip():
    m = MetricCoefficients(1.3, 0.7, 1.1, u=0.2 - 0.1j, v=0.05j, z=-0.3)
    back = MetricCoefficients.from_array(m.as_array())
    assert back == m
    again = MetricCoefficients.from_hermitian_matrix(m.hermitian_matrix())
    assert again.r2 == pytest.approx(m.r2)
    assert again.u == pytest.approx(m.u)
    assert again.z == pytest.approx(m.z)


def test_sampler_respects_constraints(rng):
    for _ in range(20):
        m = sample_admissible_metric(rng, fixed={"v": 0, "z": 0, "r2": 1.0})
        assert m.v == 0 and m.z == 0 and m.r2 == 1.0
        assert 0.5 <= m.s2 <= 2.0
        assert abs(m.u) <= 0.4
        m.validate()
