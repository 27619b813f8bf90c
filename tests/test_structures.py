import numpy as np
import pytest

from hermflow.catalog import CASES, bismut_curvature, instantiate
from hermflow.invariant import (SAMPLE_MAX_TRIES, ComplexStructureEquations,
                                IntegrabilityError, MetricCoefficients,
                                MetricError, _cone_test, bismut_pure_type, dualize,
                                frame_metric, frame_metrics, sample_admissible_metric,
                                sample_admissible_metrics)
from hermflow.tensors import TensorError, frame_offset
from tests import reference
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


def _det_indicator(m):
    """The determinant indicator the cone test compares with zero."""
    return _cone_test(*m.as_array())[1][3]


def test_metric_determinant_indicator_value():
    m = MetricCoefficients(1.0, 1.0, 1.0, z=0.5)
    assert _det_indicator(m) == pytest.approx(0.75)
    m.validate()
    # matches 8 * det of the Hermitian block
    assert _det_indicator(m) == pytest.approx(
        8 * np.linalg.det(m.hermitian_matrix()).real)


def test_metric_rejects_negative_determinant_indicator():
    # pairwise inequalities hold but the full determinant fails
    m = MetricCoefficients(1.0, 1.0, 1.0, u=0.6, v=0.6, z=0.6j)
    assert m.r2 * m.s2 > abs(m.u) ** 2
    assert _det_indicator(m) < 0
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


def _bits(values) -> list:
    """Every real and imaginary part of ``values``, with the sign of zero."""
    parts = np.asarray(values, dtype=complex).view(float).ravel()
    return [(float(v), bool(np.signbit(v))) for v in parts]


SAMPLER_SPECS = [None, {"r2": 1.0, "v": 0, "z": 0}, {"u": 0, "v": 0, "z": 0},
                 {"z": 0.2 - 0.1j}, {"s2": 0.6, "t2": 0.6, "u": 0.39j}]


@pytest.mark.parametrize("fixed", SAMPLER_SPECS, ids=range(len(SAMPLER_SPECS)))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_sampler_reads_the_one_attempt_stream(seed, fixed):
    for count in (1, 3, 32, 200):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_admissible_metrics(rng, count, fixed)
        want = [reference.sample_admissible_metric(ref, fixed) for _ in range(count)]
        assert got.shape == (count, 9)
        assert [_bits(x) for x in got] == [_bits(m.as_array()) for m in want]
        # and leaves the stream where the one-attempt draws leave it
        assert rng.random() == ref.random()
        assert _bits(frame_metrics(got)) == \
            _bits([reference.frame_metric(m) for m in want])
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _bits(sample_admissible_metric(rng, fixed).as_array()) == \
        _bits(reference.sample_admissible_metric(ref, fixed).as_array())


def test_stacked_sampler_gives_up_where_the_one_attempt_sampler_does():
    # r2 s2 > |u|^2 needs s2 > 3.75, beyond the draws of s2
    fixed = {"r2": 0.6, "u": 1.5}
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    with pytest.raises(MetricError) as got:
        sample_admissible_metrics(rng, 4, fixed)
    with pytest.raises(MetricError) as want:
        reference.sample_admissible_metric(ref, fixed)
    assert str(got.value) == str(want.value)
    # after SAMPLE_MAX_TRIES attempts of nine uniforms each
    fresh = np.random.default_rng(5)
    fresh.uniform(size=(SAMPLE_MAX_TRIES, 9))
    assert rng.random() == ref.random() == fresh.random()


def test_frame_metrics_refuse_the_first_row_outside_the_cone():
    good = MetricCoefficients(1.0, 1.0, 1.0).as_array()
    rows = [good, MetricCoefficients(1.0, 1.0, 1.0, v=1.5).as_array(),
            MetricCoefficients(-1.0, 1.0, 1.0).as_array()]
    # above the size at which the cone test runs on columns, too
    iwasawa = instantiate("Np", rho=1)
    for stack in (np.array(rows), np.array([good] * 20 + rows)):
        # the stacked Bismut curvature and the pure-type scan refuse it alike
        for build in (frame_metrics, lambda x: bismut_curvature(iwasawa, x),
                      lambda x: bismut_pure_type(iwasawa.bracket, x)):
            with pytest.raises(MetricError) as info:
                build(stack)
            assert str(info.value) == "s2*t2 > |v|^2 fails: 1.0 <= 2.25"
    assert np.array_equal(frame_metric(MetricCoefficients(1.0, 1.0, 1.0)),
                          frame_metrics(good[None])[0])


def test_pure_type_scan_refuses_a_non_finite_curvature_alike():
    # an admissible metric whose curvature overflows, under the errstate of
    # the cplx and classify commands
    iwasawa = instantiate("Np", rho=1)
    x = np.array([MetricCoefficients(1.0, 1.0, 1e160).as_array()])
    for build in (lambda x: bismut_curvature(iwasawa, x),
                  lambda x: bismut_pure_type(iwasawa.bracket, x)):
        for stack in (x, np.concatenate([np.tile(MetricCoefficients(1.0, 1.0, 1.0)
                                                 .as_array(), (20, 1)), x])):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(TensorError) as info:
                    build(stack)
            assert str(info.value) == "curvature entries must be finite"
