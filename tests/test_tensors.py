import numpy as np
import pytest

from hermflow import hopf
from hermflow.catalog import CASES, bismut_curvature, instantiate
from hermflow.invariant import MetricCoefficients, check_cplx, sample_admissible_metric
from hermflow.tensors import (CurvatureTensor, TensorError, curvature_from_mixed_block,
                              frame_label, frame_offset, label_name, zero_threshold)
from tests.reference import chern_curvature_lowered


def test_metric_times_inverse_is_identity(rng):
    m = MetricCoefficients(1.2, 0.8, 1.5, u=0.2 + 0.1j, v=-0.1j, z=0.15)
    G = m.hermitian_matrix()
    Ginv = np.linalg.inv(G)
    assert np.allclose(G @ Ginv, np.eye(3), atol=1e-12)


def test_contract_through_metric_inverse_gives_chern_trace():
    # trace of the Chern curvature over its plane recovers the closed-form
    # second Ricci tensor: diagonal entries (n-1)/|z|^2 at the round metric
    h = hopf.HopfMetric(3, 1.0, 0.0)
    z = np.array([0.0, 0.0, 1.0], dtype=complex)
    lowered = chern_curvature_lowered(h, z)
    ginv = np.linalg.inv(hopf.metric_at(h, z))
    # g^{k l~} pairs the holomorphic axis through Ginv[l, k]
    s = np.einsum("klij,lk->ij", lowered, ginv)
    assert s[0, 0] == pytest.approx(2.0)
    assert np.allclose(s, 2.0 * np.eye(3))


def test_max_abs_component_selector_sees_kinds(iwasawa, unit_metric):
    from hermflow.catalog import bismut_curvature
    omega = bismut_curvature(iwasawa, unit_metric)
    # components whose first pair is (Z_i, Z_j), both holomorphic
    assert np.max(np.abs(omega.data[:3, :3])) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_signed_labels_round_trip_every_frame_offset(n):
    for offset in range(2 * n):
        label = frame_label(offset, n)
        assert frame_offset(label, n) == offset
        position = offset % n + 1
        assert label_name(label) == (f"Z{position}" if offset < n else f"Z{position}~")
    for label in (0, n + 1, -n - 1):
        with pytest.raises(ValueError, match="out of range"):
            frame_offset(label, n)
    for offset in (-1, 2 * n):
        with pytest.raises(ValueError, match="out of range"):
            frame_label(offset, n)


def test_a_witness_names_its_component():
    violated = 0
    for case in CASES:
        rng = np.random.default_rng(0)
        omegas = bismut_curvature(instantiate(case.family, **case.params),
                                  [sample_admissible_metric(rng) for _ in range(50)])
        for omega, report in zip(omegas, check_cplx(omegas)):
            if report.satisfied:
                continue
            violated += 1
            defect = report.max_violation - abs(omega.entry(*report.witness))
            assert defect <= 1e-12 * report.max_violation, (case.key, report.witness)
    assert violated > 100


def test_tensor_rejects_nonfinite():
    data = np.zeros((4,) * 4, dtype=complex)
    data[0, 2, 1, 3] = np.nan
    with pytest.raises(TensorError, match="finite"):
        CurvatureTensor(n=2, connection="bismut", data=data)


def test_zero_threshold_scales_with_magnitude():
    assert zero_threshold(0.0) == pytest.approx(1e-9)
    assert zero_threshold(9.0) == pytest.approx(1e-8)


def test_curvature_from_mixed_block_symmetries(rng):
    h = hopf.HopfMetric(3, 1.0, 0.4)
    z = rng.normal(size=3) + 1j * rng.normal(size=3)
    block = hopf.bismut_mixed_block(h, z)
    omega = curvature_from_mixed_block(block, 3, "bismut")
    data = omega.data
    # antisymmetry of both pairs
    assert np.allclose(data, -np.einsum("abcd->bacd", data), atol=1e-12)
    assert np.allclose(data, -np.einsum("abcd->abdc", data), atol=1e-12)
    # reality: conjugating all four labels conjugates the component
    swap = np.concatenate([np.arange(3, 6), np.arange(0, 3)])
    swapped = data[np.ix_(swap, swap, swap, swap)]
    assert np.allclose(np.conj(data), swapped, atol=1e-12)
    assert omega.entry(1, -1, 2, -2) == pytest.approx(block[0, 0, 1, 1])
