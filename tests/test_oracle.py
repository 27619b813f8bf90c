import numpy as np
import pytest

from hermflow import hopf
from hermflow.oracle import (PointMetricField, fd_curvature,
                             wirtinger_derivative)
from tests.conftest import random_point
from tests.reference import fd_chern_christoffels


def euclidean_field(n):
    return PointMetricField(n, metric=lambda z: np.eye(n, dtype=complex),
                            christoffels=lambda z: np.zeros((2 * n,) * 3,
                                                            dtype=complex))


def hopf_field(h, which="bismut"):
    return PointMetricField(h.n, metric=lambda z: hopf.metric_at(h, z),
                            christoffels=hopf.connection_field(h, which))


def test_flat_connection_has_zero_curvature(rng):
    field = euclidean_field(3)
    z = random_point(rng, 3)
    omega = fd_curvature(field, z)
    assert omega.magnitude < 1e-12


def test_flat_metric_has_zero_christoffels(rng):
    field = euclidean_field(2)
    gamma = fd_chern_christoffels(field, random_point(rng, 2))
    assert np.max(np.abs(gamma)) < 1e-12


def test_refuses_points_near_origin():
    h = hopf.HopfMetric(2, 1.0, 0.0)
    with pytest.raises(ValueError, match="refusing"):
        fd_curvature(hopf_field(h), np.array([0.05, 0.0]))


def test_wirtinger_derivative_of_holomorphic_function(rng):
    z0 = random_point(rng, 2)
    fun = lambda z: np.array([z[0] ** 2 * z[1]])
    dz0 = wirtinger_derivative(fun, z0, 0, 2, 1e-5)
    assert dz0[0] == pytest.approx(2 * z0[0] * z0[1], abs=1e-8)
    dbar = wirtinger_derivative(fun, z0, 2, 2, 1e-5)
    assert abs(dbar[0]) < 1e-8


def test_surface_bismut_flat_via_oracle(rng):
    h = hopf.HopfMetric(2, 1.0, 0.0)
    field = hopf_field(h)
    for _ in range(5):
        z = random_point(rng, 2)
        omega = fd_curvature(field, z, richardson=True)
        assert omega.magnitude < 1e-10


def test_chern_christoffels_match_closed_form(rng):
    # includes the worked entries: round metric at (1, 0) and the
    # gamma = 1 family at the third coordinate axis
    h = hopf.HopfMetric(2, 1.0, 0.0)
    fd = fd_chern_christoffels(PointMetricField(2, lambda z: hopf.metric_at(h, z)),
                               np.array([1.0, 0.0]))
    assert fd[0, 0, 0] == pytest.approx(-1.0, abs=1e-6)

    h = hopf.HopfMetric(3, 1.0, 1.0)
    z = np.array([0.0, 0.0, 1.0], dtype=complex)
    fd = fd_chern_christoffels(PointMetricField(3, lambda z: hopf.metric_at(h, z)), z)
    closed = hopf.chern_christoffels_at(h, z)
    assert closed[2, 2, 2] == pytest.approx(-1.0)
    assert np.max(np.abs(fd - closed)) < 1e-6

    for _ in range(3):
        h = hopf.HopfMetric(3, *_random_ab(rng))
        z = random_point(rng, 3)
        fd = fd_chern_christoffels(PointMetricField(3, lambda w: hopf.metric_at(h, w)), z)
        assert np.max(np.abs(fd - hopf.chern_christoffels_at(h, z))) < 1e-6


def _random_ab(rng):
    alpha = rng.uniform(0.5, 1.5)
    beta = rng.uniform(-0.9, 1.5) * alpha
    return alpha, beta


@pytest.mark.parametrize("n", [2, 3, 4])
def test_oracle_matches_closed_form_curvature(n, rng):
    # >= 10 random parameter pairs, 20 random points in total per dimension
    for _ in range(4):
        h = hopf.HopfMetric(n, *_random_ab(rng))
        field = hopf_field(h)
        for _ in range(5):
            z = random_point(rng, n)
            fd = fd_curvature(field, z)
            closed = hopf.bismut_curvature_at(h, z)
            assert np.max(np.abs(fd.data - closed.data)) < 1e-6


def test_oracle_half_ratio_orthogonal_entry():
    # at beta = -alpha/2 the mixed diagonal against orthogonal axes vanishes
    h = hopf.HopfMetric(3, 1.0, -0.5)
    z = np.array([0.0, 0.0, 1.0], dtype=complex)
    omega = fd_curvature(hopf_field(h), z)
    assert abs(omega.entry(1, -1, 2, -2)) < 1e-7


def test_second_order_convergence(rng):
    h = hopf.HopfMetric(3, 1.0, 0.7)
    field = hopf_field(h)
    z = random_point(rng, 3, rmin=0.8, rmax=1.2)
    closed = hopf.bismut_curvature_at(h, z).data

    def defect(step):
        return np.max(np.abs(fd_curvature(field, z, h=step).data - closed))

    e1, e2 = defect(1e-3), defect(5e-4)
    assert e1 / e2 == pytest.approx(4.0, rel=0.4)
