"""Acceptance gate: one test per criterion, executed at the stated tolerance
with its runtime budget.  Each test prints a single PASS line when green
(run with ``pytest tests/test_acceptance.py -v -s`` to see them)."""

import time

import numpy as np
import pytest

from hermflow import hopf
from hermflow.catalog import (compare_with_fixture, flow_preservation_check,
                              regenerate_table3)
from hermflow.flows import (FlowCoefficients, gamma_rate, integrate,
                            integrate_fixed_step, named_flow, ode_rhs,
                            preserves_nonnegativity, scalars)
from hermflow.oracle import PointMetricField, fd_curvature
from hermflow.positivity import classify, gamma_threshold
from tests.conftest import random_point


class budget:
    """Context manager asserting a wall-clock budget and printing the line."""

    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.label}: runtime {elapsed:.1f}s exceeds {self.seconds}s"
            print(f"ACCEPTANCE {self.label}: PASS ({elapsed:.1f}s)")
        else:
            print(f"ACCEPTANCE {self.label}: FAIL after {elapsed:.1f}s")
        return False


def hopf_field(h):
    return PointMetricField(h.n, metric=lambda z: hopf.metric_at(h, z),
                            christoffels=hopf.connection_field(h, "bismut"))


def test_criterion_1_hopf_surface_flatness():
    with budget("1 surface flatness", 5):
        rng = np.random.default_rng(1)
        h = hopf.HopfMetric(2, 1.0, 0.0)
        field = hopf_field(h)
        for _ in range(50):
            z = random_point(rng, 2)
            closed = hopf.bismut_curvature_at(h, z)
            assert closed.magnitude < 1e-10
            fd = fd_curvature(field, z, richardson=True)
            assert fd.magnitude < 1e-10


def test_criterion_2_pure_type_vanishing_under_oracle():
    with budget("2 pure-type vanishing", 10):
        rng = np.random.default_rng(2)
        for _ in range(12):
            n = int(rng.integers(2, 5))
            alpha = rng.uniform(0.5, 1.5)
            beta = rng.uniform(-0.9, 1.5) * alpha
            h = hopf.HopfMetric(n, alpha, beta)
            z = random_point(rng, n)
            fd = fd_curvature(hopf_field(h), z)
            data = fd.data
            hs = slice(0, n)
            a = slice(n, 2 * n)
            worst = max(np.max(np.abs(data[hs, hs])), np.max(np.abs(data[a, a])),
                        np.max(np.abs(data[:, :, hs, hs])),
                        np.max(np.abs(data[:, :, a, a])))
            assert worst < 1e-6


def test_criterion_3_threshold_sharpness():
    with budget("3 threshold sharpness", 60):
        rng = np.random.default_rng(3)
        grid = (-0.9, -0.6, -0.5, -0.4, -0.1, 0.0, 0.5)
        for n in (2, 3, 4):
            z = random_point(rng, n)
            for gamma in grid:
                res = classify(hopf.bismut_mixed_block(
                    hopf.HopfMetric(n, 1.0, gamma), z), seed=7)
                expected = gamma <= gamma_threshold(n) + 1e-12
                assert res.verdict.is_nonnegative == expected, (n, gamma)
        # the explicit violation value at a two-zero-coordinate point
        for eps in (0.1, 0.01):
            h = hopf.HopfMetric(3, 1.0, -0.5 + eps)
            z = np.array([0.9 - 0.3j, 0.0, 0.0])
            n4 = float(np.vdot(z, z).real) ** 2
            val = hopf.bisectional(h, z, np.eye(3)[1], np.eye(3)[2])
            assert val == pytest.approx(-2 * eps / n4, abs=1e-8)


def test_criterion_4_ode_consistency_triangle():
    with budget("4 ODE consistency", 30):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            alpha = rng.uniform(0.3, 2.0)
            beta = rng.uniform(-0.9, 2.0) * alpha
            h = hopf.HopfMetric(n, alpha, beta)
            fc = FlowCoefficients(*rng.uniform(-1, 1, size=4))
            z = random_point(rng, n)
            assert hopf.verify_general_ode_consistency(h, fc, z) < 1e-8
        for _ in range(10_000):
            n = int(rng.integers(2, 6))
            alpha = rng.uniform(0.3, 2.0)
            gamma = rng.uniform(-0.95, 3.0)
            fc = FlowCoefficients(*rng.uniform(-1, 1, size=4))
            adot, bdot = ode_rhs((alpha, gamma * alpha), fc, n)
            implied = (bdot - gamma * adot) / alpha
            closed = gamma_rate(alpha, gamma, fc, n)
            assert abs(implied - closed) <= 1e-10 * (1 + abs(closed))


def test_criterion_5_static_ratios_and_stability():
    with budget("5 static ratios and stability", 30):
        grad = named_flow("gradient")
        for n in (2, 3, 4, 5):
            assert scalars(grad, n).static_ratio == pytest.approx(
                -(n - 1) / (n + 1))
        assert scalars(grad, 2).static_ratio == pytest.approx(-1 / 3)
        pc = named_flow("pluriclosed")
        for n in (2, 3, 4, 5):
            assert scalars(pc, n).F == pytest.approx(n - 2)
        ust = named_flow("ustinovskiy")
        for n in range(2, 11):
            assert scalars(ust, n).F == pytest.approx(1.0)
        for fc in (grad, pc, ust):
            for n in (2, 3, 4):
                sc = scalars(fc, n)
                assert sc.F < n
                for gamma0 in (-0.9, 0.0, 1.0):
                    traj = integrate(1.0, gamma0, fc, n, t_end=40.0, dt=1e-3)
                    assert abs(traj.gammas[-1] - sc.static_ratio) < 1e-3, \
                        (fc.name, n, gamma0)


def test_criterion_6_preservation_verdicts():
    with budget("6 preservation verdicts", 1):
        for n in range(2, 9):
            assert preserves_nonnegativity(named_flow("gradient"), n).preserved
            assert not preserves_nonnegativity(named_flow("ustinovskiy"), n).preserved
            pc = preserves_nonnegativity(named_flow("pluriclosed"), n)
            assert pc.preserved == (n == 2)


def test_criterion_7_table3_regeneration():
    with budget("7 table regeneration", 600):
        result = regenerate_table3(samples_per_family=200, seed=0)
        ok, diffs = compare_with_fixture(result)
        assert ok, "\n".join(diffs)
        by_key = {row.key: row for row in result.rows}
        # headline numeric witnesses
        wit = {w.name: w for w in by_key["Np/iwasawa"].witnesses}
        assert wit["|pair determinant|"].ok
        assert wit["Om(1,-1,3,-3)"].ok
        wit = {w.name: w for w in by_key["Ni/h2/off-diagonal"].witnesses}
        assert wit["h2 determinant"].ok
        wit = {w.name: w for w in by_key["Ni/h4"].witnesses}
        assert wit["Ric2 determinant negativity"].ok
        wit = {w.name: w for w in by_key["Siii1/+"].witnesses}
        assert wit["Om(1,-1,1,-1)"].ok
        assert wit["all other mixed components"].ok


def test_criterion_8_flow_preservation_on_solvmanifolds():
    with budget("8 flow preservation", 300):
        cases = ("Np/iwasawa", "Ni/h2/diagonal", "Ni/h8", "Nii/main",
                 "Si/flat", "Si/generic", "Siii1/+", "Siv1", "Siv3/generic")
        for key in cases:
            rep = flow_preservation_check(key, extra_flows=5, t_end=0.5,
                                          dt=2e-3, seed=42)
            assert rep.slice_preserved, (key, rep.slice_drift)
            assert rep.verdict_preserved, (key, rep.verdicts)
            if key == "Si/flat":
                assert rep.flat_drift is not None and rep.flat_drift < 1e-7


def test_criterion_9_numerical_hygiene():
    with budget("9 numerical hygiene", 30):
        rng = np.random.default_rng(9)
        # finite differences: halving the step divides the defect by ~4
        h = hopf.HopfMetric(3, 1.0, 0.7)
        field = hopf_field(h)
        z = random_point(rng, 3, rmin=0.8, rmax=1.2)
        closed = hopf.bismut_curvature_at(h, z).data

        def defect(step):
            return np.max(np.abs(fd_curvature(field, z, h=step).data - closed))

        ratio = defect(1e-3) / defect(5e-4)
        assert 2.5 < ratio < 6.5
        # classical Runge-Kutta: halving the step divides endpoint error ~16x
        fc = named_flow("gradient")
        ends = [np.array(integrate_fixed_step(1.0, 0.3, fc, 3, 0.4, dt))
                for dt in (0.02, 0.01, 0.005)]
        e1 = np.linalg.norm(ends[0] - ends[1])
        e2 = np.linalg.norm(ends[1] - ends[2])
        assert 8 < e1 / e2 < 40
