import numpy as np
import pytest

from hermflow import hopf, positivity
from hermflow.catalog import CASES, _sample_slice, bismut_curvature, instantiate
from hermflow.invariant import MetricCoefficients
from hermflow.positivity import (MAX_ALTERNATIONS, VERDICT_RTOL,
                                 CplxViolationError, Verdict, _alternate,
                                 _partial_matrix, _random_starts, _spectral_starts,
                                 biquadratic, classify, gamma_threshold)
from tests import reference
from tests.conftest import random_point
from tests.reference import random_unit


def test_gamma_threshold_values():
    assert gamma_threshold(2) == 0.0
    assert gamma_threshold(3) == -0.5
    assert gamma_threshold(7) == -0.5
    with pytest.raises(ValueError):
        gamma_threshold(1)


def test_flat_verdict_on_surface(rng):
    h = hopf.HopfMetric(2, 1.0, 0.0)
    res = classify(hopf.bismut_curvature_at(h, random_point(rng, 2)), seed=0)
    assert res.verdict is Verdict.FLAT
    assert res.verdict.is_nonnegative and res.verdict.is_nonpositive


def test_indefinite_verdict_with_certified_witnesses():
    eqs = instantiate("Ni", rho=0, lam=0.0, D=-1.0)
    m = MetricCoefficients(1.0, 1.3, 0.9)
    omega = bismut_curvature(eqs, m.as_array()[None])[0]
    res = classify(omega, seed=1)
    assert res.verdict is Verdict.INDEFINITE
    assert res.min_value < -res.tolerance < res.tolerance < res.max_value
    block = omega.mixed_block()
    assert biquadratic(block, *res.min_witness) == pytest.approx(res.min_value,
                                                                 abs=1e-10)
    assert biquadratic(block, *res.max_witness) == pytest.approx(res.max_value,
                                                                 abs=1e-10)
    # the extreme values bracket the worked diagonal entries +-t2
    assert res.min_value == pytest.approx(-m.t2, abs=1e-8)
    assert res.max_value == pytest.approx(m.t2, abs=1e-8)


def test_nonnegative_hopf_with_min_on_radial_direction(rng):
    h = hopf.HopfMetric(3, 1.0, -0.5)
    z = random_point(rng, 3)
    res = classify(hopf.bismut_curvature_at(h, z), seed=2)
    assert res.verdict is Verdict.NON_NEGATIVE
    assert res.min_value == pytest.approx(0.0, abs=res.tolerance)
    # the zero minimum is attained along the radial direction
    block = hopf.bismut_mixed_block(h, z)
    radial = z / np.linalg.norm(z)
    nu = random_unit(rng, 3)
    assert biquadratic(block, radial, nu) == pytest.approx(0.0, abs=1e-12)
    assert biquadratic(block, nu, radial) == pytest.approx(0.0, abs=1e-12)


def test_refuses_without_pure_type_vanishing(unit_metric):
    omega = bismut_curvature(instantiate("Sv"), unit_metric.as_array()[None])[0]
    with pytest.raises(CplxViolationError):
        classify(omega)


def test_partial_matrices_are_hermitian_forms(rng):
    h = hopf.HopfMetric(3, 1.0, 0.8)
    block = hopf.bismut_mixed_block(h, random_point(rng, 3))
    nus = np.array([random_unit(rng, 3) for _ in range(10)])
    xis = np.array([random_unit(rng, 3) for _ in range(10)])
    rows = np.broadcast_to(block, (10,) + block.shape)
    size = np.max(np.abs(block))
    A = _partial_matrix(rows, nus, "nu", size)
    B = _partial_matrix(rows, xis, "xi", size)
    assert A.shape == B.shape == (10, 3, 3)
    for M in (A, B):
        assert np.max(np.abs(M - M.conj().swapaxes(-1, -2))) < 1e-10
    for a, b, xi, nu in zip(A, B, xis, nus):
        # the Hermitian form of each row's partial matrix evaluates the
        # biquadratic, whichever argument was frozen
        q = biquadratic(block, xi, nu)
        assert np.vdot(xi, a @ xi).real == pytest.approx(q, abs=1e-10)
        assert np.vdot(nu, b @ nu).real == pytest.approx(q, abs=1e-10)


def test_alternating_iteration_monotone_and_certified(rng):
    eqs = instantiate("Np", rho=1)
    omega = bismut_curvature(eqs, MetricCoefficients(1.2, 0.9, 1.1, u=0.1).as_array()[None])[0]
    block = omega.mixed_block()
    pairs = [(random_unit(rng, 3), random_unit(rng, 3)) for _ in range(10)]
    xi0, nu0 = (np.array(v) for v in zip(*pairs))
    vals, xis, nus, ok = _alternate(block, xi0, nu0, np.ones(10, dtype=bool))
    assert vals.shape == ok.shape == (10,)
    for val, xi, nu, stationary, a, b in zip(vals, xis, nus, ok, xi0, nu0):
        assert stationary
        assert biquadratic(block, xi, nu) == pytest.approx(val, abs=1e-10)
        assert val <= biquadratic(block, a, b) + 1e-12


@pytest.mark.parametrize("starts", [0, -3])
def test_classify_rejects_nonpositive_starts(starts, unit_metric):
    # checked before anything else: before the pure-type refusal of Sv and
    # before the flat shortcut of a zero block
    omegas = (bismut_curvature(instantiate("Sv"), unit_metric.as_array()[None])[0],
              np.zeros((3, 3, 3, 3), dtype=complex),
              bismut_curvature(instantiate("Np", rho=1), unit_metric.as_array()[None])[0])
    for omega in omegas:
        with pytest.raises(ValueError, match=f"starts must be >= 1, got {starts}"):
            classify(omega, starts=starts)


def test_threshold_grid(rng):
    # non-negative exactly at and below the dimension threshold
    grid = (-0.9, -0.6, -0.5, -0.4, -0.1, 0.0, 0.5)
    for n in (2, 3, 4):
        z = random_point(rng, n)
        for gamma in grid:
            res = classify(hopf.bismut_mixed_block(
                hopf.HopfMetric(n, 1.0, gamma), z), seed=5)
            expected = gamma <= gamma_threshold(n) + 1e-12
            assert res.verdict.is_nonnegative == expected, (n, gamma)


def test_deterministic_under_seed(rng):
    eqs = instantiate("Siv1")
    omega = bismut_curvature(eqs, MetricCoefficients(1.1, 0.9, 1.2, u=0.2j).as_array()[None])[0]
    a = classify(omega, seed=7)
    b = classify(omega, seed=7)
    assert a.min_value == b.min_value and a.max_value == b.max_value
    assert np.allclose(a.min_witness[0], b.min_witness[0])


def test_classify_accepts_raw_block():
    block = np.zeros((3, 3, 3, 3), dtype=complex)
    res = classify(block)
    assert res.verdict is Verdict.FLAT
    with pytest.raises(ValueError):
        classify(np.zeros((2, 3, 3, 3), dtype=complex))


def test_classify_refuses_a_stack(unit_metric):
    omegas = bismut_curvature(instantiate("Np", rho=1), np.array([unit_metric.as_array()] * 2))
    for stack in (omegas, omegas.mixed_block()):
        with pytest.raises(ValueError, match="sign_verdicts"):
            classify(stack, seed=[0, 1])


def test_nonpositive_verdict(rng):
    # the canonical metric in dimension three is non-positive (trace argument)
    h = hopf.HopfMetric(3, 1.0, 0.0)
    res = classify(hopf.bismut_mixed_block(h, random_point(rng, 3)), seed=3)
    assert res.verdict is Verdict.NON_POSITIVE
    assert res.verdict.is_nonpositive and not res.verdict.is_nonnegative


def test_checks_scale_with_the_block():
    # the witness recheck, the realness test and the Hermitian-defect test
    # allow rounding at the scale of the block, so a large block whose
    # minimum is zero raises nothing (its stationarity test still scales
    # with the value, so INDETERMINATE may come out)
    rng = np.random.default_rng(0)
    h = hopf.HopfMetric(3, 1.0, -0.5)
    for _ in range(20):
        res = classify(1e6 * hopf.bismut_mixed_block(h, random_point(rng, 3)), starts=8)
        assert res.verdict in (Verdict.NON_NEGATIVE, Verdict.INDETERMINATE)


# ---------------------------------------------------------------------------
# scalar reference: the per-start loop that the batched classifier replaced.
# The batch must reproduce it bit for bit, since the NON_NEGATIVE verdict
# needs every start to be stationary.
# ---------------------------------------------------------------------------

REFERENCE_STARTS = 16


def _scalar_biquadratic(block, xi, nu):
    val = np.einsum("ijkl,i,j,k,l->", block, xi, np.conj(xi), nu, np.conj(nu))
    assert abs(val.imag) <= 1e-9 * (1.0 + abs(val))
    return float(val.real)


def _scalar_partial_matrix(block, vec, frozen):
    if frozen == "nu":
        A = np.einsum("ijkl,k,l->ij", block, vec, np.conj(vec))
    else:
        A = np.einsum("ijkl,i,j->kl", block, vec, np.conj(vec))
    defect = float(np.max(np.abs(A - A.conj().T)))
    assert defect <= 1e-10 * (1.0 + float(np.max(np.abs(A))))
    return 0.5 * (A + A.conj().T).T


def _scalar_alternate(block, xi, nu, minimize):
    pick = 0 if minimize else -1
    value = _scalar_biquadratic(block, xi, nu)
    for _ in range(MAX_ALTERNATIONS):
        _, vecs = np.linalg.eigh(_scalar_partial_matrix(block, nu, frozen="nu"))
        xi = vecs[:, pick]
        vals, vecs = np.linalg.eigh(_scalar_partial_matrix(block, xi, frozen="xi"))
        nu = vecs[:, pick]
        new_value = float(vals[pick])
        slack = 1e-12 * (1.0 + abs(value))
        if minimize:
            assert new_value <= value + slack
        else:
            assert new_value >= value - slack
        if abs(new_value - value) <= 1e-13 * (1.0 + abs(new_value)):
            return new_value, xi, nu, True
        value = new_value
    return value, xi, nu, False


def _scalar_classify(block, starts, seed):
    """(verdict, stationary, min, max, min witness, max witness)."""
    n = block.shape[0]
    magnitude = float(np.max(np.abs(block)))
    tol = VERDICT_RTOL * magnitude
    rng = np.random.default_rng(seed)
    if magnitude <= 0.0 or magnitude <= VERDICT_RTOL:
        zero = np.zeros(n, dtype=complex)
        return Verdict.FLAT, True, 0.0, 0.0, (zero, zero), (zero, zero)
    best_min, best_max = np.inf, -np.inf
    min_wit = max_wit = None
    stationary = True
    for _ in range(starts):
        xi0, nu0 = random_unit(rng, n), random_unit(rng, n)
        val, xi, nu, ok = _scalar_alternate(block, xi0, nu0, minimize=True)
        stationary &= ok
        if val < best_min:
            best_min, min_wit = val, (xi, nu)
        val, xi, nu, ok = _scalar_alternate(block, xi0, nu0, minimize=False)
        stationary &= ok
        if val > best_max:
            best_max, max_wit = val, (xi, nu)
    # the spectral rows come after every random start, so ties stay there
    xis, nus, _ = _spectral_starts(block[None])
    for xi0, nu0, minimize in zip(xis[0], nus[0], (True, True, False, False)):
        val, xi, nu, ok = _scalar_alternate(block, xi0, nu0, minimize=minimize)
        stationary &= ok
        if minimize and val < best_min:
            best_min, min_wit = val, (xi, nu)
        if not minimize and val > best_max:
            best_max, max_wit = val, (xi, nu)
    if best_min < -tol and best_max > tol:
        verdict = Verdict.INDEFINITE
    elif not stationary:
        verdict = Verdict.INDETERMINATE
    elif best_min >= -tol and best_max > tol:
        verdict = Verdict.NON_NEGATIVE
    elif best_max <= tol and best_min < -tol:
        verdict = Verdict.NON_POSITIVE
    else:
        verdict = Verdict.INDETERMINATE
    return verdict, stationary, best_min, best_max, min_wit, max_wit


def _assert_matches_scalar(block, seed):
    res = classify(block, starts=REFERENCE_STARTS, seed=seed)
    verdict, stationary, lo, hi, min_wit, max_wit = _scalar_classify(
        block, REFERENCE_STARTS, seed)
    assert res.verdict == verdict
    assert res.stationary == stationary
    assert res.min_value == lo and res.max_value == hi
    for got, want in zip(res.min_witness + res.max_witness, min_wit + max_wit):
        assert np.array_equal(got, want)
    return res


@pytest.mark.parametrize("case", [c for c in CASES if c.expected_verdict],
                         ids=lambda c: c.key)
def test_batched_classify_matches_scalar_loop_on_sign_slices(case, rng):
    x = _sample_slice(rng, case.sign_slice)
    omega = bismut_curvature(instantiate(case.family, **case.params), x[None])[0]
    _assert_matches_scalar(omega.mixed_block(), seed=11)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("offset", [-0.25, 0.0, 0.25])
def test_batched_classify_matches_scalar_loop_on_hopf(n, offset, rng):
    gamma = gamma_threshold(n) + offset
    block = hopf.bismut_mixed_block(hopf.HopfMetric(n, 1.0, gamma),
                                    random_point(rng, n))
    res = _assert_matches_scalar(block, seed=4)
    assert res.verdict.is_nonnegative == (offset <= 0.0)


def test_spectral_starts_reach_a_product_minimum(rng):
    # q(xi, nu) = -|<xi, a>|^2 |<nu, b>|^2 has its minimum -1 at (a, b); the
    # bottom eigenvector of M and of its partial transpose is that product
    # vector, so both minimizing spectral starts sit on it already
    n = 3
    a, b = random_unit(rng, n), random_unit(rng, n)
    block = -np.einsum("i,j,k,l->ijkl", a.conj(), a, b.conj(), b)
    xis, nus, bounds = (a[0] for a in _spectral_starts(block[None]))
    assert xis.shape == nus.shape == (4, n)
    # M and M^G are both minus one rank-one projector
    assert bounds == pytest.approx([-1.0, 0.0], abs=1e-12)
    assert np.allclose(np.linalg.norm(xis, axis=1), 1.0)
    assert np.allclose(np.linalg.norm(nus, axis=1), 1.0)
    for xi, nu in zip(xis[:2], nus[:2]):
        assert biquadratic(block, xi, nu) == pytest.approx(-1.0, abs=1e-12)


# --- the batched random starts against the per-start draw ------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_starts_equal_the_per_start_draw(n):
    for seed in range(200):
        for starts in (1, 8, 64):
            xi, nu = _random_starts(seed, starts, n)
            want_xi, want_nu = reference.random_starts(seed, starts, n)
            assert np.array_equal(xi, want_xi) and np.array_equal(nu, want_nu), (seed, starts)


def _assert_same_with_per_start_draw(monkeypatch, blocks, starts, seeds):
    got = [classify(block, starts, seed) for block, seed in zip(blocks, seeds)]
    with monkeypatch.context() as patched:
        patched.setattr(positivity, "_random_starts", reference.random_starts)
        want = [classify(block, starts, seed) for block, seed in zip(blocks, seeds)]
    for a, b in zip(got, want):
        assert (a.verdict, a.min_value, a.max_value, a.stationary, a.tolerance,
                a.magnitude) == (b.verdict, b.min_value, b.max_value, b.stationary,
                                 b.tolerance, b.magnitude)
        for x, y in zip(a.min_witness + a.max_witness, b.min_witness + b.max_witness):
            assert np.array_equal(x, y)


def test_classify_equals_the_per_start_draw_on_table3_sign_samples(monkeypatch):
    rng = np.random.default_rng(5)
    for case in (c for c in CASES if c.expected_verdict):
        eqs = instantiate(case.family, **case.params)
        omegas = bismut_curvature(eqs, np.array([_sample_slice(rng, case.sign_slice)
                                                 for _ in range(4)]))
        seeds = [int(rng.integers(0, 2 ** 31)) for _ in omegas]
        _assert_same_with_per_start_draw(monkeypatch, omegas, 64, seeds)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classify_equals_the_per_start_draw_on_hopf(n, monkeypatch, rng):
    blocks = np.stack([hopf.bismut_mixed_block(hopf.HopfMetric(n, 1.0, gamma),
                                               random_point(rng, n))
                       for gamma in (-0.7, -0.5, 0.0, 0.6, 1.2)])
    _assert_same_with_per_start_draw(monkeypatch, blocks, 64, list(range(len(blocks))))
