"""``sign_verdicts`` gives ``classify``'s verdicts, deciding a tensor whose
start values already straddle the tolerance, or whose spectral bound
certifies the sign its start values show, without the alternation."""

import numpy as np
import pytest

from hermflow import catalog, hopf, positivity
from hermflow.catalog import bismut_curvature, instantiate
from hermflow.invariant import MetricCoefficients
from hermflow.positivity import (MAX_ALTERNATIONS, VERDICT_RTOL, CplxViolationError,
                                 Verdict, classify, gamma_threshold, sign_verdicts)
from tests.conftest import random_point

FLOWPRES_CASES = ("Np/iwasawa", "Ni/h2/diagonal", "Ni/h8", "Nii/main", "Si/flat",
                  "Si/generic", "Siii1/+", "Siv1", "Siv3/generic")


def assert_same_verdicts(omega, starts, seeds):
    assert sign_verdicts(omega, starts, seeds) == [
        classify(t, starts, seed).verdict for t, seed in zip(omega, seeds)]


def assert_same_or_certified(blocks, starts, seeds):
    """``sign_verdicts`` gives ``classify``'s verdicts, except where the
    search of ``classify`` does not settle (INDETERMINATE) and the spectral
    bound certifies the verdict; returns the indices of those blocks."""
    got = sign_verdicts(blocks, starts, seeds)
    _, _, bounds = positivity._spectral_starts(blocks)
    n, moved = blocks.shape[-1], []
    results = [classify(block, starts, seed) for block, seed in zip(blocks, seeds)]
    for w, (verdict, result) in enumerate(zip(got, results)):
        if verdict is result.verdict:
            continue
        moved.append(w)
        margin = MAX_ALTERNATIONS * 1e-12 * (1.0 + (n * n + 1) * result.magnitude)
        assert result.verdict is Verdict.INDETERMINATE and not result.stationary
        assert verdict in (Verdict.NON_NEGATIVE, Verdict.NON_POSITIVE)
        if verdict is Verdict.NON_NEGATIVE:
            assert bounds[w, 0] >= -result.tolerance + margin
            assert result.max_value > result.tolerance
        else:
            assert bounds[w, 1] <= result.tolerance - margin
            assert result.min_value < -result.tolerance
    return moved


def recorded_calls(monkeypatch, name):
    """Calls of ``catalog.<name>`` as (omega, starts, seed), passed through."""
    calls, inner = [], getattr(catalog, name)

    def record(omega, starts, seed):
        calls.append((omega, starts, seed))
        return inner(omega, starts=starts, seed=seed)

    monkeypatch.setattr(catalog, name, record)
    return calls


def alternated_rows(monkeypatch):
    """Row counts of the calls ``positivity._alternate`` receives."""
    rows, inner = [], positivity._alternate

    def count(block, xi, *args):
        rows.append(len(xi))
        return inner(block, xi, *args)

    monkeypatch.setattr(positivity, "_alternate", count)
    return rows


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_table3_sign_stacks(monkeypatch, seed):
    calls = recorded_calls(monkeypatch, "sign_verdicts")
    catalog.regenerate_table3(50, seed)
    assert len(calls) == 21
    for omega, starts, seeds in calls:
        assert_same_verdicts(omega, starts, seeds)


def test_flowpres_checkpoint_stacks(monkeypatch):
    calls = recorded_calls(monkeypatch, "sign_verdicts")
    for key in FLOWPRES_CASES:
        catalog.flow_preservation_check(key, extra_flows=2, t_end=0.5, dt=2e-3,
                                        seed=0, starts=8)
    # Si/flat carries its curvature magnitude, not verdicts
    assert len(calls) == 8
    for omega, starts, seeds in calls:
        assert_same_verdicts(omega, starts, seeds)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hopf_blocks_on_both_sides_of_the_threshold(rng, n):
    blocks = [scale * hopf.bismut_mixed_block(hopf.HopfMetric(n, 1.0, gamma),
                                              random_point(rng, n))
              for gamma in (gamma_threshold(n) - 0.3, gamma_threshold(n) + 0.3)
              for scale in (1e-6, 1.0, 1e6) for _ in range(2)]
    verdicts = sign_verdicts(np.stack(blocks), 8, list(range(len(blocks))))
    # NON_NEGATIVE below the threshold, above it NON_POSITIVE for n = 2 and
    # INDEFINITE from n = 3 on
    assert verdicts[0] is Verdict.NON_NEGATIVE and verdicts[-1] is not Verdict.NON_NEGATIVE
    # scaled by 1e6, the search of classify does not settle on some (the
    # value-scaled stationarity test), where the spectral bound decides
    moved = assert_same_or_certified(np.stack(blocks), 8, list(range(len(blocks))))
    assert set(moved) <= {4, 5, 10, 11}


def test_flat_stack(rng):
    flat = hopf.bismut_mixed_block(hopf.HopfMetric(2, 1.0, 0.0), random_point(rng, 2))
    blocks = np.stack([flat, np.zeros_like(flat)])
    assert sign_verdicts(blocks, 8, [0, 1]) == [Verdict.FLAT, Verdict.FLAT]
    assert_same_verdicts(blocks, 8, [0, 1])


def test_single_tensor_gives_one_verdict(unit_metric):
    omega = bismut_curvature(instantiate("Ni", rho=0, lam=0.0, D=-1.0), unit_metric)
    assert sign_verdicts(omega, seed=1) is classify(omega, seed=1).verdict


def test_refuses_without_pure_type_vanishing(unit_metric):
    omega = bismut_curvature(instantiate("Sv"), unit_metric)
    with pytest.raises(CplxViolationError) as expected:
        classify(omega)
    with pytest.raises(CplxViolationError) as refused:
        sign_verdicts(omega)
    assert str(refused.value) == str(expected.value)


def test_decided_at_the_starts_sends_no_row_to_the_alternation(monkeypatch):
    omega = bismut_curvature(instantiate("Ni", rho=0, lam=0.0, D=-1.0),
                             MetricCoefficients(1.0, 1.3, 0.9))
    rows = alternated_rows(monkeypatch)
    assert sign_verdicts(omega, seed=1) is Verdict.INDEFINITE
    assert rows == []


def diagonal_block(eps: float) -> np.ndarray:
    """``q(xi, nu) = sum_ik a[i, k] |xi_i|^2 |nu_k|^2`` with ``a = [[1, 1],
    [1, -eps]]``: its minimum -eps sits at (e2, e2), which the spectral
    starts find exactly, and no start goes below it."""
    block = np.zeros((2,) * 4, dtype=complex)
    for (i, k), a in np.ndenumerate(np.array([[1.0, 1.0], [1.0, -eps]])):
        block[i, i, k, k] = a
    return block


def test_start_value_inside_the_margin_falls_through(monkeypatch):
    margin = MAX_ALTERNATIONS * 1e-12 * (1.0 + (2 * 2 + 1) * 1.0)
    rows = alternated_rows(monkeypatch)
    # beyond the margin below -tol: decided at the starts
    assert sign_verdicts(diagonal_block(VERDICT_RTOL + 2 * margin)) is Verdict.INDEFINITE
    assert rows == []
    # below -tol, but inside the margin: alternated, and still INDEFINITE
    block = diagonal_block(VERDICT_RTOL + margin / 2)
    assert sign_verdicts(block) is Verdict.INDEFINITE
    assert rows == [2 * positivity.DEFAULT_STARTS + 4]
    assert classify(block).verdict is Verdict.INDEFINITE


def test_table3_alternation_rows(monkeypatch):
    # the start values decide every INDEFINITE case, and the spectral bound
    # certifies the six NON_NEGATIVE ones
    rows = alternated_rows(monkeypatch)
    catalog.regenerate_table3(50, 0)
    assert (len(rows), sum(rows)) == (0, 0)


def test_spectral_bound_inside_the_margin_falls_through(monkeypatch):
    # lambda_min(M) = lambda_min(M^G) = -eps for the diagonal block, and the
    # search of classify finds that minimum, above -tol: NON_NEGATIVE
    margin = MAX_ALTERNATIONS * 1e-12 * (1.0 + (2 * 2 + 1) * 1.0)
    rows = alternated_rows(monkeypatch)
    # the bound clears -tol by the margin: certified at the starts
    block = diagonal_block(VERDICT_RTOL - 2 * margin)
    assert positivity._spectral_starts(block)[2][0] == pytest.approx(-VERDICT_RTOL + 2 * margin)
    assert sign_verdicts(block) is Verdict.NON_NEGATIVE
    assert rows == []
    # above -tol, but inside the margin: alternated, and still NON_NEGATIVE
    block = diagonal_block(VERDICT_RTOL - margin / 2)
    assert sign_verdicts(block) is Verdict.NON_NEGATIVE
    assert rows == [2 * positivity.DEFAULT_STARTS + 4]
    assert classify(block).verdict is Verdict.NON_NEGATIVE


def test_spectral_bound_certifies_non_positive(monkeypatch):
    # the mirror of the diagonal block: q <= eps everywhere
    margin = MAX_ALTERNATIONS * 1e-12 * (1.0 + (2 * 2 + 1) * 1.0)
    rows = alternated_rows(monkeypatch)
    block = -diagonal_block(VERDICT_RTOL - 2 * margin)
    assert sign_verdicts(block) is Verdict.NON_POSITIVE
    assert rows == []
    assert classify(block).verdict is Verdict.NON_POSITIVE
