"""The stacked flow engine: the matmul tangent against the einsum reference,
each row of the stacked Dormand-Prince integrator against the same flow run
alone, the batched verdicts against per-tensor classifications, and the names
through which the benchmark tracer sees the flow-preservation check."""

import sys

import numpy as np
import pytest

from hermflow import catalog, hopf, invariant, positivity
from hermflow.catalog import CASES, bismut_curvature, instantiate
from hermflow.flows import NAMED_FLOWS, FlowCoefficients, Termination
from hermflow.invariant import (MetricCoefficients, hcf_tangent,
                                integrate_invariant_flow,
                                integrate_invariant_flows, q_terms,
                                sample_admissible_metric)
from hermflow.positivity import DEFAULT_STARTS, classify, sign_verdicts
from hermflow.tensors import CurvatureTensor
from tests import reference
from tests.conftest import random_point

CRITERION_8_CASES = ("Np/iwasawa", "Ni/h2/diagonal", "Ni/h8", "Nii/main",
                     "Si/flat", "Si/generic", "Siii1/+", "Siv1", "Siv3/generic")
TANGENT_RTOL = 1e-13


def _flow_tuples(rng, count):
    return list(NAMED_FLOWS.values()) + [FlowCoefficients(*rng.uniform(-1, 1, 4))
                                         for _ in range(count)]


# --- the matmul tangent against the einsum reference ------------------------

@pytest.mark.parametrize("case", CASES, ids=[c.key for c in CASES])
def test_matmul_tangent_matches_einsum_reference(case, rng):
    eqs = instantiate(case.family, **case.params)
    metrics = [sample_admissible_metric(rng) for _ in range(4)]
    flows = _flow_tuples(rng, 3)
    x = np.array([m.as_array() for m in metrics for _ in flows])
    coeffs = np.array([fc.as_tuple() for _ in metrics for fc in flows])
    K, ok = hcf_tangent(eqs, x, coeffs)
    assert ok.all()
    for row, (m, fc) in enumerate((m, fc) for m in metrics for fc in flows):
        want = reference.hcf_tangent(eqs, m, fc)
        assert reference.relative_error(K[row], want) <= TANGENT_RTOL, (case.key, fc)


def test_stacked_tangent_rows_equal_rows_alone(rng):
    eqs = instantiate("Nii", rho=1, B=0j, c=0.0)
    x = np.array([sample_admissible_metric(rng).as_array() for _ in range(24)])
    coeffs = rng.uniform(-1, 1, (24, 4))
    full, _ = hcf_tangent(eqs, x, coeffs)
    for size in (1, 2, 3, 5, 8):
        for start in range(0, 24 - size, 5):
            part, _ = hcf_tangent(eqs, x[start:start + size],
                                  coeffs[start:start + size])
            assert np.array_equal(part, full[start:start + size])


def test_q_terms_and_ricci_trace_match_einsum_on_stacks(rng):
    for n in (2, 3, 4):
        A = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
        Ginv = np.linalg.inv(A @ A.conj().swapaxes(-1, -2) + np.eye(n))
        t_low = rng.normal(size=(5, n, n, n)) + 1j * rng.normal(size=(5, n, n, n))
        block = rng.normal(size=(5,) + (n,) * 4) + 1j * rng.normal(size=(5,) + (n,) * 4)
        stacked = q_terms(Ginv, t_low)
        S = reference.stacked_second_ricci_trace(Ginv, block)
        for r in range(5):
            for got, want in zip(stacked, reference.q_terms(Ginv[r], t_low[r])):
                assert reference.relative_error(got[r], want) <= TANGENT_RTOL
            want = reference.second_ricci_trace(Ginv[r], block[r])
            assert reference.relative_error(S[r], want) <= TANGENT_RTOL


def test_stacked_tangent_reports_failing_rows(rng):
    eqs = instantiate("Nii", rho=1, B=0j, c=0.0)
    good = sample_admissible_metric(rng).as_array()
    outside = MetricCoefficients(1.0, 1.0, 1.0, u=1.5).as_array()
    broken = np.full(9, np.nan)
    x = np.array([good, outside, broken, good])
    coeffs = np.tile(NAMED_FLOWS["gradient"].as_tuple(), (4, 1))
    K, ok = hcf_tangent(eqs, x, coeffs)
    assert ok.tolist() == [True, False, False, True]
    assert np.array_equal(K[0], K[3])
    assert np.array_equal(K[0], hcf_tangent(eqs, x[:1], coeffs[:1])[0][0])


# --- each row of the stacked integrator is the flow run alone ---------------

def _assert_same_flow(got, want):
    assert np.array_equal(got.times, want.times)
    assert len(got.metrics) == len(want.metrics)
    for a, b in zip(got.metrics, want.metrics):
        assert np.array_equal(a.as_array(), b.as_array())
    assert got.exit_time == want.exit_time
    assert got.termination == want.termination
    assert got.degenerated == want.degenerated
    assert (got.accepted, got.rejected, got.min_step, got.tangent_evals) == \
        (want.accepted, want.rejected, want.min_step, want.tangent_evals)


def _check_stack_against_alone(seed):
    for key in CRITERION_8_CASES:
        eqs, m0, flows, _ = reference.case_flows(key, 2, seed)
        stacked = integrate_invariant_flows(eqs, m0, flows, t_end=0.5, dt=2e-3,
                                            checkpoints=2)
        assert len(stacked) == len(flows)
        for fc, got in zip(flows, stacked):
            alone = integrate_invariant_flow(eqs, m0, fc, t_end=0.5, dt=2e-3,
                                             checkpoints=2)
            _assert_same_flow(got, alone)


def test_stacked_rows_equal_flows_run_alone():
    _check_stack_against_alone(seed=0)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_stacked_rows_equal_flows_run_alone_more_seeds(seed):
    _check_stack_against_alone(seed)


def test_stack_with_early_exit_and_rejected_stage(monkeypatch):
    # from a large first trial step the two strongly negative flows put
    # stage states outside the cone, reject those steps and then degenerate
    # early, while the named flows run on to t_end
    eqs = instantiate("Nii", rho=1, B=0j, c=0.0)
    m0 = MetricCoefficients(1.0, 1.0, 1.0)
    flows = [NAMED_FLOWS["gradient"], FlowCoefficients(-8.0, -8.0, -8.0, -8.0),
             FlowCoefficients(-3.0, 2.0, -3.0, 1.0), NAMED_FLOWS["pluriclosed"]]
    failed_rows = []
    original = invariant.hcf_tangent

    def watching(*args, **kwargs):
        K, ok = original(*args, **kwargs)
        failed_rows.append(int((~ok).sum()))
        return K, ok

    monkeypatch.setattr(invariant, "hcf_tangent", watching)
    stacked = integrate_invariant_flows(eqs, m0, flows, t_end=0.5, dt=0.05,
                                        checkpoints=2)
    assert sum(failed_rows) > 0
    assert [r.degenerated for r in stacked] == [False, True, True, False]
    assert 0 < stacked[1].exit_time < stacked[2].exit_time < 0.25
    assert stacked[1].termination is Termination.LEFT_ADMISSIBLE_CONE
    assert [len(r.metrics) for r in stacked] == [3, 1, 1, 3]
    for fc, got in zip(flows, stacked):
        _assert_same_flow(got, integrate_invariant_flow(eqs, m0, fc, t_end=0.5,
                                                        dt=0.05, checkpoints=2))


# --- the stacked integrator against the one-flow einsum integrator ---------

def _compare_with_reference(key, seed, extra_flows, starts):
    eqs, m0, flows, _ = reference.case_flows(key, extra_flows, seed)
    want_report, want_flows = reference.flow_preservation_check(
        key, extra_flows=extra_flows, seed=seed, starts=starts)
    got_report = catalog.flow_preservation_check(key, extra_flows=extra_flows,
                                                 seed=seed, starts=starts)
    assert got_report.verdicts == want_report.verdicts, (key, seed)
    assert got_report.degenerated == want_report.degenerated, (key, seed)
    assert got_report.slice_preserved == want_report.slice_preserved
    assert got_report.verdict_preserved == want_report.verdict_preserved
    if want_report.flat_drift is not None:
        assert (got_report.flat_drift < 1e-7) == (want_report.flat_drift < 1e-7)
    got_flows = integrate_invariant_flows(eqs, m0, flows, t_end=0.5, dt=2e-3,
                                          checkpoints=2)
    for got, want in zip(got_flows, want_flows):
        assert (got.accepted, got.rejected) == (want.accepted, want.rejected)
        assert len(got.metrics) == len(want.metrics)
        for a, b in zip(got.metrics, want.metrics):
            assert reference.relative_error(a.as_array(), b.as_array()) <= 1e-12
        if want.exit_time is None:
            assert got.exit_time is None
        else:
            assert abs(got.exit_time - want.exit_time) <= 1e-9


def test_flow_preservation_matches_per_flow_reference():
    _compare_with_reference("Nii/main", seed=0, extra_flows=2, starts=8)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_flow_preservation_matches_reference_on_225_flows(seed):
    for key in CRITERION_8_CASES:
        _compare_with_reference(key, seed, extra_flows=2, starts=8)


@pytest.mark.slow
def test_flow_preservation_matches_reference_on_criterion_8():
    for key in CRITERION_8_CASES:
        want, _ = reference.flow_preservation_check(key, extra_flows=5, seed=42)
        got = catalog.flow_preservation_check(key, extra_flows=5, seed=42)
        assert (got.verdicts, got.degenerated, got.slice_preserved,
                got.verdict_preserved) == (want.verdicts, want.degenerated,
                                           want.slice_preserved,
                                           want.verdict_preserved), key


# --- batched classification -------------------------------------------------
# sign_verdicts classifies a stack; each verdict is classify's on the tensor
# alone with its seed

def test_batched_classify_equals_per_tensor_on_checkpoints(rng):
    tensors = []
    for key in ("Np/iwasawa", "Nii/main", "Si/flat", "Siv3/generic"):
        eqs, m0, flows, _ = reference.case_flows(key, 1, 7)
        for result in integrate_invariant_flows(eqs, m0, flows, t_end=0.3,
                                                dt=2e-3, checkpoints=2):
            tensors += [bismut_curvature(eqs, m.as_array()[None])[0] for m in result.metrics]
    seeds = [int(s) for s in rng.integers(0, 2 ** 31, len(tensors))]
    batch = sign_verdicts(CurvatureTensor(3, "bismut", np.stack([t.data for t in tensors])),
                          8, seeds)
    assert batch == [classify(omega, starts=8, seed=seed).verdict
                     for omega, seed in zip(tensors, seeds)]


def _hopf_block(n, gamma, rng):
    return hopf.bismut_mixed_block(hopf.HopfMetric(n, 1.0, gamma),
                                   random_point(rng, n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_batched_classify_equals_per_tensor_on_hopf(n, rng):
    blocks = np.stack([_hopf_block(n, gamma, rng) for gamma in (-0.7, -0.5, 0.0, 0.6, 1.2)])
    seeds = list(range(len(blocks)))
    assert sign_verdicts(blocks, 16, seeds) == [
        classify(block, starts=16, seed=seed).verdict for block, seed in zip(blocks, seeds)]


def test_batched_classify_needs_a_seed_per_tensor(rng):
    blocks = np.stack([_hopf_block(2, 0.3, rng)])
    with pytest.raises(ValueError, match="seeds"):
        sign_verdicts(blocks, DEFAULT_STARTS, [1, 2])
    assert sign_verdicts(blocks[:0], DEFAULT_STARTS, []) == []
    # a batch is a stack, not a list
    with pytest.raises(TypeError):
        sign_verdicts(list(blocks), DEFAULT_STARTS, [1])


# --- the tracer's view of the flow-preservation check ----------------------

def _count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a counting wrapper in every hermflow
    namespace that binds it, as the benchmark tracer does."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.split(".")[0] == "hermflow":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def test_flow_preservation_calls_traced_names(monkeypatch):
    tangents = _count_calls(monkeypatch, invariant, "hcf_tangent")
    verdicts = _count_calls(monkeypatch, positivity, "sign_verdicts")
    classifies = _count_calls(monkeypatch, positivity, "classify")
    rep = catalog.flow_preservation_check("Nii/main", extra_flows=1, t_end=0.05,
                                          dt=2e-3, seed=3, starts=4)
    assert rep.verdict_preserved
    assert len(tangents) > 0
    # every checkpoint of the case goes through one batched call, whose
    # start values decide every verdict
    assert len(verdicts) == 1
    assert len(classifies) == 0


def test_large_checkpoint_block_keeps_the_monotonicity_check_quiet():
    # a random Siv1 flow grows the Bismut curvature to |Omega| ~ 2.8e5 while
    # its biquadratic still reaches 0; eigh rounds at that scale, which a
    # slack of 1e-12 (1 + |value|) mistook for a rising minimization
    rep = catalog.flow_preservation_check("Siv1", extra_flows=2, t_end=0.5,
                                          dt=2e-3, seed=866264854, starts=8)
    assert rep.verdict_preserved, rep.verdicts


@pytest.mark.slow
@pytest.mark.xfail(strict=True, reason="classify's FLAT floor: the ustinovskiy flow's "
                                       "last Siv1 checkpoint here classifies as flat")
def test_flat_floor_keeps_the_siv1_verdict():
    # a known fault kept visible: the ustinovskiy flow drives r2 and s2 to
    # about 1e-10, and its last checkpoint block (|Omega| ~ 4e-10) falls under
    # classify's absolute flatness floor max|block| <= rtol = 1e-7, so an
    # indefinite verdict turns flat
    rep = catalog.flow_preservation_check("Siv1", extra_flows=2, t_end=0.5,
                                          dt=2e-3, seed=997002490, starts=8)
    assert rep.verdict_preserved, rep.verdicts
