"""The stacked table3 path against the per-metric and per-sample reference.

The pure-type scan takes ``SCAN_CHUNK`` metrics to a stack and forms, per
stack, only one Bismut curvature block, ``data[..., h, a]``
(``bismut_pure_type``); the full curvature reads ``data[..., a, h]`` off
the metric relation ``Omega[A, B, C, D] = -Omega[A, B, D, C]``, and the
scan's violations and tolerances are those of ``check_cplx`` on the full
curvature stack, bit for bit.  Only the never-slice metrics and the sign
samples get curvature tensors, and a case's sign samples go to one
``sign_verdicts`` call.  The curvatures are matrix products, which agree
with the reference einsums to round-off: the table it prints must give the
same fields, verdicts and counts, with witness values equal to round-off,
and the same markdown bytes.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from hermflow import catalog, positivity
from hermflow.catalog import (CASE_INDEX, CASES, SCAN_CHUNK, _sample_off_slice,
                              _sample_slice, bismut_curvature, classify_case,
                              instantiate, regenerate_table3, render_markdown)
from hermflow.invariant import (CplxReport, MetricCoefficients, bismut_pure_type,
                                check_cplx, dualize, sample_admissible_metric,
                                sample_admissible_metrics)
from hermflow.positivity import classify, sign_verdicts
from hermflow.tensors import CurvatureTensor
from tests import reference

# more than one chunk, the last one short
RANDOM_METRICS = SCAN_CHUNK + 4
#: agreement of curvatures and witness values with the reference einsums
WITNESS_AGREEMENT = 1e-13


def _case_metrics(case, seed):
    """The (R, 9) stack of random metrics and sign-slice metrics of ``case``."""
    rng = np.random.default_rng(seed)
    metrics = [sample_admissible_metric(rng).as_array() for _ in range(RANDOM_METRICS)]
    return np.array(metrics + [_sample_slice(rng, case.sign_slice) for _ in range(8)])


@pytest.mark.parametrize("seed", range(5))
def test_stacked_bismut_curvature_equals_per_metric(seed):
    for case in CASES:
        eqs = instantiate(case.family, **case.params)
        bracket = dualize(eqs)
        metrics = _case_metrics(case, seed)
        stacked = bismut_curvature(eqs, metrics)
        assert len(stacked) == len(metrics)
        assert bracket.bismut_map.shape == (9, 63)
        # the connection is metric: the stack forms data[..., h, a] and
        # reads data[..., a, h] off Omega[A, B, C, D] = -Omega[A, B, D, C]
        assert np.array_equal(stacked.data[..., 3:, :3],
                              -stacked.data[..., :3, 3:].swapaxes(-1, -2)), case.key
        for x, omega in zip(metrics, stacked):
            want = reference.bismut_curvature_alone(eqs, MetricCoefficients.from_array(x),
                                                    bracket)
            assert (np.max(np.abs(omega.data - want.data))
                    <= WITNESS_AGREEMENT * (1 + want.magnitude)), case.key
            assert omega.connection == want.connection == "bismut"
            # the reference forms both mixed blocks, which obey it to round-off
            assert (np.max(np.abs(want.data[..., 3:, :3]
                                  + want.data[..., :3, 3:].swapaxes(-1, -2)))
                    <= WITNESS_AGREEMENT * (1 + want.magnitude)), case.key
            # the Bismut connection is Hermitian: the second pair of its
            # curvature is mixed, to round-off in the reference and exactly
            # in the stack, which forms only the mixed blocks
            for C in (slice(0, 3), slice(3, 6)):
                assert (np.max(np.abs(want.data[..., C, C]))
                        <= 1e-15 * (1 + want.magnitude)), case.key
                assert not omega.data[..., C, C].any(), case.key
            # one metric is a stack of one
            single = bismut_curvature(eqs, x[None])[0]
            assert np.array_equal(single.data, omega.data), case.key


@pytest.mark.parametrize("seed", range(3))
def test_stacked_check_cplx_equals_per_tensor_reports(seed):
    seen_violations = 0
    for case in CASES:
        eqs = instantiate(case.family, **case.params)
        omegas = bismut_curvature(eqs, _case_metrics(case, seed))
        for got, omega in zip(check_cplx(omegas), omegas):
            want = reference.check_cplx_alone(omega)
            assert got == want, case.key
            assert type(got.max_violation) is float and type(got.tolerance) is float
            seen_violations += not got.satisfied
        assert check_cplx(omegas[0]) == [reference.check_cplx_alone(omegas[0])]
    # the witnesses of failing tensors were compared too
    assert seen_violations > 100


def _scan_stacks(case, seed):
    """The stacks of rows the pure-type scan decides for ``case``: random
    metrics over more than one chunk, then its slice and off-slice metrics."""
    rng = np.random.default_rng(seed)
    stacks = [sample_admissible_metrics(rng, RANDOM_METRICS)]
    slices = [case.cplx_slice] if case.cplx == "slice" else list(case.never_slices)
    for spec in slices:
        stacks.append(np.array([_sample_slice(rng, spec) for _ in range(10)]))
    if case.cplx == "slice":
        stacks.append(np.array([_sample_off_slice(rng, case.cplx_slice) for _ in range(10)]))
    return stacks


@pytest.mark.parametrize("seed", range(5))
def test_pure_type_scan_equals_check_cplx_bit_for_bit(seed):
    decided = set()
    for case in CASES:
        eqs = instantiate(case.family, **case.params)
        for x in _scan_stacks(case, seed):
            violation, tolerance = bismut_pure_type(eqs.bracket, x)
            reports = check_cplx(bismut_curvature(eqs, x))
            assert violation.tobytes() == np.array(
                [r.max_violation for r in reports]).tobytes(), case.key
            assert tolerance.tobytes() == np.array(
                [r.tolerance for r in reports]).tobytes(), case.key
            satisfied = [r.satisfied for r in reports]
            assert (violation <= tolerance).tolist() == satisfied, case.key
            decided.update(satisfied)
            for k in range(len(x)):
                # a stack of one is any row of a stack, bit for bit
                one = bismut_pure_type(eqs.bracket, x[k:k + 1])
                assert one[0].tobytes() == violation[k:k + 1].tobytes(), case.key
                assert one[1].tobytes() == tolerance[k:k + 1].tobytes(), case.key
                alone = check_cplx(bismut_curvature(eqs, x[k:k + 1]))[0]
                assert (one[0][0], one[1][0]) == (alone.max_violation, alone.tolerance)
    assert decided == {True, False}


@pytest.mark.parametrize("starts", [64, 16])
def test_batched_classify_equals_per_tensor_on_table3_sign_samples(starts):
    # the batch is sign_verdicts over a case's stack of sign samples
    rng = np.random.default_rng(3)
    for case in (c for c in CASES if c.expected_verdict):
        eqs = instantiate(case.family, **case.params)
        metrics, seeds = [], []
        for _ in range(8):
            metrics.append(_sample_slice(rng, case.sign_slice))
            seeds.append(int(rng.integers(0, 2 ** 31)))
        omegas = bismut_curvature(eqs, np.array(metrics))
        assert sign_verdicts(omegas, starts, seeds) == [
            classify(omega, starts, seed).verdict for omega, seed in zip(omegas, seeds)]


def test_classify_checks_every_tensor_of_a_batch(unit_metric):
    fine = bismut_curvature(instantiate("Np", rho=1), unit_metric.as_array()[None])
    bad = bismut_curvature(instantiate("Sv"), unit_metric.as_array()[None])
    with pytest.raises(positivity.CplxViolationError):
        sign_verdicts(CurvatureTensor(3, "bismut", np.concatenate([fine.data, bad.data])),
                      4, [0, 1])


@functools.cache
def _table3_and_cplx_reports(samples, seed):
    """``regenerate_table3(samples, seed)`` and every pure-type decision of
    its scans, shared by the tests below: the reports of ``check_cplx`` and,
    for the rows ``bismut_pure_type`` decides, reports of its violations and
    tolerances."""
    reports = []

    def recording(omegas):
        got = check_cplx(omegas)
        reports.extend(got)
        return got

    def recording_scan(bracket, x):
        violation, tolerance = bismut_pure_type(bracket, x)
        reports.extend(CplxReport(v <= t, v, None, t)
                       for v, t in zip(violation.tolist(), tolerance.tolist()))
        return violation, tolerance

    catalog.check_cplx, catalog.bismut_pure_type = recording, recording_scan
    try:
        return regenerate_table3(samples, seed), reports
    finally:
        catalog.check_cplx, catalog.bismut_pure_type = check_cplx, bismut_pure_type


def _assert_same_table3(got, want):
    """Every JSON field equal but the witness values, which agree to
    round-off; the markdown byte-equal."""
    assert render_markdown(got) == render_markdown(want)
    docs = got.to_dict(), want.to_dict()
    for doc in docs:
        for row in doc["rows"]:
            for w in row["witnesses"]:
                del w["value"]
    assert docs[0] == docs[1]
    for row, want_row in zip(got.rows, want.rows):
        for w, v in zip(row.witnesses, want_row.witnesses):
            assert abs(w.value - v.value) <= WITNESS_AGREEMENT * (1 + abs(v.value)), row.key


@pytest.mark.parametrize("seed", range(3))
def test_table3_json_equals_per_sample_reference(seed):
    got, _ = _table3_and_cplx_reports(50, seed)
    _assert_same_table3(got, reference.regenerate_table3(50, seed))


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(5))
def test_table3_json_equals_per_sample_reference_at_200_samples(seed):
    got, _ = _table3_and_cplx_reports(200, seed)
    _assert_same_table3(got, reference.regenerate_table3(200, seed))


def _assert_cplx_margins(reports, samples):
    # a decision 1e3 from its threshold cannot flip under round-off
    assert all(r.margin <= 1e-3 if r.satisfied else r.margin >= 1e3 for r in reports)
    assert {r.satisfied for r in reports} == {True, False}
    # every scanned metric is decided once: the random ones, and per slice
    # its max(10, samples // 10) auxiliary ones
    n_aux = max(10, samples // 10)
    slices = sum(2 if case.cplx == "slice" else len(case.never_slices) for case in CASES)
    assert len(reports) == len(CASES) * samples + slices * n_aux


@pytest.mark.parametrize("seed", range(3))
def test_table3_cplx_decisions_stay_far_from_the_threshold(seed):
    _assert_cplx_margins(_table3_and_cplx_reports(50, seed)[1], 50)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(5))
def test_table3_cplx_decisions_stay_far_from_the_threshold_at_200_samples(seed):
    _assert_cplx_margins(_table3_and_cplx_reports(200, seed)[1], 200)


def test_classify_case_scans_in_chunks(monkeypatch):
    # the random phase of a 200-sample case makes ceil(200 / SCAN_CHUNK)
    # scan calls, not 200, and forms no curvature tensor; the sign samples
    # make one curvature call and one sign_verdicts call
    calls = {"scan": 0, "curvature": 0, "sign_verdicts": 0}
    scan = catalog.bismut_pure_type
    curvature, batch = catalog.bismut_curvature, catalog.sign_verdicts

    def counting_scan(*args, **kwargs):
        calls["scan"] += 1
        return scan(*args, **kwargs)

    def counting_curvature(*args, **kwargs):
        calls["curvature"] += 1
        return curvature(*args, **kwargs)

    def counting_verdicts(*args, **kwargs):
        calls["sign_verdicts"] += 1
        return batch(*args, **kwargs)

    monkeypatch.setattr(catalog, "bismut_pure_type", counting_scan)
    monkeypatch.setattr(catalog, "bismut_curvature", counting_curvature)
    monkeypatch.setattr(catalog, "sign_verdicts", counting_verdicts)
    classify_case(CASE_INDEX["Np/iwasawa"], 200, np.random.default_rng(0))
    assert calls == {"scan": -(-200 // SCAN_CHUNK), "curvature": 1, "sign_verdicts": 1}


def test_classify_case_peak_memory_stays_small():
    # one table3 case allocates about 1.6 MB at its peak; a copy of every
    # start row's block, or one stack of all 200 metrics, would add more
    # than 1 MB on top
    case = CASE_INDEX["Siv3/generic"]
    classify_case(case, 50, np.random.default_rng(0))
    tracemalloc.start()
    try:
        classify_case(case, 200, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20, f"{peak / 2 ** 20:.2f} MB"
