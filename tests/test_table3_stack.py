"""The stacked table3 path against the per-metric and per-sample reference.

The pure-type scan computes its Bismut curvatures ``SCAN_CHUNK`` metrics to
a stack and checks each stack at once; a case's sign samples go to one
``sign_verdicts`` call.  Its curvatures are matrix products, which agree with
the reference einsums to round-off: the table it prints must give the same
fields, verdicts and counts, with witness values equal to round-off, and the
same markdown bytes.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from hermflow import catalog, positivity
from hermflow.catalog import (CASE_INDEX, CASES, SCAN_CHUNK, _sample_slice,
                              bismut_curvature, classify_case, instantiate,
                              regenerate_table3, render_markdown)
from hermflow.invariant import check_cplx, dualize, sample_admissible_metric
from hermflow.positivity import classify, sign_verdicts
from hermflow.tensors import CurvatureTensor
from tests import reference

# more than one chunk, the last one short
RANDOM_METRICS = SCAN_CHUNK + 4
#: agreement of curvatures and witness values with the reference einsums
WITNESS_AGREEMENT = 1e-13


def _case_metrics(case, seed):
    """Random metrics and sign-slice metrics of ``case``."""
    rng = np.random.default_rng(seed)
    metrics = [sample_admissible_metric(rng) for _ in range(RANDOM_METRICS)]
    return metrics + [_sample_slice(rng, case.sign_slice) for _ in range(8)]


@pytest.mark.parametrize("seed", range(5))
def test_stacked_bismut_curvature_equals_per_metric(seed):
    for case in CASES:
        eqs = instantiate(case.family, **case.params)
        bracket = dualize(eqs)
        metrics = _case_metrics(case, seed)
        stacked = bismut_curvature(eqs, metrics)
        assert len(stacked) == len(metrics)
        for m, omega in zip(metrics, stacked):
            want = reference.bismut_curvature_alone(eqs, m, bracket)
            assert (np.max(np.abs(omega.data - want.data))
                    <= WITNESS_AGREEMENT * (1 + want.magnitude)), case.key
            assert omega.connection == want.connection == "bismut"
            # one metric is a stack of one
            single = bismut_curvature(eqs, m)
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
        assert check_cplx(omegas[0]) == reference.check_cplx_alone(omegas[0])
    # the witnesses of failing tensors were compared too
    assert seen_violations > 100


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
        omegas = bismut_curvature(eqs, metrics)
        assert sign_verdicts(omegas, starts, seeds) == [
            classify(omega, starts, seed).verdict for omega, seed in zip(omegas, seeds)]


def test_classify_checks_every_tensor_of_a_batch(unit_metric):
    fine = bismut_curvature(instantiate("Np", rho=1), unit_metric)
    bad = bismut_curvature(instantiate("Sv"), unit_metric)
    with pytest.raises(positivity.CplxViolationError):
        sign_verdicts(CurvatureTensor(3, "bismut", np.stack([fine.data, bad.data])),
                      starts=4, seed=[0, 1])


@functools.cache
def _table3_and_cplx_reports(samples, seed):
    """``regenerate_table3(samples, seed)`` and every pure-type report of its
    scans, shared by the tests below."""
    reports = []

    def recording(omegas):
        got = check_cplx(omegas)
        reports.extend(got)
        return got

    catalog.check_cplx = recording
    try:
        return regenerate_table3(samples, seed), reports
    finally:
        catalog.check_cplx = check_cplx


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


def _assert_cplx_margins(reports):
    # a decision 1e3 from its threshold cannot flip under round-off
    assert all(r.margin <= 1e-3 if r.satisfied else r.margin >= 1e3 for r in reports)
    assert {r.satisfied for r in reports} == {True, False}


@pytest.mark.parametrize("seed", range(3))
def test_table3_cplx_decisions_stay_far_from_the_threshold(seed):
    _assert_cplx_margins(_table3_and_cplx_reports(50, seed)[1])


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(5))
def test_table3_cplx_decisions_stay_far_from_the_threshold_at_200_samples(seed):
    _assert_cplx_margins(_table3_and_cplx_reports(200, seed)[1])


def test_classify_case_scans_in_chunks(monkeypatch):
    # the random phase of a 200-sample case makes ceil(200 / SCAN_CHUNK)
    # curvature calls, not 200, and the sign samples one sign_verdicts call
    calls = {"curvature": 0, "sign_verdicts": 0}
    curvature, batch = catalog.bismut_curvature, catalog.sign_verdicts

    def counting_curvature(*args, **kwargs):
        calls["curvature"] += 1
        return curvature(*args, **kwargs)

    def counting_verdicts(*args, **kwargs):
        calls["sign_verdicts"] += 1
        return batch(*args, **kwargs)

    monkeypatch.setattr(catalog, "bismut_curvature", counting_curvature)
    monkeypatch.setattr(catalog, "sign_verdicts", counting_verdicts)
    classify_case(CASE_INDEX["Np/iwasawa"], 200, np.random.default_rng(0))
    assert calls == {"curvature": -(-200 // SCAN_CHUNK) + 1, "sign_verdicts": 1}


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
