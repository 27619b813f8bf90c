"""The matmul connections and curvature against the einsum reference.

``connection`` raises the lowered Koszul coefficients with one product per
metric, and ``curvature`` forms ``g(R(e_A, e_B) e_C, e_D)`` from two
products of ``gamma`` and the lowered coefficients.  They must agree with
the einsums of ``tests/reference.py`` to round-off, give every metric of a
stack exactly what it gives alone, and leave the flow tangent's coordinate
map bit for bit as it is with the einsum Koszul and ``d omega`` terms.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermflow import catalog, cli, invariant
from hermflow.catalog import CASES, _sample_slice, instantiate
from hermflow.invariant import (BracketTable, ConnectionKind, MetricCoefficients,
                                connection, curvature, frame_metric,
                                sample_admissible_metric)
from hermflow.tensors import CurvatureTensor
from tests import reference

#: agreement with the einsums, relative to the largest component
MATMUL_RTOL = 1e-13


def _assert_matches_reference(bracket, g):
    """Every metric of the stack ``g``, for every kind of connection."""
    for kind in ConnectionKind:
        conn = connection(kind, bracket, g)
        omegas = curvature(conn, bracket)
        for gamma, omega, gm in zip(conn.gamma, omegas, g):
            want_gamma = reference.connection_gamma_alone(kind, bracket, gm)
            want = reference.curvature_alone(kind, bracket, gm).data
            assert (np.max(np.abs(gamma - want_gamma))
                    <= MATMUL_RTOL * np.max(np.abs(want_gamma))), kind
            assert np.max(np.abs(omega.data - want)) <= MATMUL_RTOL * np.max(np.abs(want)), kind
            assert omega.connection == kind.value


@pytest.mark.parametrize("seed", range(5))
def test_matmul_curvature_matches_the_einsums_on_every_case(seed):
    rng = np.random.default_rng(seed)
    for case in CASES:
        bracket = instantiate(case.family, **case.params).bracket
        g = np.stack([frame_metric(sample_admissible_metric(rng)) for _ in range(6)])
        _assert_matches_reference(bracket, g)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(CASES), seed=st.integers(0, 2 ** 32 - 1))
def test_matmul_curvature_matches_the_einsums_on_random_metrics(case, seed):
    rng = np.random.default_rng(seed)
    bracket = instantiate(case.family, **case.params).bracket
    _assert_matches_reference(bracket, np.stack(
        [frame_metric(sample_admissible_metric(rng)) for _ in range(3)]))


def test_a_stack_of_one_is_a_row_of_any_stack():
    rng = np.random.default_rng(7)
    for case in CASES:
        bracket = instantiate(case.family, **case.params).bracket
        g = np.stack([frame_metric(sample_admissible_metric(rng)) for _ in range(37)])
        for kind in ConnectionKind:
            stacks = [connection(kind, bracket, g[:size]) for size in (16, 37)]
            curvatures = [curvature(conn, bracket) for conn in stacks]
            for i in (0, 5, 15):
                alone = connection(kind, bracket, g[i])
                omega = curvature(alone, bracket)
                for conn, omegas in zip(stacks, curvatures):
                    assert np.array_equal(alone.gamma, conn.gamma[i]), (case.key, kind)
                    assert np.array_equal(omega.data, omegas[i].data), (case.key, kind)


@pytest.mark.parametrize("case", CASES, ids=[c.key for c in CASES])
def test_tangent_map_equals_the_einsum_build(case, monkeypatch):
    bracket = instantiate(case.family, **case.params).bracket
    want = bracket.tangent_map
    monkeypatch.setattr(invariant, "_koszul_lowered", reference._koszul_lowered)
    monkeypatch.setattr(invariant, "d_omega", reference.d_omega)
    assert np.array_equal(BracketTable(bracket.n, bracket.f).tangent_map, want)


# --- the CLI bytes that the matmul curvature may move ------------------------

def _arg(value) -> str:
    """A CLI value that parses back to exactly ``value``."""
    if isinstance(value, complex):
        return f"{value.real!r}{value.imag:+}i"
    return repr(value)


def _family_argv(command, case, m):
    metric = ",".join(f"{name}={_arg(getattr(m, name))}"
                      for name in ("r2", "s2", "t2", "u", "v", "z"))
    argv = [command, f"--family={case.family}", f"--metric={metric}"]
    if case.params:
        argv.append("--params=" + ",".join(f"{k}={_arg(v)}" for k, v in case.params.items()))
    return argv


def _cli_corpus():
    """``cplx`` on a generic metric and on the case's slice, and ``classify
    --family`` on the sign slice, for every case."""
    rng = np.random.default_rng(15)
    corpus = []
    for case in CASES:
        corpus.append(_family_argv("cplx", case, sample_admissible_metric(rng)))
        on_slice = MetricCoefficients.from_array(_sample_slice(rng, case.cplx_slice))
        corpus.append(_family_argv("cplx", case, on_slice))
        if case.expected_verdict is not None:
            signed = MetricCoefficients.from_array(_sample_slice(rng, case.sign_slice))
            corpus.append(["--seed=3"] + _family_argv("classify", case, signed) + ["--starts=16"])
    return corpus


def _run(capsys, argv):
    code = cli.main(argv)
    return code, json.loads(capsys.readouterr().out)


def _assert_close_documents(got, want, where):
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_close_documents(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, float):
        # absolute near 0: a satisfied max_violation is round-off noise, for
        # which no purely relative bound can hold
        assert abs(got - want) <= 1e-12 * (1 + abs(want)), where
    else:
        assert got == want, where


def test_cli_cplx_and_classify_agree_with_the_einsum_reference(capsys, monkeypatch):
    corpus = _cli_corpus()
    got = [_run(capsys, argv) for argv in corpus]
    def alone(eqs, x):
        return CurvatureTensor(3, "bismut", np.stack([reference.bismut_curvature_alone(
            eqs, MetricCoefficients.from_array(row), eqs.bracket).data for row in x]))

    monkeypatch.setattr(catalog, "bismut_curvature", alone)
    monkeypatch.setattr(cli, "check_cplx", lambda omega: [reference.check_cplx_alone(omega)])
    want = [_run(capsys, argv) for argv in corpus]
    for argv, (code, doc), (want_code, want_doc) in zip(corpus, got, want):
        assert code == want_code == 0, argv
        for key in ("satisfied", "verdict", "witness"):
            assert doc.get(key) == want_doc.get(key), argv
        _assert_close_documents(doc, want_doc, " ".join(argv))
    violated = [doc for _, doc in got if doc.get("satisfied") is False]
    assert len(violated) > 20 and all(doc["witness"] for doc in violated)
