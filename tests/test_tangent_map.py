"""The flow tangent's per-bracket coordinate map, the admissible-cone test
that ``MetricCoefficients.validate`` and the stacked tangent share, and the
tangent rows that the stacked flow driver counts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermflow import catalog, invariant
from hermflow.catalog import CASES, instantiate
from hermflow.flows import NAMED_FLOWS
from hermflow.invariant import (ComplexStructureEquations, ConnectionKind,
                                MetricCoefficients, _admissible_rows, _j_diagonal,
                                _koszul_lowered, connection, d_omega, dualize,
                                frame_metric, hcf_tangent, sample_admissible_metric)
from tests import reference

MAP_RTOL = 1e-15
#: the reference torsion raises by inv(g) and lowers again by G
TORSION_RTOL = 1e-13


# --- the per-bracket coordinate map ------------------------------------------

def _chern_blocks(f, m):
    """``G`` and the lowered Chern block ``low[A, i, k~]`` at one metric, by the
    Koszul and ``d omega`` formula of ``connection()``."""
    g = frame_metric(m)
    chern = _koszul_lowered(f, g) - 0.5 * _j_diagonal(3)[:, None, None] * d_omega(f, g, 3)
    return g[:3, 3:], chern[:, :3, 3:]


@pytest.mark.parametrize("case", CASES, ids=[c.key for c in CASES])
def test_tangent_map_reproduces_the_chern_block(case, rng):
    bracket = dualize(instantiate(case.family, **case.params))
    f = bracket.f
    for _ in range(8):
        m = sample_admissible_metric(rng)
        G, low = _chern_blocks(f, m)
        blocks = m.as_array() @ bracket.tangent_map
        assert blocks.shape == (225,)
        assert reference.relative_error(blocks[:9].reshape(3, 3), G) <= MAP_RTOL
        conn = connection(ConnectionKind.CHERN, bracket, frame_metric(m))
        torsion = reference.chern_torsion(conn, bracket).lowered_hol
        assert reference.relative_error(blocks[9:36].reshape(3, 3, 3), torsion) <= TORSION_RTOL
        # ordered (i, A, k), so that raising by Ginv lays out gam for the trace
        assert reference.relative_error(blocks[36:90].reshape(3, 6, 3).transpose(1, 0, 2),
                                        low) <= MAP_RTOL
        sources = np.concatenate([-low[3:], low[:3]])
        assert reference.relative_error(blocks[90:144].reshape(6, 3, 3), sources) <= MAP_RTOL
        W = np.einsum("abe,ecd->bacd", f[:3, 3:], low).reshape(9, 9)
        assert reference.relative_error(blocks[144:].reshape(9, 9), W) <= MAP_RTOL


def test_chern_flat_brackets_are_those_without_mixed_terms():
    # with D = 0 the lowered Chern block, the trace sources and W vanish at
    # every metric, and only G and the torsion remain
    flat = []
    for case in CASES:
        eqs = instantiate(case.family, **case.params)
        assert (not eqs.bracket.tangent_map[:, 36:].any()) is (not eqs.D.any()), case.key
        flat += [case.key] if not eqs.D.any() else []
    assert flat == ["Np/torus", "Np/iwasawa", "Siv1"]


@pytest.mark.parametrize("key", ["Np/torus", "Np/iwasawa", "Siv1"])
def test_skipped_chern_trace_equals_the_general_tangent(key, rng):
    case = catalog.CASE_INDEX[key]
    bracket = instantiate(case.family, **case.params).bracket
    x = np.array([sample_admissible_metric(rng).as_array() for _ in range(12)])
    coeffs = rng.uniform(-1, 1, (12, 4))
    skipped = invariant._tangent_rows(bracket, x, coeffs, chern_flat=True)
    general = invariant._tangent_rows(bracket, x, coeffs, chern_flat=False)
    assert reference.relative_error(skipped, general) <= 1e-13


def test_tangent_map_is_built_once_per_bracket(monkeypatch, rng):
    builds = []
    koszul = invariant._koszul_lowered

    def counting(*args):
        builds.append(1)
        return koszul(*args)

    monkeypatch.setattr(invariant, "_koszul_lowered", counting)
    eqs = instantiate("Nii", rho=1, B=0j, c=0.0)
    x = np.array([sample_admissible_metric(rng).as_array() for _ in range(3)])
    coeffs = rng.uniform(-1, 1, (3, 4))
    assert not builds
    hcf_tangent(eqs, x, coeffs)
    hcf_tangent(eqs, x[:1], coeffs[:1])
    hcf_tangent(eqs, MetricCoefficients(1.0, 1.0, 1.0).as_array()[None],
                np.array([NAMED_FLOWS["gradient"].as_tuple()]))
    assert len(builds) == 1
    # a second equations object has its own bracket and map
    other = ComplexStructureEquations(eqs.n, eqs.C, eqs.D)
    hcf_tangent(other, x, coeffs)
    assert len(builds) == 2
    assert eqs.bracket.tangent_map is eqs.bracket.tangent_map


# --- the shared cone test ----------------------------------------------------

#: conditions in the order of ``validate``: index pairs of the products and
#: of the coefficient compared with them
_PAIRS = {3: ((0, 1), (3, 4)), 4: ((0, 2), (7, 8)), 5: ((1, 2), (5, 6))}
_NEAR = (-1e-9, -2.2e-16, 0.0, 2.2e-16, 1e-9)


@st.composite
def straddling_rows(draw):
    """A coordinate row at or next to the boundary of one cone condition, or
    with a NaN or infinite coordinate."""
    x = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9)))
    which = draw(st.integers(0, 8))
    eps = draw(st.sampled_from(_NEAR))
    if which < 3:
        x[which] = eps
    elif which < 6:
        # |coefficient|^2 = product * (1 + eps), in the coefficient's direction
        (i, j), (re, im) = _PAIRS[which]
        x[i], x[j] = abs(x[i]) + 0.1, abs(x[j]) + 0.1
        angle, modulus = math.atan2(x[im], x[re]), math.sqrt(x[i] * x[j] * (1 + eps))
        x[re], x[im] = modulus * math.cos(angle), modulus * math.sin(angle)
    elif which == 6:
        # the determinant indicator is linear in t2: put its zero there, then nudge
        x[:2] = abs(x[:2]) + 0.1
        x[3:] *= 0.2
        m = MetricCoefficients.from_array(np.concatenate([x[:2], [0.0], x[3:]]))
        slope = m.r2 * m.s2 - abs(m.u) ** 2
        # a zero slope leaves the row on the boundary r2 s2 = |u|^2 instead
        if slope:
            x[2] = -invariant._cone_test(*m.as_array())[1][3] / slope * (1 + eps)
    elif which == 7:
        x[draw(st.integers(0, 8))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return x


@settings(max_examples=300, deadline=None)
@given(st.lists(straddling_rows(), min_size=1, max_size=6))
def test_stacked_cone_mask_equals_is_admissible(rows):
    x = np.array(rows)
    mask = _admissible_rows(x)
    metrics = [MetricCoefficients.from_array(r) for r in x]
    assert mask.tolist() == [m.is_admissible() for m in metrics]
    # a stack above _FEW_ROWS takes the test on columns
    copies = invariant._FEW_ROWS + 1
    assert np.array_equal(_admissible_rows(np.tile(x, (copies, 1))), np.tile(mask, copies))
    for m, admissible in zip(metrics, mask):
        if admissible:
            m.validate()
        else:
            with pytest.raises(invariant.MetricError):
                m.validate()
    _, ok = hcf_tangent(instantiate("Nii", rho=1, B=0j, c=0.0), x,
                        np.tile(NAMED_FLOWS["gradient"].as_tuple(), (len(x), 1)))
    assert not (ok & ~mask).any()


def test_inadmissible_rows_leave_the_admissible_tangents_unchanged(rng):
    eqs = instantiate("Nii", rho=1, B=0j, c=0.0)
    good = np.array([sample_admissible_metric(rng).as_array() for _ in range(4)])
    bad = np.array([MetricCoefficients(-1.0, 1.0, 1.0).as_array(),
                    MetricCoefficients(1.0, 1.0, 1.0, u=1.5).as_array(),
                    MetricCoefficients(1.0, 1.0, 1.0, u=0.6, v=0.6, z=0.6j).as_array(),
                    np.full(9, np.nan), np.full(9, np.inf)])
    order = rng.permutation(len(good) + len(bad))
    x = np.concatenate([good, bad])[order]
    coeffs = rng.uniform(-1, 1, (len(x), 4))
    K, ok = hcf_tangent(eqs, x, coeffs)
    assert ok.tolist() == (order < len(good)).tolist()
    alone, _ = hcf_tangent(eqs, x[ok], coeffs[ok])
    assert np.array_equal(K[ok], alone)
    for row in np.flatnonzero(ok):
        single, _ = hcf_tangent(eqs, x[row:row + 1], coeffs[row:row + 1])
        assert np.array_equal(K[row], single[0])


#: admissible by the cone test, while LU meets an exact zero pivot in its
#: Hermitian block: a metric at the rim of the cone
_RIM = [0.64, 0.11, 1.117850066577896, 0.13799999999999998, -0.146, 0.168, -0.032, 0.006,
        0.23199999999999998]


def test_a_block_singular_at_the_rim_fails_only_its_row(rng):
    eqs = instantiate("Nii", rho=1, B=0j, c=0.0)
    rim = MetricCoefficients.from_array(np.array(_RIM))
    assert rim.is_admissible()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(rim.hermitian_matrix())
    good = np.array([sample_admissible_metric(rng).as_array() for _ in range(2)])
    x = np.array([good[0], _RIM, good[1]])
    coeffs = rng.uniform(-1, 1, (3, 4))
    K, ok = hcf_tangent(eqs, x, coeffs)
    assert ok.tolist() == [True, False, True]
    assert np.array_equal(K[ok], hcf_tangent(eqs, good, coeffs[ok])[0])


# --- the tangent rows the driver counts --------------------------------------

def test_tangent_evals_count_the_rows_the_tangent_received(monkeypatch):
    rows, results = [], []
    tangent, integrate = invariant.hcf_tangent, catalog.integrate_invariant_flows

    def counting_tangent(eqs, m, fc):
        rows.append(len(m))
        return tangent(eqs, m, fc)

    def keeping(*args, **kwargs):
        results.extend(integrate(*args, **kwargs))
        return results

    monkeypatch.setattr(invariant, "hcf_tangent", counting_tangent)
    monkeypatch.setattr(catalog, "integrate_invariant_flows", keeping)
    catalog.flow_preservation_check("Nii/main", extra_flows=2, t_end=0.5,
                                    dt=2e-3, seed=0, starts=8)
    assert len(results) == 5 and any(r.degenerated for r in results)
    assert sum(r.tangent_evals for r in results) == sum(rows)
    # the stack shrinks as flows finish or degenerate
    assert min(rows) == 1 and max(rows) == 5
