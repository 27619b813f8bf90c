import numpy as np
import pytest

from hermflow.catalog import (CASES, FAMILIES, CatalogError, classify_case,
                              compare_with_fixture, flow_preservation_check,
                              instantiate, load_fixture, regenerate_table3,
                              render_json, render_markdown)
from hermflow.invariant import check_cplx, dualize, sample_admissible_metric
from hermflow.catalog import bismut_curvature


def test_family_registry_is_complete():
    assert set(FAMILIES) == {"Np", "Ni", "Nii", "Niii", "Si", "Sii", "Siii1",
                             "Siii2", "Siii3", "Siii4", "Siv1", "Siv2",
                             "Siv3", "Sv"}


def test_instantiate_worked_examples():
    torus = instantiate("Np", rho=0)
    assert np.max(np.abs(torus.C)) == 0 and np.max(np.abs(torus.D)) == 0
    h2 = instantiate("Ni", rho=0, lam=0.0, D=1j)
    assert h2.D[2, 1, 1] == 1j
    siv2 = instantiate("Siv2", x=1)
    assert siv2.C[0, 0, 2] == 2j


def test_instantiate_rejects_bad_parameters():
    with pytest.raises(CatalogError):
        instantiate("Np", rho=2)
    with pytest.raises(CatalogError):
        instantiate("Ni", rho=0, lam=-1.0, D=0.0)
    with pytest.raises(CatalogError):
        instantiate("Ni", rho=0, lam=0.0, D=-1j)   # Im D < 0
    with pytest.raises(CatalogError):
        instantiate("Nii", rho=0, B=0j, c=0.0)     # excluded corner
    with pytest.raises(CatalogError):
        instantiate("Siv3", A=1.0)                 # |A| = 1
    with pytest.raises(CatalogError):
        instantiate("Sii", x=0.0)
    with pytest.raises(CatalogError):
        instantiate("Xx")


def test_parameter_range_sampling_keeps_integrability(rng):
    # grids over the printed ranges, plus random draws, all dualize cleanly
    thetas = np.linspace(0.0, np.pi, 10, endpoint=False)
    for theta in thetas:
        dualize(instantiate("Si", theta=theta))
    for x in np.linspace(0.1, 3.0, 10):
        dualize(instantiate("Sii", x=x))
    for lam in (0.0, 0.5, 1.0, 2.0):
        for D in (0.0, 0.25, 1j, 0.3 + 0.4j, -1.0):
            for rho in (0, 1):
                dualize(instantiate("Ni", rho=rho, lam=lam, D=D))
    for _ in range(10):
        A = rng.normal() + 1j * rng.normal()
        if abs(abs(A) - 1) < 0.05:
            A *= 1.5
        dualize(instantiate("Siv3", A=A))
    for B in (0j, 0.5 - 0.2j, 1j):
        for c in (0.0, 0.5, 1.0):
            for rho in (0, 1):
                if (rho, B, c) != (0, 0j, 0.0):
                    dualize(instantiate("Nii", rho=rho, B=B, c=c))


def test_ni_cplx_holds_beyond_the_bullet_points(rng):
    # the rho = 0 condition is metric- and parameter-independent
    for lam, D in ((0.5, 0.3 + 0.4j), (2.0, 1j), (1.0, 0.25)):
        eqs = instantiate("Ni", rho=0, lam=lam, D=D)
        for _ in range(5):
            m = sample_admissible_metric(rng)
            assert check_cplx(bismut_curvature(eqs, m)).satisfied


def test_classify_case_single_row(rng):
    case = next(c for c in CASES if c.key == "Siii1/+")
    row = classify_case(case, samples=50, rng=np.random.default_rng(0))
    assert row.cplx_observed == "slice"
    assert row.verdict_observed == "non_negative"
    assert all(w.ok for w in row.witnesses)


def test_regenerate_minimum_samples():
    with pytest.raises(CatalogError, match="samples_per_family"):
        regenerate_table3(samples_per_family=5)


def test_fixture_comparison_flags_corruption():
    result = regenerate_table3(samples_per_family=50, seed=0)
    ok, diffs = compare_with_fixture(result)
    assert ok, diffs
    fixture = load_fixture()
    fixture["rows"][0] = dict(fixture["rows"][0], verdict="indefinite")
    ok, diffs = compare_with_fixture(result, fixture)
    assert not ok
    assert any("Np/torus" in d for d in diffs)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(5))
def test_table3_matches_fixture_at_every_seed(seed):
    # the published columns must not hinge on the sampling seed
    ok, diffs = compare_with_fixture(regenerate_table3(200, seed=seed))
    assert ok, diffs


def test_renderers_cover_all_rows():
    result = regenerate_table3(samples_per_family=50, seed=1)
    md = render_markdown(result)
    js = render_json(result)
    for case in CASES:
        assert case.key in md
        assert case.key in js


def test_flow_preservation_nii_slice():
    rep = flow_preservation_check("Nii/main", extra_flows=2, t_end=0.15,
                                  dt=2e-3, seed=1)
    assert rep.slice_preserved
    assert rep.verdict_preserved


@pytest.mark.parametrize("key,seed", [("Np/iwasawa", 1851267298),
                                      ("Nii/main", 1228853484),
                                      ("Nii/main", 554293607)])
def test_flow_preservation_sees_minima_the_random_starts_miss(key, seed):
    # at the last checkpoint of one fast random flow every one of the 8
    # random starts stalls at a zero-valued stationary point; the spectral
    # starts reach the negative minimum, so the verdict stays INDEFINITE
    rep = flow_preservation_check(key, extra_flows=2, t_end=0.5, dt=2e-3,
                                  seed=seed, starts=8)
    assert rep.verdict_preserved


def test_flow_preservation_flat_case():
    rep = flow_preservation_check("Si/flat", extra_flows=2, t_end=0.15,
                                  dt=2e-3, seed=2)
    assert rep.flat_drift is not None and rep.flat_drift < 1e-7
    assert rep.slice_preserved


def test_flow_preservation_rejects_unclassified_rows():
    with pytest.raises(CatalogError):
        flow_preservation_check("Sv")
