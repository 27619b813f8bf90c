"""The error-controlled coefficient flow: step statistics, record times,
degeneration and accuracy against an independent integrator."""

import numpy as np
import pytest

from hermflow import invariant
from hermflow.catalog import CASE_INDEX, _sample_slice, instantiate
from hermflow.flows import FlowCoefficients, Termination, named_flow
from hermflow.invariant import (MetricCoefficients, _coefficient_rates, hcf_tangent,
                                integrate_invariant_flow)

#: Nii/main flow whose state moves fast enough that a fixed RK4 step of 2e-3
#: misses the state at t = 0.5 by 2.2e-4 relative
FAST_NII_FLOW = FlowCoefficients(0.08788280152699635, 0.8044301594319767,
                                 -0.04569295232158743, -0.13900744454117375)


def _nii_main():
    case = CASE_INDEX["Nii/main"]
    eqs = instantiate(case.family, **case.params)
    m0 = _sample_slice(np.random.default_rng(4), {"v": 0})
    return eqs, m0


def test_flow_statistics_count_every_tangent(monkeypatch):
    eqs, m0 = _nii_main()
    calls = []
    original = invariant.hcf_tangent

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(invariant, "hcf_tangent", counting)
    res = integrate_invariant_flow(eqs, m0, FAST_NII_FLOW, t_end=0.5, dt=2e-3,
                                   checkpoints=2)
    assert res.tangent_evals == len(calls) > 0
    assert res.termination is Termination.REACHED_T_END
    assert not res.degenerated and res.exit_time is None
    assert res.accepted > 0 and res.rejected >= 0
    # one first stage per record interval and six stages per attempted step,
    # every stage of this flow admissible
    assert res.tangent_evals == 2 + 6 * (res.accepted + res.rejected)
    assert 0 < res.min_step <= 0.25


def test_flow_records_exactly_at_checkpoints():
    eqs, m0 = _nii_main()
    res = integrate_invariant_flow(eqs, m0, named_flow("gradient"), t_end=0.5,
                                   dt=2e-3, checkpoints=4)
    assert list(res.times) == [0.0, 0.125, 0.25, 0.375, 0.5]
    assert len(res.metrics) == 5 and res.metrics[0] is m0
    for m in res.metrics:
        m.validate()
        assert abs(m.v) < 1e-12


def test_flow_rejects_bad_arguments():
    eqs, m0 = _nii_main()
    fc = named_flow("gradient")
    with pytest.raises(ValueError, match="checkpoints"):
        integrate_invariant_flow(eqs, m0, fc, t_end=0.5, checkpoints=0)
    with pytest.raises(ValueError, match="positive"):
        integrate_invariant_flow(eqs, m0, fc, t_end=0.5, dt=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_flow_rejects_nonfinite_arguments(bad):
    # a NaN end time used to return the times [0, nan] as reaching t_end,
    # and a NaN step never returned
    eqs, m0 = _nii_main()
    fc = named_flow("gradient")
    with pytest.raises(ValueError, match="^t_end must be finite"):
        integrate_invariant_flow(eqs, m0, fc, t_end=bad)
    with pytest.raises(ValueError, match="^dt must be finite"):
        integrate_invariant_flow(eqs, m0, fc, t_end=0.5, dt=bad)
    with pytest.raises(ValueError, match="^c must be finite"):
        integrate_invariant_flow(eqs, m0, FlowCoefficients(0.5, -0.25, bad, 1.0),
                                 t_end=0.5)
    with pytest.raises(ValueError, match="^dt must be finite"):
        invariant.invariant_flow_step(eqs, m0, fc, bad)


def test_blow_up_is_declared_degenerate_without_stalling():
    # the controller's step collapses towards the blow-up near t = 0.4407;
    # without the degeneration test after accepted steps this flow spent
    # about 47,000 tangent evaluations creeping towards it
    eqs = instantiate("Si", theta=0.7)
    m0 = MetricCoefficients(1.6326848908567444, 1.8465013270504993,
                            1.5281782262274362)
    fc = FlowCoefficients(-0.3704599045489543, 0.8144198967492391,
                          -0.6441334784103392, 0.36250312806054463)
    res = integrate_invariant_flow(eqs, m0, fc, t_end=0.5, dt=2e-3, checkpoints=2)
    assert res.degenerated
    assert res.termination is Termination.LEFT_ADMISSIBLE_CONE
    assert 0.43 < res.exit_time < 0.45
    assert res.tangent_evals < 5000
    assert list(res.times) == [0.0, 0.25]


@pytest.mark.parametrize("fc", [named_flow("gradient"), FAST_NII_FLOW],
                         ids=["gradient", "fast"])
def test_flow_matches_scipy_dop853(fc):
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    eqs, m0 = _nii_main()

    def rhs(_t, x):
        m = MetricCoefficients.from_array(x)
        return _coefficient_rates(hcf_tangent(eqs, m, fc))

    ref = solve_ivp(rhs, (0.0, 0.5), m0.as_array(), method="DOP853",
                    rtol=1e-12, atol=1e-14, t_eval=[0.25, 0.5])
    assert ref.success
    res = integrate_invariant_flow(eqs, m0, fc, t_end=0.5, dt=2e-3, checkpoints=2)
    assert not res.degenerated
    for m, x_ref in zip(res.metrics[1:], ref.y.T):
        err = np.max(np.abs(m.as_array() - x_ref)) / max(1.0, np.max(np.abs(x_ref)))
        assert err <= 1e-7
