"""The error-controlled coefficient flow: step statistics, record times,
degeneration and accuracy against an independent integrator."""

import re

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
    m0 = MetricCoefficients.from_array(_sample_slice(np.random.default_rng(4), {"v": 0}))
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
    # one first stage at the start and six stages per attempted step, every
    # stage of this flow admissible: a step's seventh stage opens the next,
    # across the record times too
    assert res.tangent_evals == 1 + 6 * (res.accepted + res.rejected)
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
    for count in (2.5, 2.0, "2"):
        with pytest.raises(ValueError, match=r"^checkpoints must be an integer >= 1, got "):
            integrate_invariant_flow(eqs, m0, fc, t_end=0.5, checkpoints=count)
    with pytest.raises(ValueError, match="positive"):
        integrate_invariant_flow(eqs, m0, fc, t_end=0.5, dt=0.0)


def test_an_overflowing_tangent_fails_its_row_without_a_warning():
    # the stage's arithmetic overflows and then multiplies inf by zero; under
    # the error filter of the suite, a warning would fail the test
    eqs = instantiate("Nii", rho=1, B=0j, c=0.0)
    m0 = MetricCoefficients(1.0, 1.0, 1.0)
    K, ok = hcf_tangent(eqs, m0.as_array()[None], np.array([[1e308, 1e308, 0.0, 0.0]]))
    assert ok.tolist() == [False]
    res = integrate_invariant_flow(eqs, m0, FlowCoefficients(1e308, 1e308, 0, 0), t_end=0.5)
    assert res.degenerated and res.exit_time == 0.0
    assert res.termination is Termination.LEFT_ADMISSIBLE_CONE
    assert (res.accepted, res.rejected, res.tangent_evals) == (0, 0, 1)


def test_flow_refuses_a_first_step_below_the_floor():
    # a first trial step below FLOW_MIN_STEP used to report an interior
    # start as degenerate at t = dt
    eqs, m0 = _nii_main()
    fc = named_flow("gradient")
    with pytest.raises(ValueError, match="FLOW_MIN_STEP"):
        integrate_invariant_flow(eqs, m0, fc, t_end=0.1, dt=0.1 * invariant.FLOW_MIN_STEP)
    with pytest.raises(ValueError, match="FLOW_MIN_STEP"):
        invariant.invariant_flow_step(eqs, m0, fc, 0.5 * invariant.FLOW_MIN_STEP)
    res = integrate_invariant_flow(eqs, m0, fc, t_end=0.1, dt=invariant.FLOW_MIN_STEP)
    assert res.termination is Termination.REACHED_T_END


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
        K, ok = hcf_tangent(eqs, x[None], np.array([fc.as_tuple()]))
        assert ok.all()
        return _coefficient_rates(K[0])

    ref = solve_ivp(rhs, (0.0, 0.5), m0.as_array(), method="DOP853",
                    rtol=1e-12, atol=1e-14, t_eval=[0.25, 0.5])
    assert ref.success
    res = integrate_invariant_flow(eqs, m0, fc, t_end=0.5, dt=2e-3, checkpoints=2)
    assert not res.degenerated
    for m, x_ref in zip(res.metrics[1:], ref.y.T):
        err = np.max(np.abs(m.as_array() - x_ref)) / max(1.0, np.max(np.abs(x_ref)))
        assert err <= 1e-7


#: a flow that leaves the admissible cone of Nii/main before t = 0.25
COLLAPSING_FLOW = FlowCoefficients(-8.0, -8.0, -8.0, -8.0)


@pytest.mark.parametrize("key", ["Nii/main", "Siv1"])
def test_flow_step_is_the_flow_as_a_stack_of_one(key):
    case = CASE_INDEX[key]
    eqs = instantiate(case.family, **case.params)
    rng = np.random.default_rng(11)
    m0 = MetricCoefficients.from_array(_sample_slice(rng, case.sign_slice))
    flows = [named_flow(name) for name in ("gradient", "pluriclosed", "ustinovskiy")]
    flows += [FlowCoefficients(*rng.uniform(-1, 1, 4)), COLLAPSING_FLOW]
    degenerate = 0
    for fc in flows:
        for dt in (0.05, 0.3):
            result = integrate_invariant_flow(eqs, m0, fc, t_end=dt, dt=dt)
            if result.degenerated:
                degenerate += 1
                message = re.escape(f"flow left admissible cone at t={result.exit_time:.6g}")
                with pytest.raises(invariant.FlowDegenerationError, match=message):
                    invariant.invariant_flow_step(eqs, m0, fc, dt)
            else:
                step = invariant.invariant_flow_step(eqs, m0, fc, dt)
                assert np.array_equal(step.as_array(), result.metrics[-1].as_array())
    assert degenerate > 0
