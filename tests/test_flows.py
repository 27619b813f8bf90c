import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermflow import cli, flows
from hermflow.flows import (ALPHA_EXIT_FRACTION, CONVERGENCE_STEPS,
                            CONVERGENCE_TOL, MIN_DT, STEP_GAMMA_TOL,
                            FlowCoefficients, FlowTrajectory, Termination,
                            _check_state, gamma_rate, integrate,
                            integrate_fixed_step, named_flow, ode_rhs,
                            preserves_nonnegativity, scalars, trajectory_csv,
                            trajectory_json)

coeff = st.floats(min_value=-2, max_value=2, allow_nan=False)


def test_scalar_formulas_named_flows():
    grad = named_flow("gradient")
    assert grad.as_tuple() == (0.5, -0.25, -0.5, 1.0)
    for n in (2, 3, 4, 7):
        sc = scalars(grad, n)
        assert sc.F == pytest.approx(-n * (n - 1) / 2)
        assert sc.static_ratio == pytest.approx(-(n - 1) / (n + 1))
    assert scalars(grad, 2).static_ratio == pytest.approx(-1 / 3)

    pc = named_flow("pluriclosed")
    assert pc.as_tuple() == (1.0, 0.0, 0.0, 0.0)
    for n in (2, 3, 4):
        assert scalars(pc, n).F == pytest.approx(n - 2)
    assert scalars(pc, 2).static_ratio == pytest.approx(0.0)

    ust = named_flow("ustinovskiy")
    assert ust.as_tuple() == (0.0, -0.5, 0.0, 0.0)
    for n in range(2, 11):
        assert scalars(ust, n).F == pytest.approx(1.0)

    with pytest.raises(ValueError, match="unknown flow"):
        named_flow("ricci")


def test_static_ratio_absent_when_F_at_least_n():
    fc = FlowCoefficients(0.0, -2.0, 0.0, 0.0)   # F = 4 for every n
    assert scalars(fc, 2).static_ratio is None
    assert scalars(fc, 4).static_ratio is None
    assert scalars(fc, 5).static_ratio == pytest.approx(4.0)


def test_ode_rhs_rejects_inadmissible_states():
    fc = named_flow("gradient")
    with pytest.raises(ValueError, match="alpha"):
        ode_rhs((0.0, 0.0), fc, 3)
    with pytest.raises(ValueError, match="beta"):
        ode_rhs((1.0, -1.0), fc, 3)


@settings(max_examples=200, deadline=None)
@given(coeff, coeff, coeff, coeff,
       st.integers(min_value=2, max_value=6),
       st.floats(min_value=0.1, max_value=5.0),
       st.floats(min_value=-0.95, max_value=4.0))
def test_gamma_rate_consistency(a, b, c, d, n, alpha, gamma):
    # the quotient-rule rate from the (alpha, beta) system equals the
    # closed-form ratio equation
    fc = FlowCoefficients(a, b, c, d)
    beta = gamma * alpha
    alpha_dot, beta_dot = ode_rhs((alpha, beta), fc, n)
    implied = (beta_dot - gamma * alpha_dot) / alpha
    closed = gamma_rate(alpha, gamma, fc, n)
    assert implied == pytest.approx(closed, rel=1e-10, abs=1e-10)


def test_static_start_remains_static():
    fc = named_flow("gradient")
    sc = scalars(fc, 3)
    traj = integrate(1.0, sc.static_ratio, fc, 3, t_end=10.0, dt=1e-3)
    assert np.max(np.abs(traj.gammas - sc.static_ratio)) < 1e-9


def test_gradient_converges_from_zero():
    fc = named_flow("gradient")
    traj = integrate(1.0, 0.0, fc, 3, t_end=10.0, dt=1e-3)
    assert abs(traj.gammas[-1] + 0.5) < 1e-3


def test_pluriclosed_surface_gamma_constant():
    fc = named_flow("pluriclosed")
    traj = integrate(1.0, 0.0, fc, 2, t_end=5.0, dt=1e-3)
    assert np.max(np.abs(traj.gammas)) < 1e-12


def test_ustinovskiy_leaves_nonnegative_cone():
    # starting at the threshold ratio -1/2 in dimension three, the ratio
    # increases strictly through it
    fc = named_flow("ustinovskiy")
    traj = integrate(1.0, -0.5, fc, 3, t_end=5.0, dt=1e-3)
    assert traj.gammas[1] > -0.5
    assert np.all(np.diff(traj.gammas) > -1e-14)
    assert traj.gammas[-1] > -0.4


@pytest.mark.parametrize("name,n", [(nm, n) for nm in
                                    ("gradient", "pluriclosed", "ustinovskiy")
                                    for n in (2, 3, 4)])
def test_stability_from_all_starts(name, n):
    fc = named_flow(name)
    sc = scalars(fc, n)
    assert sc.F < n
    for gamma0 in (-0.9, 0.0, 1.0):
        traj = integrate(1.0, gamma0, fc, n, t_end=40.0, dt=1e-3)
        assert abs(traj.gammas[-1] - sc.static_ratio) < 1e-3, (name, n, gamma0)
        gap = np.abs(traj.gammas - sc.static_ratio)
        tail = gap[len(gap) // 2:]
        assert np.all(np.diff(tail) <= 1e-9), "ratio gap not eventually monotone"


def test_gamma_tracks_beta_over_alpha():
    traj = integrate(1.3, 0.4, named_flow("gradient"), 3, t_end=1.0, dt=1e-3)
    assert np.max(np.abs(traj.gammas - traj.betas / traj.alphas)) < 1e-10
    assert np.all(traj.alphas > 0)


def test_homothety_invariance():
    # scaling (alpha0, beta0) by lam exactly rescales the trajectory:
    # state_lam(t) = lam * state(t / lam), step-for-step for matched grids
    fc = named_flow("pluriclosed")
    lam = 2.5
    base = integrate(1.0, 1.0, fc, 2, t_end=4.0, dt=1e-3)
    scaled = integrate(lam, lam, fc, 2, t_end=lam * 4.0, dt=lam * 1e-3)
    k = min(len(base.times), len(scaled.times))
    assert np.allclose(scaled.times[:k], lam * base.times[:k], rtol=1e-12)
    assert np.allclose(scaled.alphas[:k], lam * base.alphas[:k], rtol=1e-10)
    assert np.allclose(scaled.gammas[:k], base.gammas[:k], rtol=0, atol=1e-10)


def test_rk4_order_endpoint_convergence():
    fc = named_flow("gradient")
    ends = [np.array(integrate_fixed_step(1.0, 0.3, fc, 3, t_end=0.4, dt=dt))
            for dt in (0.02, 0.01, 0.005)]
    e1 = np.linalg.norm(ends[0] - ends[1])
    e2 = np.linalg.norm(ends[1] - ends[2])
    assert 8 < e1 / e2 < 40   # fourth order halves errors by ~16


def test_decay_bound_along_trajectory():
    # for a flow with (static_ratio + 1) L - n > 0 and gamma0 below the
    # static ratio, the ratio dominates the explicit comparison solution
    # gamma_s + (gamma0 - gamma_s) ((alpha0 + A t)/alpha0)^((F - n)/A)
    fc = FlowCoefficients(2.0, 0.0, 0.0, 0.0)
    n = 3
    sc = scalars(fc, n)
    assert sc.F == pytest.approx(2.0) and sc.static_ratio == pytest.approx(2.0)
    A = (sc.static_ratio + 1) * sc.L - n
    assert A > 0
    gamma0 = 0.0
    traj = integrate(1.0, gamma0, fc, n, t_end=6.0, dt=1e-3)
    bound = sc.static_ratio + (gamma0 - sc.static_ratio) * \
        ((1.0 + A * traj.times) ** ((sc.F - n) / A))
    assert np.all(traj.gammas >= bound - 1e-9)
    # power-law approach: substantially closer than at the start
    assert abs(traj.gammas[-1] - sc.static_ratio) < 0.3 * abs(gamma0 - sc.static_ratio)


def test_preservation_verdicts():
    grad = named_flow("gradient")
    for n in range(2, 8):
        rep = preserves_nonnegativity(grad, n)
        assert rep.preserved, n
        assert rep.bound == pytest.approx(0.0 if n == 2 else -float(n))
    pc = named_flow("pluriclosed")
    assert preserves_nonnegativity(pc, 2).preserved
    assert preserves_nonnegativity(pc, 2).margin == pytest.approx(0.0)
    for n in (3, 4, 5):
        assert not preserves_nonnegativity(pc, n).preserved
    ust = named_flow("ustinovskiy")
    for n in range(2, 8):
        assert not preserves_nonnegativity(ust, n).preserved


def test_trajectory_export_round_trip(tmp_path):
    traj = integrate(1.0, 0.0, named_flow("gradient"), 3, t_end=0.05, dt=1e-2)
    csv = trajectory_csv(traj)
    lines = csv.strip().splitlines()
    assert lines[0] == "t,alpha,beta,gamma"
    assert len(lines) == len(traj.times) + 1
    import json
    doc = json.loads(trajectory_json(traj))
    assert doc["summary"]["F"] == pytest.approx(-3.0)
    assert doc["t"][0] == 0.0
    assert len(doc["gamma"]) == len(traj.times)


# ---------------------------------------------------------------------------
# reference: the step-doubling loop on numpy state vectors that the scalar
# stepper replaced, which recomputed the slope at the state in each step.
# The scalar stepper must reproduce it bit for bit, since the CONVERGED rule
# counts steps and `hermflow flow` prints every state.  Both count an
# infinite or NaN stage or result as outside the cone.
# ---------------------------------------------------------------------------

def _check_cone(y):
    _check_state(y[0], y[1])
    flows.check_finite(alpha=y[0], beta=y[1])


def _reference_rk4_step(state, fc, n, dt):
    def rhs(y):
        _check_cone(y)
        ad, bd = ode_rhs((y[0], y[1]), fc, n)
        return np.array([ad, bd])

    k1 = rhs(state)
    k2 = rhs(state + 0.5 * dt * k1)
    k3 = rhs(state + 0.5 * dt * k2)
    k4 = rhs(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _reference_fixed_step(alpha0, beta0, fc, n, t_end, dt):
    state = np.array([float(alpha0), float(beta0)])
    for _ in range(int(round(t_end / dt))):
        state = _reference_rk4_step(state, fc, n, dt)
        _check_cone(state)
    return float(state[0]), float(state[1])


def _reference_integrate(alpha0, beta0, fc, n, t_end, dt=1e-3):
    sc = scalars(fc, n)
    state = np.array([float(alpha0), float(beta0)])
    t = 0.0
    times, alphas, betas = [0.0], [state[0]], [state[1]]
    near_static = 0
    termination = Termination.REACHED_T_END
    exit_time = None

    def attempt(y, h):
        try:
            full = _reference_rk4_step(y, fc, n, h)
            _check_cone(full)
            half = _reference_rk4_step(y, fc, n, 0.5 * h)
            _check_cone(half)
            fine = _reference_rk4_step(half, fc, n, 0.5 * h)
            _check_cone(fine)
        except ValueError:
            return None
        gamma_err = abs(full[1] / full[0] - fine[1] / fine[0])
        if gamma_err > STEP_GAMMA_TOL * (1.0 + abs(fine[1] / fine[0])):
            return None
        return fine

    while t < t_end - 1e-12:
        h = min(dt, t_end - t)
        candidate = None
        while h >= MIN_DT:
            candidate = attempt(state, h)
            if candidate is not None:
                break
            h *= 0.5
        if candidate is None:
            termination = Termination.LEFT_ADMISSIBLE_CONE
            exit_time = t
            break
        state = candidate
        t += h
        times.append(t)
        alphas.append(state[0])
        betas.append(state[1])
        if state[0] < ALPHA_EXIT_FRACTION * alpha0:
            termination = Termination.LEFT_ADMISSIBLE_CONE
            exit_time = t
            break
        if sc.static_ratio is not None:
            if abs(state[1] / state[0] - sc.static_ratio) < CONVERGENCE_TOL:
                near_static += 1
                if near_static >= CONVERGENCE_STEPS:
                    termination = Termination.CONVERGED
                    break
            else:
                near_static = 0
    alphas, betas = np.array(alphas), np.array(betas)
    return FlowTrajectory(n=n, coefficients=fc, times=np.array(times),
                          alphas=alphas, betas=betas, gammas=betas / alphas,
                          termination=termination, exit_time=exit_time)


def _assert_same_trajectory(got, want):
    for field in ("times", "alphas", "betas", "gammas"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.termination == want.termination
    assert got.exit_time == want.exit_time


DOUBLING_DTS = (1e-3, 1e-2, 0.1)


@pytest.mark.parametrize("dt", DOUBLING_DTS)
@pytest.mark.parametrize("name", sorted(flows.NAMED_FLOWS))
def test_scalar_stepper_matches_reference_on_named_flows(name, dt):
    fc = named_flow(name)
    for n in (2, 3, 4, 5):
        for gamma0 in (-0.9, 0.0, 1.0):
            args = (1.0, gamma0, fc, n, 10.0, dt)
            _assert_same_trajectory(integrate(*args), _reference_integrate(*args))


def _random_flows(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        fc = FlowCoefficients(*rng.uniform(-1.0, 1.0, 4))
        alpha0 = rng.uniform(0.3, 3.0)
        yield (alpha0, alpha0 * rng.uniform(-0.95, 2.0), fc,
               int(rng.integers(2, 6)), rng.uniform(0.2, 3.0))


@pytest.mark.parametrize("dt", DOUBLING_DTS)
def test_scalar_stepper_matches_reference_on_random_flows(dt):
    ends = set()
    for alpha0, beta0, fc, n, t_end in _random_flows(20, seed=3):
        got = integrate(alpha0, beta0, fc, n, t_end, dt)
        _assert_same_trajectory(got, _reference_integrate(alpha0, beta0, fc, n,
                                                          t_end, dt))
        ends.add(got.termination)
    assert ends == {Termination.LEFT_ADMISSIBLE_CONE, Termination.REACHED_T_END}


@pytest.mark.parametrize("alpha0,beta0,fc,n", [
    # the slope at the start state overflows
    (1e-160, 1.0, named_flow("gradient"), 3),
    # the start slope is finite, a stage slope overflows
    (4.553156131004149e-151, 6.180175910297207,
     FlowCoefficients(-0.5008431017786723, 1.4515816562825492,
                      0.8275058577187755, -0.8060146636635293), 4),
])
def test_overflowing_slope_ends_the_flow_like_the_reference(alpha0, beta0, fc, n):
    # beta/alpha near 1e155 squares beyond a double: Python floats raise
    # OverflowError where numpy scalars warned and went on with inf and nan
    args = (alpha0, beta0, fc, n, 1.0, 0.1)
    got = integrate(*args)
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_same_trajectory(got, _reference_integrate(*args))
    assert got.termination is Termination.LEFT_ADMISSIBLE_CONE
    assert got.exit_time == 0.0


def test_overflowing_stage_ends_the_flow_at_its_last_finite_state():
    # beta passes 9e305 at t = 22.29, where a stage overflows a double; inf
    # passed the cone test, and the doubling test's inf - inf = NaN accepted
    # the step, which recorded beta = gamma = inf
    fc = FlowCoefficients(0.0, 0.0, 1.0, 0.0)
    got = integrate(1.0, 0.0, fc, 3, 30.0, 1e-3)
    assert got.termination is Termination.LEFT_ADMISSIBLE_CONE
    assert got.exit_time == got.times[-1]
    for values in (got.alphas, got.betas, got.gammas):
        assert np.isfinite(values).all()
    assert got.betas[-1] > 1e305
    # the reference, from a state 40 records before the exit
    args = (1.7833136927281318e+152, 5.088332250066824e+305, fc, 3, 1.0, 1e-3)
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_same_trajectory(integrate(*args), _reference_integrate(*args))
    assert integrate(*args).betas[-1] == got.betas[-1]


@pytest.mark.slow
def test_fused_stepper_matches_reference_into_a_blow_up():
    # alpha grows to ~1e25 and the step shrinks to ~1e-12 before the cone
    # exit is reported: 9,053 accepted steps, most of them halved retries
    fc = FlowCoefficients(-0.13952320236471083, 1.9024887905141505,
                          1.1977137538059877, 0.38728946681647436)
    args = (1.1784440687233508, -0.4021858277432912, fc, 5, 3.14, 0.01)
    got = integrate(*args)
    _assert_same_trajectory(got, _reference_integrate(*args))
    assert len(got.times) == 9053
    assert got.termination is Termination.LEFT_ADMISSIBLE_CONE


@settings(max_examples=60, deadline=None)
@given(coeff, coeff, coeff, coeff,
       st.integers(min_value=2, max_value=5),
       st.floats(min_value=0.05, max_value=5.0),
       st.floats(min_value=-0.99, max_value=3.0),
       st.floats(min_value=0.01, max_value=0.5),
       st.sampled_from(DOUBLING_DTS))
def test_fused_stepper_matches_reference_on_random_flows(a, b, c, d, n, alpha0,
                                                         gamma0, t_end, dt):
    args = (alpha0, gamma0 * alpha0, FlowCoefficients(a, b, c, d), n, t_end, dt)
    got = integrate(*args)
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_same_trajectory(got, _reference_integrate(*args))


def test_scalar_fixed_step_matches_reference():
    # the Ustinovskiy flow leaves the cone before t = 0.4 for n >= 3, and
    # both steppers must then refuse the same endpoint
    refused = 0
    for name in sorted(flows.NAMED_FLOWS):
        for n in (2, 3, 4, 5):
            for dt in (0.02, 0.01, 0.005):
                args = (1.0, 0.3, named_flow(name), n, 0.4, dt)
                try:
                    want = _reference_fixed_step(*args)
                except ValueError:
                    refused += 1
                    with pytest.raises(ValueError, match="fails"):
                        integrate_fixed_step(*args)
                else:
                    assert integrate_fixed_step(*args) == want
    assert 0 < refused < 36


@pytest.mark.parametrize("argv,termination", [
    (["flow", "--name=pluriclosed", "--n=2", "--alpha0=1", "--beta0=0.5"],
     "converged"),
    (["flow", "--coeffs=1,0,0,0", "--n=4", "--alpha0=1.3", "--beta0=0.2",
      "--t-end=0.7", "--dt=0.01", "--format=json"], "reached_t_end"),
    (["flow", "--coeffs=-1.5,0.4,1.2,-0.3", "--n=3", "--alpha0=0.8",
      "--beta0=0.1", "--format=json"], "left_admissible_cone"),
])
def test_flow_command_bytes_match_reference(argv, termination, capsys,
                                            monkeypatch):
    outputs = []
    for integrator in (integrate, _reference_integrate):
        monkeypatch.setattr(flows, "integrate", integrator)
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].out == outputs[1].out
    assert outputs[0].err == outputs[1].err
    assert f'"termination": "{termination}"' in outputs[0].err


# ---------------------------------------------------------------------------
# non-finite inputs are refused before any step
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["alpha0", "beta0", "t_end", "dt",
                                  "a", "b", "c", "d"])
def test_integrators_reject_nonfinite_inputs(name, bad):
    args = {"alpha0": 1.0, "beta0": 0.0, "t_end": 1.0, "dt": 0.1}
    coeffs = {"a": 0.5, "b": -0.25, "c": -0.5, "d": 1.0}
    (coeffs if name in coeffs else args)[name] = bad
    fc = FlowCoefficients(**coeffs)
    for integrator in (integrate, integrate_fixed_step):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            integrator(args["alpha0"], args["beta0"], fc, 3,
                       t_end=args["t_end"], dt=args["dt"])


def test_integrators_refuse_a_step_below_the_floor():
    # below MIN_DT the halving loop never ran, and an interior start was
    # reported as a cone exit at t = 0
    fc = named_flow("gradient")
    for integrator in (integrate, integrate_fixed_step):
        with pytest.raises(ValueError, match="MIN_DT"):
            integrator(1.0, 0.0, fc, 3, t_end=1.0, dt=0.1 * MIN_DT)


@pytest.mark.parametrize("coeffs,reason", [
    ((0.0, 5e307, 0.0, 0.0), "static ratio"),
    ((0.0, 1e308, 0.0, 0.0), "^F must be finite"),
    ((1e308, 0.0, 1e308, 0.0), "^F must be finite"),
    ((1e308, 5e307, 0.0, 0.0), "^L must be finite"),
])
def test_scalars_refuse_coefficients_that_overflow(coeffs, reason):
    with pytest.raises(ValueError, match=reason):
        scalars(FlowCoefficients(*coeffs), 3)


@pytest.mark.parametrize("argv", [
    ["--coeffs=nan,0,0,0", "--alpha0=1", "--beta0=0"],
    ["--coeffs=1,inf,0,0", "--alpha0=1", "--beta0=0"],
    ["--name=gradient", "--alpha0=inf", "--beta0=0"],
    ["--name=gradient", "--alpha0=1", "--beta0=nan"],
    ["--name=gradient", "--alpha0=1", "--beta0=0", "--t-end=nan"],
    ["--name=gradient", "--alpha0=1", "--beta0=0", "--t-end=inf"],
    ["--name=gradient", "--alpha0=1", "--beta0=0", "--dt=nan"],
    ["--name=gradient", "--alpha0=1", "--beta0=0", "--dt=inf"],
])
def test_flow_command_rejects_nonfinite_inputs(argv, capsys):
    assert cli.main(["flow", "--n=3", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err
