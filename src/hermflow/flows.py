"""The reduced (alpha, beta) system of the Hermitian curvature flows on the
Hopf metric family, its stability scalars, and the preservation predicate.

A flow in the family is selected by four real coefficients (a, b, c, d)
weighting the torsion quadratics.  On the two-parameter metric family the
flow closes into an ODE system whose right-hand sides depend only on the
ratio ``gamma = beta / alpha``:

    alpha' = gamma + 1 - n + (gamma + 1) (a + 2b + (n-1) d)
    beta'  = gamma (1 - 2n - gamma (n-1))
             + (gamma + 1)^2 (n-1) (a + (n-1) c)
             - (gamma + 1) (a + 2b + (n-1) d)

and the ratio evolves as ``gamma' = (gamma + 1) [(F - n) gamma + F] / alpha``
with ``F = (n-2) a - 2 b + (n-1)^2 c - (n-1) d``.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

CONVERGENCE_TOL = 1e-6
CONVERGENCE_STEPS = 100
MIN_DT = 1e-12
#: alpha shrinking below this fraction of its start value counts as reaching
#: the cone boundary (the scalar system is singular there)
ALPHA_EXIT_FRACTION = 1e-8


@dataclass(frozen=True)
class FlowCoefficients:
    a: float
    b: float
    c: float
    d: float
    name: str | None = None

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


NAMED_FLOWS = {
    "gradient": FlowCoefficients(0.5, -0.25, -0.5, 1.0, name="gradient"),
    "pluriclosed": FlowCoefficients(1.0, 0.0, 0.0, 0.0, name="pluriclosed"),
    # the unique coefficient tuple whose F scalar is 1 in every dimension
    "ustinovskiy": FlowCoefficients(0.0, -0.5, 0.0, 0.0, name="ustinovskiy"),
}


def named_flow(name: str) -> FlowCoefficients:
    try:
        return NAMED_FLOWS[name]
    except KeyError:
        raise ValueError(f"unknown flow {name!r}; known: {sorted(NAMED_FLOWS)}") from None


@dataclass(frozen=True)
class FlowScalars:
    F: float
    L: float
    static_ratio: float | None


def scalars(fc: FlowCoefficients, n: int) -> FlowScalars:
    """The two combinations governing the ratio dynamics, plus the static
    ratio ``F / (n - F)`` whenever ``F < n``.  Coefficients so large that
    ``F`` or ``L`` overflows, or that the ratio rounds to -1 or below, raise
    ``ValueError``."""
    if n < 2:
        raise ValueError(f"complex dimension must be >= 2, got {n}")
    F = (n - 2) * fc.a - 2 * fc.b + (n - 1) ** 2 * fc.c - (n - 1) * fc.d
    L = 1 + fc.a + 2 * fc.b + (n - 1) * fc.d
    check_finite(F=F, L=L)
    ratio = F / (n - F) if F < n else None
    if ratio is not None and not ratio > -1:
        raise ValueError(f"static ratio F/(n - F) = {ratio!r} is not above -1 "
                         f"in floats (F={F!r})")
    return FlowScalars(F=F, L=L, static_ratio=ratio)


def _check_state(alpha: float, beta: float) -> None:
    if not alpha > 0:
        raise ValueError(f"alpha > 0 fails: alpha={alpha!r}")
    if not beta > -alpha:
        raise ValueError(f"beta > -alpha fails: beta={beta!r}, alpha={alpha!r}")


def ode_rhs(state: tuple[float, float], fc: FlowCoefficients, n: int
            ) -> tuple[float, float]:
    """Right-hand sides (alpha', beta') at an admissible state."""
    alpha, beta = state
    _check_state(alpha, beta)
    g = beta / alpha
    p = fc.a + 2 * fc.b + (n - 1) * fc.d
    alpha_dot = g + 1 - n + (g + 1) * p
    beta_dot = (g * (1 - 2 * n - g * (n - 1))
                + (g + 1) ** 2 * (n - 1) * (fc.a + (n - 1) * fc.c)
                - (g + 1) * p)
    return alpha_dot, beta_dot


def gamma_rate(alpha: float, gamma: float, fc: FlowCoefficients, n: int) -> float:
    """Closed-form ratio velocity ``(gamma + 1) [(F - n) gamma + F] / alpha``."""
    sc = scalars(fc, n)
    return (gamma + 1.0) * ((sc.F - n) * gamma + sc.F) / alpha


class Termination(enum.Enum):
    REACHED_T_END = "reached_t_end"
    LEFT_ADMISSIBLE_CONE = "left_admissible_cone"
    CONVERGED = "converged"


@dataclass(frozen=True)
class FlowTrajectory:
    n: int
    coefficients: FlowCoefficients
    times: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray
    gammas: np.ndarray
    termination: Termination
    exit_time: float | None

    def summary(self) -> dict:
        sc = scalars(self.coefficients, self.n)
        return {
            "F": sc.F,
            "L": sc.L,
            "static_ratio": sc.static_ratio,
            "termination": self.termination.value,
            "exit_time": self.exit_time,
            "final_gamma": float(self.gammas[-1]),
            "final_alpha": float(self.alphas[-1]),
        }


def check_finite(**values: float) -> None:
    """Raise ``ValueError`` naming the first value that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _check_inputs(alpha0: float, beta0: float, fc: FlowCoefficients,
                  t_end: float, dt: float) -> None:
    check_finite(alpha0=alpha0, beta0=beta0, t_end=t_end, dt=dt,
                 **dict(zip("abcd", fc.as_tuple())))
    if t_end <= 0 or dt <= 0:
        raise ValueError("t_end and dt must be positive")
    if dt < MIN_DT:
        raise ValueError(f"dt must be at least the step floor MIN_DT = {MIN_DT:g}, got {dt!r}")
    _check_state(alpha0, beta0)


def _slope_constants(fc: FlowCoefficients, n: int
                     ) -> tuple[float, float, float, float, float]:
    """``(n, p, ac, 1 - 2n, n - 1)`` for ``ode_rhs``'s formula, with
    ``p = a + 2b + (n-1) d`` and ``ac = a + (n-1) c`` computed as it computes
    them.  The integers are passed as floats: a float operation converts an
    int operand exactly, so the bits are the same and the operations faster."""
    return (float(n), fc.a + 2 * fc.b + (n - 1) * fc.d, fc.a + (n - 1) * fc.c,
            float(1 - 2 * n), float(n - 1))


_INF = math.inf


def _rk4(a: float, b: float, ka: float, kb: float, h: float, n: float,
         p: float, ac: float, c1: float, n1: float) -> tuple[float, float] | None:
    """One classical Runge-Kutta step from the state ``(a, b)`` with its
    slope ``(ka, kb)`` already evaluated: the new state, or None when a stage
    or the result leaves the cone or is not finite, as where a product
    overflows.  A stage tests ``sa`` for it only: an infinite ``sa`` gives
    the ratio 0 and finite slopes, while an infinite or NaN ``sb`` or slope
    makes the result infinite or NaN.  Every stage slope is ``ode_rhs``'s
    formula in its order of operations, on float locals; ``** 2`` raises
    ``OverflowError`` where ``ode_rhs`` does."""
    sa = a + 0.5 * h * ka
    sb = b + 0.5 * h * kb
    if not 0 < sa < _INF or not sb > -sa:
        return None
    g = sb / sa
    g1 = g + 1
    k2a = g1 - n + g1 * p
    k2b = g * (c1 - g * n1) + g1 ** 2 * n1 * ac - g1 * p
    sa = a + 0.5 * h * k2a
    sb = b + 0.5 * h * k2b
    if not 0 < sa < _INF or not sb > -sa:
        return None
    g = sb / sa
    g1 = g + 1
    k3a = g1 - n + g1 * p
    k3b = g * (c1 - g * n1) + g1 ** 2 * n1 * ac - g1 * p
    sa = a + h * k3a
    sb = b + h * k3b
    if not 0 < sa < _INF or not sb > -sa:
        return None
    g = sb / sa
    g1 = g + 1
    k4a = g1 - n + g1 * p
    k4b = g * (c1 - g * n1) + g1 ** 2 * n1 * ac - g1 * p
    a = a + (h / 6.0) * (ka + 2 * k2a + 2 * k3a + k4a)
    b = b + (h / 6.0) * (kb + 2 * k2b + 2 * k3b + k4b)
    if not 0 < a < _INF or not -a < b < _INF:
        return None
    return a, b


def integrate_fixed_step(alpha0: float, beta0: float, fc: FlowCoefficients,
                         n: int, t_end: float, dt: float) -> tuple[float, float]:
    """Plain fixed-step Runge-Kutta endpoint, exposed for order checks."""
    _check_inputs(alpha0, beta0, fc, t_end, dt)
    steps = int(round(t_end / dt))
    if abs(steps * dt - t_end) > 1e-12 * t_end:
        raise ValueError("t_end must be an integer multiple of dt")
    consts = _slope_constants(fc, n)
    y = (float(alpha0), float(beta0))
    for _ in range(steps):
        step = _rk4(*y, *ode_rhs(y, fc, n), dt, *consts)
        if step is None:
            raise ValueError(f"the step from alpha={y[0]!r}, beta={y[1]!r} "
                             "fails to stay in alpha > 0, beta > -alpha")
        y = step
    return y


#: per-step relative tolerance of the ratio, for the step-doubling control
STEP_GAMMA_TOL = 1e-10


def integrate(alpha0: float, beta0: float, fc: FlowCoefficients, n: int,
              t_end: float, dt: float = 1e-3) -> FlowTrajectory:
    """Integrate the (alpha, beta) system with classical Runge-Kutta.

    Steps use a doubling error estimate on the ratio (full step against two
    half steps) and are halved down to ``MIN_DT`` when inaccurate or when
    they would leave the admissible cone; the ratio grows singular where
    alpha reaches zero in finite time, so alpha dropping below
    ``ALPHA_EXIT_FRACTION`` of its start value terminates the trajectory
    with the cone exit recorded (a diagnostic, not an error).  Convergence
    of the ratio to the static value is declared after it stays within
    ``CONVERGENCE_TOL`` for ``CONVERGENCE_STEPS`` consecutive steps.

    The state is a pair of floats, and its slope is evaluated once for the
    full step, the first half step and every halved retry.  A slope that
    overflows a double rejects the step like an inadmissible stage.  The
    slopes are ``ode_rhs``'s formula written out on float locals (here and
    in ``_rk4``), so every bit matches a stepper that calls ``ode_rhs``.
    """
    _check_inputs(alpha0, beta0, fc, t_end, dt)
    static = scalars(fc, n).static_ratio
    nf, p, ac, c1, n1 = _slope_constants(fc, n)
    a, b = float(alpha0), float(beta0)
    t = 0.0
    times = [0.0]
    alphas = [a]
    betas = [b]
    near_static = 0
    termination = Termination.REACHED_T_END
    exit_time: float | None = None

    while t < t_end - 1e-12:
        h = min(dt, t_end - t)
        try:
            g = b / a
            g1 = g + 1
            ka = g1 - nf + g1 * p
            kb = g * (c1 - g * n1) + g1 ** 2 * n1 * ac - g1 * p
        except OverflowError:
            h = 0.0
        fine = None
        while h >= MIN_DT:
            # the doubled step: one full step against two half steps
            try:
                full = _rk4(a, b, ka, kb, h, nf, p, ac, c1, n1)
                if full is not None:
                    half = _rk4(a, b, ka, kb, 0.5 * h, nf, p, ac, c1, n1)
                    if half is not None:
                        ha, hb = half
                        g = hb / ha
                        g1 = g + 1
                        fine = _rk4(ha, hb, g1 - nf + g1 * p,
                                    g * (c1 - g * n1) + g1 ** 2 * n1 * ac - g1 * p,
                                    0.5 * h, nf, p, ac, c1, n1)
            except OverflowError:
                fine = None
            if fine is not None:
                gamma_fine = fine[1] / fine[0]
                # `not >` rather than `<=`: a NaN ratio error accepts the step
                if not (abs(full[1] / full[0] - gamma_fine)
                        > STEP_GAMMA_TOL * (1.0 + abs(gamma_fine))):
                    break
                fine = None
            h *= 0.5
        if fine is None:
            termination = Termination.LEFT_ADMISSIBLE_CONE
            exit_time = t
            break
        a, b = fine
        t += h
        times.append(t)
        alphas.append(a)
        betas.append(b)
        if a < ALPHA_EXIT_FRACTION * alpha0:
            termination = Termination.LEFT_ADMISSIBLE_CONE
            exit_time = t
            break
        if static is not None:
            if abs(b / a - static) < CONVERGENCE_TOL:
                near_static += 1
                if near_static >= CONVERGENCE_STEPS:
                    termination = Termination.CONVERGED
                    break
            else:
                near_static = 0

    alphas = np.array(alphas)
    betas = np.array(betas)
    return FlowTrajectory(n=n, coefficients=fc, times=np.array(times),
                          alphas=alphas, betas=betas, gammas=betas / alphas,
                          termination=termination, exit_time=exit_time)


@dataclass(frozen=True)
class PreservationReport:
    preserved: bool
    F: float
    bound: float
    margin: float


def preserves_nonnegativity(fc: FlowCoefficients, n: int) -> PreservationReport:
    """Whether the flow keeps the non-negative part of the Hopf family.

    The sharp criterion is ``F <= n * g_n / (g_n + 1)`` with the threshold
    ratio ``g_n`` (0 for n=2, -1/2 beyond), i.e. bound 0 in dimension two and
    ``-n`` from dimension three on.
    """
    from .positivity import gamma_threshold

    if n < 2:
        raise ValueError(f"complex dimension must be >= 2, got {n}")
    gn = gamma_threshold(n)
    bound = n * gn / (gn + 1.0)
    F = scalars(fc, n).F
    return PreservationReport(preserved=F <= bound, F=F, bound=bound,
                              margin=bound - F)


# ---------------------------------------------------------------------------
# trajectory export
# ---------------------------------------------------------------------------

def trajectory_csv(traj: FlowTrajectory, out) -> None:
    """Write the trajectory to the text stream ``out`` as CSV, one ``.12g``
    row per state."""
    out.write("t,alpha,beta,gamma\n")
    for t, a, b, g in zip(traj.times, traj.alphas, traj.betas, traj.gammas):
        out.write(f"{t:.12g},{a:.12g},{b:.12g},{g:.12g}\n")


def trajectory_json(traj: FlowTrajectory, out) -> None:
    """Write the trajectory to the text stream ``out`` as the bytes of
    ``json.dumps(doc, sort_keys=True)``, one top-level value at a time, so
    that only one array is encoded in memory at once."""
    doc = {
        "n": traj.n,
        "coefficients": {"a": traj.coefficients.a, "b": traj.coefficients.b,
                         "c": traj.coefficients.c, "d": traj.coefficients.d,
                         "name": traj.coefficients.name},
        "summary": traj.summary(),
        "t": traj.times,
        "alpha": traj.alphas,
        "beta": traj.betas,
        "gamma": traj.gammas,
    }
    sep = "{"
    for key in sorted(doc):
        value = doc[key]
        out.write(f"{sep}{json.dumps(key)}: ")
        out.write(json.dumps(value.tolist()) if isinstance(value, np.ndarray)
                  else json.dumps(value, sort_keys=True))
        sep = ", "
    out.write("}")
