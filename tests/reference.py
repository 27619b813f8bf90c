"""Reference implementations kept for the tests only.

* The einsum flow tangent (``hcf_tangent``, ``q_terms``,
  ``second_ricci_trace``), the matmul trace over a formed mixed block
  (``stacked_second_ricci_trace``), the one-flow-at-a-time Dormand-Prince
  integrator and the per-flow ``flow_preservation_check`` that the stacked
  matmul engine replaced.  The stacked engine must agree with them to
  round-off and give the same reports.
* The einsum Koszul, ``d omega``, connection and curvature formulas that
  the matrix products of ``connection`` and ``curvature`` replaced.  The
  products must agree with them to round-off, and the flow tangent map
  built on either must be the same bit for bit.
* The per-metric Bismut curvature and pure-type check, and the per-sample
  ``classify_case`` loop, that the stacked scan and the batched sign
  classification replaced.  The stacked path must give the same table3
  fields and markdown, with witness values equal to round-off.
* The per-start draw of ``classify``'s random start pairs
  (``random_unit``), which ``positivity._random_starts`` batches; the batch
  must reproduce it bit for bit.
* The one-attempt-per-call metric sampler and the per-metric frame metric,
  which ``sample_admissible_metrics`` and ``frame_metrics`` stack; the
  stacks must read the same stream and give the same bits.
* Helpers that only the tests use: the invariant exterior derivative and
  the pluriclosed predicate built on it, the Bismut-Chern comparison
  identity, the conjugation symmetry of a bracket table, the full Chern
  torsion, the lowered Chern curvature and the inverse metric of the Hopf
  family, and the finite-difference Chern Christoffels of the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hermflow import hopf
from hermflow.oracle import (DEFAULT_STEP_SCALE, RICHARDSON_STEP_SCALE,
                             PointMetricField, _check_point,
                             wirtinger_derivative)
from hermflow.catalog import (CASE_INDEX, CASES, NAMED_FLOWS, ClassificationRow,
                              FlowCoefficients, FlowPreservationReport,
                              Table3Result, WitnessResult, _sample_off_slice,
                              _sample_slice, _witnesses, bismut_curvature,
                              instantiate)
from hermflow.flows import Termination
from hermflow.invariant import (_DP_A, _DP_E, _SAMPLE_HIGH, _SAMPLE_LOW,
                                CURVATURE_COMPONENT_SIGN, FLOW_ATOL,
                                FLOW_MIN_STEP, FLOW_RTOL, SAMPLE_MAX_TRIES,
                                BracketTable, ConnectionCoefficients,
                                ConnectionKind, CplxReport,
                                FlowDegenerationError, FlowStepStats,
                                InvariantFlowResult, MetricCoefficients,
                                MetricError, _coefficient_rates, connection,
                                dualize)
from hermflow.positivity import classify
from hermflow.tensors import CurvatureTensor, frame_label, zero_threshold

# ---------------------------------------------------------------------------
# the one-attempt sampler and the per-metric frame metric
# ---------------------------------------------------------------------------

def sample_admissible_metric(rng: np.random.Generator,
                             fixed: dict | None = None) -> MetricCoefficients:
    """One admissible metric, drawing one attempt of nine uniforms per call
    of ``rng`` until one is admissible, at most ``SAMPLE_MAX_TRIES``."""
    fixed = dict(fixed or {})
    for _ in range(SAMPLE_MAX_TRIES):
        r2, s2, t2, *polar = rng.uniform(_SAMPLE_LOW, _SAMPLE_HIGH).tolist()
        vals = {"r2": r2, "s2": s2, "t2": t2}
        for name, area, angle in zip(("u", "v", "z"), polar[0::2], polar[1::2]):
            vals[name] = 0.4 * np.sqrt(area) * np.exp(1j * angle)
        vals.update(fixed)
        m = MetricCoefficients(**vals)
        if m.is_admissible():
            return m
    raise MetricError("could not sample an admissible metric under the given constraints")


def frame_metric(m: MetricCoefficients) -> np.ndarray:
    """``g[A, B] = g(e_A, e_B)`` from ``hermitian_matrix``, one metric."""
    m.validate()
    G = m.hermitian_matrix()
    n = G.shape[0]
    g = np.zeros((2 * n, 2 * n), dtype=complex)
    g[:n, n:] = G
    g[n:, :n] = G.T
    return g


# ---------------------------------------------------------------------------
# the einsum connections and curvature
# ---------------------------------------------------------------------------

def _j_diagonal(n: int) -> np.ndarray:
    return np.concatenate([1j * np.ones(n), -1j * np.ones(n)])


def _koszul_lowered(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``K[A,B,C] = g(grad^{LC}_{e_A} e_B, e_C)`` for invariant fields, on a
    stack of metrics ``g[..., A, B]``."""
    gb = np.einsum("abe,...ec->...abc", f, g)
    # gb[..., b, c, a] and gb[..., c, a, b] reordered to [..., a, b, c]
    return 0.5 * (gb - gb.swapaxes(-1, -2).swapaxes(-2, -3)
                  + gb.swapaxes(-3, -2).swapaxes(-2, -1))


def d_omega(f: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """Exterior derivative of the invariant 2-form ``omega(X, Y) = g(JX, Y)``,
    on a stack of metrics ``g[..., A, B]``."""
    jd = _j_diagonal(n)
    w = jd[:, None] * g
    wb = np.einsum("abe,...ec->...abc", f, w)
    return -wb + wb.swapaxes(-1, -2) - wb.swapaxes(-1, -2).swapaxes(-2, -3)


def _direct_lowered_curvature(gamma: np.ndarray, f: np.ndarray, g: np.ndarray,
                              A: slice = slice(None), B: slice = slice(None),
                              C: slice = slice(None), D: slice = slice(None)
                              ) -> np.ndarray:
    """``g(R(e_A, e_B) e_C, e_D)`` with ``R(X,Y) = [grad_X, grad_Y] - grad_[X,Y]``,
    restricted to the frame blocks ``A, B, C, D`` (the whole frame by
    default), for one connection or a stack ``gamma[..., A, B, C]``."""
    action = (np.einsum("...bce,...aef->...abcf", gamma[..., B, C, :], gamma[..., A, :, :])
              - np.einsum("...ace,...bef->...abcf", gamma[..., A, C, :], gamma[..., B, :, :])
              - np.einsum("abe,...ecf->...abcf", f[A, B], gamma[..., C, :]))
    return np.einsum("...abcf,...fd->...abcd", action, g[..., D])


def connection_gamma_alone(kind: ConnectionKind, bracket: BracketTable,
                           g: np.ndarray) -> np.ndarray:
    """One metric's ``gamma[A, B, C]`` through the einsums of the per-metric
    ``connection``."""
    n, f = bracket.n, bracket.f
    lowered = _koszul_lowered(f, g)
    if kind is not ConnectionKind.LEVI_CIVITA:
        dw = d_omega(f, g, n)
        jd = _j_diagonal(n)
        if kind is ConnectionKind.BISMUT:
            lowered = lowered + 0.5 * np.einsum("a,b,c,abc->abc", jd, jd, jd, dw)
        else:
            lowered = lowered - 0.5 * np.einsum("a,abc->abc", jd, dw)
    return np.einsum("abd,dc->abc", lowered, np.linalg.inv(g))


def curvature_alone(kind: ConnectionKind, bracket: BracketTable, g: np.ndarray
                    ) -> CurvatureTensor:
    """One metric's curvature through the einsums of ``_direct_lowered_curvature``."""
    gamma = connection_gamma_alone(kind, bracket, g)
    return CurvatureTensor(n=bracket.n, connection=kind.value,
                           data=CURVATURE_COMPONENT_SIGN
                           * _direct_lowered_curvature(gamma, bracket.f, g))


# ---------------------------------------------------------------------------
# torsion and the einsum flow tangent
# ---------------------------------------------------------------------------


def torsion_components(conn: ConnectionCoefficients, bracket: BracketTable
                       ) -> np.ndarray:
    """Raised torsion ``T[A, B, C]`` with ``T(e_A, e_B) = T[A,B,C] e_C``."""
    gamma = conn.gamma
    return gamma - np.einsum("abc->bac", gamma) - bracket.f


@dataclass(frozen=True)
class TorsionData:
    """Chern torsion: full raised tensor plus its holomorphic blocks."""

    n: int
    raised: np.ndarray          # (2n, 2n, 2n)
    hol: np.ndarray             # T^k_{ij}: [i, j, k], all holomorphic
    lowered_hol: np.ndarray     # T_{i j k~}: [i, j, k]


def chern_torsion(conn: ConnectionCoefficients, bracket: BracketTable) -> TorsionData:
    if conn.kind is not ConnectionKind.CHERN:
        raise ValueError("chern_torsion expects a Chern connection")
    n = conn.n
    raised = torsion_components(conn, bracket)
    hol = raised[:n, :n, :n]
    G = conn.g[:n, n:]
    lowered_hol = np.einsum("ijm,mk->ijk", hol, G)
    return TorsionData(n=n, raised=raised, hol=hol, lowered_hol=lowered_hol)


def second_ricci_trace(Ginv: np.ndarray, mixed_direct: np.ndarray) -> np.ndarray:
    return np.einsum("lk,klij->ij", Ginv, mixed_direct)


def stacked_second_ricci_trace(Ginv: np.ndarray, mixed_direct: np.ndarray) -> np.ndarray:
    """``S[i, j] = g^{k l~} Omega[k, l~, i, j~]`` traced over the curvature
    plane, for (..., n, n) stacks of ``Ginv`` and (..., n, n, n, n) blocks:
    the matmul trace of the stacked tangent that formed the mixed block."""
    n = Ginv.shape[-1]
    w = Ginv.swapaxes(-1, -2).reshape(Ginv.shape[:-2] + (1, n * n))
    S = w @ mixed_direct.reshape(mixed_direct.shape[:-4] + (n * n, n * n))
    return S.reshape(S.shape[:-2] + (n, n))


def q_terms(Ginv: np.ndarray, t_low: np.ndarray):
    tc = np.conj(t_low)
    q1 = np.einsum("lk,nm,ikn,jlm->ij", Ginv, Ginv, t_low, tc)
    q2 = np.einsum("lk,nm,kmj,lni->ij", Ginv, Ginv, t_low, tc)
    q3 = np.einsum("lk,nm,ikl,jnm->ij", Ginv, Ginv, t_low, tc)
    q4 = 0.5 * (np.einsum("lk,nm,mkl,nji->ij", Ginv, Ginv, t_low, tc)
                + np.einsum("lk,nm,mij,nlk->ij", Ginv, Ginv, t_low, tc))
    return q1, q2, q3, q4


def hcf_tangent(eqs, m: MetricCoefficients, fc) -> np.ndarray:
    n, bracket = eqs.n, eqs.bracket
    g = frame_metric(m)
    conn = connection(ConnectionKind.CHERN, bracket, g)
    h = slice(0, n)
    a = slice(n, 2 * n)
    mixed_direct = _direct_lowered_curvature(conn.gamma, bracket.f, g, h, a, h, a)
    Ginv = np.linalg.inv(g[h, a])
    S = second_ricci_trace(Ginv, mixed_direct)
    tor = chern_torsion(conn, bracket)
    q1, q2, q3, q4 = q_terms(Ginv, tor.lowered_hol)
    K = -S + fc.a * q1 + fc.b * q2 + fc.c * q3 + fc.d * q4
    if not np.isfinite(K).all():
        raise MetricError("flow tangent overflowed")
    herm_defect = float(np.max(np.abs(K - K.conj().T)))
    if herm_defect > 1e-8 * (1.0 + float(np.max(np.abs(K)))):
        raise FlowDegenerationError(f"flow tangent lost Hermitian symmetry ({herm_defect:.2e})")
    return 0.5 * (K + K.conj().T)


# ---------------------------------------------------------------------------
# the one-flow-at-a-time Dormand-Prince integrator
# ---------------------------------------------------------------------------

def flow_interval(eqs, m, fc, dt, t_now, stats):
    """One record interval of the one-flow integrator, from ``t_now`` to
    ``t_now + dt``; ``stats`` carries the step and the counters from one
    interval to the next."""
    stats.t = t = t_now
    t_stop = t_now + dt
    h = stats.step

    def rate(x):
        stats.tangent_evals += 1
        mm = MetricCoefficients.from_array(x)
        return _coefficient_rates(hcf_tangent(eqs, mm, fc))

    x = m.as_array()
    k = np.empty((7, x.size))
    k[0] = rate(x)
    while t < t_stop:
        landing = t + h >= t_stop
        h_try = t_stop - t if landing else h
        try:
            for i in range(1, 7):
                x_new = x + h_try * (_DP_A[i, :i] @ k[:i])
                k[i] = rate(x_new)
        except (MetricError, FlowDegenerationError):
            stats.rejected += 1
            h = 0.2 * h_try
        else:
            scale = FLOW_ATOL + FLOW_RTOL * np.maximum(np.abs(x), np.abs(x_new))
            err = float(np.sqrt(np.mean((h_try * (_DP_E @ k) / scale) ** 2)))
            grow = 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            if err <= 1.0:
                stats.accepted += 1
                stats.min_step = min(stats.min_step, h_try)
                x = x_new
                k[0] = k[6]
                h = max(h, h_try * grow) if landing else h_try * grow
                t = t_stop if landing else t + h_try
                stats.t = t
            else:
                stats.rejected += 1
                h = h_try * grow
        if h < FLOW_MIN_STEP:
            raise FlowDegenerationError(f"flow left admissible cone at t={t:.6g}")
    stats.step = h
    return MetricCoefficients.from_array(x)


def integrate_invariant_flow(eqs, m0, fc, t_end, dt=1e-3,
                             checkpoints=1) -> InvariantFlowResult:
    stats = FlowStepStats(step=dt)
    times = [0.0]
    metrics = [m0]
    exit_time = None
    for j in range(1, checkpoints + 1):
        t_next = t_end * j / checkpoints
        try:
            m = flow_interval(eqs, metrics[-1], fc, t_next - times[-1], times[-1], stats)
        except FlowDegenerationError:
            exit_time = stats.t
            break
        times.append(t_next)
        metrics.append(m)
    degenerated = exit_time is not None
    return InvariantFlowResult(
        times=np.array(times), metrics=metrics, degenerated=degenerated,
        exit_time=exit_time,
        termination=(Termination.LEFT_ADMISSIBLE_CONE if degenerated
                     else Termination.REACHED_T_END),
        accepted=stats.accepted, rejected=stats.rejected,
        min_step=stats.min_step, tangent_evals=stats.tangent_evals)


def case_flows(case_key: str, extra_flows: int, seed: int):
    """The structure equations, start metric, flows and rng of a
    ``flow_preservation_check`` run, drawn in its order."""
    case = CASE_INDEX[case_key]
    eqs = instantiate(case.family, **case.params)
    rng = np.random.default_rng(seed)
    m0 = MetricCoefficients.from_array(_sample_slice(rng, case.sign_slice))
    flows = list(NAMED_FLOWS.values())
    for k in range(extra_flows):
        a, b, c, d = rng.uniform(-1.0, 1.0, size=4)
        flows.append(FlowCoefficients(a, b, c, d, name=f"random-{k}"))
    return eqs, m0, flows, rng


def flow_preservation_check(case_key: str, extra_flows: int = 5,
                            t_end: float = 0.5, dt: float = 2e-3, seed: int = 0,
                            starts: int = 24, checkpoints: int = 2):
    """The per-flow check: each flow integrated alone with the einsum
    tangent, each checkpoint classified alone.  Returns the report and the
    flow results."""
    case = CASE_INDEX[case_key]
    eqs, m0, flows, rng = case_flows(case_key, extra_flows, seed)
    zero_names = [name for name, val in (case.sign_slice or {}).items()
                  if name in ("u", "v", "z") and val == 0]
    slice_drift = 0.0
    flat_drift = 0.0 if case.expected_verdict == "flat" else None
    verdicts: dict = {}
    degenerated: list[str] = []
    results = []
    for fc in flows:
        label = fc.name or "anon"
        result = integrate_invariant_flow(eqs, m0, fc, t_end=t_end, dt=dt,
                                          checkpoints=checkpoints)
        results.append(result)
        if result.degenerated:
            degenerated.append(label)
        track = []
        for m in result.metrics:
            for name in zero_names:
                slice_drift = max(slice_drift, abs(getattr(m, name)))
            omega = bismut_curvature(eqs, m.as_array()[None])[0]
            if flat_drift is not None:
                flat_drift = max(flat_drift, omega.magnitude)
                track.append("flat")
            else:
                res = classify(omega, starts=starts,
                               seed=int(rng.integers(0, 2 ** 31)))
                track.append(res.verdict.value)
        verdicts[label] = track
    report = FlowPreservationReport(key=case_key,
                                    flows=[fc.name or "anon" for fc in flows],
                                    slice_drift=slice_drift, verdicts=verdicts,
                                    flat_drift=flat_drift, degenerated=degenerated)
    return report, results


# ---------------------------------------------------------------------------
# the per-metric pure-type scan and the per-sample classify_case
# ---------------------------------------------------------------------------

def bismut_curvature_alone(eqs, m: MetricCoefficients, bracket: BracketTable
                           ) -> CurvatureTensor:
    """One metric's Bismut curvature through the unstacked einsums of the
    per-metric ``connection`` and ``curvature``."""
    return curvature_alone(ConnectionKind.BISMUT, bracket, frame_metric(m))


def check_cplx_alone(omega: CurvatureTensor) -> CplxReport:
    """The pure-type check of one tensor, block by block.  The witness is the
    first component, the blocks in order and each in C order, whose modulus
    lies within 1e-12 relative of the largest violation."""
    n = omega.n
    data = omega.data
    h, a, full = slice(0, n), slice(n, 2 * n), slice(0, 2 * n)
    blocks = [(h, h, full, full), (a, a, full, full), (full, full, h, h), (full, full, a, a)]
    max_violation = max(float(np.abs(data[blk]).max()) for blk in blocks)
    witness = None
    for blk in blocks:
        near = np.argwhere(np.abs(data[blk]) >= (1 - 1e-12) * max_violation)
        if len(near):
            witness = tuple(frame_label(s.start + int(i), n)
                            for s, i in zip(blk, near[0]))
            break
    tol = zero_threshold(omega.magnitude)
    satisfied = max_violation <= tol
    return CplxReport(satisfied=satisfied, max_violation=max_violation,
                      witness=None if satisfied else witness, tolerance=tol)


def classify_case(case, samples: int, rng: np.random.Generator,
                  sign_samples: int = 8, starts: int = 64) -> ClassificationRow:
    """One classification row, metric by metric and sample by sample."""
    eqs = instantiate(case.family, **case.params)
    bracket = dualize(eqs)
    detail: dict = {}

    def cplx_ok(m):
        omega = bismut_curvature_alone(eqs, m, bracket)
        return check_cplx_alone(omega).satisfied, omega

    witnesses: list[WitnessResult] = []
    random_pass = 0
    for _ in range(samples):
        ok, _ = cplx_ok(sample_admissible_metric(rng))
        random_pass += int(ok)
    detail["random_pass"] = random_pass
    detail["random_total"] = samples
    n_aux = max(10, samples // 10)
    if case.cplx == "always":
        observed = "always" if random_pass == samples else "violated"
    elif case.cplx == "slice":
        slice_pass = 0
        for _ in range(n_aux):
            ok, _ = cplx_ok(MetricCoefficients.from_array(_sample_slice(rng, case.cplx_slice)))
            slice_pass += int(ok)
        off_fail = 0
        for _ in range(n_aux):
            ok, _ = cplx_ok(MetricCoefficients.from_array(
                _sample_off_slice(rng, case.cplx_slice)))
            off_fail += int(not ok)
        detail["slice_pass"] = slice_pass
        detail["slice_total"] = n_aux
        detail["off_slice_fail"] = off_fail
        if slice_pass == n_aux and off_fail == n_aux and random_pass == 0:
            observed = "slice"
        else:
            observed = "inconsistent"
    else:
        slice_fail = True
        for slice_spec in case.never_slices:
            for _ in range(n_aux):
                m = MetricCoefficients.from_array(_sample_slice(rng, slice_spec))
                ok, omega = cplx_ok(m)
                if ok:
                    slice_fail = False
                witnesses.extend(_witnesses(case, m, omega))
        observed = "never" if (random_pass == 0 and slice_fail) else "inconsistent"
    verdict = None
    if case.expected_verdict is not None:
        verdicts = set()
        for _ in range(sign_samples):
            m = MetricCoefficients.from_array(_sample_slice(rng, case.sign_slice))
            omega = bismut_curvature_alone(eqs, m, bracket)
            result = classify(omega, starts=starts, seed=int(rng.integers(0, 2 ** 31)))
            verdicts.add(result.verdict.value)
            witnesses.extend(_witnesses(case, m, omega))
        verdict = verdicts.pop() if len(verdicts) == 1 else "mixed:" + ",".join(sorted(verdicts))
    dedup: dict[str, WitnessResult] = {}
    for w in witnesses:
        if w.name not in dedup or not w.ok:
            dedup[w.name] = w
    return ClassificationRow(key=case.key, family=case.family, params=case.params,
                             cplx_observed=observed, cplx_detail=detail,
                             verdict_observed=verdict,
                             witnesses=list(dedup.values()), note=case.note)


def regenerate_table3(samples_per_family: int, seed: int) -> Table3Result:
    rng = np.random.default_rng(seed)
    rows = [classify_case(case, samples_per_family, rng) for case in CASES]
    return Table3Result(rows=rows, samples=samples_per_family, seed=seed)


# ---------------------------------------------------------------------------
# the per-start draw of classify's random starts
# ---------------------------------------------------------------------------

def random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_starts(seed: int, starts: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xi, nu) start stacks drawn one unit vector at a time."""
    rng = np.random.default_rng(seed)
    pairs = [(random_unit(rng, n), random_unit(rng, n)) for _ in range(starts)]
    xi, nu = (np.array(v) for v in zip(*pairs))
    return xi, nu


# ---------------------------------------------------------------------------
# test-only helpers
# ---------------------------------------------------------------------------

def conjugation_symmetry_residual(table: BracketTable) -> float:
    """Max deviation from ``[conj a, conj b] = conj([a, b])``."""
    n = table.n
    f = table.f
    swap = np.concatenate([np.arange(n, 2 * n), np.arange(0, n)])
    swapped = np.conj(f[np.ix_(swap, swap, swap)])
    return float(np.max(np.abs(f - swapped)))


def invariant_d(form: np.ndarray, bracket: BracketTable) -> np.ndarray:
    """Exterior derivative of an invariant k-form given as an antisymmetric
    array over the frame: ``d eta(X_0..X_k) = sum_{i<j} (-1)^{i+j}
    eta([X_i, X_j], X_0.. omit i, j ..X_k)``.
    """
    k = form.ndim
    dim = form.shape[0]
    f = bracket.f
    out = np.zeros((dim,) * (k + 1), dtype=complex)
    for idx in np.ndindex(*out.shape):
        total = 0.0 + 0.0j
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                rest = tuple(idx[m] for m in range(k + 1) if m != i and m != j)
                bracket_vec = f[idx[i], idx[j], :]
                total += ((-1) ** (i + j)) * np.dot(bracket_vec,
                                                    form[(slice(None),) + rest])
        out[idx] = total
    return out


def _type_projection(form: np.ndarray, n: int, anti_count: int) -> np.ndarray:
    """Zero every component whose number of antiholomorphic slots differs
    from ``anti_count``."""
    out = np.zeros_like(form)
    for idx in np.ndindex(*form.shape):
        if sum(1 for x in idx if x >= n) == anti_count:
            out[idx] = form[idx]
    return out


def bismut_chern_comparison_defect(eqs, m: MetricCoefficients) -> float:
    """Residual of the pluriclosed comparison identity

        B[i, j~, k, l~] = Ch[k, l~, i, j~] - g^{p q~} T_{i p l~} conj(T_{j q k~})

    between the direct-convention Bismut and Chern curvatures.  Vanishes (to
    round-off) exactly on pluriclosed metrics; the returned defect is the max
    component of the difference.
    """
    n = eqs.n
    bracket = dualize(eqs)
    g = frame_metric(m)
    cb = connection(ConnectionKind.BISMUT, bracket, g)
    cc = connection(ConnectionKind.CHERN, bracket, g)
    h = slice(0, n)
    a = slice(n, 2 * n)
    db = _direct_lowered_curvature(cb.gamma, bracket.f, g, h, a, h, a)
    dc = _direct_lowered_curvature(cc.gamma, bracket.f, g, h, a, h, a)
    tor = chern_torsion(cc, bracket)
    Ginv = np.linalg.inv(m.hermitian_matrix())
    tt = np.einsum("qp,ipl,jqk->ijkl", Ginv, tor.lowered_hol,
                   np.conj(tor.lowered_hol))
    return float(np.max(np.abs(db - (np.einsum("klij->ijkl", dc) - tt))))


def pluriclosed_residual(eqs, m: MetricCoefficients) -> float:
    """Max component of the (2,2)-part of d of the (1,2)-part of d omega.

    Zero (to tolerance) exactly when the metric is pluriclosed.
    """
    n = eqs.n
    bracket = dualize(eqs)
    g = frame_metric(m)
    w = _j_diagonal(n)[:, None] * g
    dw = invariant_d(w, bracket)
    dbar_w = _type_projection(dw, n, anti_count=2)
    ddbar = invariant_d(dbar_w, bracket)
    return float(np.max(np.abs(_type_projection(ddbar, n, anti_count=2))))


def chern_curvature_lowered(h: hopf.HopfMetric, z: np.ndarray) -> np.ndarray:
    """``Omega^{Ch}[i, j, k, l]`` of the Hopf family with the endomorphism
    index lowered."""
    data = hopf.chern_data_at(h, z)
    G = hopf.metric_at(h, z)
    return np.einsum("ijkm,ml->ijkl", data.curvature, G)


def inverse_metric_at(h: hopf.HopfMetric, z: np.ndarray) -> np.ndarray:
    """Matrix inverse of ``hopf.metric_at``; as a tensor ``g^{i j~} = Ginv[j, i]``."""
    z = hopf._check_point(h, z)
    n2 = float(np.vdot(z, z).real)
    zb = np.conj(z)
    coef = h.beta / (h.alpha + h.beta)
    return (n2 / h.alpha) * (np.eye(h.n) - coef * np.outer(zb, z) / n2)


def fd_chern_christoffels(field: PointMetricField,
                          z: np.ndarray,
                          h: float | None = None,
                          richardson: bool = False) -> np.ndarray:
    """Chern Christoffels ``gamma[i, j, k] = g^{k s~} d_i g_{j s~}`` from the
    metric evaluator alone, by the oracle's Wirtinger differences."""
    n = field.n
    z = _check_point(n, z)
    if h is None:
        scale = RICHARDSON_STEP_SCALE if richardson else DEFAULT_STEP_SCALE
        h = scale * max(1.0, float(np.linalg.norm(z)))
    dG = np.stack([
        wirtinger_derivative(field.metric, z, i, n, h, richardson=richardson)
        for i in range(n)
    ])  # dG[i, j, s] = d_i g_{j s~}
    Ginv = np.linalg.inv(np.asarray(field.metric(z), dtype=complex))
    # g^{k s~} = Ginv[s, k]
    return np.einsum("ijs,sk->ijk", dG, Ginv)


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = float(np.max(np.abs(want)))
    diff = float(np.max(np.abs(np.asarray(got) - want)))
    return diff / scale if scale > 0 else diff

