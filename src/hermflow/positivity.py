"""Sign classification of a (1,1)x(1,1) curvature tensor.

The object classified is the real biquadratic ``q(xi, nu) =
Omega[i, j, k, l] xi_i conj(xi_j) nu_k conj(nu_l)`` over pairs of unit
vectors.  Freezing one argument leaves a Hermitian eigenvalue problem, so
the extremes are located by alternating exact eigen-minimization (resp.
maximization) from many random starts and from the extreme eigenvectors
of the form's two Hermitian matrices; witnesses are returned and
re-certified by direct evaluation.  ``sign_verdicts`` gives the same
verdicts, and skips the search for a tensor whose start values already
straddle the tolerance by more than the search could undo, or whose
spectral bound already certifies the sign its start values show.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .invariant import check_cplx
from .tensors import CurvatureTensor, label_name

#: verdict tolerance as a fraction of the tensor magnitude
VERDICT_RTOL = 1e-7
DEFAULT_STARTS = 64
MAX_ALTERNATIONS = 500


class Verdict(enum.Enum):
    FLAT = "flat"
    NON_NEGATIVE = "non_negative"
    NON_POSITIVE = "non_positive"
    INDEFINITE = "indefinite"
    INDETERMINATE = "indeterminate"

    @property
    def is_nonnegative(self) -> bool:
        """Flat curvature counts as (trivially) non-negative."""
        return self in (Verdict.FLAT, Verdict.NON_NEGATIVE)

    @property
    def is_nonpositive(self) -> bool:
        return self in (Verdict.FLAT, Verdict.NON_POSITIVE)


class CplxViolationError(ValueError):
    def __init__(self, report):
        self.report = report
        super().__init__(
            f"curvature does not satisfy the pure-type vanishing condition "
            f"(violation {report.max_violation:.3e} at "
            f"({', '.join(map(label_name, report.witness))}))")


@dataclass(frozen=True)
class SignClassification:
    verdict: Verdict
    min_value: float
    max_value: float
    min_witness: tuple[np.ndarray, np.ndarray]
    max_witness: tuple[np.ndarray, np.ndarray]
    tolerance: float
    magnitude: float
    stationary: bool


def biquadratic(block: np.ndarray, xi: np.ndarray, nu: np.ndarray) -> float:
    return float(_values(np.asarray(block), np.asarray(xi)[None], np.asarray(nu)[None])[0])


def _values(block: np.ndarray, xi: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """The biquadratic of the (n, n, n, n) ``block`` at each row of the
    (R, n) stacks ``xi`` and ``nu``, summed over a contiguous copy of the
    block per row.  ``max|block|`` scales the realness test, as the rounding
    of the sum does."""
    rows = np.repeat(block[None], len(xi), axis=0)
    val = np.einsum("sijkl,si,sj,sk,sl->s", rows, xi, np.conj(xi), nu, np.conj(nu))
    if np.any(np.abs(val.imag) > 1e-9 * (1.0 + np.abs(val) + np.max(np.abs(block)))):
        raise AssertionError(f"biquadratic value is not real: {val!r}")
    return val.real


def _partial_matrix(blocks: np.ndarray, vecs: np.ndarray, frozen: str,
                    size: float) -> np.ndarray:
    """Hermitian matrices left after freezing one argument of the biquadratic
    of ``blocks[s]`` at row ``s`` of the (S, n) stack ``vecs``; returns an
    (S, n, n) stack.  ``size = max|blocks|`` scales the Hermitian defect
    test.

    The free slot pairs as ``sum_ij x_i A[i, j] conj(x_j)``, which is the
    standard Hermitian form of ``A`` transposed; the transpose is applied
    here so callers can feed the result straight to an eigensolver.
    """
    if frozen == "nu":
        A = np.einsum("sijkl,sk,sl->sij", blocks, vecs, np.conj(vecs))
    else:
        A = np.einsum("sijkl,si,sj->skl", blocks, vecs, np.conj(vecs))
    AH = A.conj().swapaxes(-1, -2)
    defect = np.max(np.abs(A - AH), axis=(-2, -1))
    bad = defect > 1e-10 * (1.0 + np.max(np.abs(A), axis=(-2, -1)) + size)
    if np.any(bad):
        raise AssertionError(
            f"partial matrix not Hermitian (defect {np.max(defect[bad]):.2e})")
    return (0.5 * (A + AH)).swapaxes(-1, -2)


def _random_starts(seed: int, starts: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``starts`` random unit start pairs as two (starts, n) stacks (xi, nu),
    drawn per start as re xi, im xi, re nu, im nu, and normalized as
    ``np.linalg.norm`` does, by dot products of the strided parts."""
    draws = np.random.default_rng(seed).normal(size=(starts, 2, 2, n))
    v = draws[:, :, 0] + 1j * draws[:, :, 1]
    re, im = v.real[..., None, :], v.imag[..., None, :]
    units = v / np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0]
    return units[:, 0], units[:, 1]


def _spectral_starts(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Four start pairs (xi, nu) per block, read off the extreme eigenvectors
    of the two Hermitian matrices of its biquadratic: rows 0, 1 from the
    bottom eigenvectors of ``M`` and ``M^G``, rows 2, 3 from their top ones;
    and the bounds ``(max(lambda_min(M), lambda_min(M^G)), min(lambda_max(M),
    lambda_max(M^G)))`` that ``q`` keeps at every pair of unit vectors, as
    ``w`` is then a unit vector (the partial transpose bound of Peres, PRL
    77, 1996).  ``blocks`` is one (n, n, n, n) block, giving (4, n) stacks
    and (2,) bounds, or a (T, n, n, n, n) stack of them, giving (T, 4, n)
    stacks and (T, 2) bounds.

    ``M[(i,k),(j,l)] = block[i,j,k,l]`` has ``q = w^H M w`` at ``w =
    conj(xi (x) nu)``, and the partial transpose ``M^G[(i,l),(j,k)] =
    block[i,j,k,l]`` has it at ``w = conj(xi) (x) nu``.  An extreme
    eigenvector reshaped to an n x n matrix ``W`` is rounded to a product
    vector through its leading singular pair: ``conj(W) ~ xi nu^T`` for
    ``M`` and ``W ~ conj(xi) nu^T`` for ``M^G``.
    """
    n, lead = blocks.shape[-1], blocks.shape[:-4]
    blocks = blocks.reshape((-1,) + (n,) * 4)
    mats = np.stack([blocks.transpose(0, 1, 3, 2, 4).reshape(-1, n * n, n * n),
                     blocks.transpose(0, 1, 4, 2, 3).reshape(-1, n * n, n * n)], axis=1)
    vals, vecs = np.linalg.eigh(0.5 * (mats + mats.conj().swapaxes(-1, -2)))
    bounds = np.stack([vals[:, :, 0].max(axis=1), vals[:, :, -1].min(axis=1)], axis=1)
    # rows: M bottom, M^G bottom, M top, M^G top
    W = vecs[:, [0, 1, 0, 1], :, [0, 0, -1, -1]].swapaxes(0, 1).reshape(-1, 4, n, n)
    W[:, 0::2] = W[:, 0::2].conj()
    u, _, vh = np.linalg.svd(W)
    xi = u[..., 0]
    xi[:, 1::2] = xi[:, 1::2].conj()
    return (xi.reshape(lead + (4, n)), vh[..., 0, :].reshape(lead + (4, n)),
            bounds.reshape(lead + (2,)))


def _alternate(block: np.ndarray, xi: np.ndarray, nu: np.ndarray, minimize: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Alternating eigen-iteration on the (n, n, n, n) ``block`` from every
    row of the (R, n) start stacks ``xi``, ``nu`` at once; it minimizes
    where ``minimize[r]`` is set and maximizes otherwise.  Each half step is
    an exact optimum, so every row's objective is monotone.  A row retires
    once its value is stationary.  Returns per-row (value, xi, nu,
    stationary).

    Every row sums over its own contiguous copy of the block, as
    ``_values`` does; the copies are made once, and the active rows take
    the leading ones."""
    pick = np.where(minimize, 0, -1)
    # eigh and the sums round at the scale of the block, so every check's
    # slack does too
    size = np.max(np.abs(block))
    rows = np.repeat(block[None], len(xi), axis=0)
    value = _values(block, xi, nu)
    xi, nu = xi.copy(), nu.copy()
    stationary = np.zeros(len(value), dtype=bool)
    active = np.arange(len(value))
    for _ in range(MAX_ALTERNATIONS):
        mine, at, cols = rows[:len(active)], np.arange(len(active)), pick[active]
        _, vecs = np.linalg.eigh(_partial_matrix(mine, nu[active], "nu", size))
        new_xi = vecs[at, :, cols]
        vals, vecs = np.linalg.eigh(_partial_matrix(mine, new_xi, "xi", size))
        new_nu, new_value = vecs[at, :, cols], vals[at, cols]
        old = value[active]
        slack = 1e-12 * (1.0 + np.abs(old) + size)
        mins = minimize[active]
        if np.any(mins & (new_value > old + slack)):
            raise AssertionError("alternating minimization increased the objective")
        if np.any(~mins & (new_value < old - slack)):
            raise AssertionError("alternating maximization decreased the objective")
        xi[active], nu[active], value[active] = new_xi, new_nu, new_value
        done = np.abs(new_value - old) <= 1e-13 * (1.0 + np.abs(new_value))
        stationary[active[done]] = True
        active = active[~done]
        if not active.size:
            break
    return value, xi, nu, stationary


def _block_stack(omega: CurvatureTensor | np.ndarray, starts: int,
                 seed: int | Sequence[int]
                 ) -> tuple[np.ndarray, list, bool, np.ndarray, np.ndarray]:
    """``omega``'s mixed blocks as a (T, n, n, n, n) stack, with its T seeds,
    whether ``omega`` was a single tensor, the blocks' magnitudes and the
    indices of the blocks that are not FLAT; refuses a full-frame tensor
    whose pure-type components do not vanish, and malformed arguments."""
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    if isinstance(omega, CurvatureTensor):
        reports = check_cplx(omega)
        for report in reports if isinstance(reports, list) else [reports]:
            if not report.satisfied:
                raise CplxViolationError(report)
        blocks = omega.mixed_block()
    elif isinstance(omega, np.ndarray):
        blocks = omega.astype(complex, copy=False)
    else:
        raise TypeError(f"classify takes a CurvatureTensor or an array, not {type(omega)}")
    single = blocks.ndim == 4
    if single:
        blocks, seed = blocks[None], [seed]
    if blocks.ndim != 5 or len(set(blocks.shape[1:])) != 1:
        raise ValueError("mixed block must be an (n, n, n, n) array or a stack of them")
    if len(seed) != len(blocks):
        raise ValueError(f"{len(blocks)} tensors need as many seeds, got {len(seed)}")
    magnitudes = np.abs(blocks).max(axis=(1, 2, 3, 4))
    return blocks, list(seed), single, magnitudes, np.flatnonzero(~(magnitudes <= VERDICT_RTOL))


def _start_rows(blocks: np.ndarray, seeds: list, starts: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The start rows of the (T, n, n, n, n) stack ``blocks``, as (T·R, n)
    stacks (xi, nu) of R rows per tensor, the (R,) mask of the rows that
    minimize, and the (T, 2) spectral bounds of ``_spectral_starts``.  Per
    tensor, rows [0, S) minimize and [S, 2S) maximize from its seed's
    ``starts`` random pairs; its four spectral rows follow, two minimizing,
    then two maximizing."""
    n = blocks.shape[-1]
    minimize = np.concatenate([np.arange(2 * starts) < starts, [True, True, False, False]])
    xi0, nu0 = zip(*(_random_starts(s, starts, n) for s in seeds))
    xi_s, nu_s, bounds = _spectral_starts(blocks)
    return (np.concatenate([np.concatenate([xi, xi, s]) for xi, s in zip(xi0, xi_s)]),
            np.concatenate([np.concatenate([nu, nu, s]) for nu, s in zip(nu0, nu_s)]),
            minimize, bounds)


def _verdict(best_min: float, best_max: float, tol: float, stationary: bool) -> Verdict:
    """The sign of a nonzero tensor whose biquadratic reaches ``best_min``
    and ``best_max``; ``stationary`` says both are local extremes."""
    if best_min < -tol and best_max > tol:
        return Verdict.INDEFINITE
    if not stationary:
        return Verdict.INDETERMINATE
    if best_min >= -tol and best_max > tol:
        return Verdict.NON_NEGATIVE
    if best_max <= tol and best_min < -tol:
        return Verdict.NON_POSITIVE
    # nonzero tensor whose bisectional diagonal vanishes identically
    return Verdict.INDETERMINATE


def classify(omega: CurvatureTensor | np.ndarray, starts: int = DEFAULT_STARTS,
             seed: int = 0) -> SignClassification:
    """Classify the sign of the bisectional biquadratic of a curvature tensor.

    ``omega`` is either a full-frame :class:`CurvatureTensor` (its pure-type
    components are then required to vanish; otherwise the call refuses) or a
    raw mixed block of shape (n, n, n, n).  The minimum and the maximum are
    searched from the same ``starts`` random start pairs, and from two
    spectral start pairs each (``_spectral_starts``), all in one batch.  A
    stack of tensors is refused: ``sign_verdicts`` takes it.
    """
    data = omega.data if isinstance(omega, CurvatureTensor) else omega
    if isinstance(data, np.ndarray) and data.ndim == 5:
        raise ValueError("classify takes one tensor; sign_verdicts takes a stack")
    blocks, seeds, _, magnitudes, live = _block_stack(omega, starts, seed)
    block, magnitude = blocks[0], float(magnitudes[0])
    tol = VERDICT_RTOL * magnitude
    if not live.size:
        zero = np.zeros(len(block), dtype=complex)
        return SignClassification(Verdict.FLAT, 0.0, 0.0, (zero, zero), (zero, zero),
                                  tol, magnitude, True)
    xi0, nu0, minimize, _ = _start_rows(blocks, seeds, starts)
    vals, xi, nu, ok = _alternate(block, xi0, nu0, minimize)
    min_rows, max_rows = np.flatnonzero(minimize), np.flatnonzero(~minimize)
    # first best wins, as argmin/argmax return the first extreme, so a tie
    # goes to a random start
    i_min = int(min_rows[np.argmin(vals[min_rows])])
    i_max = int(max_rows[np.argmax(vals[max_rows])])
    best_min, min_wit = float(vals[i_min]), (xi[i_min], nu[i_min])
    best_max, max_wit = float(vals[i_max]), (xi[i_max], nu[i_max])
    stationary = bool(np.all(ok))
    # certify the extremes at the returned witnesses
    for val, wit in ((best_min, min_wit), (best_max, max_wit)):
        recheck = biquadratic(block, *wit)
        if abs(recheck - val) > 1e-10 * (1.0 + abs(val) + magnitude):
            raise AssertionError("witness does not reproduce its extreme value")
    return SignClassification(_verdict(best_min, best_max, tol, stationary), best_min,
                              best_max, min_wit, max_wit, tol, magnitude, stationary)


def sign_verdicts(omega: CurvatureTensor | np.ndarray, starts: int = DEFAULT_STARTS,
                  seed: int | Sequence[int] = 0):
    """The verdict of ``classify(omega, starts, seed)``, without refining
    the extremes of a tensor whose start values already fix it; a stacked
    tensor, or a (T, n, n, n, n) stack of blocks, with a sequence of T seeds
    gives the list of the verdicts of its tensors, each with its own seed.

    Takes, and refuses, what ``classify`` does, and builds the same start
    rows.  Each half step of the alternation is an exact eigen-optimum, and
    ``_alternate`` lets a row move against its direction by at most its
    monotonicity slack ``1e-12 (1 + |value| + max|block|)`` per step, over
    at most ``MAX_ALTERNATIONS`` steps; as ``|q| <= n^2 max|block|`` at unit
    vectors, a row ends within ``margin = MAX_ALTERNATIONS 1e-12 (1 + (n^2
    + 1) max|block|)`` of where it starts, or better.  No row ends beyond
    the spectral bounds of ``_spectral_starts``, which hold at every pair of
    unit vectors.  So a tensor is decided here, and only the others go
    through ``classify``, when

    * its best minimizing start lies below ``-tol - margin`` and its best
      maximizing start above ``tol + margin``: INDEFINITE, as in
      ``classify``;
    * its lower bound clears ``-tol`` by ``margin`` and its best maximizing
      start lies above ``tol + margin``: NON_NEGATIVE, which ``classify``
      says too, or INDETERMINATE where a row does not settle;
    * the mirror case: NON_POSITIVE.
    """
    blocks, seed, single, magnitudes, live = _block_stack(omega, starts, seed)
    n = blocks.shape[-1]
    verdicts = [Verdict.FLAT] * len(blocks)
    if live.size:
        stack, size = blocks[live], magnitudes[live]
        xi, nu, minimize, bounds = _start_rows(stack, [seed[q] for q in live], starts)
        rows = (len(live), len(minimize), n)
        values = np.stack([_values(*row) for row in zip(stack, xi.reshape(rows),
                                                        nu.reshape(rows))])
        margin = MAX_ALTERNATIONS * 1e-12 * (1.0 + (n * n + 1) * size)
        tol = VERDICT_RTOL * size
        # the worst the search could make of the best starts, and whether the
        # spectral bounds settle the sign of the side the starts cannot
        best_min = values[:, minimize].min(axis=1) + margin
        best_max = values[:, ~minimize].max(axis=1) - margin
        certified = (bounds[:, 0] >= -tol + margin) | (bounds[:, 1] <= tol - margin)
        for w, q in enumerate(live.tolist()):
            verdicts[q] = _verdict(float(best_min[w]), float(best_max[w]), float(tol[w]),
                                   stationary=bool(certified[w]))
            if verdicts[q] is Verdict.INDETERMINATE:
                verdicts[q] = classify(blocks[q], starts, seed[q]).verdict
    return verdicts[0] if single else verdicts


def gamma_threshold(n: int) -> float:
    """Largest metric ratio keeping the Hopf family non-negative: 0 for
    surfaces, -1/2 from complex dimension three on."""
    if n < 2:
        raise ValueError(f"complex dimension must be >= 2, got {n}")
    return 0.0 if n == 2 else -0.5
