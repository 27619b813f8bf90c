"""Sign classification of a (1,1)x(1,1) curvature tensor.

The object classified is the real biquadratic ``q(xi, nu) =
Omega[i, j, k, l] xi_i conj(xi_j) nu_k conj(nu_l)`` over pairs of unit
vectors.  Freezing one argument leaves a Hermitian eigenvalue problem, so
the extremes are located by alternating exact eigen-minimization (resp.
maximization) from many random starts and from the extreme eigenvectors
of the form's two Hermitian matrices; witnesses are returned and
re-certified by direct evaluation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .invariant import check_cplx
from .tensors import CurvatureTensor

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
            f"(violation {report.max_violation:.3e} at {report.witness})")


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
    block, xi, nu = np.asarray(block), np.asarray(xi), np.asarray(nu)
    size = np.max(np.abs(block))
    return float(_biquadratic_rows(block[None], xi[None], nu[None], size)[0])


def _biquadratic_rows(blocks: np.ndarray, xi: np.ndarray, nu: np.ndarray,
                      size: np.ndarray | float) -> np.ndarray:
    """The biquadratic of ``blocks[s]`` at row ``s`` of the (S, n) stacks
    ``xi`` and ``nu``.  ``size[s] = max|blocks[s]|`` scales the realness
    test, as the rounding of the sum does."""
    val = np.einsum("sijkl,si,sj,sk,sl->s", blocks, xi, np.conj(xi), nu, np.conj(nu))
    if np.any(np.abs(val.imag) > 1e-9 * (1.0 + np.abs(val) + size)):
        raise AssertionError(f"biquadratic value is not real: {val!r}")
    return val.real


def _partial_matrix(blocks: np.ndarray, vecs: np.ndarray, frozen: str,
                    size: np.ndarray | float) -> np.ndarray:
    """Hermitian matrices left after freezing one argument of the biquadratic
    of ``blocks[s]`` at row ``s`` of the (S, n) stack ``vecs``; returns an
    (S, n, n) stack.  ``size[s] = max|blocks[s]|`` scales the Hermitian
    defect test.

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


def _spectral_starts(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Four start pairs (xi, nu) per block, read off the extreme eigenvectors
    of the two Hermitian matrices of its biquadratic: rows 0, 1 from the
    bottom eigenvectors of ``M`` and ``M^G``, rows 2, 3 from their top ones.
    ``blocks`` is one (n, n, n, n) block, giving (4, n) stacks, or a
    (T, n, n, n, n) stack of them, giving (T, 4, n) stacks.

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
    _, vecs = np.linalg.eigh(0.5 * (mats + mats.conj().swapaxes(-1, -2)))
    # rows: M bottom, M^G bottom, M top, M^G top
    W = vecs[:, [0, 1, 0, 1], :, [0, 0, -1, -1]].swapaxes(0, 1).reshape(-1, 4, n, n)
    W[:, 0::2] = W[:, 0::2].conj()
    u, _, vh = np.linalg.svd(W)
    xi = u[..., 0]
    xi[:, 1::2] = xi[:, 1::2].conj()
    return xi.reshape(lead + (4, n)), vh[..., 0, :].reshape(lead + (4, n))


#: rows of the eigen-iteration that share one gathered copy of their
#: blocks: a copy of every row's block would add its size (1.3 MB for a
#: table3 case) to the peak memory, while below about 512 rows the per-chunk
#: overhead starts to show
ROW_CHUNK = 512


def _alternate(blocks: np.ndarray, owner: np.ndarray, xi: np.ndarray,
               nu: np.ndarray, minimize: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Alternating eigen-iteration on every row of the (R, n) start stacks
    ``xi``, ``nu`` at once, row ``r`` on the block ``blocks[owner[r]]`` of
    the (T, n, n, n, n) stack ``blocks``; it minimizes where ``minimize[r]``
    is set and maximizes otherwise.  Each half step is an exact optimum, so
    every row's objective is monotone.  A row retires once its value is
    stationary.  Returns per-row (value, xi, nu, stationary).

    The rows are gathered ``ROW_CHUNK`` at a time, each chunk's block copy
    freed before the next is made; a row's arithmetic does not depend on
    the rows beside it."""
    pick = np.where(minimize, 0, -1)
    # eigh and the sums round at the scale of the block, so every check's
    # slack does too
    size = np.max(np.abs(blocks.reshape(len(blocks), -1)), axis=1)[owner]
    value = np.empty(len(owner))
    for at in range(0, len(owner), ROW_CHUNK):
        part = slice(at, at + ROW_CHUNK)
        value[part] = _biquadratic_rows(blocks[owner[part]], xi[part], nu[part], size[part])
    xi, nu = xi.copy(), nu.copy()
    stationary = np.zeros(len(value), dtype=bool)
    active = np.arange(len(value))
    for _ in range(MAX_ALTERNATIONS):
        new_xi, new_nu = np.empty_like(xi[active]), np.empty_like(nu[active])
        new_value = np.empty(len(active))
        for at in range(0, len(active), ROW_CHUNK):
            part, own = active[at:at + ROW_CHUNK], slice(at, at + ROW_CHUNK)
            rows, cols = np.arange(len(part)), pick[part]
            mine, scale = blocks[owner[part]], size[part]
            _, vecs = np.linalg.eigh(_partial_matrix(mine, nu[part], "nu", scale))
            new_xi[own] = vecs[rows, :, cols]
            vals, vecs = np.linalg.eigh(_partial_matrix(mine, new_xi[own], "xi", scale))
            new_nu[own], new_value[own] = vecs[rows, :, cols], vals[rows, cols]
            del mine
        old = value[active]
        slack = 1e-12 * (1.0 + np.abs(old) + size[active])
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


def _mixed_block(omega: CurvatureTensor | np.ndarray) -> np.ndarray:
    if isinstance(omega, CurvatureTensor):
        return omega.mixed_block()
    block = np.asarray(omega, dtype=complex)
    if block.ndim != 4 or len(set(block.shape)) != 1:
        raise ValueError("mixed block must be an (n, n, n, n) array")
    return block


def classify(omega: CurvatureTensor | np.ndarray | Sequence,
             starts: int = DEFAULT_STARTS,
             seed: int | Sequence[int] = 0,
             rtol: float = VERDICT_RTOL):
    """Classify the sign of the bisectional biquadratic of a curvature tensor.

    ``omega`` is either a full-frame :class:`CurvatureTensor` (its pure-type
    components are then required to vanish; otherwise the call refuses) or a
    raw mixed block of shape (n, n, n, n).  The minimum and the maximum are
    searched from the same ``starts`` random start pairs, and from two
    spectral start pairs each (``_spectral_starts``), all in one batch.

    A list or tuple of tensors of one n, with a sequence of as many seeds,
    gives the list of their classifications, each equal to classifying the
    tensor alone with its seed; the starts of all of them form one batch.
    """
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    if not isinstance(omega, (list, tuple)):
        return classify([omega], starts, [seed], rtol)[0]
    tensors = [o for o in omega if isinstance(o, CurvatureTensor)]
    for report in (check_cplx(tensors) if tensors else []):
        if not report.satisfied:
            raise CplxViolationError(report)
    blocks = [_mixed_block(o) for o in omega]
    if len(seed) != len(blocks):
        raise ValueError(f"{len(blocks)} tensors need as many seeds, got {len(seed)}")
    if len({b.shape[0] for b in blocks}) > 1:
        raise ValueError("a batch must hold tensors of one dimension n")
    # per tensor, rows [0, S) minimize and [S, 2S) maximize from the random
    # starts; the four spectral rows follow, two minimizing, then two maximizing
    minimize = np.concatenate([np.arange(2 * starts) < starts, [True, True, False, False]])
    results: list[SignClassification | None] = []
    live = []                   # (index, block, magnitude, xi0, nu0) per non-flat tensor
    for block, q_seed in zip(blocks, seed):
        n = block.shape[0]
        magnitude = float(np.max(np.abs(block)))
        if magnitude <= 0.0 or magnitude <= rtol:
            zero = np.zeros(n, dtype=complex)
            results.append(SignClassification(Verdict.FLAT, 0.0, 0.0, (zero, zero),
                                              (zero, zero), rtol * magnitude,
                                              magnitude, True))
            continue
        live.append((len(results), block, magnitude, *_random_starts(q_seed, starts, n)))
        results.append(None)
    if not live:
        return results
    stack = np.stack([block for _, block, *_ in live])
    xi_s, nu_s = _spectral_starts(stack)
    values, xis, nus, ok = _alternate(
        stack, np.repeat(np.arange(len(live)), len(minimize)),
        np.concatenate([np.concatenate([xi, xi, s]) for (*_, xi, _), s in zip(live, xi_s)]),
        np.concatenate([np.concatenate([nu, nu, s]) for (*_, nu), s in zip(live, nu_s)]),
        minimize=np.tile(minimize, len(live)))
    min_rows = np.flatnonzero(minimize)
    max_rows = np.flatnonzero(~minimize)
    for w, (q, block, magnitude, _, _) in enumerate(live):
        own = slice(w * len(minimize), (w + 1) * len(minimize))
        vals, xi, nu, tol = values[own], xis[own], nus[own], rtol * magnitude
        # first best wins, as argmin/argmax return the first extreme, so a
        # tie goes to a random start
        i_min = int(min_rows[np.argmin(vals[min_rows])])
        i_max = int(max_rows[np.argmax(vals[max_rows])])
        best_min, min_wit = float(vals[i_min]), (xi[i_min], nu[i_min])
        best_max, max_wit = float(vals[i_max]), (xi[i_max], nu[i_max])
        stationary = bool(np.all(ok[own]))
        # certify the extremes at the returned witnesses
        for val, wit in ((best_min, min_wit), (best_max, max_wit)):
            recheck = biquadratic(block, *wit)
            if abs(recheck - val) > 1e-10 * (1.0 + abs(val) + magnitude):
                raise AssertionError("witness does not reproduce its extreme value")
        if best_min < -tol and best_max > tol:
            verdict = Verdict.INDEFINITE
        elif not stationary:
            verdict = Verdict.INDETERMINATE
        elif best_min >= -tol and best_max > tol:
            verdict = Verdict.NON_NEGATIVE
        elif best_max <= tol and best_min < -tol:
            verdict = Verdict.NON_POSITIVE
        else:
            # nonzero tensor whose bisectional diagonal vanishes identically
            verdict = Verdict.INDETERMINATE
        results[q] = SignClassification(verdict, best_min, best_max, min_wit, max_wit,
                                        tol, magnitude, stationary)
    return results


def gamma_threshold(n: int) -> float:
    """Largest metric ratio keeping the Hopf family non-negative: 0 for
    surfaces, -1/2 from complex dimension three on."""
    if n < 2:
        raise ValueError(f"complex dimension must be >= 2, got {n}")
    return 0.0 if n == 2 else -0.5
