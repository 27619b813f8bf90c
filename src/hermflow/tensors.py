"""Signed frame labels, the curvature container and the zero threshold.

A frame of complex dimension ``n`` is ordered ``(Z_1, .., Z_n, conj Z_1, ..,
conj Z_n)``.  A slot is named by a signed 1-based label: ``+p`` is ``Z_p``
and ``-p`` is ``conj Z_p``, printed ``Zp`` and ``Zp~``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: relative floor used by every "this coefficient vanishes" decision
ZERO_RTOL = 1e-9


def zero_threshold(magnitude: float) -> float:
    """Absolute cutoff below which an entry of a tensor with the given
    maximal magnitude counts as zero."""
    return ZERO_RTOL * (1.0 + float(magnitude))


def frame_offset(label: int, n: int) -> int:
    """Offset of a signed label inside the frame of complex dimension n."""
    if label == 0 or abs(label) > n:
        raise ValueError(f"signed label {label} out of range for n={n}")
    return label - 1 if label > 0 else n - label - 1


def frame_label(offset: int, n: int) -> int:
    """The signed label at an offset of the frame: ``frame_offset``'s inverse."""
    if not 0 <= offset < 2 * n:
        raise ValueError(f"flat index {offset} out of range for n={n}")
    return offset + 1 if offset < n else n - offset - 1


def label_name(label: int) -> str:
    """``Z3`` for the label 3, ``Z3~`` for -3."""
    return f"Z{abs(label)}{'' if label > 0 else '~'}"


class TensorError(ValueError):
    pass


@dataclass(frozen=True)
class CurvatureTensor:
    """Lowered curvature 4-tensor over the complexified frame, or a stack of
    them.

    ``data[..., A, B, C, D]`` is the component on ``(e_A, e_B, e_C, e_D)``
    where the first pair spans the curvature plane.  A stack has one leading
    axis, one tensor per metric; ``len``, indexing and iteration give its
    tensors.  ``connection`` records provenance ("levi-civita", "bismut" or
    "chern").
    """

    n: int
    connection: str
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=complex)
        if arr.ndim not in (4, 5) or arr.shape[-4:] != (2 * self.n,) * 4:
            raise TensorError(f"curvature data must have shape {(2 * self.n,) * 4} or a stack")
        if not np.all(np.isfinite(arr.view(float))):
            raise TensorError("curvature entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def __len__(self) -> int:
        if self.data.ndim == 4:
            raise TypeError("a single curvature tensor has no length")
        return len(self.data)

    def __getitem__(self, k: int) -> "CurvatureTensor":
        return CurvatureTensor(self.n, self.connection, self.data[k])

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    @property
    def magnitude(self) -> float:
        """The largest modulus of a component, over the whole stack."""
        return float(np.max(np.abs(self.data)))

    def entry(self, *spec: int) -> complex:
        """Component by signed 1-based labels: ``entry(1, -1, 3, -3)`` is the
        slot tuple (Z_1, conj Z_1, Z_3, conj Z_3)."""
        if len(spec) != 4:
            raise TensorError("curvature entries take exactly four labels")
        if self.data.ndim != 4:
            raise TensorError("entry reads one tensor; index the stack first")
        return complex(self.data[tuple(frame_offset(s, self.n) for s in spec)])

    def mixed_block(self) -> np.ndarray:
        """The (n, n, n, n) block ``[i, j, k, l] -> entry(i+1, -(j+1), k+1,
        -(l+1))``, or the (T, n, n, n, n) stack of the blocks of a stack."""
        h, a = slice(0, self.n), slice(self.n, 2 * self.n)
        return np.array(self.data[..., h, a, h, a])


def curvature_from_mixed_block(block: np.ndarray, n: int, connection: str
                               ) -> CurvatureTensor:
    """Assemble a full-frame curvature tensor from its mixed components.

    The input ``block[i, j, k, l]`` holds the components on
    ``(Z_i, conj Z_j, Z_k, conj Z_l)``; the remaining orientations are filled
    by antisymmetry of each pair, and the purely holomorphic/antiholomorphic
    families are zero.
    """
    block = np.asarray(block, dtype=complex)
    if block.shape != (n,) * 4:
        raise TensorError(f"mixed block must have shape {(n,) * 4}")
    data = np.zeros((2 * n,) * 4, dtype=complex)
    h, a = slice(0, n), slice(n, 2 * n)
    data[h, a, h, a] = block
    data[a, h, h, a] = -np.einsum("ijkl->jikl", block)
    data[h, a, a, h] = -np.einsum("ijkl->ijlk", block)
    data[a, h, a, h] = np.einsum("ijkl->jilk", block)
    return CurvatureTensor(n=n, connection=connection, data=data)
