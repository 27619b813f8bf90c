"""Frame index labels, the curvature container and the zero threshold.

A frame of complex dimension ``n`` is ordered ``(Z_1, .., Z_n, conj Z_1, ..,
conj Z_n)``.  A slot is labelled holomorphic or antiholomorphic by its
position in that order (holomorphic block first).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

#: relative floor used by every "this coefficient vanishes" decision
ZERO_RTOL = 1e-9


def zero_threshold(magnitude: float) -> float:
    """Absolute cutoff below which an entry of a tensor with the given
    maximal magnitude counts as zero."""
    return ZERO_RTOL * (1.0 + float(magnitude))


class IndexKind(enum.Enum):
    HOLOMORPHIC = "holomorphic"
    ANTIHOLOMORPHIC = "antiholomorphic"


@dataclass(frozen=True)
class FrameIndex:
    """One slot label: position 1..n in the holomorphic or antiholomorphic family."""

    kind: IndexKind
    position: int

    def __post_init__(self) -> None:
        if self.position < 1:
            raise ValueError(f"position must be >= 1, got {self.position}")

    @property
    def is_holomorphic(self) -> bool:
        return self.kind is IndexKind.HOLOMORPHIC

    def conjugate(self) -> "FrameIndex":
        other = (IndexKind.ANTIHOLOMORPHIC if self.is_holomorphic
                 else IndexKind.HOLOMORPHIC)
        return FrameIndex(other, self.position)

    def flat(self, n: int) -> int:
        """Offset of this label inside the frame of complex dimension n."""
        if self.position > n:
            raise ValueError(f"position {self.position} out of range 1..{n}")
        off = self.position - 1
        return off if self.is_holomorphic else n + off

    @classmethod
    def from_flat(cls, flat: int, n: int) -> "FrameIndex":
        if not 0 <= flat < 2 * n:
            raise ValueError(f"flat index {flat} out of range for n={n}")
        if flat < n:
            return cls(IndexKind.HOLOMORPHIC, flat + 1)
        return cls(IndexKind.ANTIHOLOMORPHIC, flat - n + 1)

    def __repr__(self) -> str:  # Z3 / Z3~ style, keeps test output short
        tag = "" if self.is_holomorphic else "~"
        return f"Z{self.position}{tag}"


def hol(position: int) -> FrameIndex:
    return FrameIndex(IndexKind.HOLOMORPHIC, position)


def bar(position: int) -> FrameIndex:
    return FrameIndex(IndexKind.ANTIHOLOMORPHIC, position)


def frame_index_from_signed(label: int, n: int) -> FrameIndex:
    """Signed 1-based label: +p means Z_p, -p means conj(Z_p)."""
    if label == 0 or abs(label) > n:
        raise ValueError(f"signed label {label} out of range for n={n}")
    return hol(label) if label > 0 else bar(-label)


class TensorError(ValueError):
    pass


@dataclass(frozen=True)
class CurvatureTensor:
    """Lowered curvature 4-tensor over the complexified frame.

    ``data[A, B, C, D]`` is the component on ``(e_A, e_B, e_C, e_D)`` where the
    first pair spans the curvature plane.  ``connection`` records provenance
    ("levi-civita", "bismut" or "chern").
    """

    n: int
    connection: str
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=complex)
        if arr.shape != (2 * self.n,) * 4:
            raise TensorError(f"curvature data must have shape {(2 * self.n,) * 4}")
        if not np.all(np.isfinite(arr.view(float))):
            raise TensorError("curvature entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def magnitude(self) -> float:
        return float(np.max(np.abs(self.data)))

    def entry(self, *spec: int) -> complex:
        """Component by signed 1-based labels: ``entry(1, -1, 3, -3)`` is the
        slot tuple (Z_1, conj Z_1, Z_3, conj Z_3)."""
        if len(spec) != 4:
            raise TensorError("curvature entries take exactly four labels")
        flat = tuple(frame_index_from_signed(s, self.n).flat(self.n) for s in spec)
        return complex(self.data[flat])

    def mixed_block(self) -> np.ndarray:
        """The (n, n, n, n) block ``[i, j, k, l] -> entry(i+1, -(j+1), k+1, -(l+1))``."""
        n = self.n
        h = slice(0, n)
        a = slice(n, 2 * n)
        return np.array(self.data[h, a, h, a])


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
    h = slice(0, n)
    a = slice(n, 2 * n)
    data[h, a, h, a] = block
    data[a, h, h, a] = -np.einsum("ijkl->jikl", block)
    data[h, a, a, h] = -np.einsum("ijkl->ijlk", block)
    data[a, h, a, h] = np.einsum("ijkl->jilk", block)
    return CurvatureTensor(n=n, connection=connection, data=data)
