"""Reference oracle for the test suite: quaternion and octonion arithmetic
written out coordinate by coordinate.

``Octonion`` multiplies Cayley-Dickson pairs of quaternions with the
convention (a, b)(c, d) = (ac - d*b, da + bc*), through the explicit
quaternion product ``quaternion_mul``; ``QL_I``, ``QL_J`` and ``QL_K`` are
the literal matrices of quaternion left multiplication.  The Clifford
generators, which come from one doubled multiplication table, are checked
against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# quaternion left multiplication on basis (1, i, j, k)
QL_I = np.array([[0., -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
QL_J = np.array([[0., 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
QL_K = np.array([[0., 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])


def quaternion_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return np.array([
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    ])


def quaternion_conj(a: np.ndarray) -> np.ndarray:
    return np.array([a[0], -a[1], -a[2], -a[3]])


@dataclass(frozen=True)
class Octonion:
    """Octonion in the basis (1, e1..e7), Cayley-Dickson pair of quaternions.

    The product convention is (a, b)(c, d) = (ac - d*b, da + bc*).
    """

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (8,):
            raise ValueError(f"octonion needs 8 coordinates, got shape {c.shape}")
        object.__setattr__(self, "coords", c)

    @classmethod
    def basis(cls, i: int) -> Octonion:
        c = np.zeros(8)
        c[i] = 1.0
        return cls(c)

    @classmethod
    def zero(cls) -> Octonion:
        return cls(np.zeros(8))

    def __add__(self, other: Octonion) -> Octonion:
        return Octonion(self.coords + other.coords)

    def __sub__(self, other: Octonion) -> Octonion:
        return Octonion(self.coords - other.coords)

    def __neg__(self) -> Octonion:
        return Octonion(-self.coords)

    def __mul__(self, other):
        if isinstance(other, Octonion):
            a, b = self.coords[:4], self.coords[4:]
            c, d = other.coords[:4], other.coords[4:]
            first = quaternion_mul(a, c) - quaternion_mul(quaternion_conj(d), b)
            second = quaternion_mul(d, a) + quaternion_mul(b, quaternion_conj(c))
            return Octonion(np.concatenate([first, second]))
        return Octonion(self.coords * float(other))

    def __rmul__(self, other) -> Octonion:
        return Octonion(self.coords * float(other))

    def conj(self) -> Octonion:
        c = -self.coords.copy()
        c[0] = self.coords[0]
        return Octonion(c)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    @property
    def real(self) -> float:
        return float(self.coords[0])


def oct_left_mult_matrix(z: Octonion) -> np.ndarray:
    """Matrix of w -> z*w on R^8."""
    return np.column_stack([(z * Octonion.basis(i)).coords for i in range(8)])
