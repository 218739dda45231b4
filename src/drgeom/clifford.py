"""Clifford modules over a negative-definite center.

Builds families of skew-orthogonal generators J_1..J_{d_z} on R^{d_v} with
J_i J_j + J_j J_i = -2 delta_ij, from which the generalized Heisenberg
bracket is assembled.  Irreducible pieces come from complex, quaternion and
octonion left multiplication; reducible modules are direct sums.  The
octonion arithmetic (Cayley-Dickson over the quaternions, one fixed sign
convention) is exposed because the largest admissible module is most
naturally described by octonion pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

ANTICOMM_TOL = 1e-12

# quaternion left multiplication on basis (1, i, j, k)
_QL_I = np.array([[0., -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
_QL_J = np.array([[0., 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
_QL_K = np.array([[0., 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])


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


def max_center_dim(d_v: int) -> int:
    """Largest admissible center dimension for a module of dimension d_v.

    Writing d_v = 2^(4a+b) * c with c odd and 0 <= b <= 3, the bound is
    8a + 2^b - 1 (the Radon-Hurwitz count minus one).
    """
    if d_v < 1:
        raise ValueError("d_v must be a positive integer")
    two = 0
    m = d_v
    while m % 2 == 0:
        m //= 2
        two += 1
    a, b = divmod(two, 4)
    return 8 * a + 2 ** b - 1


def center_dim_bound(d_v: int) -> int:
    """Largest d_z that ``build_module`` constructs for d_v.

    ``max_center_dim(d_v)`` capped at 8, where the irreducible constructions
    stop; the bound itself allows 9 from d_v = 32 on (Clifford 8-periodicity).
    """
    return min(8, max_center_dim(d_v))


def admissible(d_z: int, d_v: int) -> bool:
    """Whether ``build_module(d_z, d_v)`` exists: 1 <= d_z <= center_dim_bound(d_v)."""
    return 1 <= d_z <= center_dim_bound(d_v)


@lru_cache(maxsize=None)
def _octonion_left_mults() -> np.ndarray:
    return np.stack([oct_left_mult_matrix(Octonion.basis(i)) for i in range(1, 8)])


def _irreducible_generators(d_z: int) -> np.ndarray:
    """Generators of the minimal-dimension irreducible module for d_z <= 8."""
    if d_z == 1:
        return np.array([[[0., -1.], [1., 0.]]])
    if d_z in (2, 3):
        gens = [_QL_I, _QL_J, _QL_K][:d_z]
        return np.stack(gens)
    if 4 <= d_z <= 7:
        return _octonion_left_mults()[:d_z].copy()
    if d_z == 8:
        # octonion pairs: J_z (w1, w2) = (z w2, -z* w1), z running over all of O
        gens = []
        for i in range(8):
            z = Octonion.basis(i)
            top = oct_left_mult_matrix(z)
            bot = -oct_left_mult_matrix(z.conj())
            g = np.zeros((16, 16))
            g[:8, 8:] = top
            g[8:, :8] = bot
            gens.append(g)
        return np.stack(gens)
    raise ValueError(f"no irreducible construction for d_z = {d_z}")


@dataclass(frozen=True)
class CliffordModule:
    """A d_z-generator Clifford module on R^{d_v}.

    ``generators[i]`` is the skew-orthogonal matrix J_{Z_i}; ``iso_flags``
    records the orientation of each irreducible summand (the sign of the
    volume element, meaningful for d_z = 3 mod 4).
    """

    d_z: int
    d_v: int
    generators: np.ndarray = field(repr=False)
    iso_flags: tuple[int, ...] = ()

    def validate(self) -> float:
        """Max residual of the anticommutation table; raises if over ANTICOMM_TOL."""
        res = anticommutation_residual(self.generators)
        if res > ANTICOMM_TOL:
            raise ValueError(f"anticommutation residual {res:.3e} exceeds {ANTICOMM_TOL:.3e}")
        return res


def anticommutation_residual(generators: np.ndarray) -> float:
    d_z, d_v, _ = generators.shape
    worst = 0.0
    eye = np.eye(d_v)
    for i in range(d_z):
        for j in range(i, d_z):
            anti = generators[i] @ generators[j] + generators[j] @ generators[i]
            target = -2.0 * eye if i == j else 0.0
            worst = max(worst, float(np.max(np.abs(anti - target))))
        worst = max(worst, float(np.max(np.abs(generators[i] + generators[i].T))))
    return worst


def build_module(d_z: int, d_v: int, iso_flags: tuple[int, ...] | None = None) -> CliffordModule:
    """Deterministic Clifford module: direct sum of minimal irreducibles.

    ``iso_flags`` gives one sign per irreducible summand; -1 flips the last
    generator of that summand, producing the non-isomorphic class when
    d_z = 3 mod 4 (and an equivalent module otherwise).  Default: all +1.
    """
    if not admissible(d_z, d_v):
        raise ValueError(
            f"d_z = {d_z} is outside the admissible bound 1 <= d_z <= "
            f"{center_dim_bound(d_v)} for d_v = {d_v} (Radon-Hurwitz-type constraint)")
    base = _irreducible_generators(d_z)
    m = base.shape[1]
    if d_v % m:
        raise ValueError(f"d_v = {d_v} is not a multiple of the irreducible dimension {m}")
    copies = d_v // m
    if iso_flags is None:
        iso_flags = tuple([1] * copies)
    if len(iso_flags) != copies or any(f not in (1, -1) for f in iso_flags):
        raise ValueError(f"need {copies} iso flags in {{+1,-1}}, got {iso_flags}")
    gens = np.zeros((d_z, d_v, d_v))
    for c, flag in enumerate(iso_flags):
        sl = slice(c * m, (c + 1) * m)
        for i in range(d_z):
            g = base[i]
            if flag < 0 and i == d_z - 1:
                g = -g
            gens[i, sl, sl] = g
    module = CliffordModule(d_z, d_v, gens, tuple(iso_flags))
    module.validate()
    return module


def j_op(module: CliffordModule, z: np.ndarray) -> np.ndarray:
    """The operator J_Z on the module, linear in Z."""
    z = np.asarray(z, dtype=float)
    if z.shape != (module.d_z,):
        raise ValueError(f"z has shape {z.shape}, expected ({module.d_z},)")
    return np.einsum("i,iab->ab", z, module.generators)


def is_symmetric_space(module: CliffordModule) -> bool:
    """Whether the Damek-Ricci space over this module is symmetric.

    True exactly for d_z = 1, (d_z, d_v) = (7, 8), and d_z = 3 with all
    irreducible summands isomorphic (volume element +-identity).
    """
    if module.d_z == 1:
        return True
    if (module.d_z, module.d_v) == (7, 8):
        return True
    if module.d_z == 3:
        vol = module.generators[0] @ module.generators[1] @ module.generators[2]
        eye = np.eye(module.d_v)
        return min(float(np.max(np.abs(vol - eye))),
                   float(np.max(np.abs(vol + eye)))) <= 1e-9
    return False
