"""Clifford modules over a negative-definite center.

Builds families of skew-orthogonal generators J_1..J_{d_z} on R^{d_v} with
J_i J_j + J_j J_i = -2 delta_ij, from which the generalized Heisenberg
bracket is assembled.  Irreducible pieces come from complex, quaternion and
octonion left multiplication, all read from one table that doubles R three
times by Cayley-Dickson (one fixed sign convention); the largest module is
built from octonion pairs.  Reducible modules are direct sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

ANTICOMM_TOL = 1e-12

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


def check_admissible(d_z: int, d_v: int):
    """A ValueError, worded once for every caller, unless ``admissible(d_z, d_v)``."""
    if not admissible(d_z, d_v):
        bound = center_dim_bound(d_v)
        raise ValueError(f"inadmissible dimensions (d_z, d_v) = ({d_z}, {d_v}): " + (
            f"the admissible bound for d_v = {d_v} is 1 <= d_z <= {bound}" if bound else
            f"no d_z is admissible for d_v = {d_v}") + " (Radon-Hurwitz-type constraint)")


@lru_cache(maxsize=None)
def division_algebra_mults() -> dict[int, np.ndarray]:
    """Left multiplications by the basis of C, H and O, keyed by dimension.

    ``division_algebra_mults()[n][i]`` is the read-only matrix of w -> e_i w
    on R^n.  Each algebra doubles the last by Cayley-Dickson, (a, b)(c, d) =
    (ac - d*b, da + bc*).  With K the conjugation and L_i, R_i the left and
    right multiplications by e_i, the doubled ones are L(e_i, 0) =
    [[L_i, 0], [0, R_i]], L(0, e_i) = [[0, -R_i K], [L_i K, 0]],
    R(e_i, 0) = [[R_i, 0], [0, R(e_i*)]] and R(0, e_i) = [[0, -L(e_i*)], [L_i, 0]].
    """
    left = right = np.ones((1, 1, 1))
    conj = np.ones(1)  # the diagonal of K
    out = {}
    for _ in range(3):
        z, k = np.zeros_like(left), conj[:, None, None]  # M(e_i*) = conj_i M(e_i)
        # + 0.0 turns the -0.0 of every negated zero into +0.0
        left, right = (np.concatenate([np.block([[left, z], [z, right]]),
                                       np.block([[z, -right * conj], [left * conj, z]])]) + 0.0,
                       np.concatenate([np.block([[right, z], [z, k * right]]),
                                       np.block([[z, -k * left], [left, z]])]) + 0.0)
        conj = np.concatenate([conj, -np.ones_like(conj)])
        left.setflags(write=False)
        out[len(conj)] = left
    return out


def _irreducible_generators(d_z: int) -> np.ndarray:
    """Generators of the minimal-dimension irreducible module for d_z <= 8."""
    mults = division_algebra_mults()
    if d_z == 1:
        return mults[2][1:]
    if d_z in (2, 3):
        return mults[4][1:1 + d_z]
    if 4 <= d_z <= 7:
        return mults[8][1:1 + d_z]
    if d_z == 8:
        # octonion pairs: J_z (w1, w2) = (z w2, -z* w1), z running over the basis of O;
        # L(e_i*) = -L(e_i) for i >= 1, written 0.0 - L to keep the +0.0 zeros of
        # the product matrix L(e_i*)
        gens = np.zeros((8, 16, 16))
        gens[:, :8, 8:] = mults[8]
        gens[:, 8:, :8] = -np.concatenate([mults[8][:1], 0.0 - mults[8][1:]])
        return gens
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
    check_admissible(d_z, d_v)
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
