"""The metric solvable Lie algebra s = v + z + R*A of a Damek-Ricci space.

Vectors are stored as (v-part, z-part, a-scalar) with the orthogonal-sum
inner product, A unit and orthogonal to the nilradical.  The bracket is
[A, U] = U/2, [A, Z] = Z, <J_Z U, W> = <[U, W], Z>, and the K operator of
a nonzero pair (V, Y) acts on the orthogonal complement of Y inside the
center.  Everything is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import CliffordModule, build_module, is_symmetric_space, j_op
from .numkernel import complete_basis


@dataclass(frozen=True)
class SolvVec:
    """Element of s, split as v + z + a*A."""

    v: np.ndarray
    z: np.ndarray
    a: float

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))
        object.__setattr__(self, "a", float(self.a))

    def flat(self) -> np.ndarray:
        return np.concatenate([self.v, self.z, [self.a]])

    def norm(self) -> float:
        return float(np.linalg.norm(self.flat()))


def bracket_tensor(generators: np.ndarray) -> np.ndarray:
    """B[a, b, e] = <[e_a, e_b], e_e> on the orthonormal basis (v, z, A).

    [U, W] = sum_i <J_i U, W> Z_i, [A, U] = U/2, [A, Z] = Z.  Zero
    generators give the abelian nilradical; the v + z block, [:-1, :-1, :-1],
    is the bracket of the nilradical alone.
    """
    d_z, d_v, _ = generators.shape
    n = d_v + d_z + 1
    out = np.zeros((n, n, n))
    out[:d_v, :d_v, d_v:-1] = np.transpose(generators, (2, 1, 0))
    iv, iz = np.arange(d_v), np.arange(d_v, n - 1)
    out[-1, iv, iv], out[iv, -1, iv] = 0.5, -0.5
    out[-1, iz, iz], out[iz, -1, iz] = 1.0, -1.0
    return out


class DamekRicci:
    """A Damek-Ricci algebra over a Clifford module (d_z, d_v >= 1)."""

    def __init__(self, module: CliffordModule):
        if module.d_z < 1 or module.d_v < 1:
            raise ValueError("both the center and its complement must have positive dimension")
        self.module = module
        self.d_v = module.d_v
        self.d_z = module.d_z
        self.dim = self.d_v + self.d_z + 1
        self.sv = slice(0, self.d_v)
        self.sz = slice(self.d_v, self.d_v + self.d_z)
        self.ia = self.d_v + self.d_z
        self.symmetric = is_symmetric_space(module)

    @classmethod
    def from_dims(cls, d_z: int, d_v: int, iso_flags: tuple[int, ...] | None = None) -> DamekRicci:
        return cls(build_module(d_z, d_v, iso_flags))

    def __repr__(self):
        return f"DamekRicci(d_z={self.d_z}, d_v={self.d_v}, symmetric={self.symmetric})"

    # -- vector plumbing ------------------------------------------------------

    def vec(self, v=None, z=None, a: float = 0.0) -> SolvVec:
        return SolvVec(np.zeros(self.d_v) if v is None else v,
                       np.zeros(self.d_z) if z is None else z, a)

    def from_flat(self, x: np.ndarray) -> SolvVec:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"flat vector has shape {x.shape}, expected ({self.dim},)")
        return SolvVec(x[self.sv], x[self.sz], x[self.ia])

    def basis_vector(self, i: int) -> SolvVec:
        e = np.zeros(self.dim)
        e[i] = 1.0
        return self.from_flat(e)

    def a_vector(self) -> SolvVec:
        return self.vec(a=1.0)

    def random_vec(self, rng: np.random.Generator) -> SolvVec:
        return self.from_flat(rng.standard_normal(self.dim))

    # -- algebra --------------------------------------------------------------

    def j_z(self, z: np.ndarray) -> np.ndarray:
        return j_op(self.module, z)

    def bracket_vz(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """[U, W] in the center: components <J_i U, W>."""
        return np.einsum("iab,b,a->i", self.module.generators, u, w)

    def bracket(self, t1: SolvVec, t2: SolvVec) -> SolvVec:
        """Lie bracket of s: [v1+z1+s1 A, v2+z2+s2 A]."""
        self._check(t1), self._check(t2)
        v = 0.5 * (t1.a * t2.v - t2.a * t1.v)
        z = self.bracket_vz(t1.v, t2.v) + t1.a * t2.z - t2.a * t1.z
        return SolvVec(v, z, 0.0)

    def inner(self, t1: SolvVec, t2: SolvVec) -> float:
        return float(t1.v @ t2.v + t1.z @ t2.z + t1.a * t2.a)

    def _check(self, t: SolvVec):
        if t.v.shape != (self.d_v,) or t.z.shape != (self.d_z,):
            raise ValueError(
                f"vector parts have shapes {t.v.shape}/{t.z.shape}, expected "
                f"({self.d_v},)/({self.d_z},)")

    # -- K operator and its (-1) square eigenspace ----------------------------

    def center_complement_basis(self, y: np.ndarray) -> np.ndarray:
        """Orthonormal basis of Y-perp inside the center (deterministic)."""
        y = np.asarray(y, dtype=float)
        ny = np.linalg.norm(y)
        if ny == 0:
            raise ValueError("Y must be nonzero")
        return complete_basis(self.d_z, (y / ny)[:, None])

    def k_operator(self, v: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """K_{V,Y} on Y-perp in the center: (matrix in basis, basis columns)."""
        v = np.asarray(v, dtype=float)
        y = np.asarray(y, dtype=float)
        nv, ny = np.linalg.norm(v), np.linalg.norm(y)
        if nv == 0 or ny == 0:
            raise ValueError("K requires nonzero V and Y")
        basis = self.center_complement_basis(y)
        k = basis.shape[1]
        jyv = self.j_z(y) @ v
        mat = np.zeros((k, k))
        for j in range(k):
            img = self.bracket_vz(v, self.j_z(basis[:, j]) @ jyv) / (nv ** 2 * ny)
            mat[:, j] = basis.T @ img
        return mat, basis

    def k_square_eigh(self, v: np.ndarray, y: np.ndarray):
        """K_{V,Y} and the eigendecomposition of its symmetrized square.

        Returns (K matrix, basis columns of Y-perp, eigenvalues, eigenvectors);
        the eigenvectors are coordinates in that basis.
        """
        kmat, basis = self.k_operator(v, y)
        k2 = kmat @ kmat
        vals, vecs = np.linalg.eigh(0.5 * (k2 + k2.T))
        return kmat, basis, vals, vecs

    def k_square_minus1_space(self, v: np.ndarray, y: np.ndarray,
                              cluster_tol: float = 1e-7) -> tuple[np.ndarray, dict]:
        """(-1)-eigenspace of K^2 (columns in center coordinates) plus checks.

        The checks record the residual of J_X J_Y V = |Y| J_{KX} V on the basis, K-invariance,
        evenness, and the largest kept and least other |eigenvalue + 1| (cluster_residual, gap).
        """
        kmat, basis, vals, vecs = self.k_square_eigh(v, y)
        dist = np.abs(vals + 1.0)
        kept = dist <= cluster_tol
        cols = basis @ vecs[:, kept]
        kx = basis @ (kmat @ (basis.T @ cols))
        gens = self.module.generators
        lhs = np.einsum("ij,iab,b->aj", cols, gens, self.j_z(y) @ v)  # J_X J_Y V
        rhs = np.linalg.norm(y) * np.einsum("ij,iab,b->aj", kx, gens, v)  # |Y| J_KX V
        kinv = kx - cols @ (cols.T @ kx)  # K must preserve the eigenspace
        d = cols.shape[1]
        return cols, {"dim": d, "equiv_residual": float(np.max(np.abs(lhs - rhs), initial=0.0)),
                      "k_invariance": float(np.max(np.abs(kinv), initial=0.0)),
                      "even": d % 2 == 0, "gap": float(np.min(dist[~kept], initial=np.inf)),
                      "cluster_residual": float(np.max(dist[kept], initial=0.0))}


def verify_heisenberg_identities(g: DamekRicci, samples: int = 64,
                                 seed: int = 0) -> dict:
    """Max residuals of the two defining bracket identities over random data.

    Checks [V, J_Y V] = |V|^2 Y and [V, J_Y U] - [J_Y V, U] = 2 <U, V> Y.
    """
    rng = np.random.default_rng(seed)
    r1 = r2 = 0.0
    for _ in range(samples):
        v = rng.standard_normal(g.d_v)
        u = rng.standard_normal(g.d_v)
        y = rng.standard_normal(g.d_z)
        jy = g.j_z(y)
        lhs1 = g.bracket_vz(v, jy @ v)
        r1 = max(r1, float(np.max(np.abs(lhs1 - (v @ v) * y))))
        lhs2 = g.bracket_vz(v, jy @ u) - g.bracket_vz(jy @ v, u)
        r2 = max(r2, float(np.max(np.abs(lhs2 - 2.0 * (u @ v) * y))))
    passed = max(r1, r2) <= 1e-11
    return {"cross_identity": r1, "polarized_identity": r2,
            "max_residual": max(r1, r2), "samples": samples, "seed": seed,
            "passed": passed}
