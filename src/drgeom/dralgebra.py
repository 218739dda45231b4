"""The metric solvable Lie algebra s = v + z + R*A of a Damek-Ricci space.

Vectors are flat arrays of length d_v + d_z + 1 in the order (v, z, A),
with the orthogonal-sum inner product, A unit and orthogonal to the
nilradical.  The bracket is [A, U] = U/2, [A, Z] = Z, <J_Z U, W> =
<[U, W], Z>, and the K operator of a nonzero pair (V, Y) acts on the
orthogonal complement of Y inside the center.  Everything is pure.
"""

from __future__ import annotations

import numpy as np

from .clifford import CliffordModule, build_module, is_symmetric_space, j_op
from .numkernel import CLUSTER_TOL, complete_basis


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

    # -- flat vectors (v, z, A) ----------------------------------------------

    def vec(self, v=None, z=None, a: float = 0.0) -> np.ndarray:
        """The flat vector v + z + a*A."""
        out = np.zeros(self.dim)
        if v is not None:
            out[self.sv] = v
        if z is not None:
            out[self.sz] = z
        out[self.ia] = a
        return out

    # -- algebra --------------------------------------------------------------

    def j_z(self, z: np.ndarray) -> np.ndarray:
        return j_op(self.module, z)

    def bracket_vz(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """[U, W] in the center: components <J_i U, W>, broadcast over leading axes."""
        return np.einsum("iab,...b,...a->...i", self.module.generators, u, w)

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Lie bracket of s: [v1+z1+s1 A, v2+z2+s2 A], broadcast over leading axes."""
        x, y = self._check(x, stacked=True), self._check(y, stacked=True)
        sv, sz, ia = self.sv, self.sz, self.ia
        xa, ya = x[..., ia, None], y[..., ia, None]
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
        out[..., sv] = 0.5 * (xa * y[..., sv] - ya * x[..., sv])
        out[..., sz] = self.bracket_vz(x[..., sv], y[..., sv]) + xa * y[..., sz] - ya * x[..., sz]
        return out

    def inner(self, x: np.ndarray, y: np.ndarray) -> float:
        x, y = self._check(x), self._check(y)
        sv, sz, ia = self.sv, self.sz, self.ia
        return float(x[sv] @ y[sv] + x[sz] @ y[sz] + x[ia] * y[ia])

    def _check(self, x, stacked: bool = False) -> np.ndarray:
        """``x`` as floats: one vector, or with ``stacked`` any stack of them."""
        x = np.asarray(x, dtype=float)
        if (x.shape[-1:] if stacked else x.shape) != (self.dim,):
            raise ValueError(f"vector has shape {x.shape}, expected ({self.dim},)"
                             + (" in the last axis" if stacked else ""))
        return x

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

    def k_square_minus1_space(self, v: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, dict]:
        """(-1)-eigenspace of K^2 (columns in center coordinates) plus its cluster data:
        the dimension, and the largest kept and least other |eigenvalue + 1|
        (cluster_residual, gap)."""
        _, basis, vals, vecs = self.k_square_eigh(v, y)
        dist = np.abs(vals + 1.0)
        kept = is_minus1(vals)
        cols = basis @ vecs[:, kept]
        return cols, {"dim": cols.shape[1], "gap": float(np.min(dist[~kept], initial=np.inf)),
                      "cluster_residual": float(np.max(dist[kept], initial=0.0))}


def is_minus1(vals):
    """Which K^2 eigenvalues count as -1: those within CLUSTER_TOL of it."""
    return np.abs(vals + 1.0) <= CLUSTER_TOL


def verify_heisenberg_identities(g: DamekRicci) -> dict:
    """Max residual of the H-type bracket identities on every basis triple.

    With B[a, w, i] = <[e_a, e_w], Z_i> (the block ``CurvatureContext`` uses),
    T[a, b, i, j] = sum_w B[a, w, i] B[b, w, j] = <[e_a, J_{Z_j} e_b], Z_i>,
    and T + T^(ab) = 2 delta_ab delta_ij is [V, J_Y U] + [U, J_Y V] = 2 <U, V> Y
    on basis vectors; U = V gives [V, J_Y V] = |V|^2 Y.  Both sides are
    trilinear, so the basis decides every triple of vectors.
    """
    b = bracket_tensor(g.module.generators)[:g.d_v, :g.d_v, g.d_v:-1]
    t = np.einsum("awi,bwj->abij", b, b)
    target = 2.0 * np.einsum("ab,ij->abij", np.eye(g.d_v), np.eye(g.d_z))
    res = float(np.max(np.abs(t + t.swapaxes(0, 1) - target)))
    return {"max_residual": res, "passed": res <= 1e-11}
