"""Left-invariant connection and curvature of a Damek-Ricci space.

The connection tensor comes from the bracket tensor by the Koszul formula,
and the full curvature tensor from the connection; the closed seven-term
connection and the closed-form Jacobi operator are the independent
cross-checks.  The same Koszul path on the v + z block gives the curvature
of the nilpotent part alone (the Ricci sign-split witness).
"""

from __future__ import annotations

import numpy as np

from .dralgebra import DamekRicci, bracket_tensor


class CurvatureContext:
    """Eagerly cached bracket/connection/curvature tensors of one algebra.

    Immutable after construction; all evaluation methods are pure, so a
    context can be shared across parallel grid workers.
    """

    def __init__(self, g: DamekRicci):
        self.g = g
        self.bracket_tensor = bracket_tensor(g.module.generators)
        self.nabla_tensor = koszul_connection(self.bracket_tensor)
        r3 = curvature_from_connection(self.nabla_tensor, self.bracket_tensor)
        self.riemann_tensor = r3  # index: [a, b, c, out]
        self.ricci = np.einsum("abca->bc", r3)

    def jacobi(self, t: np.ndarray) -> np.ndarray:
        """Matrix of Y -> R(Y, T) T, assembled from the curvature tensor."""
        return np.einsum("b,c,abce->ea", t, t, self.riemann_tensor)


def nabla(g: DamekRicci, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The left-invariant covariant derivative nabla_x of y's extension.

    Seven-term closed form; metric-compatible and torsion-free against the
    algebra bracket.  It is the reference for the Koszul-built
    ``CurvatureContext.nabla_tensor``.
    """
    x, y = g._check(x), g._check(y)
    v1, z1 = x[g.sv], x[g.sz]
    v2, z2, s2 = y[g.sv], y[g.sz], y[g.ia]
    v_out = -0.5 * (g.j_z(z2) @ v1) - 0.5 * (g.j_z(z1) @ v2) - 0.5 * s2 * v1
    z_out = -0.5 * g.bracket_vz(v2, v1) - s2 * z1
    a_out = 0.5 * float(v2 @ v1) + float(z2 @ z1)
    return g.vec(v_out, z_out, a_out)


def jacobi_closed_batch(g: DamekRicci, t1s: np.ndarray, t2s: np.ndarray) -> np.ndarray:
    """The closed-form Jacobi operator R_{t1} t2, row by row over batches of vectors.

    A single pair is ``jacobi_closed_batch(g, t1[None], t2[None])[0]``.
    """
    v, y, s = t1s[:, g.sv], t1s[:, g.sz], t1s[:, g.ia]
    u, x, r = t2s[:, g.sv], t2s[:, g.sz], t2s[:, g.ia]
    gens = g.module.generators
    jy = np.einsum("bi,iaw->baw", y, gens)
    jx = np.einsum("bi,iaw->baw", x, gens)
    jyv = np.einsum("baw,bw->ba", jy, v)
    uv_z = np.einsum("iaw,bw,ba->bi", gens, u, v)      # [U, V]
    ujyv_z = np.einsum("iaw,bw,ba->bi", gens, u, jyv)  # [U, J_Y V]
    n1sq = np.einsum("bi,bi->b", t1s, t1s)
    t1t2 = np.einsum("bi,bi->b", t1s, t2s)
    uv = np.einsum("ba,ba->b", u, v)
    xy = np.einsum("bi,bi->b", x, y)
    vsq = np.einsum("ba,ba->b", v, v)
    v_out = (0.75 * np.einsum("baw,bw->ba", jx, jyv)
             + 0.75 * np.einsum("bi,iaw,bw->ba", uv_z, gens, v)
             + 0.75 * r[:, None] * jyv
             - 0.75 * s[:, None] * np.einsum("baw,bw->ba", jx, v)
             - 0.25 * n1sq[:, None] * u
             + (0.75 * xy + 0.25 * t1t2)[:, None] * v)
    z_out = (-0.75 * ujyv_z + 0.75 * s[:, None] * uv_z
             - (n1sq - 0.75 * vsq)[:, None] * x + t1t2[:, None] * y)
    a_out = (0.75 * np.einsum("ba,ba->b", u, jyv) - r * (n1sq - 0.75 * vsq)
             + s * (t1t2 - 0.75 * uv))
    return np.concatenate([v_out, z_out, a_out[:, None]], axis=1)


def ricci_isotropy(ctx: CurvatureContext) -> tuple[float, float]:
    """(c, max |Ric - c I|) with c = tr(Ric)/n: the Einstein constant and the
    distance from Ric = c I, entry by entry on the orthonormal basis."""
    c = float(np.trace(ctx.ricci)) / ctx.g.dim
    return c, float(np.max(np.abs(ctx.ricci - c * np.eye(ctx.g.dim))))


def koszul_connection(bracket_tensor: np.ndarray) -> np.ndarray:
    """Left-invariant Levi-Civita connection of a metric Lie algebra.

    2 <nabla_X Y, Z> = <[X,Y],Z> - <[Y,Z],X> + <[Z,X],Y>, orthonormal basis.
    """
    b = bracket_tensor
    return 0.5 * (b - np.einsum("jki->ijk", b) + np.einsum("kij->ijk", b))


def curvature_from_connection(nabla_tensor: np.ndarray,
                              bracket_tensor: np.ndarray) -> np.ndarray:
    """R(e_a, e_b) e_c = nab_a nab_b e_c - nab_b nab_a e_c - nab_[a,b] e_c."""
    nb = nabla_tensor
    return (np.einsum("bcd,ade->abce", nb, nb)
            - np.einsum("acd,bde->abce", nb, nb)
            - np.einsum("abd,dce->abce", bracket_tensor, nb))


def ricci_heisenberg(generators: np.ndarray) -> dict:
    """Ricci spectrum of the nilpotent (generalized Heisenberg) group itself.

    Reuses the Koszul path on the two-step algebra v + z of the module
    ``generators`` (the v + z block of ``bracket_tensor``); returns the Ricci
    eigenvalues restricted to each block and the sign split that witnesses the
    non-Einstein property (zero generators give the flat abelian control case).
    """
    gens = np.asarray(generators, dtype=float)
    d_z, d_v, _ = gens.shape
    bracket = bracket_tensor(gens)[:-1, :-1, :-1]
    nb = koszul_connection(bracket)
    r3 = curvature_from_connection(nb, bracket)
    ric = np.einsum("abca->bc", r3)
    ric = 0.5 * (ric + ric.T)
    ric_v = np.linalg.eigvalsh(ric[:d_v, :d_v])
    ric_z = np.linalg.eigvalsh(ric[d_v:, d_v:])
    off = float(np.max(np.abs(ric[:d_v, d_v:]))) if d_z and d_v else 0.0
    flat = float(np.max(np.abs(ric))) <= 1e-12
    sign_split = bool(ric_v.max() < -1e-12 and ric_z.min() > 1e-12)
    return {"eigs_v": ric_v, "eigs_z": ric_z, "offdiag": off,
            "sign_split": sign_split, "flat": flat}
