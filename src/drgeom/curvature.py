"""Left-invariant connection and curvature of a Damek-Ricci space.

The connection tensor comes from the bracket tensor by the Koszul formula,
and the full curvature tensor from the connection; the closed seven-term
connection and the closed-form Jacobi operator are the independent
cross-checks.  The covariant derivative of the curvature uses that scalar
curvature components of left-invariant fields are constant.  The same
Koszul path on the v + z block gives the curvature of the nilpotent part
alone (the Ricci sign-split witness).
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

    def nabla_flat(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Covariant derivative along x of the left-invariant extension of w."""
        return np.einsum("a,b,abe->e", x, w, self.nabla_tensor)

    def jacobi(self, t: np.ndarray) -> np.ndarray:
        """Matrix of Y -> R(Y, T) T, assembled from the curvature tensor."""
        return np.einsum("b,c,abce->ea", t, t, self.riemann_tensor)

    def nabla_riemann(self, tk, x, y, z, w) -> float:
        """(nabla_{tk} R)(x, y, z, w) for left-invariant arguments.

        The scalar R(x, y, z, w) is constant for left-invariant fields, so
        the covariant derivative is minus the sum of the four slot-wise
        substitutions of nabla_{tk}.
        """
        total = 0.0
        for slot in range(4):
            args = [x, y, z, w]
            args[slot] = self.nabla_flat(tk, args[slot])
            total -= float(np.einsum("a,b,c,e,abce->", *args, self.riemann_tensor))
        return total


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


def ricci_isotropy(ctx: CurvatureContext, samples: int = 1000,
                   seed: int = 0) -> tuple[float, float]:
    """(mean, stdev) of Ric(T, T)/|T|^2 over random unit vectors."""
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((samples, ctx.g.dim))
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    vals = np.einsum("bi,ij,bj->b", t, ctx.ricci, t)
    return float(np.mean(vals)), float(np.std(vals))


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


def ricci_heisenberg(module_or_generators) -> dict:
    """Ricci spectrum of the nilpotent (generalized Heisenberg) group itself.

    Reuses the Koszul path on the two-step algebra v + z (the v + z block of
    ``bracket_tensor``); returns the Ricci eigenvalues restricted to each
    block and the sign split that witnesses the non-Einstein property (zero
    generators give the flat abelian control case).
    """
    if hasattr(module_or_generators, "generators"):
        gens = module_or_generators.generators
    else:
        gens = np.asarray(module_or_generators, dtype=float)
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


def subalgebra_closure_residuals(ctx: CurvatureContext, basis: np.ndarray) -> dict:
    """How far a subspace is from being curvature- and connection-closed.

    ``basis`` holds orthonormal columns spanning the candidate subalgebra.
    Returns max projection residuals of R(h,h)h, nabla_h h, and the largest
    |(nabla_h R)(h,h,h,h)| component.
    """
    q = basis
    proj = q @ q.T
    k = q.shape[1]
    r_res = 0.0
    n_res = 0.0
    dr_res = 0.0
    for i in range(k):
        for j in range(k):
            nb = ctx.nabla_flat(q[:, i], q[:, j])
            n_res = max(n_res, float(np.max(np.abs(nb - proj @ nb))))
            for l in range(k):
                rv = np.einsum("a,b,c,abce->e", q[:, i], q[:, j], q[:, l],
                               ctx.riemann_tensor)
                r_res = max(r_res, float(np.max(np.abs(rv - proj @ rv))))
    rng = np.random.default_rng(12345)
    for _ in range(60):
        c = rng.standard_normal((5, k))
        vs = [q @ ci for ci in c]
        dr_res = max(dr_res, abs(ctx.nabla_riemann(*vs)))
    return {"riemann_closure": r_res, "nabla_closure": n_res,
            "nabla_riemann_inside": dr_res}
