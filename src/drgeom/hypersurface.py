"""Shape-operator candidates and Gauss/Codazzi residual diagnostics.

A candidate shape operator compatible with the Einstein condition must be
curvature-adapted and satisfy S^2 - H S + (alpha - C) id = 0 on each
eigenspace of the normal Jacobi operator; candidates are enumerated per
multiplicity split with the mean curvature solved self-consistently.  The
derived-Gauss relation reconstructs the connection coefficients on pairs of
distinct eigenvalues, and the Codazzi combination is evaluated pointwise.

Derivative terms of eigenvalue functions are set to zero throughout
(constant-multiplicity, constant-eigenvalue ansatz), which makes every
probe a necessary-condition test: a nonzero residual is obstruction
evidence, never a false negative for existence.

The probe computes the C-independent data once per frame (the Jacobi
eigendata, the shared eigenframe X and its curvature contractions); then it
bisects the trace equation's brackets for all splits and C values at once
and evaluates the Gauss/Codazzi residuals of each C's candidates as one batch.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

from .curvature import CurvatureContext
from .numkernel import MPoly
from .spectrum import NormalFrame, normal_jacobi, random_frame

QUADRATIC_TOL = 1e-10
# Tr S = H is scanned for sign changes on H_SAMPLES points of [-H_BOUND, H_BOUND]
H_BOUND = 60.0
H_SAMPLES = 2400
# an eigenspace of larger multiplicity only gets the all-plus and all-minus splits
MAX_ENUMERATION_DIM = 16
# the probe scans C from C_START up to C_STOP in steps of C_STEP by default
C_START, C_STOP, C_STEP = -2.0, 0.0, 0.01


def _rho(h, alphas: np.ndarray, c):
    """rho+-(H) = (H +- sqrt(H^2 - 4(alpha - C)))/2 with the square root of the
    discriminant clipped at 0, and the discriminant itself."""
    disc = h ** 2 - 4.0 * (alphas - c)
    sq = np.sqrt(np.maximum(disc, 0.0))
    return 0.5 * (h + sq), 0.5 * (h - sq), disc


class _Eigenframe:
    """The C-independent part of the enumeration for one normal: the Jacobi
    spectrum on xi-perp, the eigenframe X and per-vector alphas that every
    candidate shares, the splits as count matrices and the H sample grid."""

    def __init__(self, frame: NormalFrame, ctx: CurvatureContext):
        _, perp, _, dec = normal_jacobi(frame, ctx)
        self.alphas = np.array([float(np.mean(dec.eigenvalues[list(c)])) for c in dec.clusters])
        mults = [len(c) for c in dec.clusters]
        self.x = np.hstack([perp @ dec.cluster_basis(k) for k in range(len(mults))])
        self.vector_alphas = np.repeat(self.alphas, mults)
        split_ranges = [[(m, 0), (0, m)] if m > MAX_ENUMERATION_DIM
                        else [(p, m - p) for p in range(m + 1)] for m in mults]
        self.splits = list(product(*split_ranges))
        # Tr S - H = [rho+ | rho- | H] @ weights, one column per split
        counts = np.array(self.splits, dtype=float)  # [split, cluster, (m+, m-)]
        self.weights = np.vstack([counts[:, :, 0].T, counts[:, :, 1].T, -np.ones(len(counts))])
        # within an eigenspace the first m+ vectors take rho+: [split, vector]
        self._cluster = np.repeat(np.arange(len(mults)), mults)
        rank = np.arange(len(self._cluster)) - np.repeat(np.cumsum([0, *mults[:-1]]), mults)
        self._plus = rank < counts[:, self._cluster, 0]
        self.hs = np.linspace(-H_BOUND, H_BOUND, H_SAMPLES)
        self._fvals = np.empty((H_SAMPLES, len(self.splits)))

    def candidates(self, c_values) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Self-consistent candidates for each C, in split order then by H:
        their mean curvatures H (k,), principal curvatures (k, n) on the
        eigenframe X and split indices into ``splits`` (k,).

        On an eigenspace of Jacobi eigenvalue alpha and multiplicity m, S has
        eigenvalues among rho+-(H) = (H +- sqrt(H^2 - 4(alpha - C)))/2; every
        split (m+, m-) is enumerated and H solves Tr S = H.  The H grid is
        scanned per C.  Then the sign changes of all C values are bisected
        together until each bracket holds two adjacent floats (an exact grid
        zero is a bracket of width 0), and the end where the trace gap is <= 0
        is the root.  Roots within 1e-9 of a smaller one are dropped, and so
        are splits with complex roots.
        """
        hs, n_splits = self.hs, len(self.splits)
        c_values = np.asarray(c_values, dtype=float)
        keys, neg, pos = [], [], []  # c index * n_splits + split; ends with gap <= 0, >= 0
        for ci, c in enumerate(c_values):
            rp, rm, disc = _rho(hs[:, None], self.alphas, c)
            valid = np.all(disc >= 0.0, axis=1)[:, None]
            # the trace gap, in a buffer reused across C, rounds differently from a
            # per-split scan; only its signs and exact zeros are used
            fvals = np.matmul(np.hstack([rp, rm, hs[:, None]]), self.weights, out=self._fvals)
            below, above = valid & (fvals < 0.0), valid & (fvals > 0.0)
            for mask, di_neg, di_pos in ((valid & (fvals == 0.0), 0, 0),
                                         (below[:-1] & above[1:], 0, 1),
                                         (above[:-1] & below[1:], 1, 0)):
                i, si = np.divmod(np.flatnonzero(mask), n_splits)
                keys.append(ci * n_splits + si)
                neg.append(hs[i + di_neg])
                pos.append(hs[i + di_pos])
        keys, neg, pos = np.concatenate(keys), np.concatenate(neg), np.concatenate(pos)
        live = np.flatnonzero(neg != pos)
        while live.size:
            a, b = neg[live], pos[live]
            mid = 0.5 * (a + b)
            moving = (mid != a) & (mid != b)
            live, a, b, mid = live[moving], a[moving], b[moving], mid[moving]
            # Tr S - H at mid, summed eigenspace by eigenspace
            rp, rm, _ = _rho(mid[:, None], self.alphas, c_values[keys[live] // n_splits, None])
            w, n_alpha, gap = self.weights[:, keys[live] % n_splits], len(self.alphas), 0.0
            for k in range(n_alpha):
                gap = gap + (w[k] * rp[:, k] + w[n_alpha + k] * rm[:, k])
            gap = gap - mid
            neg[live] = np.where(gap <= 0.0, mid, a)
            pos[live] = np.where(gap >= 0.0, mid, b)

        kept: list[int] = []
        key_list, root_list = keys.tolist(), neg.tolist()
        for j in np.lexsort((neg, keys)).tolist():
            if not kept or key_list[j] != key_list[kept[-1]] or \
                    root_list[j] - root_list[kept[-1]] > 1e-9:
                kept.append(j)
        (ci, si), h = np.divmod(keys[kept], n_splits), neg[kept]
        c = c_values[ci, None]
        rp, rm, disc = _rho(h[:, None], self.alphas, c)
        lam = np.where(self._plus[si], rp[:, self._cluster], rm[:, self._cluster])
        # S^2 - H S + (alpha - C) = 0 and Tr S = H
        quad = np.max(np.abs(lam ** 2 - h[:, None] * lam + (self.vector_alphas - c)), axis=1)
        ok = np.all(disc >= -1e-12, axis=1) & \
            (np.maximum(quad, np.abs(np.sum(lam, axis=1) - h)) <= QUADRATIC_TOL)
        ci, h, lam, si = ci[ok], h[ok], lam[ok], si[ok]
        ends = np.searchsorted(ci, np.arange(len(c_values) + 1))
        return [(h[a:b], lam[a:b], si[a:b]) for a, b in zip(ends[:-1], ends[1:])]


def specialized_codazzi_coefficient_identity() -> bool:
    """The coefficient collapse of the symmetric-core Codazzi combination.

    With the reconstructed connection coefficients Gamma_{kj}^i = 4 lam_k r
    and Gamma_{jk}^i = -4 lam_j r (r the single curvature component, the
    sign from the polarized duality), and the left side equal to -2r by the
    first Bianchi identity, the Codazzi equation collapses to
    4 r (1/2 + (lam_j - lam_i) lam_k + (lam_k - lam_i) lam_j) = 0 --
    verified as an exact polynomial identity over symbolic lam's.
    """
    li, lj, lk, r = MPoly.symbols("li lj lk r")
    lhs = -2 * r
    gamma_kj_i = 4 * lk * r
    gamma_jk_i = -4 * lj * r
    rhs = (lj - li) * gamma_kj_i - (lk - li) * gamma_jk_i
    collapsed = 4 * r * (Fraction(1, 2) + (lj - li) * lk + (lk - li) * lj)
    return (rhs - lhs - collapsed).is_zero


def nomizu(ctx: CurvatureContext, xi: np.ndarray) -> np.ndarray:
    """Matrix of T -> nabla_T of the left-invariant extension of xi."""
    xi = np.asarray(xi, dtype=float)
    return np.einsum("kje,j->ek", ctx.nabla_tensor, xi)


class _FrameTensors:
    """Contractions that depend only on the eigenframe X and the normal xi.
    Candidates enter only through N_xi X + X diag(lam), so the residuals of
    B candidates are one stacked matrix product; ``lam`` has shape (B, n)."""

    def __init__(self, ctx: CurvatureContext, xi: np.ndarray, x: np.ndarray,
                 alphas: np.ndarray):
        n = x.shape[1]
        r4 = ctx.riemann_tensor
        # T[j, i, :] = R(xi, X_j) X_i, flattened over (j, i)
        t = np.einsum("a,bj,ci,abce->jie", xi, x, x, r4, optimize=True)
        self.x = x
        self.nx = nomizu(ctx, xi) @ x
        self.t = t.reshape(n * n, -1)
        self.t_sym = (t + np.transpose(t, (1, 0, 2))).reshape(n * n, -1)
        # <nabla_k X_i, X_j> and R(X_k, X_i, X_j, xi)
        self.nab = np.einsum("ak,bi,abe,ej->kij", x, x, ctx.nabla_tensor, x, optimize=True)
        self.rkij = np.einsum("ak,bi,cj,e,abce->kij", x, x, x, xi, r4, optimize=True)
        self.dalpha = alphas[None, None, :] - alphas[None, :, None]  # alpha_j - alpha_i

    def gauss(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """dG1[b, i, k] = <R_{X_i} xi, nabla_k xi + lam_k X_k>, zero on an Einstein
        hypersurface with locally constant eigenvalues, and Gamma[b, k, i, j] from
        the derived-Gauss relation where alpha_i != alpha_j (NaN elsewhere)."""
        b, n = lam.shape
        gm = self.nx + self.x * lam[:, None, :]
        rxij = np.matmul(self.t, gm).reshape(b, n, n, n)  # [b, j, i, k]
        num = np.matmul(self.t_sym, gm).reshape(b, n, n, n).transpose(0, 3, 2, 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            gamma = num / self.dalpha + self.nab
        gamma[:, :, np.abs(self.dalpha[0]) < 1e-9] = np.nan
        diag = np.arange(n)
        return rxij[:, diag, diag, :], gamma

    def codazzi(self, lam: np.ndarray, gamma: np.ndarray):
        """Residuals [b, k, i, j] = R(X_k, X_i, X_j, xi) - (lam_i - lam_j) Gamma[k, i, j]
        + (lam_k - lam_j) Gamma[i, k, j], NaN where a needed Gamma is missing, and
        that mask."""
        li_lj = lam[:, None, :, None] - lam[:, None, None, :]
        lk_lj = lam[:, :, None, None] - lam[:, None, None, :]
        gamma_ikj = np.transpose(gamma, (0, 2, 1, 3))
        term1 = np.where(np.abs(li_lj) < 1e-12, 0.0, li_lj * gamma)
        term2 = np.where(np.abs(lk_lj) < 1e-12, 0.0, lk_lj * gamma_ikj)
        needed_missing = ((np.abs(li_lj) >= 1e-12) & np.isnan(gamma)) | \
                         ((np.abs(lk_lj) >= 1e-12) & np.isnan(gamma_ikj))
        return np.where(needed_missing, np.nan, self.rkij - term1 + term2), needed_missing

    def aggregate(self, lam: np.ndarray) -> np.ndarray:
        """Max of |dG1| and of the evaluated |Codazzi| residuals, per row."""
        dg1, gamma = self.gauss(lam)
        res = np.abs(self.codazzi(lam, gamma)[0])
        cz = np.max(res, axis=(1, 2, 3), initial=0.0, where=~np.isnan(res))
        return np.maximum(np.max(np.abs(dg1), axis=(1, 2)), cz)


def horosphere_residual(ctx: CurvatureContext) -> float:
    """The probe's residual on the horosphere normal to A (S = 1/2 on v and 1 on z, Jacobi
    eigenvalues -S^2): 0 on this hypersurface, the positive control of the probe's floor."""
    lam = np.repeat([0.5, 1.0], [ctx.g.d_v, ctx.g.d_z])
    tensors = _FrameTensors(ctx, ctx.g.vec(a=1.0), np.eye(ctx.g.dim)[:, :-1], -lam * lam)
    return float(tensors.aggregate(lam[None])[0])


def _probe_frame(args) -> tuple[int, float, int, dict | None]:
    """One frame: C-independent work once, then one batch per C (top-level
    with one tuple argument so a worker pool can dispatch it)."""
    g, ctx, frame_seed, fidx, c_grid = args
    frame = random_frame(g, np.random.default_rng(frame_seed))
    eigenframe = _Eigenframe(frame, ctx)
    tensors = _FrameTensors(ctx, frame.xi, eigenframe.x, eigenframe.vector_alphas)
    best, best_info, n_candidates = np.inf, None, 0
    for c, (h, lam, si) in zip(c_grid, eigenframe.candidates(c_grid)):
        if not h.size:
            continue
        n_candidates += h.size
        aggs = tensors.aggregate(lam)
        j = int(np.argmin(aggs))  # the first of equal minima, as a strict < keeps
        if aggs[j] < best:
            best = aggs[j]
            best_info = {"frame_index": fidx, "C": float(c),
                         "H": float(h[j]), "splits": eigenframe.splits[si[j]]}
    return fidx, float(best), n_candidates, best_info


def probe_c_grid(step: float = C_STEP) -> np.ndarray:
    """The probe's C values C_START + k * step for k = 0, 1, ..., up to
    C_STOP, which is the last value when step divides the interval (the 1e-9
    keeps it when the quotient rounds to just below an integer)."""
    return C_START + step * np.arange(int((C_STOP - C_START) / step + 1e-9) + 1)


def probe_codazzi_floor(g, ctx: CurvatureContext, n_frames: int = 100,
                        c_grid: np.ndarray | None = None, seed: int = 0,
                        jobs: int = 1) -> dict:
    """Minimum aggregate residual over random frames, the C grid and splits.

    The reported floor is the smallest obstruction residual any candidate
    achieves; a strictly positive floor is evidence (not a certificate) that
    no pointwise shape operator is compatible with the Einstein condition on
    the sampled frames and C values, whose region ``box`` names.
    Frames get independent seeds spawned from ``seed``, so the result is
    identical whether the grid is processed serially or by a worker pool.
    """
    if c_grid is None:
        c_grid = probe_c_grid()
    frame_seeds = np.random.SeedSequence(seed).spawn(n_frames)
    tasks = [(g, ctx, frame_seeds[i], i, c_grid) for i in range(n_frames)]
    if jobs > 1:
        from multiprocessing import Pool
        with Pool(jobs) as pool:
            results = pool.map(_probe_frame, tasks)
    else:
        results = [_probe_frame(t) for t in tasks]
    per_frame = [r[1] for r in results]
    n_candidates = sum(r[2] for r in results)
    floor_idx = int(np.argmin(per_frame))
    box = {"c_min": float(np.min(c_grid)), "c_max": float(np.max(c_grid)),
           "c_values": len(c_grid), "h_bound": H_BOUND, "h_samples": H_SAMPLES}
    return {"floor": float(per_frame[floor_idx]),
            "floor_info": results[floor_idx][3],
            "candidates": n_candidates, "frames": n_frames, "seed": seed,
            "box": box, "per_frame_min": per_frame}
