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
eigendata, the shared eigenframe X and its curvature contractions).  Then it
scans the trace equation on the 1200 points of its antisymmetric H grid with
H >= 0, gets the other half by mirroring each split, bisects the brackets for
all splits and C values at once, and evaluates the Gauss/Codazzi residuals of
each C's candidates as one batch.
"""

from __future__ import annotations

import sys
import time
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


def _small_root(h, alphas: np.ndarray, c) -> np.ndarray:
    """rho-(H) for H >= 0 as 2(alpha - C)/(H + sqrt(disc)), which does not cancel at
    large H, where disc = H^2 - 4(alpha - C) > 0, and H/2 (also at H = alpha - C = 0)
    where disc <= 0."""
    a = alphas - c
    disc = h ** 2 - 4.0 * a
    t = np.broadcast_to(0.5 * h, disc.shape).copy()
    np.divide(2.0 * a, h + np.sqrt(np.maximum(disc, 0.0)), out=t, where=disc > 0.0)
    return t


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
        # the mirror split swaps m+ and m- in every eigenspace
        index = {s: i for i, s in enumerate(self.splits)}
        self._mirror = np.array([index[tuple((m, p) for p, m in s)] for s in self.splits])
        # rho+ = H - rho-, so Tr S - H = [H | rho-] @ coef, one column per split
        counts = np.array(self.splits, dtype=float)  # [split, cluster, (m+, m-)]
        self._coef = np.vstack([counts[:, :, 0].sum(axis=1) - 1.0,
                                (counts[:, :, 1] - counts[:, :, 0]).T])
        # within an eigenspace the first m+ vectors take rho+: [split, vector]
        self._cluster = np.repeat(np.arange(len(mults)), mults)
        rank = np.arange(len(self._cluster)) - np.repeat(np.cumsum([0, *mults[:-1]]), mults)
        self._plus = rank < counts[:, self._cluster, 0]
        half = np.linspace(-H_BOUND, H_BOUND, H_SAMPLES)[H_SAMPLES // 2:]
        self.hs = np.concatenate([-half[::-1], half])  # exactly antisymmetric

    def candidates(self, c_values) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Self-consistent candidates for each C, in split order then by H:
        their mean curvatures H (k,), principal curvatures (k, n) on the
        eigenframe X and split indices into ``splits`` (k,).

        On an eigenspace of Jacobi eigenvalue alpha and multiplicity m, S has
        eigenvalues among rho+-(H) = (H +- sqrt(H^2 - 4(alpha - C)))/2; every
        split (m+, m-) is enumerated and H solves Tr S = H.  Tr S - H at -H is
        minus the mirror split's at H, so per C only the grid points with
        H >= 0 are scanned, and the pair of grid points around 0.  Then the sign
        changes of all C values are bisected together until each bracket holds
        two adjacent floats (an exact grid zero is a bracket of width 0).  The
        end where the trace gap is <= 0 is the root, and minus the other end is
        the mirror split's root.  Roots within 1e-9 of a smaller one are
        dropped, and so are splits with complex roots.
        """
        half = self.hs[len(self.hs) // 2:]
        half_sq, n_splits, mirror = half ** 2, len(self.splits), self._mirror
        c_values = np.asarray(c_values, dtype=float)
        keys, neg, pos = [], [], []  # c index * n_splits + split; ends with gap <= 0, >= 0
        for ci, c in enumerate(c_values):
            # every discriminant grows with H >= 0, so the rows where all are >= 0 are a tail
            hv = half[np.searchsorted(half_sq, 4.0 * (self.alphas.max() - c)):]
            # only the signs and exact zeros of the trace gap are used
            t = _small_root(hv[:, None], self.alphas, c)
            fvals = np.hstack([hv[:, None], t]) @ self._coef
            if hv.size == half.size:  # add -half[0]: minus the mirror split's gap at half[0]
                hv, fvals = np.concatenate([-hv[:1], hv]), np.vstack([-fvals[0, mirror], fvals])
            below, above = fvals < 0.0, fvals > 0.0
            for mask, di_neg, di_pos in ((fvals == 0.0, 0, 0),
                                         (below[:-1] & above[1:], 0, 1),
                                         (above[:-1] & below[1:], 1, 0)):
                i, si = np.divmod(np.flatnonzero(mask), n_splits)
                keys.append(ci * n_splits + si)
                neg.append(hv[i + di_neg])
                pos.append(hv[i + di_pos])
        keys, neg, pos = np.concatenate(keys), np.concatenate(neg), np.concatenate(pos)
        live = np.flatnonzero(neg != pos)
        while live.size:
            a, b = neg[live], pos[live]
            mid = 0.5 * (a + b)
            moving = (mid != a) & (mid != b)
            live, a, b, mid = live[moving], a[moving], b[moving], mid[moving]
            # Tr S - H at mid < 0 is minus the mirror split's at -mid; it is summed
            # eigenspace by eigenspace after the H term
            h, si, flip = np.abs(mid), keys[live] % n_splits, mid < 0.0
            t = _small_root(h[:, None], self.alphas, c_values[keys[live] // n_splits, None])
            w = self._coef[:, np.where(flip, mirror[si], si)]
            gap = w[0] * h
            for k in range(len(self.alphas)):
                gap = gap + w[k + 1] * t[:, k]
            gap = np.where(flip, -gap, gap)
            neg[live] = np.where(gap <= 0.0, mid, a)
            pos[live] = np.where(gap >= 0.0, mid, b)
        # each root's mirror image is a root of the mirror split (a duplicate
        # from the two brackets around H = 0 is dropped below)
        ci, si = np.divmod(keys, n_splits)
        keys = np.concatenate([keys, ci * n_splits + mirror[si]])
        roots = np.concatenate([neg, -pos])

        kept: list[int] = []
        key_list, root_list = keys.tolist(), roots.tolist()
        for j in np.lexsort((roots, keys)).tolist():
            if not kept or key_list[j] != key_list[kept[-1]] or \
                    root_list[j] - root_list[kept[-1]] > 1e-9:
                kept.append(j)
        (ci, si), h = np.divmod(keys[kept], n_splits), roots[kept]
        c = c_values[ci, None]
        # rho+- = (H +- sqrt(disc))/2 with the square root clipped at 0
        disc = h[:, None] ** 2 - 4.0 * (self.alphas - c)
        sq = np.sqrt(np.maximum(disc, 0.0))[:, self._cluster]
        lam = 0.5 * (h[:, None] + np.where(self._plus[si], sq, -sq))
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
    ctx, frame_seed, fidx, c_grid = args
    frame = random_frame(ctx.g, np.random.default_rng(frame_seed))
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


def _progress(results, total: int):
    """Pass the frame results through, writing one line per frame to stderr."""
    start = time.perf_counter()
    for done, result in enumerate(results, 1):
        print(f"probe: {done}/{total} frames done, {time.perf_counter() - start:.2f} s",
              file=sys.stderr, flush=True)
        yield result


def probe_codazzi_floor(ctx: CurvatureContext, n_frames: int = 100,
                        c_grid: np.ndarray | None = None, seed: int = 0,
                        jobs: int = 1) -> dict:
    """Minimum aggregate residual over random frames, the C grid and splits.

    The reported floor is the smallest obstruction residual any candidate
    achieves; a strictly positive floor is evidence (not a certificate) that
    no pointwise shape operator is compatible with the Einstein condition on
    the sampled frames and C values, whose region ``box`` names.
    Frames get independent seeds spawned from ``seed``, so the result is
    identical whether the grid is processed serially or by a worker pool.
    One progress line per finished frame goes to stderr.
    """
    if c_grid is None:
        c_grid = probe_c_grid()
    frame_seeds = np.random.SeedSequence(seed).spawn(n_frames)
    tasks = [(ctx, frame_seeds[i], i, c_grid) for i in range(n_frames)]
    if jobs > 1:
        from multiprocessing import Pool
        with Pool(jobs) as pool:
            results = list(_progress(pool.imap(_probe_frame, tasks), n_frames))
    else:
        results = list(_progress(map(_probe_frame, tasks), n_frames))
    per_frame = [r[1] for r in results]
    n_candidates = sum(r[2] for r in results)
    floor_idx = int(np.argmin(per_frame))
    box = {"c_min": float(np.min(c_grid)), "c_max": float(np.max(c_grid)),
           "c_values": len(c_grid), "h_bound": H_BOUND, "h_samples": H_SAMPLES}
    return {"floor": float(per_frame[floor_idx]),
            "floor_info": results[floor_idx][3],
            "candidates": n_candidates, "frames": n_frames, "seed": seed,
            "box": box, "per_frame_min": per_frame}
