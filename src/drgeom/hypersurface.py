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

from dataclasses import dataclass, field
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
# the probe scans C from C_START up to C_STOP (0 plus a margin, so 0 itself is
# reached) in steps of C_STEP by default
C_START, C_STOP, C_STEP = -2.0, 0.0 + 1e-12, 0.01


def _rho(h, alphas: np.ndarray, c):
    """rho+-(H) = (H +- sqrt(H^2 - 4(alpha - C)))/2 with the square root of the
    discriminant clipped at 0, and the discriminant itself."""
    disc = h ** 2 - 4.0 * (alphas - c)
    sq = np.sqrt(np.maximum(disc, 0.0))
    return 0.5 * (h + sq), 0.5 * (h - sq), disc


@dataclass(frozen=True)
class ShapeCandidate:
    """Curvature-adapted S on xi-perp with per-eigenspace quadratic roots."""

    c_const: float
    h_mean: float
    alphas: np.ndarray          # per eigenframe vector
    lambdas: np.ndarray         # principal curvature per eigenframe vector
    frame_basis: np.ndarray = field(repr=False)  # columns: eigenframe in ambient coords
    splits: tuple = ()

    @property
    def n(self) -> int:
        return self.lambdas.shape[0]

    def invariant_residual(self) -> float:
        """Max residual of S^2 - H S + (alpha - C) = 0 and Tr S = H."""
        quad = self.lambdas ** 2 - self.h_mean * self.lambdas + (self.alphas - self.c_const)
        tr = abs(float(np.sum(self.lambdas)) - self.h_mean)
        return max(float(np.max(np.abs(quad))), tr)


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
        self.hs = np.linspace(-H_BOUND, H_BOUND, H_SAMPLES)
        self._fvals = np.empty((H_SAMPLES, len(self.splits)))

    def candidates(self, c_values) -> list[list[ShapeCandidate]]:
        """Self-consistent candidates for each C, in split order then by H.

        The H grid is scanned per C.  Then the sign changes of all C values
        are bisected together until each bracket holds two adjacent floats (an
        exact grid zero is a bracket of width 0), and the end where the trace
        gap is <= 0 is the root.  Roots within 1e-9 of a smaller one are dropped.
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
        rp, rm, disc = _rho(h[:, None], self.alphas, c_values[ci, None])
        rho = np.stack([rp, rm], axis=2)  # [candidate, cluster, (+, -)]
        out: list[list[ShapeCandidate]] = [[] for _ in c_values]
        for j in np.flatnonzero(np.all(disc >= -1e-12, axis=1)):
            splits = self.splits[si[j]]
            cand = ShapeCandidate(float(c_values[ci[j]]), float(h[j]), self.vector_alphas,
                                  np.repeat(rho[j].ravel(), np.ravel(splits)), self.x, splits)
            if cand.invariant_residual() <= QUADRATIC_TOL:
                out[ci[j]].append(cand)
        return out


def shape_candidates(frame: NormalFrame, ctx: CurvatureContext,
                     c_const: float) -> list[ShapeCandidate]:
    """Enumerate Einstein-compatible shape operators at one value of C.

    For each eigenvalue alpha of the normal Jacobi operator with
    multiplicity m, the restriction of S has eigenvalues among the roots
    rho+- (H) = (H +- sqrt(H^2 - 4(alpha - C)))/2; every split (m+, m-) is
    enumerated and H is solved from Tr S = H by bisecting grid brackets.
    Splits with complex roots are discarded.  Within an eigenspace the
    first m+ vectors of the deterministic cluster basis take the + root.
    """
    return _Eigenframe(frame, ctx).candidates([c_const])[0]


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


def gauss_map_derivatives(cand: ShapeCandidate, ctx: CurvatureContext,
                          xi: np.ndarray) -> np.ndarray:
    """Columns: nabla_k xi + lambda_k X_k for the candidate eigenframe."""
    nx = nomizu(ctx, xi)
    return nx @ cand.frame_basis + cand.frame_basis * cand.lambdas[None, :]


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
        """dG1[b, i, k] and Gamma[b, k, i, j]."""
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
        """Residuals [b, k, i, j] (NaN where a needed Gamma is missing) and that mask."""
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


def derived_gauss_residuals(cand: ShapeCandidate, ctx: CurvatureContext,
                            frame: NormalFrame) -> dict:
    """First-derivative Gauss data: the dG1 table and reconstructed Gammas.

    dG1[i, k] = <R_{X_i} xi, nabla_k xi + lambda_k X_k>  (must vanish for an
    Einstein hypersurface with locally constant eigenvalues).  Gamma[k,i,j]
    solves the derived-Gauss relation on pairs with alpha_i != alpha_j and
    is NaN where the relation is silent.
    """
    tensors = _FrameTensors(ctx, frame.xi, cand.frame_basis, cand.alphas)
    dg1, gamma = tensors.gauss(cand.lambdas[None])
    return {"dg1": dg1[0], "gamma": gamma[0], "dg1_max": float(np.max(np.abs(dg1)))}


def codazzi_residual(cand: ShapeCandidate, gamma: np.ndarray,
                     ctx: CurvatureContext, frame: NormalFrame) -> dict:
    """Pointwise Codazzi combination on the candidate eigenframe.

    residual[k,i,j] = R(X_k, X_i, X_j, xi) - (lam_i - lam_j) Gamma[k,i,j]
                                           + (lam_k - lam_j) Gamma[i,k,j]
    with eigenvalue derivatives set to zero.  A Gamma factor is only
    required when its lambda coefficient is nonzero; triples needing an
    unavailable Gamma are skipped and counted.
    """
    tensors = _FrameTensors(ctx, frame.xi, cand.frame_basis, cand.alphas)
    res, needed_missing = tensors.codazzi(cand.lambdas[None], np.asarray(gamma)[None])
    ok = ~np.isnan(res[0])
    return {"residuals": res[0], "max": float(np.max(np.abs(res[0]), initial=0.0, where=ok)),
            "evaluated": int(ok.sum()), "skipped": int(needed_missing.sum())}


def candidate_aggregate_residual(cand: ShapeCandidate, ctx: CurvatureContext,
                                 frame: NormalFrame) -> float:
    """Max of the dG1 table and the Codazzi residuals for one candidate."""
    tensors = _FrameTensors(ctx, frame.xi, cand.frame_basis, cand.alphas)
    return float(tensors.aggregate(cand.lambdas[None])[0])


def _probe_frame(args) -> tuple[int, float, int, dict | None]:
    """One frame: C-independent work once, then one batch per C (top-level
    with one tuple argument so a worker pool can dispatch it)."""
    g, ctx, frame_seed, fidx, c_grid = args
    frame = random_frame(g, np.random.default_rng(frame_seed))
    eigenframe = _Eigenframe(frame, ctx)
    tensors = _FrameTensors(ctx, frame.xi, eigenframe.x, eigenframe.vector_alphas)
    best, best_info, n_candidates = np.inf, None, 0
    for c, cands in zip(c_grid, eigenframe.candidates(c_grid)):
        if not cands:
            continue
        n_candidates += len(cands)
        aggs = tensors.aggregate(np.stack([cand.lambdas for cand in cands]))
        for cand, agg in zip(cands, aggs):
            if agg < best:
                best = agg
                best_info = {"frame_index": fidx, "C": float(c),
                             "H": cand.h_mean, "splits": cand.splits}
    return fidx, float(best), n_candidates, best_info


def probe_c_grid(step: float = C_STEP) -> np.ndarray:
    """The probe's C values, np.arange(C_START, C_STOP, step)."""
    return np.arange(C_START, C_STOP, step)


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
