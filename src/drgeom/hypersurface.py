"""Shape-operator candidates and Gauss/Codazzi residual diagnostics.

A candidate shape operator compatible with the Einstein condition must be
curvature-adapted and satisfy S^2 - H S + (alpha - C) id = 0 on each
eigenspace of the normal Jacobi operator; candidates are enumerated per
multiplicity split with the mean curvature solved self-consistently.  The
derived-Gauss relation reconstructs the connection coefficients on pairs of
distinct eigenvalues, and the Codazzi combination is evaluated pointwise.

The residual is the max of |Codazzi| over the components (k, i, j) with k, i
and j distinct, n(n - 1)(n - 2) of the n^3.  No derivative of an eigenvalue
enters them, so the residual does not assume locally constant eigenvalues.
A component with j in {i, k} holds X_k(lambda_i) or X_i(lambda_k), and in one
with k = i the two Gamma terms cancel, leaving R(X_k, X_k, X_j, xi) = 0 up to
rounding, so both kinds are left out.  A nonzero floor is evidence over the
sampled frames and C values, not a certificate.

The probe computes the C-independent data once per frame (the Jacobi
eigenspaces from the frame's explicit eigenvector families, the shared
eigenframe X and its curvature contractions).  Then it
scans the trace equation on an H >= 0 grid, each split class (P != 1 and
P = 1 plus vectors) only up to the point from which every trace gap of the
class has a proven sign.  The roots with H < 0 are those of the mirror
splits, negated.  The scan takes consecutive C values together, as many as
fit in a fixed budget of (H row, split) elements.  The brackets of all
frames of a chunk (CHUNK_FRAMES consecutive frames, whatever the worker
count), all splits and all C values are bisected in one loop.  Each frame's
candidates are one flat table over all C values, sorted by C, split and H.  The
residuals are evaluated in full only for the candidates that a cheap lower
bound (the residual on a few sentinel components) cannot rule out as the
frame's minimum, in blocks of rows in bound order.  Every Codazzi number
comes from one evaluator, component by component, so the bound is a max over
some of the very numbers the full residual takes its max over, and never
exceeds it.
"""

from __future__ import annotations

import sys
import time
from contextlib import nullcontext
from itertools import chain, product

import numpy as np

from .curvature import CurvatureContext
from .spectrum import NormalFrame, eigenspaces, random_frame

QUADRATIC_TOL = 1e-10
# Tr S = H is scanned for sign changes on H = 0 and the H > 0 half of H_SAMPLES
# points of [-H_BOUND, H_BOUND]
H_BOUND = 60.0
H_SAMPLES = 2400
# the probe scans C from C_START up to C_STOP in steps of C_STEP
C_START, C_STOP, C_STEP = -2.0, 0.0, 0.01
# a probe frame evaluates its candidates' full residuals BLOCK rows at a time
BLOCK = 32
# and scans consecutive C values together, at most SCAN_BLOCK (H row, split) pairs at a time
SCAN_BLOCK = 1 << 15
# the probe bisects CHUNK_FRAMES consecutive frames together, whatever the worker count
CHUNK_FRAMES = 10


def _small_root(h, two_a: np.ndarray) -> np.ndarray:
    """rho-(H) for H >= 0 from two_a = 2(alpha - C), one row per eigenspace (the
    arrays broadcast with h): it is 2(alpha - C)/(H + sqrt(disc)), which does not
    cancel at large H, where disc = H^2 - 4(alpha - C) > 0, and H/2 (also at
    H = alpha - C = 0) where disc <= 0."""
    disc = h ** 2 - 2.0 * two_a  # 4(alpha - C) exactly: scaling by 2 does not round
    t = np.multiply(0.5, h, out=np.empty_like(disc))
    np.divide(two_a, h + np.sqrt(np.maximum(disc, 0.0)), out=t, where=disc > 0.0)
    return t


def _trace_gap(h, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Tr S - H = (P - 1) H + sum (m- - m+) rho- for H >= 0, from the small roots t
    (one row per eigenspace) and a split's coefficients w (the rows of
    ``_Eigenframe._coef``), summed eigenspace by eigenspace after the H term."""
    gap = w[0] * h
    for k in range(len(t)):
        gap = gap + w[k + 1] * t[k]
    return gap


class _Eigenframe:
    """The C-independent part of the enumeration for one normal: the Jacobi
    eigenvalues on xi-perp, the eigenframe X and per-vector alphas that every
    candidate shares, all from ``spectrum.eigenspaces`` (so a frame without the
    generic families raises ValueError), the splits as count matrices and the
    H sample grid."""

    def __init__(self, frame: NormalFrame):
        alphas, bases = zip(*eigenspaces(frame))
        self.alphas, self.x = np.array(alphas), np.hstack(bases)
        mults = [basis.shape[1] for basis in bases]
        self.vector_alphas = np.repeat(self.alphas, mults)
        split_ranges = [[(p, m - p) for p in range(m + 1)] for m in mults]
        # every range reversed swaps m+ and m- in its eigenspace, so the split
        # n_splits - 1 - i is the mirror of split i
        self.splits = list(product(*split_ranges))
        # rho+ = H - rho-, so Tr S - H = [H | rho-] @ coef, one column per split
        counts = np.array(self.splits, dtype=float)  # [split, cluster, (m+, m-)]
        self._coef = np.vstack([counts[:, :, 0].sum(axis=1) - 1.0,
                                (counts[:, :, 1] - counts[:, :, 0]).T])
        # the split classes P != 1 and P = 1, each scanned up to its own cutoff
        self._classes = (np.flatnonzero(self._coef[0] != 0.0),
                         np.flatnonzero(self._coef[0] == 0.0))
        # within an eigenspace the first m+ vectors take rho+: [split, vector]
        self._cluster = np.repeat(np.arange(len(mults)), mults)
        rank = np.arange(len(self._cluster)) - np.repeat(np.cumsum([0, *mults[:-1]]), mults)
        self._plus = rank < counts[:, self._cluster, 0]
        half = np.linspace(-H_BOUND, H_BOUND, H_SAMPLES)[H_SAMPLES // 2:]
        self.hs = np.concatenate([[0.0], half])  # H = 0, then the grid's H > 0 half

    def _cutoffs(self, hs_sq: np.ndarray, c_values: np.ndarray) -> np.ndarray:
        """Per C, the first row of the H >= 0 grid from which on the trace gap of
        every split of a class has a proven nonzero sign (the grid's length where
        none is proven): row [0] is for the splits with P != 1, row [1] for P = 1.

        Where all disc >= 0, take x = 1/H^2, a = alpha - C and a split's P - 1 and
        d = m- - m+.  Then rho- = (a/H) c(a x) with c(y) = 2/(1 + sqrt(1 - 4y)), which
        is in (0, 2] for y <= 1/4 and solves c = 1 + y c^2.  So (c - 1)/y = c^2 <= 4,
        and H (Tr S - H) = (P - 1) H^2 + D1 + r with D1 = sum d a and |r| <= D2 x,
        D2 = 4 sum |d| a^2.  The sign is sign(P - 1) once H^2 exceeds the positive
        root u of |P - 1| u^2 - |D1| u - D2, and for P = 1 it is sign(D1) once
        H^2 > D2/|D1|.  For P = 1 a second order is also taken: c - 1 - y =
        y^2 c^2 (c + 1), at most 12 y^2 in size, so H (Tr S - H) = D1 + E1 x + r with
        E1 = sum d a^2 and |r| <= F x^2, F = 12 sum |d| |a|^3.  With s = |E1| +
        sqrt(E1^2 + 4 F |D1|), the sign is sign(D1 + E1 x) once H^2 > 2F/s where
        D1 E1 >= 0 (also for D1 = 0), and once H^2 > s/(2|D1|) where the signs are
        opposite.  A P = 1 split takes the smaller of its two bounds.

        The 1e-3 margin on every bound, and the 1e-6 floor on |D1| (first order and
        opposite signs) and on max(|D1|, |E1|) (same signs), keep the bound's slack
        in H (Tr S - H) at >= 1e-3 of the leading term for P != 1, >= ~1e-9 for
        the floor on |D1| and, on grid rows (x >= 1/3600), >= ~1e-13 for the floor
        on |E1|: far above the gap's rounding (~1e-15).  The C values go in blocks
        of at most SCAN_BLOCK (C, split) elements, at least one C per block."""
        rows, per = [], max(SCAN_BLOCK // len(self.splits), 1)
        # the d columns of the two classes: the gap tilts with H for P != 1, not for P = 1
        tilted, flat = (self._coef[1:, cols] for cols in self._classes)
        abs_tilted, abs_flat = np.abs(tilted), np.abs(flat)
        lead = np.abs(self._coef[0, self._classes[0]])
        with np.errstate(divide="ignore", invalid="ignore"):
            for g in range(0, c_values.size, per):
                a = (self.alphas - c_values[g:g + per, None])[:, None, :]
                # a stack of (1, k) @ (k, splits) products rounds each C as that C
                # alone would
                d1 = np.abs(np.matmul(a, tilted)[:, 0])
                d2 = 4.0 * np.matmul(a * a, abs_tilted)[:, 0]
                u_tilted = ((d1 + np.sqrt(d1 * d1 + 4.0 * lead * d2)) / (2.0 * lead))
                d1, e1 = np.matmul(a, flat)[:, 0], np.matmul(a * a, flat)[:, 0]
                d2 = 4.0 * np.matmul(a * a, abs_flat)[:, 0]
                f = 12.0 * np.matmul(np.abs(a) ** 3, abs_flat)[:, 0]
                same = d1 * e1 >= 0.0
                d1, e1 = np.abs(d1), np.abs(e1)
                s = e1 + np.sqrt(e1 * e1 + 4.0 * f * d1)
                first = np.where(d1 < 1e-6, np.inf, d2 / d1)
                second = np.where(same, np.where(np.maximum(d1, e1) < 1e-6, np.inf, 2.0 * f / s),
                                  np.where(d1 < 1e-6, np.inf, s / (2.0 * d1)))
                rows.append(np.stack([u_tilted.max(axis=1, initial=0.0),
                                      np.minimum(first, second).max(axis=1, initial=0.0)]))
        return np.searchsorted(hs_sq, 1.001 * np.hstack(rows), side="right")

    def _brackets(self, c_values: np.ndarray):
        """Every grid bracket of the trace gap: keys c index * n_splits + split and
        the ends where the gap is <= 0 and >= 0 (equal at an exact grid zero)."""
        n_splits, hs_sq = len(self.splits), self.hs ** 2
        # every discriminant grows with H >= 0, so the rows where all are >= 0 are a
        # tail; the cell just below the tail holds the branch point
        # 2 sqrt(max alpha - C), where a real root may lie, so the scan starts there
        los = np.maximum(np.searchsorted(hs_sq, 4.0 * (self.alphas.max() - c_values)) - 1, 0)
        keys, neg, pos = [], [], []
        for cols, cuts in zip(self._classes, self._cutoffs(hs_sq, c_values)):
            if not cols.size:
                continue
            coef = self._coef[:, cols]
            rows = np.maximum(np.minimum(cuts + 1, hs_sq.size) - los, 0)
            firsts = np.concatenate([[0], np.cumsum(rows)])
            row_c = np.repeat(np.arange(c_values.size), rows)
            row_h = self.hs[np.repeat(los - firsts[:-1], rows) + np.arange(firsts[-1])]
            cap, g = SCAN_BLOCK // cols.size, 0
            while g < c_values.size:
                # the group [g, e): as many C values as fit in cap rows, and at least one
                e = max(int(np.searchsorted(firsts, firsts[g] + cap, side="right")) - 1, g + 1)
                ci, h = row_c[firsts[g]:firsts[e]], row_h[firsts[g]:firsts[e]]
                a = self.alphas[:, None] - c_values[ci]
                t = _small_root(h, 2.0 * a)
                # only the signs and exact zeros of the trace gap are used; at H = 0 it
                # is the bisection's sum, so that the scan and the bisection share one sign
                fvals = np.hstack([h[:, None], t.T]) @ coef
                zero = h == 0.0
                fvals[zero] = _trace_gap(h[zero, None], t[:, zero, None], coef)
                below, above = fvals < 0.0, fvals > 0.0
                for mask, di_neg, di_pos in ((fvals == 0.0, 0, 0),
                                             (below[:-1] & above[1:], 0, 1),
                                             (above[:-1] & below[1:], 1, 0)):
                    i, si = np.divmod(np.flatnonzero(mask), cols.size)
                    if di_neg != di_pos:  # one C's last row and the next C's first are no bracket
                        same = ci[i] == ci[i + 1]
                        i, si = i[same], si[same]
                    keys.append(ci[i] * n_splits + cols[si])
                    neg.append(h[i + di_neg])
                    pos.append(h[i + di_pos])
                g = e
        return np.concatenate(keys), np.concatenate(neg), np.concatenate(pos)

    def _roots_to_candidates(self, c_values: np.ndarray, keys: np.ndarray, neg: np.ndarray,
                             pos: np.ndarray) -> tuple[np.ndarray, ...]:
        """The candidates of bisected brackets: each root and its mirror split's,
        deduplicated and filtered, as the table (ci, h, lam, si) of ``_candidates``."""
        n_splits = len(self.splits)
        # minus the other end is a root of the mirror split, n_splits - 1 - split
        ci, si = np.divmod(keys, n_splits)
        keys = np.concatenate([keys, ci * n_splits + (n_splits - 1 - si)])
        roots = np.concatenate([neg, -pos])
        order = np.lexsort((roots, keys))
        keys, roots = keys[order], roots[order]
        # a root within 1e-9 above the previous root of its key is dropped.  Comparing
        # with the previous root rather than the last kept one changes nothing, since
        # no window of 2e-9 holds three roots of a key: they are one per grid bracket
        # of the split (all >= 0) and of its mirror (all <= 0), each bracket lies
        # between two grid rows 0.025 apart or more, and on each side only the first
        # bracket comes near H = 0.  So the root after a dropped one is more than
        # 1e-9 above it
        kept = np.ones(keys.size, dtype=bool)
        kept[1:] = (keys[1:] != keys[:-1]) | (roots[1:] - roots[:-1] > 1e-9)
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
        return ci[ok], h[ok], lam[ok], si[ok]


def _candidates(eigenframes: list[_Eigenframe], c_values) -> list[tuple[np.ndarray, ...]]:
    """Self-consistent candidates of each frame, as one table (ci, h, lam, si) per
    frame sorted by C, then split, then H: the index into ``c_values`` (k,), the
    mean curvature H (k,), the principal curvatures (k, n) on the eigenframe X and
    the split index into ``splits`` (k,).

    On an eigenspace of Jacobi eigenvalue alpha and multiplicity m, S has
    eigenvalues among rho+-(H) = (H +- sqrt(H^2 - 4(alpha - C)))/2; every split
    (m+, m-) is enumerated and H solves Tr S = H.  Tr S - H at -H is minus the
    mirror split's at H, so per C only the grid points with H >= 0 are scanned,
    the splits with P != 1 up to one ``_cutoffs`` row and those with P = 1 up to
    the other (past it no sign changes: a first order bound, and for P = 1 also a
    second order one, on the trace gap, with a margin and a floor that keep its
    slack far above the gap's rounding).  Consecutive C values are scanned
    together, in groups of at most SCAN_BLOCK (row, split) elements per class (a
    C over that alone is a group of its own); a row's trace gaps do not depend on
    its group.  The sign changes of every frame and C value are bisected in one
    loop until each bracket holds two adjacent floats (an exact grid zero is a
    bracket of width 0), so each step's fixed cost is paid once: a frame with
    fewer eigenspaces than the widest gets zero weights and zero 2(alpha - C)
    rows, whose terms 0 * 0 add +-0 to its trace gap and change neither a sign nor
    an exact zero, so each frame's candidates are bit for bit those of the frame
    alone.  Each step tests the trace gap at the midpoint with the scan's
    ``_small_root`` and ``_trace_gap``.  The end where the trace gap is <= 0 is
    the root, and minus the other end is the mirror split's root.  Roots within
    1e-9 of a smaller one are dropped, and so are splits with complex roots."""
    c_values = np.asarray(c_values, dtype=float)
    brackets = [ef._brackets(c_values) for ef in eigenframes]
    width = max(ef.alphas.size for ef in eigenframes)
    # per bracket: 2(alpha - C) and the split's coefficients, eigenspace rows first;
    # the arrays shrink only when a bracket is done
    two_a, w = [], []
    for ef, (keys, neg, pos) in zip(eigenframes, brackets):
        ci, si = np.divmod(keys[neg != pos], len(ef.splits))
        pad = ((0, width - ef.alphas.size), (0, 0))
        two_a.append(np.pad(2.0 * (ef.alphas[:, None] - c_values[ci]), pad))
        w.append(np.pad(ef._coef[:, si], pad))
    two_a, w = np.hstack(two_a), np.hstack(w)
    neg = np.concatenate([neg for _, neg, _ in brackets])
    pos = np.concatenate([pos for _, _, pos in brackets])
    live = np.flatnonzero(neg != pos)
    lo, hi = neg[live], pos[live]
    while live.size:
        mid = 0.5 * (lo + hi)
        done = (mid == lo) | (mid == hi)
        if done.any():
            neg[live[done]], pos[live[done]] = lo[done], hi[done]
            moving = ~done
            live, lo, hi, mid = live[moving], lo[moving], hi[moving], mid[moving]
            two_a, w = two_a[:, moving], w[:, moving]
        gap = _trace_gap(mid, _small_root(mid, two_a), w)
        lo = np.where(gap <= 0.0, mid, lo)
        hi = np.where(gap >= 0.0, mid, hi)
    ends = np.cumsum([0, *(keys.size for keys, _, _ in brackets)])
    return [ef._roots_to_candidates(c_values, keys, neg[a:b], pos[a:b])
            for ef, (keys, _, _), a, b in zip(eigenframes, brackets, ends[:-1], ends[1:])]


def nomizu(ctx: CurvatureContext, xi: np.ndarray) -> np.ndarray:
    """Matrix of T -> nabla_T of the left-invariant extension of xi."""
    xi = np.asarray(xi, dtype=float)
    return np.einsum("kje,j->ek", ctx.nabla_tensor, xi)


class _FrameTensors:
    """Contractions that depend only on the eigenframe X and the normal xi, one entry
    per flat [k, i, j] Codazzi component, from one contraction T[j, i] = R(xi, X_j) X_i
    and one product with [X | N_xi X].  Candidates enter only through ``lam`` (B, n):
    the derived-Gauss numerator (T[j, i] + T[i, j]) . (N_xi X_k + lam_k X_k) =
    p + q lam_k gives Gamma[k, i, j].  ``every`` holds the flat indices of the
    residual's components, those with k, i and j distinct, in increasing order."""

    def __init__(self, ctx: CurvatureContext, xi: np.ndarray, x: np.ndarray,
                 alphas: np.ndarray):
        n = x.shape[1]
        # t[j, i, :] = R(xi, X_j) X_i, and ty[j, i, m] its pairing with column m of [X | N_xi X]
        t = np.matmul(x.T, np.tensordot(x, np.tensordot(xi, ctx.riemann_tensor, 1), (0, 0)))
        ty = t @ np.hstack([x, nomizu(ctx, xi) @ x])
        num = (ty + ty.transpose(1, 0, 2)).transpose(2, 1, 0)  # [m, i, j]: (j, i) + (i, j)
        self.q, self.p = num[:n].ravel(), num[n:].ravel()
        # R(X_k, X_i, X_j, xi) = -R(xi, X_j, X_k, X_i) by pair symmetry, and <nabla_k X_i, X_j>
        self.rkij = -ty[:, :, :n].transpose(1, 2, 0).ravel()
        self.nab = (np.matmul(x.T, np.tensordot(x, ctx.nabla_tensor, (0, 0))) @ x).ravel()
        self.k, self.i, self.j = k, i, j = np.unravel_index(np.arange(n ** 3), (n, n, n))
        self.every = np.flatnonzero((i != j) & (k != j) & (k != i))
        self.swapped = np.ravel_multi_index((i, k, j), (n, n, n))  # [k, i, j] -> [i, k, j]
        dalpha = alphas[j] - alphas[i]
        # Gamma[k, i, j] is not derived where alpha_i and alpha_j are within 1e-9
        self.dalpha = np.where(np.abs(dalpha) < 1e-9, np.nan, dalpha)

    def _numerator(self, lam: np.ndarray, comps: np.ndarray) -> np.ndarray:
        """p + q lam_k per row and flat [k, i, j] index in ``comps``, O(1) per component."""
        return self.p[comps] + self.q[comps] * lam[:, self.k[comps]]

    def gamma(self, lam: np.ndarray, comps: np.ndarray) -> np.ndarray:
        """Gamma[k, i, j] = <nabla_{X_k} X_i, X_j> per row and flat [k, i, j] index
        in ``comps``, from the derived-Gauss relation; NaN where alpha_i = alpha_j."""
        return self._numerator(lam, comps) / self.dalpha[comps] + self.nab[comps]

    def codazzi(self, lam: np.ndarray, comps: np.ndarray) -> np.ndarray:
        """R(X_k, X_i, X_j, xi) - (lam_i - lam_j) Gamma[k, i, j] + (lam_k - lam_j)
        Gamma[i, k, j] per row and flat [k, i, j] index in ``comps``, without the
        terms whose lambda difference is below 1e-12: NaN exactly where a kept term
        needs a Gamma that is not derived."""
        k, i, j = self.k[comps], self.i[comps], self.j[comps]
        li_lj, lk_lj = lam[:, i] - lam[:, j], lam[:, k] - lam[:, j]
        term1 = np.where(np.abs(li_lj) < 1e-12, 0.0, li_lj * self.gamma(lam, comps))
        term2 = np.where(np.abs(lk_lj) < 1e-12, 0.0,
                         lk_lj * self.gamma(lam, self.swapped[comps]))
        return self.rkij[comps] - term1 + term2

    def codazzi_bound(self, lam: np.ndarray, comps: np.ndarray) -> np.ndarray:
        """Max of the evaluated |Codazzi| residuals per row over the flat [k, i, j]
        indices ``comps``: a lower bound of ``aggregate`` when ``comps`` lies in
        ``every``, since ``aggregate`` takes its max over the same numbers and more."""
        res = np.abs(self.codazzi(lam, comps))
        return np.max(res, axis=1, initial=0.0, where=~np.isnan(res))

    def aggregate(self, lam: np.ndarray) -> np.ndarray:
        """Max of the evaluated |Codazzi| residuals over the components ``every``
        (k, i and j distinct), per row."""
        return self.codazzi_bound(lam, self.every)

    def sentinels(self, lam: np.ndarray) -> np.ndarray:
        """The flat [k, i, j] indices of each row's largest evaluated |Codazzi|
        residual among ``every``, each index once, in increasing order."""
        res = np.abs(self.codazzi(lam, self.every))
        top = np.argmax(np.where(np.isnan(res), -1.0, res), axis=1)  # positions in every
        return self.every[np.flatnonzero(np.bincount(top, minlength=self.every.size))]


def horosphere_residual(ctx: CurvatureContext) -> float:
    """The probe's residual on the horosphere normal to A (S = 1/2 on v and 1 on z, Jacobi
    eigenvalues -S^2): 0 on this hypersurface, the positive control of the probe's floor."""
    lam = np.repeat([0.5, 1.0], [ctx.g.d_v, ctx.g.d_z])
    tensors = _FrameTensors(ctx, ctx.g.vec(a=1.0), np.eye(ctx.g.dim)[:, :-1], -lam * lam)
    return float(tensors.aggregate(lam[None])[0])


def _probe_chunk(args) -> list[tuple[int, float, int, dict | None, int]]:
    """Consecutive frames: C-independent work once per frame, the candidates of
    every frame and C from one ``_candidates`` call, then per frame its minimum
    in (C, candidate) order.  The largest Codazzi components of BLOCK spread-out
    candidates are sentinels, whose residuals bound every aggregate from below:
    they are some of the very numbers the aggregate takes its max over.  Blocks
    of BLOCK candidates in bound order are evaluated in full until the next
    bound exceeds the best so far, so every candidate at the minimum is
    evaluated and the first of them wins, as a strict < would pick it.  Per
    frame: its index, minimum, candidate count, the minimum's C, H and splits,
    and how many candidates were evaluated (top-level with one tuple argument
    so a worker pool can dispatch it)."""
    ctx, frame_seeds, first, c_grid = args
    frames = [random_frame(ctx.g, np.random.default_rng(s)) for s in frame_seeds]
    eigenframes = [_Eigenframe(frame) for frame in frames]
    results = []
    for fidx, (frame, eigenframe, (ci, h, lam, si)) in enumerate(
            zip(frames, eigenframes, _candidates(eigenframes, c_grid)), first):
        if not h.size:
            results.append((fidx, float(np.inf), 0, None, 0))
            continue
        tensors = _FrameTensors(ctx, frame.xi, eigenframe.x, eigenframe.vector_alphas)
        sample = np.arange(0, h.size, -(-h.size // BLOCK))
        bound = tensors.codazzi_bound(lam, tensors.sentinels(lam[sample]))
        order = np.argsort(bound, kind="stable")
        aggs, best = np.full(h.size, np.inf), np.inf
        for start in range(0, h.size, BLOCK):
            if bound[order[start]] > best:
                break
            rows = order[start:start + BLOCK]
            aggs[rows] = tensors.aggregate(lam[rows])
            best = min(best, aggs[rows].min())
        j = int(np.argmin(aggs))  # the first of equal minima in (C, candidate) order
        info = {"frame_index": fidx, "C": float(c_grid[ci[j]]), "H": float(h[j]),
                "splits": eigenframe.splits[si[j]]}
        results.append((fidx, float(aggs[j]), h.size, info,
                        int(np.count_nonzero(np.isfinite(aggs)))))
    return results


def probe_c_grid() -> np.ndarray:
    """The probe's C values C_START + k * C_STEP for k = 0, 1, ..., up to
    C_STOP, which is the last value when C_STEP divides the interval (the 1e-9
    keeps it when the quotient rounds to just below an integer)."""
    return C_START + C_STEP * np.arange(int((C_STOP - C_START) / C_STEP + 1e-9) + 1)


def _progress(results, total: int, start: float):
    """Pass the frame results through, writing one line per frame to stderr with
    the time since ``start`` and how many of its candidates were evaluated in full."""
    for done, result in enumerate(results, 1):
        print(f"probe: {done}/{total} frames done, {time.perf_counter() - start:.2f} s, "
              f"{result[4]}/{result[2]} evaluated", file=sys.stderr, flush=True)
        yield result


def probe_codazzi_floor(ctx: CurvatureContext, n_frames: int = 100, seed: int = 0,
                        jobs: int = 1) -> dict:
    """Minimum aggregate residual over random frames, ``probe_c_grid`` and splits.

    The reported floor is the smallest obstruction residual any candidate
    achieves; a strictly positive floor is evidence (not a certificate) that
    no pointwise shape operator is compatible with the Einstein condition on
    the sampled frames and C values.  ``box`` names their region and the
    residual's components.
    Frames get independent seeds spawned from ``seed`` and go in chunks of
    CHUNK_FRAMES, so ``jobs`` (the worker count) does not change the result.
    One progress line per frame goes to stderr as soon as its chunk is done.
    """
    if n_frames < 1:
        raise ValueError(f"n_frames must be at least 1, got {n_frames}")
    c_grid = probe_c_grid()
    frame_seeds = np.random.SeedSequence(seed).spawn(n_frames)
    chunks = [(ctx, frame_seeds[i:i + CHUNK_FRAMES], i, c_grid)
              for i in range(0, n_frames, CHUNK_FRAMES)]
    workers = min(jobs, len(chunks))
    if workers > 1:
        from multiprocessing import Pool
    start = time.perf_counter()
    with Pool(workers) if workers > 1 else nullcontext() as pool:
        mapper = map if pool is None else pool.imap  # lazy and in order: progress per chunk
        results = list(_progress(chain.from_iterable(mapper(_probe_chunk, chunks)),
                                 n_frames, start))
    per_frame = [r[1] for r in results]
    n_candidates = sum(r[2] for r in results)
    floor_idx = int(np.argmin(per_frame))
    box = {"c_min": float(np.min(c_grid)), "c_max": float(np.max(c_grid)),
           "c_values": len(c_grid), "h_bound": H_BOUND, "h_samples": H_SAMPLES,
           "components": "codazzi (k, i, j) with k, i, j distinct"}
    return {"floor": float(per_frame[floor_idx]),
            "floor_info": results[floor_idx][3],
            "candidates": n_candidates, "frames": n_frames, "box": box,
            "per_frame_min": per_frame}
