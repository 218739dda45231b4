"""Reference oracles for the probe's frame search: the scan cutoffs of one C
alone, the candidates from a scan of one C at a time, and the frame minimum
from one residual batch per C; and ``candidates_per_c``, which splits a frame's
candidate table per C.

``cutoff`` gives the two proven scan cutoffs of a single C, one per split
class (P != 1 and P = 1), with the P = 1 bounds taken split by split;
``_Eigenframe._cutoffs`` takes every C at once and is checked against it.
``per_c_candidates`` scans the trace gap one C value at a time, from the row
before the first where every discriminant is >= 0, every split up to the
larger of the two cutoffs, bisects with the per-bracket constants
recomputed on every step and finds each mirror split by a lookup of its
counts, and drops a root within 1e-9 of the last root it kept, one root at a
time; ``_candidates`` scans groups of C values, each split class up to its own
cutoff, drops roots with one mask and is checked against it bit for bit.
With ``from_h_zero`` it is the full-grid oracle: every C scanned from H = 0 up
to the same cutoffs, which checks that the start row leaves no root out.
``per_c_probe_frame`` evaluates the residual of every candidate, one batch
per C value, as the max of |``codazzi``| over the components it picks with its
own mask (k, i and j distinct), and keeps the first minimum with a strict <;
``_probe_chunk`` evaluates only the candidates its lower bound cannot rule out
and is checked against it bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from drgeom.hypersurface import (QUADRATIC_TOL, _candidates, _Eigenframe, _FrameTensors,
                                 _small_root)
from drgeom.spectrum import random_frame


def candidates_per_c(eigenframe: _Eigenframe, c_values) -> list:
    """The candidate table of one frame split per C: one (H, lambda, split) tuple
    per C value, in split order then by H."""
    ci, h, lam, si = _candidates([eigenframe], c_values)[0]
    ends = np.searchsorted(ci, np.arange(len(c_values) + 1))
    return [(h[a:b], lam[a:b], si[a:b]) for a, b in zip(ends[:-1], ends[1:])]


def cutoff(eigenframe: _Eigenframe, half_sq: np.ndarray, c: float) -> tuple[int, int]:
    """The first rows of the H >= 0 grid from which on every trace gap of the
    splits with P != 1, and of those with P = 1, has a proven nonzero sign at C
    (the grid's length where none is proven)."""
    a = eigenframe.alphas - c
    tilted, flat = (eigenframe._coef[1:, cols] for cols in eigenframe._classes)
    lead = np.abs(eigenframe._coef[0, eigenframe._classes[0]])
    d1, d2 = np.abs(a @ tilted), 4.0 * (a * a) @ np.abs(tilted)
    u_tilted = ((d1 + np.sqrt(d1 * d1 + 4.0 * lead * d2)) / (2.0 * lead)).max(initial=0.0)
    u_flat = 0.0
    for d1, e1, d2, f in zip((a @ flat).tolist(), ((a * a) @ flat).tolist(),
                             (4.0 * (a * a) @ np.abs(flat)).tolist(),
                             (12.0 * (np.abs(a) ** 3 @ np.abs(flat))).tolist()):
        # first order: |D1| >= 1e-6; second: |D1| >= 1e-6 for opposite signs of D1
        # and E1, max(|D1|, |E1|) >= 1e-6 for equal signs
        bounds = [d2 / abs(d1)] if abs(d1) >= 1e-6 else []
        s = abs(e1) + math.sqrt(e1 * e1 + 4.0 * f * abs(d1))
        if d1 * e1 >= 0.0 and max(abs(d1), abs(e1)) >= 1e-6:
            bounds.append(2.0 * f / s)
        elif d1 * e1 < 0.0 and abs(d1) >= 1e-6:
            bounds.append(s / (2.0 * abs(d1)))
        u_flat = max(u_flat, min(bounds, default=math.inf))
    return tuple(int(np.searchsorted(half_sq, 1.001 * u, side="right"))
                 for u in (u_tilted, u_flat))


def per_c_candidates(eigenframe: _Eigenframe, c_values, from_h_zero: bool = False) -> list:
    """``candidates_per_c`` with the trace gap scanned one C at a time, from the
    row before the first where every disc >= 0 (that cell holds the branch point
    2 sqrt(max alpha - C)), or with ``from_h_zero`` from H = 0 on."""
    hs_sq, half = eigenframe.hs ** 2, eigenframe.hs[1:]
    n_splits = len(eigenframe.splits)
    alphas, coef = eigenframe.alphas, eigenframe._coef
    c_values = np.asarray(c_values, dtype=float)
    keys, neg, pos = [], [], []  # c index * n_splits + split; ends with gap <= 0, >= 0
    # the first scanned row of hs
    starts = [0] * c_values.size if from_h_zero else \
        np.maximum(np.searchsorted(hs_sq, 4.0 * (alphas.max() - c_values)) - 1, 0).tolist()
    # one past the larger cutoff row of hs, as an index into half
    ends = eigenframe._cutoffs(hs_sq, c_values).max(axis=0).tolist()
    for ci, (c, start, end) in enumerate(zip(c_values.tolist(), starts, ends)):
        hv = half[max(start - 1, 0):end]
        a = alphas - c
        t = _small_root(hv[:, None], 2.0 * a)
        fvals = np.hstack([hv[:, None], t]) @ coef
        if start == 0:  # add H = 0, its gap summed eigenspace by eigenspace after the H term
            t0 = _small_root(0.0, 2.0 * a)
            gap0 = coef[0] * 0.0
            for k in range(len(alphas)):
                gap0 = gap0 + coef[k + 1] * t0[k]
            hv, fvals = np.concatenate([[0.0], hv]), np.vstack([gap0, fvals])
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
        lo, hi = neg[live], pos[live]
        mid = 0.5 * (lo + hi)
        moving = (mid != lo) & (mid != hi)
        live, lo, hi, mid = live[moving], lo[moving], hi[moving], mid[moving]
        a = alphas - c_values[keys[live] // n_splits, None]
        t = _small_root(mid[:, None], 2.0 * a)
        w = coef[:, keys[live] % n_splits]
        gap = w[0] * mid
        for k in range(len(alphas)):
            gap = gap + w[k + 1] * t[:, k]
        neg[live] = np.where(gap <= 0.0, mid, lo)
        pos[live] = np.where(gap >= 0.0, mid, hi)
    # the mirror split swaps m+ and m- in every eigenspace
    index = {s: i for i, s in enumerate(eigenframe.splits)}
    mirror = np.array([index[tuple((m, p) for p, m in s)] for s in eigenframe.splits])
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
    disc = h[:, None] ** 2 - 4.0 * (alphas - c)
    sq = np.sqrt(np.maximum(disc, 0.0))[:, eigenframe._cluster]
    lam = 0.5 * (h[:, None] + np.where(eigenframe._plus[si], sq, -sq))
    quad = np.max(np.abs(lam ** 2 - h[:, None] * lam + (eigenframe.vector_alphas - c)), axis=1)
    ok = np.all(disc >= -1e-12, axis=1) & \
        (np.maximum(quad, np.abs(np.sum(lam, axis=1) - h)) <= QUADRATIC_TOL)
    ci, h, lam, si = ci[ok], h[ok], lam[ok], si[ok]
    ends = np.searchsorted(ci, np.arange(len(c_values) + 1))
    return [(h[a:b], lam[a:b], si[a:b]) for a, b in zip(ends[:-1], ends[1:])]


def per_c_probe_frame(ctx, frame_seed, fidx: int, c_grid) -> tuple[int, float, int, dict | None]:
    """One frame's index, minimum residual, candidate count and the minimum's
    C, H and splits, from every candidate's residual, one batch per C."""
    frame = random_frame(ctx.g, np.random.default_rng(frame_seed))
    eigenframe = _Eigenframe(frame, ctx)
    tensors = _FrameTensors(ctx, frame.xi, eigenframe.x, eigenframe.vector_alphas)
    n = eigenframe.x.shape[1]
    k, i, j = np.indices((n, n, n)).reshape(3, -1)
    distinct = np.flatnonzero((k != i) & (k != j) & (i != j))
    best, best_info, n_candidates = np.inf, None, 0
    for c, (h, lam, si) in zip(c_grid, candidates_per_c(eigenframe, c_grid)):
        if not h.size:
            continue
        n_candidates += h.size
        res = np.abs(tensors.codazzi(lam, distinct))
        aggs = np.max(res, axis=1, initial=0.0, where=~np.isnan(res))
        b = int(np.argmin(aggs))  # the first of equal minima, as a strict < keeps
        if aggs[b] < best:
            best = aggs[b]
            best_info = {"frame_index": fidx, "C": float(c),
                         "H": float(h[b]), "splits": eigenframe.splits[si[b]]}
    return fidx, float(best), n_candidates, best_info
