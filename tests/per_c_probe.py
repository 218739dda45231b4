"""Reference oracles for the probe's frame search: the scan cutoff of one C
alone, and the frame minimum from one residual batch per C.

``cutoff`` is the proven scan cutoff of a single C; ``_Eigenframe._cutoffs``
takes every C at once and is checked against it.  ``per_c_probe_frame``
evaluates the aggregate of every candidate, one batch per C value, and keeps
the first minimum with a strict <; ``_probe_frame`` evaluates only the
candidates its lower bound cannot rule out and is checked against it bit for
bit.
"""

from __future__ import annotations

import numpy as np

from drgeom.hypersurface import _Eigenframe, _FrameTensors
from drgeom.spectrum import random_frame


def cutoff(eigenframe: _Eigenframe, half_sq: np.ndarray, c: float) -> int:
    """The first row of the H >= 0 grid from which on every split's trace gap
    has a proven nonzero sign at C (the grid's length where none is proven)."""
    a, lead, d = eigenframe.alphas - c, np.abs(eigenframe._coef[0]), eigenframe._coef[1:]
    d1, d2, flat = np.abs(a @ d), 4.0 * (a * a) @ np.abs(d), lead == 0.0
    if np.any(d1[flat] < 1e-6):
        return half_sq.size
    tilted = (d1 + np.sqrt(d1 * d1 + 4.0 * lead * d2))[~flat] / (2.0 * lead[~flat])
    u = max(tilted.max(initial=0.0), (d2[flat] / d1[flat]).max(initial=0.0))
    return int(np.searchsorted(half_sq, 1.001 * u, side="right"))


def per_c_probe_frame(ctx, frame_seed, fidx: int, c_grid) -> tuple[int, float, int, dict | None]:
    """One frame's index, minimum aggregate, candidate count and the minimum's
    C, H and splits, from every candidate's aggregate, one batch per C."""
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
