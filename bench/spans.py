"""Span recording around drgeom's public functions, installed from outside.

Nothing in ``src/`` knows about tracing.  ``install`` wraps each function in
``TARGETS`` and rebinds the wrapper on the module (or class) that defines it
and on every loaded drgeom module that imported it with ``from ... import``,
so calls between drgeom modules go through the wrapper too.  Spans stay in
memory; ``layer_metrics`` turns them into per-layer numbers and ``dump``
writes them out once the operation is over.

A span is (name, start, end, parent index, operation id).  Self time is a
span's duration minus the durations of its direct children; the workloads
are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _matrix_key(args, kwargs):
    m = args[0] if args else kwargs["m"]
    arr = np.ascontiguousarray(m, dtype=float)
    return hashlib.blake2b(arr.tobytes() + repr(arr.shape).encode(),
                           digest_size=16).digest()


def _alpha_key(args, kwargs):
    return tuple(float(a) for a in args[:3])


def _dims(args, kwargs):
    """'dz_dv' of the first argument that is, or holds as .g, an algebra."""
    for arg in args:
        g = getattr(arg, "g", arg)
        if hasattr(g, "d_z"):
            return f"{g.d_z}_{g.d_v}"
    return None


# (module, attribute, span name, options).  An attribute "Class.method"
# wraps the method on the class.  Options: "distinct" keys the inputs for a
# distinct-input ratio, "dims" tags the span with the algebra's dimensions,
# "count_result" names a counter that sums len(result).
TARGETS = [
    ("drgeom.cli", "run", "cli", {}),
    ("drgeom.cli", "replay", "cli", {}),
    ("drgeom.cli", "probe", "cli", {}),
    ("drgeom.clifford", "build_module", "clifford.build_module", {}),
    ("drgeom.dralgebra", "DamekRicci.k_operator", "dralgebra.k_operator", {}),
    ("drgeom.dralgebra", "DamekRicci.k_square_minus1_space",
     "dralgebra.k_square_minus1_space", {}),
    ("drgeom.curvature", "CurvatureContext.__init__", "curvature.context_build",
     {"dims": _dims}),
    ("drgeom.curvature", "CurvatureContext.jacobi", "curvature.jacobi", {}),
    ("drgeom.spectrum", "make_frame", "spectrum.make_frame", {}),
    ("drgeom.spectrum", "xi_spectrum", "spectrum.xi_spectrum", {"dims": _dims}),
    ("drgeom.spectrum", "alpha_cubic", "spectrum.alpha_cubic", {"distinct": _alpha_key}),
    ("drgeom.spectrum", "psi_map", "spectrum.psi_map", {}),
    ("drgeom.hypersurface", "shape_candidates", "hypersurface.shape_candidates",
     {"count_result": "hypersurface.candidates"}),
    ("drgeom.hypersurface", "derived_gauss_residuals", "hypersurface.derived_gauss", {}),
    ("drgeom.hypersurface", "codazzi_residual", "hypersurface.codazzi", {}),
    ("drgeom.hypersurface", "probe_codazzi_floor", "hypersurface.probe",
     {"dims": _dims}),
    ("drgeom.numkernel", "eig_sym", "numkernel.eig_sym", {"distinct": _matrix_key}),
    ("drgeom.numkernel", "rational_bisect", "numkernel.rational_bisect", {}),
    ("drgeom.numkernel", "symmetric_eliminate", "numkernel.symmetric_eliminate", {}),
    ("drgeom.numkernel", "poly_reduce", "numkernel.poly_reduce", {}),
    ("drgeom.numkernel", "mpoly_resultant", "numkernel.mpoly_resultant", {}),
    ("drgeom.obstruction", "replay_no_v", "obstruction.replay_no_v", {}),
    ("drgeom.obstruction", "replay_no_a", "obstruction.replay_no_a", {}),
    ("drgeom.obstruction", "replay_no_z", "obstruction.replay_no_z", {}),
    ("drgeom.obstruction", "enumerate_dimension_cases",
     "obstruction.enumerate_dimension_cases", {}),
    ("drgeom.obstruction", "replay_octonion_case", "obstruction.replay_octonion_case", {}),
    ("drgeom.obstruction", "replay_quarter_eigenspace_jcompat",
     "obstruction.replay_quarter_eigenspace_jcompat", {}),
    ("drgeom.obstruction", "replay_p_space_annihilation",
     "obstruction.replay_p_space_annihilation", {}),
    ("drgeom.obstruction", "general_case_ledger", "obstruction.general_case_ledger", {}),
]


class Recorder:
    """In-memory spans plus the counters kept at the same boundaries."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[list] = []      # [name, start, end, parent, op_id, tag]
        self.stack: list[int] = []
        self.distinct: dict[str, set] = defaultdict(set)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []

    def wrap(self, name: str, fn, distinct=None, dims=None, count_result=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if distinct is not None:
                rec.distinct[name].add(distinct(args, kwargs))
            tag = dims(args, kwargs) if dims is not None else None
            idx = len(rec.spans)
            parent = rec.stack[-1] if rec.stack else -1
            rec.spans.append([name, time.perf_counter(), None, parent, rec.op_id, tag])
            rec.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.stack.pop()
                rec.spans[idx][2] = time.perf_counter()
            if count_result:
                rec.counts[count_result] += len(out)
            return out

        return traced


def install(op_id: int) -> Recorder:
    """Wrap every target and rebind it wherever drgeom imported it.

    A target the package no longer has is listed in ``rec.missing`` and its
    metrics read 0, so a renamed function shows up without failing the run.
    """
    rec = Recorder(op_id)
    for mod_name, attr, span_name, opts in TARGETS:
        owner = sys.modules.get(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(owner, cls_name, None)
            attr = meth
        original = getattr(owner, attr, None)
        if original is None:
            rec.missing.append(f"{mod_name}.{attr}")
            continue
        if isinstance(owner, type):
            setattr(owner, attr, rec.wrap(span_name, original, **opts))
            continue
        wrapper = rec.wrap(span_name, original, **opts)
        for name, mod in list(sys.modules.items()):
            if name == "drgeom" or name.startswith("drgeom."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
    _count_constructions(rec, sys.modules["drgeom.numkernel"].MPoly,
                         "numkernel.mpoly_new.calls")
    return rec


def _count_constructions(rec: Recorder, cls, name: str):
    """Count instances made by ``cls(...)`` or ``cls.__new__`` (no span)."""
    def counting_new(klass, *args, **kwargs):
        rec.counts[name] += 1
        return object.__new__(klass)
    cls.__new__ = staticmethod(counting_new)


def self_times(spans) -> list[float]:
    child_total = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_total[parent] += end - start
    return [s[2] - s[1] - child_total[i] for i, s in enumerate(spans)]


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-name call counts and summed self times, ratios and tagged means."""
    out: dict[str, float] = {}
    selfs = self_times(rec.spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    tagged: dict[str, list[float]] = defaultdict(list)
    for span, st in zip(rec.spans, selfs):
        name, start, end, _, _, tag = span
        calls[name] += 1
        self_s[name] += st
        if tag is not None:
            tagged[f"{name}_{tag}"].append(end - start)
    for _, _, name, opts in TARGETS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        if "distinct" in opts:
            out[f"{name}.distinct_ratio"] = (len(rec.distinct[name]) / calls[name]
                                             if calls[name] else 0.0)
    out.update(rec.counts)
    for key, durations in tagged.items():
        out[f"{key}.mean_s"] = sum(durations) / len(durations)
    return out


def dump(rec: Recorder, path) -> None:
    """Write the spans as JSON lines: name, start, end, parent, op, tag."""
    with open(path, "w") as fh:
        for span in rec.spans:
            fh.write(json.dumps(span) + "\n")
