"""Batch driver: suites, replays, the hypersurface probe, and summaries.

Configuration comes from an optional JSON file plus flag overrides (flags
win).  Reports are versioned JSON with one entry per check; numeric
payloads are byte-identical across runs with the same config and seed,
with timestamps confined to the header.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .clifford import admissible, center_dim_bound
from .curvature import CurvatureContext, ricci_heisenberg, ricci_isotropy
from .dralgebra import DamekRicci, verify_heisenberg_identities
from .obstruction import (FAIL, LedgerReport, enumerate_dimension_cases,
                          general_case_ledger, replay_no_a, replay_no_v,
                          replay_no_z, replay_octonion_case,
                          replay_p_space_annihilation,
                          replay_quarter_eigenspace_jcompat)

SCHEMA_VERSION = 1
DEFAULT_DIMS = [(1, 2), (2, 4), (3, 4), (5, 8), (6, 8), (7, 8), (7, 16), (8, 16)]
SUITES = ("clifford", "curvature", "spectrum", "hypersurface", "obstruction", "all")
REPLAY_STEPS = ("no-v", "no-a", "no-z", "dimension-cases", "octonion",
                "quarter-jcompat", "general-ledger", "p-annihilation")


@dataclass
class RunConfig:
    dims: list[tuple[int, int]] = field(default_factory=lambda: list(DEFAULT_DIMS))
    suites: list[str] = field(default_factory=lambda: ["all"])
    seed: int = 0
    tol: float = 1e-9
    exact: bool = False
    samples: int = 200
    probe_frames: int = 100
    c_grid_step: float = 0.01
    jobs: int = 1
    out: str | None = None

    def validate(self):
        for d_z, d_v in self.dims:
            if not admissible(d_z, d_v):
                raise ValueError(
                    f"inadmissible dimensions (d_z, d_v) = ({d_z}, {d_v}): the admissible "
                    f"bound for d_v = {d_v} is 1 <= d_z <= {center_dim_bound(d_v)}")
        for name in ("samples", "probe_frames", "jobs"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not isinstance(self.c_grid_step, (int, float)) or not self.c_grid_step > 0:
            raise ValueError(f"c_grid_step must be a number > 0, got {self.c_grid_step!r}")
        for s in self.suites:
            if s not in SUITES:
                raise ValueError(f"unknown suite {s!r}; choose from {SUITES}")
        if self.out is not None:
            parent = Path(self.out).resolve().parent
            if not parent.is_dir():
                raise ValueError(f"output directory {parent} does not exist")
            import os
            if not os.access(parent, os.W_OK):
                raise ValueError(f"output directory {parent} is not writable")


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """JSON file values, then explicit flags on top (flags win)."""
    data = {}
    if path:
        data = json.loads(Path(path).read_text())
        if "dims" in data:
            data["dims"] = [tuple(d) for d in data["dims"]]
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    unknown = sorted(set(data) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown}")
    cfg = RunConfig(**data)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# suite checks
# ---------------------------------------------------------------------------

def _check(checks, check_id, anchor, ok, residual, t0, **witness):
    # runtime is recorded next to the check but kept out of the
    # deterministic payload (same role as the header timestamp)
    checks.append(({
        "id": check_id, "anchor": anchor,
        "verdict": "pass" if ok else "fail",
        "residual": residual,
        **({"witness": witness} if witness else {})},
        round(time.perf_counter() - t0, 6)))


def clifford_suite(cfg: RunConfig) -> list[dict]:
    from .clifford import anticommutation_residual, build_module
    checks = []
    for d_z, d_v in cfg.dims:
        t0 = time.perf_counter()
        mod = build_module(d_z, d_v)
        res = anticommutation_residual(mod.generators)
        _check(checks, f"clifford-relations({d_z},{d_v})", "clifford-anticommutation",
               res <= 1e-12, res, t0)
    return checks


def curvature_suite(cfg: RunConfig) -> list[dict]:
    checks = []
    rng = np.random.default_rng(cfg.seed)
    for d_z, d_v in cfg.dims:
        g = DamekRicci.from_dims(d_z, d_v)
        ctx = CurvatureContext(g)
        t0 = time.perf_counter()
        h = verify_heisenberg_identities(g, samples=cfg.samples, seed=cfg.seed)
        _check(checks, f"heisenberg-identities({d_z},{d_v})", "bracket-identities",
               h["passed"], h["max_residual"], t0)
        t0 = time.perf_counter()
        worst = _connection_axioms_residual(g, ctx, cfg.samples, rng)
        _check(checks, f"connection-axioms({d_z},{d_v})", "connection-axioms",
               worst <= 1e-12, worst, t0)
        t0 = time.perf_counter()
        worst = _jacobi_cross_residual(g, ctx, cfg.samples, rng)
        _check(checks, f"jacobi-cross-check({d_z},{d_v})", "jacobi-closed-form",
               worst <= 1e-10, worst, t0)
        t0 = time.perf_counter()
        mean, std = ricci_isotropy(ctx, samples=max(cfg.samples, 100), seed=cfg.seed)
        _check(checks, f"einstein-isotropy({d_z},{d_v})", "einstein-isotropy",
               std <= 1e-10, std, t0, einstein_constant=mean)
        t0 = time.perf_counter()
        nil = ricci_heisenberg(g.module)
        _check(checks, f"nilpotent-ricci-split({d_z},{d_v})", "nilpotent-non-einstein",
               nil["sign_split"], nil["offdiag"], t0)
    return checks


def _connection_axioms_residual(g, ctx, samples, rng) -> float:
    worst = 0.0
    for _ in range(samples):
        t1, t2, t3 = (g.random_vec(rng) for _ in range(3))
        mc = (g.inner(ctx.nabla(t1, t2), t3) + g.inner(t2, ctx.nabla(t1, t3)))
        tf = ctx.nabla(t1, t2).flat() - ctx.nabla(t2, t1).flat() - g.bracket(t1, t2).flat()
        worst = max(worst, abs(mc), float(np.max(np.abs(tf))))
    return worst


def _jacobi_cross_residual(g, ctx, samples, rng) -> float:
    from .curvature import jacobi_closed_batch
    t1 = rng.standard_normal((samples, g.dim))
    t2 = rng.standard_normal((samples, g.dim))
    closed = jacobi_closed_batch(g, t1, t2)
    assembled = np.einsum("abce,Bb,Bc,Ba->Be", ctx.riemann_tensor, t1, t1, t2,
                          optimize=True)
    return float(np.max(np.abs(closed - assembled)))


def spectrum_suite(cfg: RunConfig) -> list[dict]:
    from .spectrum import random_frame, xi_spectrum
    checks = []
    rng = np.random.default_rng(cfg.seed)
    for d_z, d_v in cfg.dims:
        g = DamekRicci.from_dims(d_z, d_v)
        ctx = CurvatureContext(g)
        t0 = time.perf_counter()
        worst_match = 0.0
        worst_cert = 0.0
        for _ in range(3):
            frame = random_frame(g, rng)
            rep = xi_spectrum(frame, ctx)
            worst_match = max(worst_match, rep.match_residual)
            if rep.certificate_residuals:
                worst_cert = max(worst_cert, max(rep.certificate_residuals.values()))
        ok = worst_match <= cfg.tol and worst_cert <= cfg.tol
        _check(checks, f"normal-jacobi-spectrum({d_z},{d_v})",
               "normal-jacobi-spectrum", ok, max(worst_match, worst_cert), t0)
    return checks


def hypersurface_suite(cfg: RunConfig) -> list[dict]:
    from .hypersurface import probe_codazzi_floor
    checks = []
    g = DamekRicci.from_dims(2, 4)
    ctx = CurvatureContext(g)
    t0 = time.perf_counter()
    c_grid = np.arange(-2.0, 0.0 + 1e-12, cfg.c_grid_step)
    out = probe_codazzi_floor(g, ctx, n_frames=cfg.probe_frames, c_grid=c_grid,
                              seed=cfg.seed, jobs=cfg.jobs)
    _check(checks, "codazzi-floor(2,4)", "codazzi-floor", out["floor"] > 1e-6,
           out["floor"], t0, candidates=out["candidates"], frames=out["frames"])
    return checks


def obstruction_suite(cfg: RunConfig) -> list[dict]:
    checks = []
    reports: list[LedgerReport] = []
    g24 = DamekRicci.from_dims(2, 4)
    ctx24 = CurvatureContext(g24)
    reports.append(replay_no_v(g24))
    reports.append(replay_no_a(g24, ctx24, seed=cfg.seed))
    reports.append(replay_no_z(2, 4, seed=cfg.seed))
    t0 = time.perf_counter()
    cases = enumerate_dimension_cases()
    _check(checks, "dimension-enumeration", "dimension-enumeration",
           cases == [(5, 8), (6, 8), (7, 8), (7, 16), (8, 16)], 0.0, t0,
           cases=cases)
    reports.append(replay_octonion_case(seed=cfg.seed))
    reports.append(replay_quarter_eigenspace_jcompat(seed=cfg.seed,
                                                     run_minimization=cfg.exact))
    reports.append(replay_p_space_annihilation(seed=cfg.seed))
    reports.append(general_case_ledger(exact=cfg.exact))
    for rep in reports:
        for s in rep.steps:
            checks.append(({"id": f"{rep.name}:{s.id}", "anchor": s.anchor,
                            "verdict": "pass" if s.verdict != FAIL else "fail",
                            "residual": s.residual}, round(s.runtime_s, 6)))
    return checks


SUITE_RUNNERS = {
    "clifford": clifford_suite,
    "curvature": curvature_suite,
    "spectrum": spectrum_suite,
    "hypersurface": hypersurface_suite,
    "obstruction": obstruction_suite,
}


# ---------------------------------------------------------------------------
# run / replay / probe / summarize
# ---------------------------------------------------------------------------

def run(cfg: RunConfig) -> tuple[int, dict]:
    suites = list(SUITE_RUNNERS) if "all" in cfg.suites else cfg.suites
    pairs: list[tuple[dict, float]] = []
    for name in suites:
        pairs.extend(SUITE_RUNNERS[name](cfg))
    pairs.sort(key=lambda p: p[0]["id"])
    checks = [c for c, _ in pairs]
    report = {
        "schema_version": SCHEMA_VERSION,
        "header": {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                   "seed": cfg.seed,
                   "config": {**asdict(cfg), "dims": [list(d) for d in cfg.dims]},
                   "runtimes_s": {c["id"]: rt for c, rt in pairs}},
        "checks": checks,
    }
    failed = [c for c in checks if c["verdict"] == "fail"]
    return (1 if failed else 0), report


def replay(step: str, cfg: RunConfig) -> tuple[int, dict]:
    g24 = DamekRicci.from_dims(2, 4)
    runners = {
        "no-v": lambda: replay_no_v(g24),
        "no-a": lambda: replay_no_a(g24, CurvatureContext(g24), seed=cfg.seed),
        "no-z": lambda: replay_no_z(2, 4, seed=cfg.seed),
        "dimension-cases": _dimension_cases_report,
        "octonion": lambda: replay_octonion_case(seed=cfg.seed),
        "quarter-jcompat": lambda: replay_quarter_eigenspace_jcompat(seed=cfg.seed),
        "general-ledger": lambda: general_case_ledger(exact=True),
        "p-annihilation": lambda: replay_p_space_annihilation(seed=cfg.seed),
    }
    names = list(runners) if step == "all" else [step]
    unknown = [n for n in names if n not in runners]
    if unknown:
        raise ValueError(f"unknown replay step(s) {unknown}; choose from {REPLAY_STEPS}")
    reports = [runners[n]() for n in names]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "header": {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), "seed": cfg.seed,
                   "config": {**asdict(cfg), "dims": [list(d) for d in cfg.dims]}},
        "replays": [r.to_json() for r in reports],
    }
    ok = all(r.passed for r in reports)
    return (0 if ok else 1), payload


def _dimension_cases_report() -> LedgerReport:
    from .obstruction import LedgerStep
    rep = LedgerReport("dimension-cases")
    t0 = time.perf_counter()
    cases = enumerate_dimension_cases()
    expected = [(5, 8), (6, 8), (7, 8), (7, 16), (8, 16)]
    rep.add(LedgerStep("enumeration", "dimension-enumeration",
                       "exact-pass" if cases == expected else "fail",
                       None, {"cases": cases}, time.perf_counter() - t0))
    return rep


def probe(cfg: RunConfig) -> tuple[int, dict]:
    from .hypersurface import probe_codazzi_floor
    g = DamekRicci.from_dims(2, 4)
    ctx = CurvatureContext(g)
    c_grid = np.arange(-2.0, 0.0 + 1e-12, cfg.c_grid_step)
    out = probe_codazzi_floor(g, ctx, n_frames=cfg.probe_frames, c_grid=c_grid,
                              seed=cfg.seed, jobs=cfg.jobs)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "header": {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), "seed": cfg.seed,
                   "config": {**asdict(cfg), "dims": [list(d) for d in cfg.dims]}},
        "probe": {"floor": out["floor"], "floor_info": out["floor_info"],
                  "candidates": out["candidates"], "frames": out["frames"],
                  "per_frame_min": out["per_frame_min"]},
    }
    return (0 if out["floor"] > 1e-6 else 1), payload


def summarize(paths: list[str], as_csv: bool = False) -> str:
    """Aggregate residual ranges over one or more report files."""
    if not paths:
        raise ValueError("summarize needs at least one report file")
    rows: dict[str, dict] = {}
    skipped = []
    for p in paths:
        try:
            data = json.loads(Path(p).read_text())
            checks = data.get("checks", [])
            for rep in data.get("replays", []):
                checks.extend({"id": f"{rep['name']}:{s['id']}",
                               "verdict": "pass" if s["verdict"] != "fail" else "fail",
                               "residual": s["residual"]} for s in rep["steps"])
            if not checks:
                raise ValueError("no checks")
        except (json.JSONDecodeError, OSError, ValueError, KeyError) as exc:
            skipped.append((p, str(exc)))
            continue
        for c in checks:
            row = rows.setdefault(c["id"], {"id": c["id"], "runs": 0, "fails": 0,
                                            "min_residual": None, "max_residual": None})
            row["runs"] += 1
            row["fails"] += int(c["verdict"] == "fail")
            r = c.get("residual")
            if r is not None:
                row["min_residual"] = r if row["min_residual"] is None else min(row["min_residual"], r)
                row["max_residual"] = r if row["max_residual"] is None else max(row["max_residual"], r)
    if not rows:
        raise ValueError("no usable reports")
    ordered = [rows[k] for k in sorted(rows)]
    if as_csv:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["id", "runs", "fails",
                                                 "min_residual", "max_residual"])
        writer.writeheader()
        writer.writerows(ordered)
        out = buf.getvalue()
    else:
        width = max(len(r["id"]) for r in ordered)
        lines = [f"{'check id':<{width}}  runs fails  min residual  max residual"]
        for r in ordered:
            mn = "-" if r["min_residual"] is None else f"{r['min_residual']:.3e}"
            mx = "-" if r["max_residual"] is None else f"{r['max_residual']:.3e}"
            lines.append(f"{r['id']:<{width}}  {r['runs']:>4} {r['fails']:>5}  "
                         f"{mn:>12}  {mx:>12}")
        out = "\n".join(lines) + "\n"
    for p, why in skipped:
        out += f"warning: skipped {p}: {why}\n"
    return out


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file (flags override file values)")
    p.add_argument("--dims", help="comma-separated d_z:d_v pairs, e.g. 2:4,7:8")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--exact", action="store_true", default=None,
                   help="run the exact rational ledger steps")
    p.add_argument("--out", default=None, help="report output path")


def _parse_dims(text: str) -> list[tuple[int, int]]:
    out = []
    for item in text.split(","):
        try:
            d_z, d_v = item.split(":")
            out.append((int(d_z), int(d_v)))
        except ValueError:
            raise ValueError(f"bad --dims item {item!r}: expected d_z:d_v with "
                             f"integers, e.g. 2:4") from None
    return out


def _config_from_args(args) -> RunConfig:
    overrides = {"seed": args.seed, "tol": args.tol, "exact": args.exact,
                 "out": args.out,
                 "probe_frames": getattr(args, "frames", None),
                 "jobs": getattr(args, "jobs", None)}
    if getattr(args, "dims", None) is not None:
        overrides["dims"] = _parse_dims(args.dims)
    return load_config(args.config, overrides)


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2, sort_keys=False)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="drgeom",
        description="Damek-Ricci geometry verification harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    _add_common(p_verify)

    p_replay = sub.add_parser("replay", help="replay an obstruction step")
    p_replay.add_argument("step", choices=REPLAY_STEPS + ("all",))
    _add_common(p_replay)

    p_probe = sub.add_parser("probe", help="hypersurface candidate probe")
    p_probe.add_argument("target", choices=["hypersurface"])
    p_probe.add_argument("--frames", type=int, default=None)
    p_probe.add_argument("--jobs", type=int, default=None,
                         help="worker processes for the frame grid")
    _add_common(p_probe)

    p_sum = sub.add_parser("summarize", help="aggregate report files")
    p_sum.add_argument("reports", nargs="*")
    p_sum.add_argument("--csv", action="store_true")
    p_sum.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            cfg = _config_from_args(args)
            cfg.suites = [args.suite]
            status, payload = run(cfg)
            _emit(payload, cfg.out)
            return status
        if args.command == "replay":
            cfg = _config_from_args(args)
            status, payload = replay(args.step, cfg)
            _emit(payload, cfg.out)
            return status
        if args.command == "probe":
            cfg = _config_from_args(args)
            status, payload = probe(cfg)
            _emit(payload, cfg.out)
            return status
        if args.command == "summarize":
            text = summarize(args.reports, as_csv=args.csv)
            if args.out:
                Path(args.out).write_text(text)
            else:
                print(text, end="")
            return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
