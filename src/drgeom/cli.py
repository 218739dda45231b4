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
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .clifford import anticommutation_residual, check_admissible
from .curvature import CurvatureContext, jacobi_closed_batch, ricci_heisenberg, ricci_isotropy
from .dralgebra import DamekRicci, verify_heisenberg_identities
from .hypersurface import horosphere_residual, probe_codazzi_floor
from .obstruction import (FAIL, LedgerReport, general_case_ledger,
                          replay_dimension_cases, replay_no_a, replay_no_v,
                          replay_no_z, replay_octonion_case,
                          replay_p_space_annihilation,
                          replay_quarter_eigenspace_jcompat)
from .spectrum import random_frame, xi_spectrum

SCHEMA_VERSION = 1
DEFAULT_DIMS = [(1, 2), (2, 4), (3, 4), (5, 8), (6, 8), (7, 8), (7, 16), (8, 16)]
# the probe spawns every frame's seed before its first frame, at about 400 bytes
# each: 10^5 frames hold 40 MB of seeds, as much as a whole default run peaks at,
# and take some 15 minutes at ~8 ms a frame, while 10^6 would hold 400 MB
MAX_PROBE_FRAMES = 10 ** 5


@dataclass
class RunConfig:
    dims: list[tuple[int, int]] = field(default_factory=lambda: list(DEFAULT_DIMS))
    suites: list[str] = field(default_factory=lambda: ["all"])
    seed: int = 0
    exact: bool = False
    probe_frames: int = 100
    jobs: int = 1
    out: str | None = None

    def validate(self):
        if not isinstance(self.dims, list) or not self.dims or not all(
                isinstance(d, tuple) and len(d) == 2 and all(map(_is_int, d))
                for d in self.dims):
            raise ValueError(f"dims must be a non-empty list of [d_z, d_v] integer pairs, "
                             f"got {self.dims!r}")
        for k, (d_z, d_v) in enumerate(self.dims):
            check_admissible(d_z, d_v)
            # a repeated pair would repeat its check ids and share their runtime keys
            if (d_z, d_v) in self.dims[:k]:
                raise ValueError(f"dims repeats the pair (d_z, d_v) = ({d_z}, {d_v})")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        for name in ("probe_frames", "jobs"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.probe_frames > MAX_PROBE_FRAMES:
            raise ValueError(f"probe_frames must be at most {MAX_PROBE_FRAMES}, "
                             f"got {self.probe_frames}")
        # the probe starts its worker processes all at once
        cpus = os.cpu_count() or 1
        if self.jobs > cpus:
            raise ValueError(f"jobs must be at most os.cpu_count() = {cpus}, "
                             f"got {self.jobs}")
        if not isinstance(self.exact, bool):
            raise ValueError(f"exact must be true or false, got {self.exact!r}")
        if not isinstance(self.suites, list) or not self.suites:
            raise ValueError(f"suites must be a non-empty list, got {self.suites!r}")
        for k, s in enumerate(self.suites):
            if s not in SUITES:
                raise ValueError(f"unknown suite {s!r}; choose from {SUITES}")
            # a repeated suite would repeat its check ids and share their runtime keys
            if s in self.suites[:k]:
                raise ValueError(f"suites repeats the suite {s!r}")
        if self.out is not None:
            if not isinstance(self.out, str):
                raise ValueError(f"out must be a path, got {self.out!r}")
            parent = Path(self.out).resolve().parent
            if not parent.is_dir():
                raise ValueError(f"output directory {parent} does not exist")
            if not os.access(parent, os.W_OK):
                raise ValueError(f"output directory {parent} is not writable")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# the config file keys each command reads; ``verify`` reads all but ``suites``,
# which its positional argument sets
COMMAND_KEYS = {
    "verify": tuple(f.name for f in fields(RunConfig) if f.name != "suites"),
    "replay": ("seed", "out"),
    "probe": ("seed", "probe_frames", "jobs", "out"),
}


def load_config(path: str | None, overrides: dict, command: str | None = None) -> RunConfig:
    """JSON file values, then explicit flags on top (flags win).  With a
    ``command``, a valid config whose file sets a key the command does not read
    (``COMMAND_KEYS``) is a ValueError naming the keys and the command."""
    data = {}
    if path:
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        if isinstance(data.get("dims"), list):
            data["dims"] = [tuple(d) if isinstance(d, list) else d for d in data["dims"]]
    file_keys = set(data)
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    unknown = sorted(set(data) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown}")
    cfg = RunConfig(**data)
    cfg.validate()
    ignored = sorted(file_keys - set(COMMAND_KEYS[command])) if command else []
    if ignored:
        note = " (its positional argument sets the suites)" if command == "verify" else ""
        raise ValueError(f"config key(s) {ignored} are not read by {command!r}{note}")
    return cfg


# ---------------------------------------------------------------------------
# replays and suites: a replay or a suite returns one LedgerReport, and a
# per-module check records into the report it is given
# ---------------------------------------------------------------------------

# replay id -> cfg -> LedgerReport; ``cfg.exact`` adds the minimization and
# the exact general-case steps: ``replay`` sets it, and ``verify obstruction``
# takes it from ``--exact``
REPLAYS = {
    "no-v": lambda cfg: replay_no_v(DamekRicci.from_dims(2, 4)),
    "no-a": lambda cfg: replay_no_a(CurvatureContext(DamekRicci.from_dims(2, 4)),
                                    seed=cfg.seed),
    "no-z": lambda cfg: replay_no_z(2, 4, seed=cfg.seed),
    "dimension-cases": lambda cfg: replay_dimension_cases(),
    "octonion": lambda cfg: replay_octonion_case(seed=cfg.seed),
    "quarter-jcompat": lambda cfg: replay_quarter_eigenspace_jcompat(
        seed=cfg.seed, run_minimization=cfg.exact),
    "general-ledger": lambda cfg: general_case_ledger(exact=cfg.exact),
    "p-annihilation": lambda cfg: replay_p_space_annihilation(seed=cfg.seed),
}
REPLAY_STEPS = tuple(REPLAYS)


def module_suites(cfg: RunConfig, names: list[str]) -> tuple[LedgerReport, dict[str, float]]:
    """The per-module suites ``names`` in one report: each module's algebra,
    and its curvature context if a suite other than ``clifford`` needs one,
    is built once, shared by the suites, and dropped before the next module.
    Each build's time goes under ``setup(d_z,d_v)``."""
    rep = LedgerReport("+".join(names))
    setup = {}
    needs_context = any(name != "clifford" for name in names)
    for d_z, d_v in cfg.dims:
        g = DamekRicci.from_dims(d_z, d_v)
        ctx = CurvatureContext(g) if needs_context else None
        setup[f"setup({d_z},{d_v})"] = rep.lap()
        for name in names:
            MODULE_CHECKS[name](rep, cfg, g, ctx)
        del g, ctx  # before the next build, so one context is alive at a time
    return rep, setup


def _clifford_checks(rep: LedgerReport, cfg: RunConfig, g: DamekRicci, ctx):
    res = anticommutation_residual(g.module.generators)
    rep.record(f"clifford-relations({g.d_z},{g.d_v})", "clifford-anticommutation",
               res <= 1e-12, exact=False, residual=res)


def _curvature_checks(rep: LedgerReport, cfg: RunConfig, g: DamekRicci, ctx):
    d_z, d_v = g.d_z, g.d_v
    h = verify_heisenberg_identities(g)
    rep.record(f"heisenberg-identities({d_z},{d_v})", "bracket-identities",
               h["passed"], exact=False, residual=h["max_residual"])
    worst = _connection_axioms_residual(ctx)
    rep.record(f"connection-axioms({d_z},{d_v})", "connection-axioms",
               worst <= 1e-12, exact=False, residual=worst)
    # each module draws from its own stream, whatever the other dims
    worst = _jacobi_cross_residual(ctx, np.random.default_rng((cfg.seed, d_z, d_v)))
    rep.record(f"jacobi-cross-check({d_z},{d_v})", "jacobi-closed-form",
               worst <= 1e-10, exact=False, residual=worst)
    c, worst = ricci_isotropy(ctx)
    rep.record(f"einstein-isotropy({d_z},{d_v})", "einstein-isotropy",
               worst <= 1e-10, exact=False, residual=worst, einstein_constant=c)
    nil = ricci_heisenberg(g.module.generators)
    rep.record(f"nilpotent-ricci-split({d_z},{d_v})", "nilpotent-non-einstein",
               nil["sign_split"], exact=False, residual=nil["offdiag"])


def _connection_axioms_residual(ctx) -> float:
    """Metric compatibility and torsion of the production connection tensor
    N[a, b] = nabla_{e_a} e_b against ``g.bracket`` on every pair of basis
    vectors.  Both sides are bilinear, so the basis certifies every pair of
    vectors, and by uniqueness N is then the Levi-Civita connection."""
    g, n = ctx.g, ctx.nabla_tensor
    basis = np.eye(g.dim)
    brackets = g.bracket(basis[:, None], basis[None, :])  # [e_a, e_b] at [a, b]
    compat = n + np.transpose(n, (0, 2, 1))
    torsion = n - np.transpose(n, (1, 0, 2)) - brackets
    return float(max(np.max(np.abs(compat)), np.max(np.abs(torsion))))


def _jacobi_cross_residual(ctx, rng) -> float:
    """The closed-form Jacobi operator against the curvature tensor on 200
    random pairs (a basis version needs thousands of rows on (8,16)), in one
    contraction order for every dimension: t1 t1 first, then R, then t2."""
    t1 = rng.standard_normal((200, ctx.g.dim))
    t2 = rng.standard_normal((200, ctx.g.dim))
    closed = jacobi_closed_batch(ctx.g, t1, t2)
    assembled = np.einsum("abce,Bb,Bc,Ba->Be", ctx.riemann_tensor, t1, t1, t2,
                          optimize=["einsum_path", (1, 2), (0, 2), (0, 1)])
    return float(np.max(np.abs(closed - assembled)))


def _spectrum_checks(rep: LedgerReport, cfg: RunConfig, g: DamekRicci, ctx):
    rng = np.random.default_rng((cfg.seed, g.d_z, g.d_v))  # the module's own stream
    worst_match = 0.0
    worst_cert = 0.0
    for _ in range(3):
        spec = xi_spectrum(random_frame(g, rng), ctx)
        worst_match = max(worst_match, spec.match_residual)
        if spec.certificate_residuals:
            worst_cert = max(worst_cert, max(spec.certificate_residuals.values()))
    worst = max(worst_match, worst_cert)
    rep.record(f"normal-jacobi-spectrum({g.d_z},{g.d_v})", "normal-jacobi-spectrum",
               worst <= 1e-9, exact=False, residual=worst)


def _codazzi_probe(cfg: RunConfig) -> tuple[dict, LedgerReport, dict[str, float]]:
    """The (2,4) probe, its floor check and a positive control, for ``probe`` and the
    suite.  The context build's time goes under ``setup(2,4)``."""
    rep = LedgerReport("hypersurface")
    ctx = CurvatureContext(DamekRicci.from_dims(2, 4))
    setup = {"setup(2,4)": rep.lap()}
    out = probe_codazzi_floor(ctx, n_frames=cfg.probe_frames, seed=cfg.seed, jobs=cfg.jobs)
    rep.record("codazzi-floor(2,4)", "codazzi-floor",
               out["candidates"] >= 1 and out["floor"] > 1e-6, exact=False,
               residual=out["floor"], candidates=out["candidates"], frames=out["frames"],
               box=out["box"])
    control = horosphere_residual(ctx)
    rep.record("codazzi-positive-control(2,4)", "codazzi-floor", control <= 1e-12,
               exact=False, residual=control)
    return out, rep, setup


def obstruction_suite(cfg: RunConfig) -> tuple[LedgerReport, dict[str, float]]:
    """Every replay, its steps named ``<report>:<step>`` and without witnesses;
    the replays build what they need inside their steps, so no setup times."""
    rep = LedgerReport("obstruction")
    for replay_fn in REPLAYS.values():
        ledger = replay_fn(cfg)
        rep.steps += [replace(s, id=f"{ledger.name}:{s.id}", witness={})
                      for s in ledger.steps]
    return rep, {}


# each suite is in one table: the per-module checks, which ``run`` runs module
# by module through ``module_suites``, or the suites that take the config alone
# and return their report and setup times
MODULE_CHECKS = {"clifford": _clifford_checks, "curvature": _curvature_checks,
                 "spectrum": _spectrum_checks}
RUN_SUITES = {"hypersurface": lambda cfg: _codazzi_probe(cfg)[1:],
              "obstruction": obstruction_suite}
SUITES = (*MODULE_CHECKS, *RUN_SUITES, "all")


# ---------------------------------------------------------------------------
# run / replay / probe / summarize
# ---------------------------------------------------------------------------

def _header(cfg: RunConfig, runtimes: dict[str, float]) -> dict:
    """Seed and config, plus all that varies between identical runs: time stamp, runtimes."""
    return {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), "seed": cfg.seed,
            "config": {**asdict(cfg), "dims": [list(d) for d in cfg.dims]},
            "runtimes_s": {k: round(v, 6) for k, v in runtimes.items()}}


def run(cfg: RunConfig) -> tuple[int, dict]:
    suites = SUITES[:-1] if "all" in cfg.suites else cfg.suites
    per_module = [name for name in suites if name in MODULE_CHECKS]
    runs = [RUN_SUITES[name](cfg) for name in suites if name in RUN_SUITES]
    if per_module:
        runs.append(module_suites(cfg, per_module))
    reports, setup = [rep for rep, _ in runs], {}
    for _, builds in runs:  # the probe's (2,4) build adds to the module's
        for key, seconds in builds.items():
            setup[key] = setup.get(key, 0.0) + seconds
    steps = sorted((s for rep in reports for s in rep.steps), key=lambda s: s.id)
    checks = []
    for s in steps:
        entry = {**s.to_json(), "verdict": "pass" if s.verdict != FAIL else "fail"}
        if not s.witness:
            del entry["witness"]
        checks.append(entry)
    report = {"schema_version": SCHEMA_VERSION,
              "header": _header(cfg, {**setup, **{s.id: s.runtime_s for s in steps}}),
              "checks": checks}
    failed = [c for c in checks if c["verdict"] == "fail"]
    return (1 if failed else 0), report


def replay(step: str, cfg: RunConfig) -> tuple[int, dict]:
    names = list(REPLAYS) if step == "all" else [step]
    unknown = [n for n in names if n not in REPLAYS]
    if unknown:
        raise ValueError(f"unknown replay step(s) {unknown}; choose from {REPLAY_STEPS}")
    reports = [REPLAYS[n](replace(cfg, exact=True)) for n in names]  # the header keeps cfg
    payload = {"schema_version": SCHEMA_VERSION,
               "header": _header(cfg, {f"{r.name}:{s.id}": s.runtime_s
                                       for r in reports for s in r.steps}),
               "replays": [r.to_json() for r in reports]}
    return (0 if all(r.passed for r in reports) else 1), payload


def probe(cfg: RunConfig) -> tuple[int, dict]:
    out, rep, setup = _codazzi_probe(cfg)
    payload = {"schema_version": SCHEMA_VERSION,
               "header": _header(cfg, {**setup, **{s.id: s.runtime_s for s in rep.steps}}),
               "probe": out}
    return (0 if rep.passed else 1), payload


def _number_or_null(x) -> bool:
    """Whether a report value is null or a number, so that min and max can take it."""
    return x is None or isinstance(x, (int, float)) and not isinstance(x, bool)


def summarize(paths: list[str], as_csv: bool = False) -> str:
    """Aggregate residual ranges and the largest step runtime (from each
    report's ``header.runtimes_s``) over one or more report files."""
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
            runtimes = data.get("header", {}).get("runtimes_s", {})
            if not isinstance(runtimes, dict) or not all(map(_number_or_null, runtimes.values())):
                raise ValueError("header.runtimes_s is not an object of numbers")
            if not all(isinstance(c, dict) and isinstance(c.get("id"), str) and "verdict" in c
                       and _number_or_null(c.get("residual")) for c in checks):
                raise ValueError("a check is not an object with an id, a verdict and a residual")
        except (json.JSONDecodeError, OSError, ValueError, KeyError, AttributeError,
                TypeError) as exc:
            skipped.append(f"skipped {p}: {exc}")
            continue
        for c in checks:
            row = rows.setdefault(c["id"], {"id": c["id"], "runs": 0, "fails": 0,
                                            "min_residual": None, "max_residual": None,
                                            "max_runtime_s": None})
            row["runs"] += 1
            row["fails"] += int(c["verdict"] == "fail")
            for key, value, pick in (("min_residual", c.get("residual"), min),
                                     ("max_residual", c.get("residual"), max),
                                     ("max_runtime_s", runtimes.get(c["id"]), max)):
                if value is not None:
                    row[key] = value if row[key] is None else pick(row[key], value)
    if not rows:
        raise ValueError("\n".join(["no usable reports", *skipped]))
    ordered = [rows[k] for k in sorted(rows)]
    if as_csv:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(ordered[0]))
        writer.writeheader()
        writer.writerows(ordered)
        out = buf.getvalue()
    else:
        width = max(len(r["id"]) for r in ordered)
        lines = [f"{'check id':<{width}}  runs fails  min residual  max residual  max runtime s"]
        for r in ordered:
            mn = "-" if r["min_residual"] is None else f"{r['min_residual']:.3e}"
            mx = "-" if r["max_residual"] is None else f"{r['max_residual']:.3e}"
            rt = "-" if r["max_runtime_s"] is None else f"{r['max_runtime_s']:.6f}"
            lines.append(f"{r['id']:<{width}}  {r['runs']:>4} {r['fails']:>5}  "
                         f"{mn:>12}  {mx:>12}  {rt:>13}")
        out = "\n".join(lines) + "\n"
    return out + "".join(f"warning: {note}\n" for note in skipped)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file (flags override file values)")
    p.add_argument("--seed", type=int, default=None)
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
    overrides = {"seed": args.seed, "out": args.out,
                 "exact": getattr(args, "exact", None),
                 "suites": [args.suite] if "suite" in args else None,
                 "probe_frames": getattr(args, "frames", None),
                 "jobs": getattr(args, "jobs", None)}
    if getattr(args, "dims", None) is not None:
        overrides["dims"] = _parse_dims(args.dims)
    return load_config(args.config, overrides, command=args.command)


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
    p_verify.add_argument("--dims", help="comma-separated d_z:d_v pairs, e.g. 2:4,7:8")
    p_verify.add_argument("--exact", action="store_true", default=None,
                          help="run the exact rational ledger steps")
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
    commands = {"verify": run, "replay": lambda cfg: replay(args.step, cfg), "probe": probe}
    try:
        if args.command == "summarize":
            text = summarize(args.reports, as_csv=args.csv)
            if args.out:
                Path(args.out).write_text(text)
            else:
                print(text, end="")
            return 0
        cfg = _config_from_args(args)
        status, payload = commands[args.command](cfg)
        _emit(payload, cfg.out)
        return status
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
