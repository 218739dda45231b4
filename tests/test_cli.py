"""CLI: config handling, suites, replays, summaries, determinism."""

from __future__ import annotations

import ast
import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drgeom import cli, clifford, dralgebra, hypersurface
from drgeom.cli import (DEFAULT_DIMS, MAX_PROBE_FRAMES, REPLAYS, RunConfig, load_config, main,
                        module_suites, probe, replay, run, summarize)
from drgeom.clifford import build_module
from drgeom.curvature import CurvatureContext, koszul_connection
from drgeom.dralgebra import DamekRicci
from drgeom.hypersurface import probe_codazzi_floor


def test_config_validation_rejects_inadmissible_dims():
    cfg = RunConfig(dims=[(9, 16)])
    with pytest.raises(ValueError, match="admissible bound"):
        cfg.validate()


def test_config_file_and_flag_precedence(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 5, "dims": [[2, 4]], "probe_frames": 7}))
    cfg = load_config(str(path), {"seed": 9, "probe_frames": None})
    assert cfg.seed == 9          # flag wins
    assert cfg.probe_frames == 7  # file value kept
    assert cfg.dims == [(2, 4)]


def test_config_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "frames": 3, "colour": "red"}))
    status = main(["verify", "clifford", "--dims", "2:4", "--config", str(path)])
    assert status == 2
    err = capsys.readouterr().err
    assert "unknown config key" in err and "'colour'" in err and "'frames'" in err


def test_verify_clifford_exit_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    status = main(["verify", "clifford", "--dims", "2:4", "--out", str(out)])
    assert status == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert all(c["verdict"] == "pass" for c in report["checks"])


def test_verify_rejects_bad_dims(capsys):
    status = main(["verify", "clifford", "--dims", "9:16"])
    assert status == 2
    assert "admissible bound" in capsys.readouterr().err


def test_verify_rejects_odd_d_v_with_one_message(capsys):
    # no center dimension is admissible for an odd module dimension
    status = main(["verify", "clifford", "--dims", "2:3"])
    assert status == 2
    err = capsys.readouterr().err
    assert "no d_z is admissible for d_v = 3" in err and "1 <= d_z <= 0" not in err


@pytest.mark.parametrize("config", [None, {"dims": [[2, 4], [5, 8], [2, 4]]}])
def test_verify_rejects_a_repeated_dims_pair(tmp_path, capsys, config):
    # a repeated pair would emit its checks twice under the same ids
    argv = ["verify", "curvature", "--dims", "2:4,5:8,2:4"]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = ["verify", "curvature", "--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "dims repeats the pair (d_z, d_v) = (2, 4)" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, expect", [
    (["verify", "clifford", "--dims", "2"], "bad --dims item '2': expected d_z:d_v"),
    (["verify", "clifford", "--dims", "a:b"], "bad --dims item 'a:b': expected d_z:d_v"),
    (["verify", "clifford", "--dims", "2:4,1:2:3"], "bad --dims item '1:2:3'"),
    (["verify", "clifford", "--dims", "9:32"], "1 <= d_z <= 8"),
    (["probe", "hypersurface", "--frames", "-1"], "probe_frames must be an integer >= 1, got -1"),
    (["probe", "hypersurface", "--frames", "0"], "probe_frames must be an integer >= 1, got 0"),
    (["probe", "hypersurface", "--jobs", "0"], "jobs must be an integer >= 1, got 0"),
])
def test_front_door_rejects_bad_flags(capsys, argv, expect):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert expect in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("frames", [MAX_PROBE_FRAMES + 1, 2 ** 64])
def test_probe_refuses_more_frames_than_it_seeds(monkeypatch, capsys, frames):
    # refused before any seed is spawned (2^64 overflowed SeedSequence.spawn); a
    # probe started past the check fails the test instead of running
    def refuse(*args, **kwargs):
        raise AssertionError("the probe was started")
    monkeypatch.setattr(cli, "probe_codazzi_floor", refuse)
    assert main(["probe", "hypersurface", "--frames", str(frames)]) == 2
    err = capsys.readouterr().err
    assert f"probe_frames must be at most {MAX_PROBE_FRAMES}, got {frames}" in err
    assert "Traceback" not in err
    with pytest.raises(ValueError, match=f"probe_frames must be at most {MAX_PROBE_FRAMES}"):
        RunConfig(probe_frames=frames).validate()
    RunConfig(probe_frames=MAX_PROBE_FRAMES).validate()


@pytest.mark.parametrize("field, value", [("jobs", 0), ("dims", [2]), ("dims", [[2]]),
                                          ("seed", "x")])
def test_front_door_rejects_bad_config_numbers(tmp_path, capsys, field, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({field: value}))
    assert main(["probe", "hypersurface", "--config", str(path)]) == 2
    assert f"{field} must be" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["curvature", "all"])
def test_verify_rejects_empty_dims(tmp_path, capsys, suite):
    # an empty dims would pass with no per-module check at all
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dims": []}))
    assert main(["verify", suite, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "dims must be a non-empty list of [d_z, d_v] integer pairs, got []" in err
    assert "Traceback" not in err


def test_load_config_rejects_empty_suites(tmp_path):
    # verify's suite argument sets the suites, so load_config is the door
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"suites": []}))
    with pytest.raises(ValueError, match=r"suites must be a non-empty list, got \[\]"):
        load_config(str(path), {}, command="verify")


def test_verify_refuses_a_config_file_that_sets_suites(tmp_path, capsys):
    # the positional suite would silently win over the file's suites
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"suites": ["curvature"], "dims": [[2, 4]]}))
    assert main(["verify", "clifford", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert ("config key(s) ['suites'] are not read by 'verify' "
            "(its positional argument sets the suites)") in err
    assert "Traceback" not in err
    # callers of load_config without a command keep setting the suites
    assert load_config(str(path), {}).suites == ["curvature"]


@pytest.mark.parametrize("suites", [["clifford", "clifford"], ["all", "spectrum", "all"]])
def test_config_refuses_a_repeated_suite(tmp_path, capsys, suites):
    # a repeated suite would repeat its check ids under one runtime key
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"suites": suites, "dims": [[2, 4]]}))
    with pytest.raises(ValueError, match=f"suites repeats the suite '{suites[0]}'"):
        load_config(str(path), {})
    with pytest.raises(ValueError, match=f"suites repeats the suite '{suites[0]}'"):
        RunConfig(dims=[(2, 4)], suites=suites).validate()
    path.write_text(json.dumps({"dims": [[2, 4]]}))
    with pytest.raises(ValueError, match="suites repeats"):
        load_config(str(path), {"suites": suites}, command="verify")


def _refuse_pools(monkeypatch):
    # the probe imports Pool from multiprocessing when it needs one
    def refuse(*args, **kwargs):
        raise AssertionError("a worker pool was started")
    monkeypatch.setattr(multiprocessing, "Pool", refuse)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_probe_rejects_more_jobs_than_cpus(tmp_path, capsys, monkeypatch, source):
    _refuse_pools(monkeypatch)
    jobs = os.cpu_count() + 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"jobs": jobs}))
    argv = ["--jobs", str(jobs)] if source == "flag" else ["--config", str(path)]
    assert main(["probe", "hypersurface", *argv]) == 2
    err = capsys.readouterr().err
    assert f"jobs must be at most os.cpu_count() = {os.cpu_count()}, got {jobs}" in err
    assert "Traceback" not in err


def test_probe_starts_at_most_one_worker_per_frame(monkeypatch):
    started = []

    class CountingPool:
        def __init__(self, workers):
            started.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, tasks):
            return map(func, tasks)  # in this process: no worker starts
    ctx = CurvatureContext(DamekRicci.from_dims(2, 4))
    monkeypatch.setattr(hypersurface, "C_START", -0.25)  # the one C value -0.25
    monkeypatch.setattr(hypersurface, "C_STOP", -0.25)
    _refuse_pools(monkeypatch)
    # one chunk starts no pool: one frame, or two in a chunk of the default size
    one = probe_codazzi_floor(ctx, n_frames=1, jobs=5)
    pair = probe_codazzi_floor(ctx, n_frames=2, jobs=5)
    # with one frame per chunk, two frames start two workers, not five
    monkeypatch.setattr(hypersurface, "CHUNK_FRAMES", 1)
    monkeypatch.setattr(multiprocessing, "Pool", CountingPool)
    two = probe_codazzi_floor(ctx, n_frames=2, jobs=5)
    assert started == [2] and one["frames"] == 1 and two["frames"] == 2 and two == pair


@pytest.mark.parametrize("key", ["tol", "samples", "c_grid_step"])
def test_removed_config_keys_are_unknown(tmp_path, capsys, key):
    # the spectrum bound, the sample counts and the probe's C grid are fixed in the code
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: 1}))
    assert main(["verify", "spectrum", "--config", str(path)]) == 2
    assert f"unknown config key(s) ['{key}']" in capsys.readouterr().err


def test_verify_rejects_the_tol_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "spectrum", "--tol", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["replay", "no-z"],
                                     ["probe", "hypersurface", "--frames", "1"]])
@pytest.mark.parametrize("flags", [["--dims", "7:8"], ["--exact"], ["--tol", "1e-3"]])
def test_verify_only_flags_are_rejected_elsewhere(capsys, command, flags):
    # replay and probe run fixed modules and steps; they would ignore these
    with pytest.raises(SystemExit) as exc:
        main(command + flags)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["replay", "no-v"], ["probe", "hypersurface"]])
@pytest.mark.parametrize("data, named", [
    ({"dims": [[7, 8]]}, "['dims']"),
    ({"exact": True, "seed": 1}, "['exact']"),
    ({"suites": ["clifford"]}, "['suites']"),
    # named per command where the two commands read different keys
    ({"suites": ["clifford"], "probe_frames": 3},
     {"replay": "['probe_frames', 'suites']",
      "probe": "['suites']"})])
def test_verify_only_config_keys_are_rejected_elsewhere(tmp_path, capsys, command, data, named):
    # replay and probe would ignore these file keys, so they refuse them
    if isinstance(named, dict):
        named = named[command[0]]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(command + ["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"config key(s) {named} are not read by '{command[0]}'" in err
    assert "Traceback" not in err


def test_verify_reads_the_verify_only_config_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dims": [[2, 4]], "exact": False}))
    out = tmp_path / "report.json"
    assert main(["verify", "clifford", "--config", str(path), "--out", str(out)]) == 0
    config = json.loads(out.read_text())["header"]["config"]
    assert (config["dims"], config["exact"]) == ([[2, 4]], False)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(data=st.dictionaries(
    st.sampled_from(["dims", "suites", "seed", "exact", "probe_frames", "c_grid_step",
                     "jobs", "out", "frames"]),
    _JSON | st.lists(st.lists(st.integers(-2, 40), max_size=3), max_size=3),
    max_size=4))
def test_load_config_returns_valid_config_or_raises_value_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "property-cfg.json"
    path.write_text(json.dumps(data))
    try:
        cfg = load_config(str(path), {})
    except ValueError:
        return
    cfg.validate()


def test_replay_subcommand(tmp_path):
    out = tmp_path / "replay.json"
    status = main(["replay", "no-a", "--out", str(out)])
    assert status == 0
    payload = json.loads(out.read_text())
    assert payload["replays"][0]["passed"]


def test_replay_dimension_cases(tmp_path):
    out = tmp_path / "replay.json"
    status = main(["replay", "dimension-cases", "--out", str(out)])
    assert status == 0
    payload = json.loads(out.read_text())
    step = payload["replays"][0]["steps"][0]
    assert step["witness"]["cases"] == [[5, 8], [6, 8], [7, 8], [7, 16], [8, 16]]
    assert "runtime_s" not in step
    assert list(payload["header"]["runtimes_s"]) == ["dimension-cases:enumeration"]


@pytest.fixture(scope="module")
def timed_replays():
    cfg = RunConfig(seed=0, exact=False)
    out = []
    for replay_fn in REPLAYS.values():
        t0 = time.perf_counter()
        rep = replay_fn(cfg)
        out.append((rep, time.perf_counter() - t0))
    return out


def test_verify_obstruction_entries_are_the_registry_replays(timed_replays):
    _, report = run(RunConfig(seed=0, exact=False, suites=["obstruction"]))
    expected = sorted(({"id": f"{rep.name}:{s.id}", "anchor": s.anchor,
                        "verdict": "pass" if s.verdict != "fail" else "fail",
                        "residual": s.residual}
                       for rep, _ in timed_replays for s in rep.steps),
                      key=lambda c: c["id"])
    assert report["checks"] == expected
    assert list(report["header"]["runtimes_s"]) == [c["id"] for c in expected]


def test_exact_is_the_one_switch_of_the_extended_replay_steps():
    # verify obstruction --exact runs what replay all runs, and without it drops
    # the minimization and the five exact general-case steps
    def steps(exact):
        _, report = run(RunConfig(suites=["obstruction"], exact=exact))
        return [(c["id"], c["verdict"], c["residual"]) for c in report["checks"]]

    _, payload = replay("all", RunConfig())
    replayed = sorted((f"{r['name']}:{s['id']}", "fail" if s["verdict"] == "fail" else "pass",
                       s["residual"]) for r in payload["replays"] for s in r["steps"])
    assert steps(True) == replayed
    exact_only = {"quarter-eigenspace-jcompat:residual-floor-minimization",
                  *(f"general-case-ledger:{name}" for name in (
                      "product-identity-reduction", "cyclic-sum-vanishing", "poly-coprimality",
                      "eta-alpha-identity", "codazzi-coefficient-collapse"))}
    assert steps(False) == [s for s in replayed if s[0] not in exact_only]


def test_verify_numeric_suites_give_87_passing_checks():
    # the count bench/workloads.py pins for its verify workload
    status, report = run(RunConfig(suites=["clifford", "curvature", "spectrum", "obstruction"],
                                   dims=list(DEFAULT_DIMS), exact=False))
    assert status == 0
    assert len(report["checks"]) == 87
    assert all(c["verdict"] == "pass" for c in report["checks"])
    axioms = [c for c in report["checks"] if c["id"].startswith("connection-axioms(")]
    assert len(axioms) == len(DEFAULT_DIMS) and all(c["residual"] == 0.0 for c in axioms)


@pytest.mark.parametrize("corrupt", ["transposed-slot", "wrong-bracket"])
def test_connection_axioms_fail_on_a_wrong_connection_tensor(monkeypatch, corrupt):
    # negative control: the check reads the context's own connection tensor
    def wrong_context(g):
        ctx = CurvatureContext(g)
        if corrupt == "transposed-slot":
            ctx.nabla_tensor = np.transpose(ctx.nabla_tensor, (1, 0, 2))
        else:  # a metric connection whose torsion is not g.bracket
            ctx.bracket_tensor = 2.0 * ctx.bracket_tensor
            ctx.nabla_tensor = koszul_connection(ctx.bracket_tensor)
        return ctx

    monkeypatch.setattr(cli, "CurvatureContext", wrong_context)
    rep, _ = module_suites(RunConfig(dims=[(2, 4)]), ["curvature"])
    step = rep.step("connection-axioms(2,4)")
    assert step.verdict == "fail" and step.residual > 1e-12


def test_jacobi_cross_check_fails_on_a_flipped_curvature_component(monkeypatch):
    # negative control: the assembled side reads the context's curvature tensor
    def wrong_context(g):
        ctx = CurvatureContext(g)
        ctx.riemann_tensor[tuple(np.argwhere(ctx.riemann_tensor)[0])] *= -1.0
        return ctx

    monkeypatch.setattr(cli, "CurvatureContext", wrong_context)
    rep, _ = module_suites(RunConfig(dims=[(5, 8), (8, 16)]), ["curvature"])
    for dims in ("(5,8)", "(8,16)"):
        step = rep.step(f"jacobi-cross-check{dims}")
        assert step.verdict == "fail" and step.residual > 1e-10


def test_module_samples_do_not_depend_on_the_other_dims():
    # each module draws from its own (seed, d_z, d_v) stream
    residuals = []
    for dims in ([(8, 16)], [(2, 4), (8, 16)]):
        _, rep = run(RunConfig(dims=dims, suites=["curvature", "spectrum"]))
        checks = {c["id"]: c["residual"] for c in rep["checks"]}
        residuals.append((checks["jacobi-cross-check(8,16)"],
                          checks["normal-jacobi-spectrum(8,16)"]))
    assert residuals[0] == residuals[1]


def test_run_builds_each_module_context_once(monkeypatch):
    # curvature and spectrum share one (g, ctx) per module; its build is timed
    # under setup(d_z,d_v), not charged to the first check
    builds = []

    def counting_context(g):
        builds.append((g.d_z, g.d_v))
        time.sleep(0.1 if (g.d_z, g.d_v) == (1, 2) else 0.0)  # a slow build
        return CurvatureContext(g)

    monkeypatch.setattr(cli, "CurvatureContext", counting_context)
    _, report = run(RunConfig(dims=list(DEFAULT_DIMS), suites=["curvature", "spectrum"]))
    assert builds == list(DEFAULT_DIMS)
    runtimes = report["header"]["runtimes_s"]
    setup = [f"setup({d_z},{d_v})" for d_z, d_v in DEFAULT_DIMS]
    assert list(runtimes)[:len(setup)] == setup
    assert list(runtimes)[len(setup):] == [c["id"] for c in report["checks"]]
    assert runtimes["setup(1,2)"] >= 0.1 > runtimes["heisenberg-identities(1,2)"]
    _, clifford_only = run(RunConfig(dims=[(2, 4)], suites=["clifford"]))
    assert list(clifford_only["header"]["runtimes_s"]) == ["setup(2,4)",
                                                          "clifford-relations(2,4)"]


def test_probe_times_the_context_build_under_setup(monkeypatch):
    # codazzi-floor(2,4) times the probe alone; the (2,4) build goes under
    # setup(2,4), and in verify it adds to the module's own build
    def slow_context(g):
        time.sleep(0.2)
        return CurvatureContext(g)

    monkeypatch.setattr(cli, "CurvatureContext", slow_context)
    monkeypatch.setattr(hypersurface, "probe_c_grid", lambda: np.array([-0.5]))
    _, report = probe(RunConfig(probe_frames=1))
    runtimes = report["header"]["runtimes_s"]
    assert list(runtimes) == ["setup(2,4)", "codazzi-floor(2,4)",
                              "codazzi-positive-control(2,4)"]
    assert runtimes["setup(2,4)"] >= 0.2 > runtimes["codazzi-floor(2,4)"]
    _, report = run(RunConfig(dims=[(2, 4)], probe_frames=1,
                              suites=["hypersurface", "curvature"]))
    runtimes = report["header"]["runtimes_s"]
    assert list(runtimes)[0] == "setup(2,4)" and runtimes["setup(2,4)"] >= 0.4
    assert runtimes["codazzi-floor(2,4)"] < 0.2


def test_verify_builds_each_module_once(monkeypatch):
    # clifford, curvature and spectrum share one module loop, so one build per module
    builds = []

    def counting_build(d_z, d_v, iso_flags=None):
        builds.append((d_z, d_v))
        return build_module(d_z, d_v, iso_flags)

    for module in (clifford, dralgebra, cli):  # wherever drgeom imported it
        if hasattr(module, "build_module"):
            monkeypatch.setattr(module, "build_module", counting_build)
    status, _ = run(RunConfig(dims=list(DEFAULT_DIMS),
                              suites=["clifford", "curvature", "spectrum"]))
    assert status == 0 and builds == list(DEFAULT_DIMS)


def test_verify_clifford_builds_no_curvature_context(monkeypatch):
    def refuse(g):
        raise AssertionError("a CurvatureContext was built")

    monkeypatch.setattr(cli, "CurvatureContext", refuse)
    status, report = run(RunConfig(dims=list(DEFAULT_DIMS), suites=["clifford"]))
    assert status == 0
    setup = [f"setup({d_z},{d_v})" for d_z, d_v in DEFAULT_DIMS]
    assert list(report["header"]["runtimes_s"]) == setup + [c["id"] for c in report["checks"]]
    assert [c["id"] for c in report["checks"]] == sorted(
        f"clifford-relations({d_z},{d_v})" for d_z, d_v in DEFAULT_DIMS)


def test_verify_bench_checks_are_pinned():
    # the bench verify config at seed 7000, check for check and bit for bit
    pinned = json.loads((Path(__file__).parent / "data" / "verify_bench_checks.json").read_text())
    config = pinned["config"]
    status, report = run(RunConfig(seed=config["seed"], suites=config["suites"],
                                   dims=[tuple(d) for d in config["dims"]],
                                   exact=config["exact"]))
    assert status == 0
    assert json.loads(json.dumps(report["checks"])) == pinned["checks"]


def test_probe_bench_payload_is_pinned():
    # the bench probe config at seed 7000, the payload bit for bit
    pinned = json.loads((Path(__file__).parent / "data" / "probe_bench_payload.json").read_text())
    config = pinned["config"]
    status, report = probe(load_config(None, {**config, "jobs": 1}))
    assert status == 0
    assert json.loads(json.dumps(report["probe"])) == pinned["probe"]


def test_replay_bench_payload_is_pinned():
    # replay all at seed 7000, every report and witness bit for bit
    pinned = json.loads((Path(__file__).parent / "data" / "replay_bench_payload.json").read_text())
    status, report = replay("all", load_config(None, pinned["config"]))
    assert status == 0
    del report["header"]
    assert json.loads(json.dumps({"config": pinned["config"], **report})) == pinned


def test_report_step_runtimes_add_up_within_wall_time(timed_replays):
    for rep, wall in timed_replays:
        runtimes = [s.runtime_s for s in rep.steps]
        assert runtimes and all(rt > 0 for rt in runtimes), rep.name
        assert sum(runtimes) <= wall, rep.name


def test_report_determinism(tmp_path):
    cfg = RunConfig(dims=[(2, 4)], suites=["clifford", "curvature"], seed=3)
    _, r1 = run(cfg)
    _, r2 = run(cfg)
    assert json.dumps(r1["checks"]) == json.dumps(r2["checks"])


def test_summarize_single_report(tmp_path):
    cfg = RunConfig(dims=[(2, 4)], suites=["clifford"], seed=0)
    _, report = run(cfg)
    p = tmp_path / "r.json"
    p.write_text(json.dumps(report))
    text = summarize([str(p)])
    header, row = text.splitlines()
    assert header.split()[-3:] == ["max", "runtime", "s"]
    runtime = report["header"]["runtimes_s"]["clifford-relations(2,4)"]
    assert row.split() == ["clifford-relations(2,4)", "1", "0",
                           *[f"{report['checks'][0]['residual']:.3e}"] * 2, f"{runtime:.6f}"]


def test_summarize_two_seeds_merges_ranges(tmp_path):
    paths = []
    for seed in (0, 1):
        cfg = RunConfig(dims=[(2, 4)], suites=["curvature"], seed=seed)
        _, report = run(cfg)
        p = tmp_path / f"r{seed}.json"
        p.write_text(json.dumps(report))
        paths.append(str(p))
    text = summarize(paths, as_csv=True)
    assert text.splitlines()[0] == "id,runs,fails,min_residual,max_residual,max_runtime_s"
    rows = [line for line in text.splitlines() if "jacobi-cross" in line]
    assert rows and ",2," in rows[0]
    runtimes = [json.loads(Path(p).read_text())["header"]["runtimes_s"]["jacobi-cross-check(2,4)"]
                for p in paths]
    assert float(rows[0].split(",")[-1]) == max(runtimes)


def test_summarize_reads_replay_step_runtimes(tmp_path):
    _, payload = replay("no-v", RunConfig())
    p = tmp_path / "no-v.json"
    p.write_text(json.dumps(payload))
    rows = {r["id"]: r for r in csv.DictReader(io.StringIO(summarize([str(p)], as_csv=True)))}
    assert set(rows) == set(payload["header"]["runtimes_s"])
    for step_id, runtime in payload["header"]["runtimes_s"].items():
        assert float(rows[step_id]["max_runtime_s"]) == runtime


def test_summarize_empty_errors():
    with pytest.raises(ValueError, match="at least one"):
        summarize([])


def test_summarize_skips_malformed(tmp_path):
    good_cfg = RunConfig(dims=[(2, 4)], suites=["clifford"], seed=0)
    _, report = run(good_cfg)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(report))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    not_a_report = tmp_path / "list.json"
    not_a_report.write_text("[1, 2]")
    # a string residual next to the good file's numeric one for the same check
    check = report["checks"][0]
    malformed = {"no_id.json": {"checks": [{"verdict": "pass", "residual": 0.0}]},
                 "not_an_object.json": {"checks": [1]},
                 "runtimes_list.json": {**report, "header": {"runtimes_s": [1.0]}},
                 "string_residual.json": {"checks": [{**check, "residual": "small"}]}}
    paths = [good, bad, not_a_report]
    for name, data in malformed.items():
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(data))
    text = summarize([str(p) for p in paths])
    for p in paths[1:]:
        assert f"warning: skipped {p}" in text
    assert text == summarize([str(good)]) + "".join(
        line + "\n" for line in text.splitlines() if line.startswith("warning: skipped"))


def test_summarize_without_usable_reports_names_each_skipped_file(tmp_path, capsys):
    # a missing file and a probe report, which holds no checks: exit 2, and each
    # path with its reason on stderr, in the words of the warnings
    missing, probe_out = tmp_path / "missing.json", tmp_path / "probe.json"
    assert main(["probe", "hypersurface", "--frames", "1", "--out", str(probe_out)]) == 0
    capsys.readouterr()
    assert main(["summarize", str(missing), str(probe_out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no usable reports")
    assert f"skipped {missing}: " in err and f"skipped {probe_out}: no checks" in err


def test_main_summarize_roundtrip(tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["verify", "clifford", "--dims", "1:2,2:4", "--out", str(out)])
    status = main(["summarize", str(out)])
    assert status == 0
    captured = capsys.readouterr().out
    assert "clifford-relations(1,2)" in captured


def test_config_rejects_unwritable_output():
    cfg = RunConfig(dims=[(2, 4)], out="/nonexistent-dir/report.json")
    with pytest.raises(ValueError, match="does not exist"):
        cfg.validate()


def test_probe_subcommand_smoke(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"probe_frames": 2}))
    out = tmp_path / "probe.json"
    status = main(["probe", "hypersurface", "--config", str(cfg_file),
                   "--out", str(out)])
    assert status == 0
    payload = json.loads(out.read_text())
    assert payload["probe"]["floor"] > 1e-6
    assert payload["probe"]["frames"] == 2
    box = payload["probe"]["box"]
    assert box == {"c_min": -2.0, "c_max": pytest.approx(0.0, abs=1e-12), "c_values": 201,
                   "h_bound": 60.0, "h_samples": 2400,
                   "components": "codazzi (k, i, j) with k, i, j distinct"}
    _, report = run(load_config(str(cfg_file), {"suites": ["hypersurface"]}))
    check, control = report["checks"]
    assert check["id"] == "codazzi-floor(2,4)" and check["witness"]["box"] == box
    assert control["id"] == "codazzi-positive-control(2,4)" and control["residual"] == 0.0


def test_codazzi_floor_fails_without_candidates(monkeypatch):
    # at C = -1e6 no H in the box solves the trace equation, so the floor is inf
    monkeypatch.setattr(hypersurface, "probe_c_grid", lambda: np.array([-1e6]))
    status, report = run(RunConfig(probe_frames=1, suites=["hypersurface"]))
    check = {c["id"]: c for c in report["checks"]}["codazzi-floor(2,4)"]
    assert check["witness"]["candidates"] == 0 and check["residual"] == np.inf
    assert check["verdict"] == "fail" and status == 1


@pytest.mark.parametrize("package", ["scipy", "sympy"])
def test_cli_import_loads_no_test_only_package(package):
    # scipy and sympy are test-only oracles; every drgeom command starts without them
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", "import sys, drgeom.cli; print(sorted("
                           f"m for m in sys.modules if m.split('.')[0] == {package!r}))"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_has_no_assert_statements():
    # asserts vanish under python -O; checks must be verdicts or exceptions
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "drgeom").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_are_module_level_and_public():
    # a function-level relative import hides a dependency between modules,
    # and a _private name imported from another module has two owners
    found = []
    for path in sorted((SRC / "drgeom").glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} function-level import"
                          for node in ast.walk(fn)
                          if isinstance(node, ast.ImportFrom) and node.level > 0]
        found += [f"{path.name}:{node.lineno} imports {alias.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level > 0 or (node.module or "").startswith("drgeom"))
                  for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_replay_no_z_under_python_optimize(tmp_path):
    out = tmp_path / "no-z.json"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-O", "-m", "drgeom.cli", "replay", "no-z",
                           "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(out.read_text())["replays"][0]
    assert rep["passed"]
    scan = {s["id"]: s for s in rep["steps"]}["trace-identity-scan"]
    assert scan["verdict"] == "exact-pass"
    assert scan["witness"]["violations"] == []


def test_replay_general_ledger_under_python_optimize(tmp_path):
    # the exact ledger, with its root-pair symmetry guard, reads as pinned under -O
    out = tmp_path / "general-ledger.json"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-O", "-m", "drgeom.cli", "replay", "general-ledger",
                           "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    pinned = json.loads((Path(__file__).parent / "data" / "general_case_ledger.json").read_text())
    assert json.loads(out.read_text())["replays"][0] == pinned


def test_verify_curvature_under_python_optimize(tmp_path):
    # every curvature check survives -O and reads as it does in process
    out = tmp_path / "curvature.json"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-O", "-m", "drgeom.cli", "verify", "curvature",
                           "--dims", "5:8,8:16", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    _, report = run(RunConfig(dims=[(5, 8), (8, 16)], suites=["curvature"]))
    assert len(report["checks"]) == 10
    assert json.loads(out.read_text())["checks"] == json.loads(json.dumps(report["checks"]))


def test_verify_spectrum_under_python_optimize(tmp_path):
    # every spectrum check survives -O and reads as it does in process
    out = tmp_path / "spectrum.json"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-O", "-m", "drgeom.cli", "verify", "spectrum",
                           "--dims", "2:4,8:16", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    _, report = run(RunConfig(dims=[(2, 4), (8, 16)], suites=["spectrum"]))
    assert [c["id"] for c in report["checks"]] == ["normal-jacobi-spectrum(2,4)",
                                                   "normal-jacobi-spectrum(8,16)"]
    assert json.loads(out.read_text())["checks"] == json.loads(json.dumps(report["checks"]))


def test_probe_pool_under_python_optimize(tmp_path):
    # a two-worker probe under -O over two chunks: both hypersurface checks pass
    # (exit 0), one progress line per frame, and the payload of a serial run
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    frames = hypersurface.CHUNK_FRAMES + 1
    payloads = {}
    for jobs in ("2", "1"):
        out = tmp_path / f"probe-{jobs}.json"
        proc = subprocess.run([sys.executable, "-O", "-m", "drgeom.cli", "probe",
                               "hypersurface", "--frames", str(frames), "--jobs", jobs,
                               "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        progress = [line for line in proc.stderr.splitlines() if line.startswith("probe: ")]
        assert [line.split(",")[0] for line in progress] == \
               [f"probe: {k}/{frames} frames done" for k in range(1, frames + 1)]
        payloads[jobs] = json.loads(out.read_text())
        del payloads[jobs]["header"]
    assert payloads["2"]["probe"]["floor"] > 1e-6
    assert payloads["2"] == payloads["1"]
