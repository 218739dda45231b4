"""Acceptance gate: twelve criteria with pinned tolerances and runtimes.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
(visible with ``pytest -s`` or in the captured output of a failing run).
Criterion 10 part (iii) carries a grid-floor assertion that is not
attainable for any uniform 50x50 grid covering the admissible triangle
(the expression's infimum over the open region is 0, approached at the
s -> 0 corner; the exact interior-grid minimum is 79/500 = 0.158); it is
asserted as stated and fails honestly, with the exact analysis attached.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import pytest

from drgeom.clifford import anticommutation_residual, build_module, max_center_dim
from drgeom.curvature import CurvatureContext, ricci_heisenberg, ricci_isotropy
from drgeom.dralgebra import DamekRicci
from drgeom.hypersurface import probe_codazzi_floor
from drgeom.numkernel import MPoly
from drgeom.obstruction import (enumerate_dimension_cases,
                                final_positivity_analysis,
                                product_identity_reduction,
                                cyclic_sum_vanishing, replay_no_z,
                                replay_octonion_case)
from drgeom.spectrum import (alpha_cubic, eta_alpha_exact_identity,
                             f_cubic_roots, make_frame, random_frame,
                             xi_spectrum)

MODULES = [(1, 2), (2, 4), (3, 4), (5, 8), (6, 8), (7, 8), (7, 16), (8, 16)]
_RESULTS: list[str] = []


def _record(num: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    _RESULTS.append(line)
    print(line)


@pytest.fixture(scope="session", autouse=True)
def _summary():
    yield
    print("\n" + "\n".join(_RESULTS))


@pytest.fixture(scope="module")
def contexts():
    cache = {}
    for dims in MODULES:
        g = DamekRicci.from_dims(*dims)
        cache[dims] = (g, CurvatureContext(g))
    return cache


def test_criterion_01_clifford_relations():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for d_v in (2, 4, 8, 16):
        for d_z in range(1, max_center_dim(d_v) + 1):
            mod = build_module(d_z, d_v)
            worst = max(worst, anticommutation_residual(mod.generators))
            count += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _record(1, ok, f"{count} modules, residual {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_02_connection_axioms(contexts):
    worst = 0.0
    for dims in MODULES:
        g, ctx = contexts[dims]
        rng = np.random.default_rng(2)
        t1 = rng.standard_normal((1000, g.dim))
        t2 = rng.standard_normal((1000, g.dim))
        t3 = rng.standard_normal((1000, g.dim))
        nb = ctx.nabla_tensor
        n12 = np.einsum("Ba,Bb,abe->Be", t1, t2, nb, optimize=True)
        n13 = np.einsum("Ba,Bb,abe->Be", t1, t3, nb, optimize=True)
        n21 = np.einsum("Ba,Bb,abe->Be", t2, t1, nb, optimize=True)
        br = np.einsum("Ba,Bb,abe->Be", t1, t2, ctx.bracket_tensor, optimize=True)
        metric = np.einsum("Be,Be->B", n12, t3) + np.einsum("Be,Be->B", t2, n13)
        torsion = n12 - n21 - br
        worst = max(worst, float(np.max(np.abs(metric))),
                    float(np.max(np.abs(torsion))))
    ok = worst <= 1e-12
    _record(2, ok, f"metric compatibility + torsion residual {worst:.2e}")
    assert ok


def test_criterion_03_jacobi_cross_check(contexts):
    from drgeom.curvature import jacobi_closed_batch
    t0 = time.perf_counter()
    worst = 0.0
    for dims in MODULES:
        g, ctx = contexts[dims]
        rng = np.random.default_rng(3)
        t1 = rng.standard_normal((1000, g.dim))
        t2 = rng.standard_normal((1000, g.dim))
        closed = jacobi_closed_batch(g, t1, t2)
        # R(t2, t1, t1, .) contracted step by step: t1 (x) t1 against the
        # (b c)-rows of the Riemann tensor, then t2 against a
        n = g.dim
        r_bc = ctx.riemann_tensor.transpose(1, 2, 0, 3).reshape(n * n, n * n)
        t1t1 = (t1[:, :, None] * t1[:, None, :]).reshape(-1, n * n)
        assembled = np.einsum("Ba,Bae->Be", t2, (t1t1 @ r_bc).reshape(-1, n, n))
        worst = max(worst, float(np.max(np.abs(closed - assembled))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    _record(3, ok, f"max closed-form vs assembled diff {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 60.0


def test_criterion_04_einstein_isotropy(contexts):
    worst = 0.0
    values = {}
    for dims in MODULES:
        _, ctx = contexts[dims]
        c, off = ricci_isotropy(ctx)
        worst = max(worst, off)
        values[dims] = round(c, 9)
    ok = worst <= 1e-10
    _record(4, ok, f"max |Ric - c I| {worst:.2e}; constants {values}")
    assert ok


def test_criterion_05_nilpotent_sign_split(contexts):
    ok = True
    for dims in MODULES:
        g, _ = contexts[dims]
        ok &= ricci_heisenberg(g.module.generators)["sign_split"]
    _record(5, ok, f"Ricci sign split on all {len(MODULES)} modules")
    assert ok


def test_criterion_06_spectral_certificates(contexts):
    worst_val = 0.0
    worst_cert = 0.0
    worst_spread = 0.0
    for dims in MODULES:
        g, ctx = contexts[dims]
        rng = np.random.default_rng(6)
        frames = [random_frame(g, rng) for _ in range(3)]
        v = np.zeros(g.d_v)
        v[0] = np.sqrt(0.7)
        frames.append(make_frame(g, v, np.zeros(g.d_z), np.sqrt(0.3)))
        for fr in frames:
            rep = xi_spectrum(fr, ctx)
            assert rep.complete
            worst_val = max(worst_val, rep.match_residual)
            certs = dict(rep.certificate_residuals)
            worst_spread = max(worst_spread, certs.pop("psi_homothety_spread", 0.0))
            if certs:
                worst_cert = max(worst_cert, max(certs.values()))
    ok = worst_val <= 1e-9 and worst_cert <= 1e-9 and worst_spread <= 1e-9
    _record(6, ok, f"eigenvalue match {worst_val:.2e}, certificates {worst_cert:.2e}, "
                   f"homothety spread {worst_spread:.2e}")
    assert ok


def test_criterion_07_cubic_consistency():
    # exact rational identity between the two cubic normal forms
    assert eta_alpha_exact_identity()
    worst = 0.0
    for mu in (-0.9, -0.5, 0.0):
        for (v, y) in [(0.5, 0.25), (0.2, 0.3), (0.6, 0.35)]:
            out = alpha_cubic(mu, v, y)
            for eta, alpha in zip(out["etas"], out["alphas"]):
                lhs = eta * eta * (eta + 3.0)
                worst = max(worst, abs(lhs - float(out["q"])),
                            abs(eta - (4 * alpha + 1)))
    interlace = True
    for k in range(1, 25):
        q = k / 100.0
        out = f_cubic_roots(q)
        a1, a2, a3 = out["roots"]
        interlace &= (-1 < a1 < -0.75 < a2 < -0.25 < a3 <= 0)
        interlace &= bool(out["certificate"])
    ok = worst <= 1e-12 and interlace
    _record(7, ok, f"substitution residual {worst:.2e}, interlacing on 24 q values")
    assert ok


def test_criterion_08_dimension_enumeration():
    t0 = time.perf_counter()
    cases = enumerate_dimension_cases()
    elapsed = time.perf_counter() - t0
    expected = [(5, 8), (6, 8), (7, 8), (7, 16), (8, 16)]
    ok = cases == expected and elapsed < 1.0
    _record(8, ok, f"cases {cases}, {elapsed * 1000:.0f}ms")
    assert cases == expected
    assert elapsed < 1.0


def test_criterion_09_octonion_mismatch():
    rep = replay_octonion_case(seed=9)
    step = rep.step("kernel-dimension-samples")
    observed = step.witness["observed"]
    ok = rep.passed and observed == [6] * 20 and step.witness["required"] == 4
    _record(9, ok, f"kernel dimension 6 on {len(observed)} samples vs required 4")
    assert ok


def test_criterion_10_exact_ledger_identities():
    t0 = time.perf_counter()
    r1 = product_identity_reduction()
    assert r1["ok"], "product identity must reduce with zero remainder"
    a2 = r1["A2"]
    q, v = MPoly.symbols("q v")
    assert a2 == q * (1 - 3 * v) + 9 * (1 + 5 * v) * (1 - v)
    r2 = cyclic_sum_vanishing()
    assert r2["ok"], "cyclic sum must vanish exactly on the locus"
    r5 = final_positivity_analysis(grid=50)
    assert r5["positive_on_open_region"]
    assert r5["closure_min"] == 0
    assert r5["spot_half_quarter"] == Fraction(7, 4)
    assert r5["grid_min"] > 0
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _record(10, ok, f"(i) zero remainder, (ii) exact vanishing, (iii) open-region "
                    f"positivity certified, grid min {float(r5['grid_min']):.3f} > 0, "
                    f"{elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_10_iii_grid_floor_as_stated():
    """The literal grid-floor assertion: min over the 50x50 grid > 0.4.

    Exact analysis: the expression's minimum over the closed triangle is 0,
    attained only at (v, y) = (2/3, 1/3) (inadmissible, s = 0); the interior
    simplex grid with step 1/50 attains 79/500 = 0.158 at
    (s^2, v, y) = (1/50, 33/50, 16/50).  No uniform 50x50 covering grid has
    minimum above 0.4, so this assertion fails; it is kept as stated.
    """
    r5 = final_positivity_analysis(grid=50)
    grid_min = r5["grid_min"]
    ok = grid_min > Fraction(2, 5)
    _record(10, ok, f"(iii) literal grid floor: min {grid_min} = "
                    f"{float(grid_min):.3f} asserted > 0.4 at argmin "
                    f"(s^2, v, y) = {tuple(map(str, r5['grid_argmin']))}")
    assert grid_min > Fraction(2, 5), (
        f"grid minimum is exactly {grid_min} ({float(grid_min):.3f}) at "
        f"(s^2, v, y) = {r5['grid_argmin']}; the infimum over the open "
        f"admissible region is 0 (s -> 0 corner), so a 0.4 floor cannot hold "
        f"for any uniform 50x50 grid covering the triangle")


def test_criterion_11_no_z_trace_scan():
    ok = True
    tested = 0
    for d_v in (2, 4, 8, 16):
        for d_z in range(1, max_center_dim(d_v) + 1):
            rep = replay_no_z(d_z, d_v)
            ok &= rep.step("trace-identity-scan").witness["violations"] == []
            ok &= rep.step("trace-identity-scan").witness["grid_points"] == 49
            ok &= rep.passed
            tested += 1
    _record(11, ok, f"no admissible multiplicity on any of {tested} modules "
                    f"x 49 grid points")
    assert ok


def test_criterion_12_hypersurface_probe(contexts):
    t0 = time.perf_counter()
    _, ctx = contexts[(2, 4)]
    out = probe_codazzi_floor(ctx, n_frames=100, seed=12)
    elapsed = time.perf_counter() - t0
    ok = out["floor"] > 1e-6 and elapsed < 600.0
    _record(12, ok, f"floor {out['floor']:.3e} over {out['candidates']} candidates, "
                    f"{out['frames']} frames, {elapsed:.0f}s")
    assert out["floor"] > 1e-6
    assert elapsed < 600.0
