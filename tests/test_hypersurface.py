"""Shape candidates, Nomizu operator, derived-Gauss and Codazzi residuals.

The probe's candidates are one table per frame from ``_candidates`` (split per
C by ``candidates_per_c``) and its residuals rows of ``_FrameTensors``; the
per-candidate reference below rebuilds both one candidate at a time.
"""

from __future__ import annotations

import math
import re
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from drgeom import hypersurface
from drgeom.cli import DEFAULT_DIMS
from drgeom.curvature import CurvatureContext
from drgeom.dralgebra import DamekRicci
from itertools import permutations, product

from scipy.optimize import brentq

from drgeom.hypersurface import (BLOCK, H_BOUND, H_SAMPLES, QUADRATIC_TOL, _candidates,
                                 _Eigenframe, _FrameTensors, _probe_chunk, horosphere_residual,
                                 nomizu, probe_c_grid, probe_codazzi_floor)
from drgeom.numkernel import EigenDecomposition
from drgeom.obstruction import no_z_candidate_constants
from drgeom.spectrum import make_frame, random_frame
from per_c_probe import candidates_per_c, cutoff, per_c_candidates, per_c_probe_frame


def _set_c_grid(monkeypatch, step, start=hypersurface.C_START, stop=hypersurface.C_STOP):
    """Make ``probe_c_grid()`` the C values start, start + step, ..., stop, and return it."""
    for name, value in (("C_START", start), ("C_STOP", stop), ("C_STEP", step)):
        monkeypatch.setattr(hypersurface, name, value)
    return probe_c_grid()


def _c_grid(step):
    """The probe's C grid with C_STEP = step, for the internal calls that take C values."""
    with pytest.MonkeyPatch.context() as mp:
        return _set_c_grid(mp, step)


@pytest.fixture(scope="module")
def g24():
    return DamekRicci.from_dims(2, 4)


@pytest.fixture(scope="module")
def ctx24(g24):
    return CurvatureContext(g24)


def _invariant_residual(c, h, lam, alphas) -> float:
    """Max residual of S^2 - H S + (alpha - C) = 0 and Tr S = H."""
    quad = lam ** 2 - h * lam + (alphas - c)
    return max(float(np.max(np.abs(quad))), abs(float(np.sum(lam)) - h))


def _dg1(tensors, lam):
    """dG1[b, i, k] = <R_{X_i} xi, nabla_k xi + lam_k X_k>, half the derived-Gauss
    numerator on j = i: up to a factor X_k(alpha_i), which the residual leaves out."""
    n = lam.shape[1]
    i, k = np.indices((n, n))
    return 0.5 * tensors._numerator(lam, np.ravel_multi_index((k, i, i), (n, n, n)))


def _distinct(n):
    """The flat [k, i, j] indices with k, i and j distinct, in increasing order."""
    return np.array([np.ravel_multi_index(t, (n, n, n)) for t in permutations(range(n), 3)])


def _first_candidate(fr, ctx, c):
    """The eigenframe, its tensors and the first candidate's (1, n) principal
    curvatures at C, or a skip when C has no candidate."""
    ef = _Eigenframe(fr, ctx)
    _, lam, _ = candidates_per_c(ef, [c])[0]
    if not len(lam):
        pytest.skip("no candidate at this C")
    return ef, _FrameTensors(ctx, fr.xi, ef.x, ef.vector_alphas), lam[:1]


# ---------------------------------------------------------------------------
# candidate enumeration
# ---------------------------------------------------------------------------

def test_candidates_satisfy_invariants(g24, ctx24):
    rng = np.random.default_rng(0)
    fr = random_frame(g24, rng)
    ef = _Eigenframe(fr, ctx24)
    found = 0
    for c in np.arange(-1.5, -0.2, 0.17):
        h, lam, _ = candidates_per_c(ef, [float(c)])[0]
        for hb, lb in zip(h, lam):
            found += 1
            assert _invariant_residual(c, hb, lb, ef.vector_alphas) <= 1e-10
            # curvature-adapted: the eigenframe diagonalizes the Jacobi operator
            jac = ctx24.jacobi(fr.xi)
            jj = ef.x.T @ jac @ ef.x
            assert np.max(np.abs(jj - np.diag(ef.vector_alphas))) < 1e-9
    assert found > 0


def test_candidates_alpha_equals_c_gives_zero_and_h_roots(g24, ctx24):
    rng = np.random.default_rng(1)
    fr = random_frame(g24, rng)
    # pick C equal to one of the Jacobi eigenvalues: roots are {0, H}
    jac = ctx24.jacobi(fr.xi)
    from drgeom.numkernel import complete_basis
    perp = complete_basis(g24.dim, fr.xi[:, None])
    vals = np.linalg.eigvalsh(perp.T @ jac @ perp)
    c_val = float(vals[0])
    ef = _Eigenframe(fr, ctx24)
    h, lam, _ = candidates_per_c(ef, [c_val])[0]
    for hb, lb in zip(h, lam):
        for lk in lb[np.abs(ef.vector_alphas - c_val) < 1e-9]:
            assert min(abs(lk), abs(lk - hb)) < 1e-8


def _made_up_eigenframe(monkeypatch, alphas, mults):
    """An _Eigenframe built by its own constructor from a made-up normal
    Jacobi spectrum: cluster k holds mults[k] coordinate vectors with the
    eigenvalue alphas[k]."""
    n = sum(mults)
    ends = np.cumsum([0, *mults]).tolist()
    dec = EigenDecomposition(np.repeat(np.asarray(alphas, dtype=float), mults), np.eye(n),
                             tuple(tuple(range(a, b)) for a, b in zip(ends, ends[1:])))
    monkeypatch.setattr(hypersurface, "normal_jacobi",
                        lambda frame, ctx: (None, np.eye(n), None, dec))
    return _Eigenframe(None, None)


def test_h_grid_is_zero_then_the_positive_half(monkeypatch):
    # the scan covers H >= 0 only: H = 0, then the H > 0 half of the H_SAMPLES
    # points of [-H_BOUND, H_BOUND]; the roots with H < 0 come from the mirror splits
    hs = _made_up_eigenframe(monkeypatch, [0.0], [1]).hs
    assert hs.size == H_SAMPLES // 2 + 1 and hs[-1] == H_BOUND
    assert np.array_equal(hs, np.concatenate(
        [[0.0], np.linspace(-H_BOUND, H_BOUND, H_SAMPLES)[H_SAMPLES // 2:]]))


@pytest.mark.parametrize("mults, n_splits", [([17], 18), ([2, 17, 1], 108)])
def test_reversed_split_index_is_the_mirror_split(monkeypatch, mults, n_splits):
    # an eigenspace of multiplicity m gets all m + 1 splits, however large m is
    splits = _made_up_eigenframe(monkeypatch, [-1.0, -0.5, -0.25][:len(mults)], mults).splits
    big = mults.index(17)
    assert len(splits) == n_splits and splits[0][big] == (0, 17) and splits[-1][big] == (17, 0)
    assert all(splits[-1 - i] == tuple((m, p) for p, m in s) for i, s in enumerate(splits))


@pytest.mark.parametrize("dims", [(1, 2), (2, 4), (3, 4), (5, 8), (6, 8), (7, 8), (7, 16),
                                  (8, 16)], ids=lambda d: f"{d[0]}-{d[1]}")
def test_reversed_split_index_is_the_mirror_split_on_default_pairs(dims):
    ctx = CurvatureContext(DamekRicci.from_dims(*dims))
    splits = _Eigenframe(random_frame(ctx.g, np.random.default_rng(12)), ctx).splits
    assert all(splits[-1 - i] == tuple((m, p) for p, m in s) for i, s in enumerate(splits))


def test_candidates_keep_an_exact_grid_zero(monkeypatch):
    # one eigenvalue of multiplicity 2 with alpha - C = h0^2 / 4: on the split
    # (2, 0) the trace gap is sqrt(H^2 - h0^2) for H >= h0, exactly 0 at h0 and
    # positive at every other valid grid H; so no bracket holds the root, only the
    # grid zero.  The root -h0 is minus the split (0, 2)'s grid zero at h0
    h0 = np.linspace(-H_BOUND, H_BOUND, H_SAMPLES)[H_SAMPLES // 2:][500]
    ef = _made_up_eigenframe(monkeypatch, [h0 ** 2 / 4], [2])
    assert h0 in ef.hs.tolist()
    h, _, si = candidates_per_c(ef, [0.0])[0]
    roots = [hb for hb, s in zip(h.tolist(), si) if ef.splits[s] == ((2, 0),)]
    assert h0 in roots and all(abs(h) == h0 for h in roots)
    assert roots == [-h0, h0]


def test_candidates_drop_a_root_within_1e_9_of_a_smaller_one(monkeypatch):
    # alpha = C with multiplicity 2: on the split (1, 1) the trace gap
    # rho+ + rho- - H is exactly 0 at every H, so each grid point is a root, and
    # so is minus each; of two roots 5e-10 apart only the smaller one is kept, on
    # either side of H = 0
    ef = _made_up_eigenframe(monkeypatch, [0.0], [2])
    ef.hs = np.array([0.0, 1.0, 1.0 + 5e-10, 2.0])
    h, _, si = candidates_per_c(ef, [0.0])[0]
    roots = [hb for hb, s in zip(h.tolist(), si) if ef.splits[s] == ((1, 1),)]
    assert [r for r in roots if r > 0.0] == [1.0, 2.0]
    assert roots == [-2.0, -1.0 - 5e-10, 0.0, 1.0, 2.0]


def test_candidates_keep_a_root_at_h_zero_between_equal_signs(monkeypatch):
    # alpha = C = 0 with multiplicity 2: the splits (0, 2) and (2, 0) have
    # Tr S - H = -|H| and |H|, of one sign on each side of their root H = 0, where
    # S = 0; the scan's H = 0 row holds it as an exact zero
    ef = _made_up_eigenframe(monkeypatch, [0.0], [2])
    h, lam, si = candidates_per_c(ef, [0.0])[0]
    for split in (((0, 2),), ((2, 0),)):
        rows = [k for k, s in enumerate(si) if ef.splits[s] == split]
        assert h[rows].tolist() == [0.0] and not lam[rows].any()
    assert 0.0 in [hb for hb, s in zip(h.tolist(), si) if ef.splits[s] == ((1, 1),)]


def test_h_zero_row_with_alpha_equal_c(monkeypatch):
    # alpha = C = 0 with multiplicity 4: rho- is min(H, 0), so the split (2, 2)
    # has Tr S - H = H, whose root is the scan's exact zero at H = 0.  There the
    # discriminant is 0 and the small root's quotient would be 0/0
    ef = _made_up_eigenframe(monkeypatch, [0.0], [4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, lam, si = candidates_per_c(ef, [0.0])[0]
    assert not np.isnan(h).any() and not np.isnan(lam).any()
    roots = [hb for hb, s in zip(h.tolist(), si) if ef.splits[s] == ((2, 2),)]
    assert roots == [0.0]


def test_no_z_forced_constants_solve_quadratics_exactly():
    # the forced values rho solve x^2 - Hx + (alpha - C) = 0 exactly at
    # H = -C/s, s^2 = 2C + 1 -- but never the trace equation Tr S = H,
    # which is the multiplicity obstruction
    for s in (Fraction(1, 4), Fraction(1, 2), Fraction(4, 5)):
        cst = no_z_candidate_constants(s)
        c, h = cst["C"], cst["H"]
        assert s * s == 2 * c + 1
        for rho, alpha in [(cst["rho_minus"], Fraction(-1)),
                           (cst["rho_1"], Fraction(-1, 4)),
                           (cst["rho_2"], Fraction(-1, 4))]:
            assert rho * rho - h * rho + (alpha - c) == 0


def test_no_z_forced_trace_never_consistent(g24, ctx24):
    # no enumerated self-consistent candidate at the forced C carries the
    # forced mean curvature: Tr S = H fails for every admissible split
    s = Fraction(1, 2)
    cst = no_z_candidate_constants(s)
    v = np.array([1.0, 0, 0, 0]) * np.sqrt(float(cst["v"]))
    fr = make_frame(g24, v, np.zeros(2), float(s))
    ef = _Eigenframe(fr, ctx24)
    c = float(cst["C"])
    h, lam, _ = candidates_per_c(ef, [c])[0]
    rho_m, rho_1 = float(cst["rho_minus"]), float(cst["rho_1"])
    minus_space = np.abs(ef.vector_alphas + 1.0) < 1e-9
    for hb, lb in zip(h, lam):
        # self-consistent by contract
        assert _invariant_residual(c, hb, lb, ef.vector_alphas) <= 1e-10
        forced_minus = np.all(np.abs(lb[minus_space] - rho_m) < 1e-8)
        n_rho1 = int(np.sum(np.abs(lb[~minus_space] - rho_1) < 1e-8))
        # the forced pattern: rho_minus on all of L(-1) and rho_1 on the
        # center family plus Q (at least d_z + 1 copies)
        assert not (abs(hb - float(cst["H"])) < 1e-8 and forced_minus
                    and n_rho1 >= g24.d_z + 1)


def test_gauss_alpha_consistency(g24, ctx24):
    # alpha_i = -lam_i^2 + H lam_i + C on the candidate's own eigenframe
    rng = np.random.default_rng(2)
    fr = random_frame(g24, rng)
    ef = _Eigenframe(fr, ctx24)
    h, lam, _ = candidates_per_c(ef, [-0.7])[0]
    for hb, lb in zip(h, lam):
        recon = -lb ** 2 + hb * lb - 0.7
        assert np.max(np.abs(recon - ef.vector_alphas)) < 1e-10


# ---------------------------------------------------------------------------
# Nomizu operator
# ---------------------------------------------------------------------------

def test_nomizu_at_a_matches_connection(g24, ctx24):
    n = nomizu(ctx24, g24.vec(a=1.0))
    # nabla_T A = -(v-part)/2 - (z-part): block diagonal scaling
    expect = np.zeros((7, 7))
    expect[:4, :4] = -0.5 * np.eye(4)
    expect[4:6, 4:6] = -np.eye(2)
    assert np.max(np.abs(n - expect)) < 1e-13


def test_nomizu_orthogonal_to_unit_normal(g24, ctx24):
    rng = np.random.default_rng(3)
    fr = random_frame(g24, rng)
    n = nomizu(ctx24, fr.xi)
    assert np.max(np.abs(fr.xi @ n)) < 1e-12


def test_nomizu_transpose_formula_no_center(g24, ctx24):
    # with Y = 0: N_xi^t W = -s W / 2 - [V, W]/2 on v-vectors
    v = np.array([0.5, -0.3, 0.1, 0.7])
    v *= np.sqrt(0.6) / np.linalg.norm(v)
    s = np.sqrt(0.4)
    fr = make_frame(g24, v, np.zeros(2), s)
    n = nomizu(ctx24, fr.xi)
    rng = np.random.default_rng(4)
    for _ in range(10):
        w = rng.standard_normal(4)
        wf = g24.vec(w)
        expect = g24.vec(-0.5 * s * w, -0.5 * g24.bracket_vz(v, w), 0.0)
        assert np.max(np.abs(n.T @ wf - expect)) < 1e-12


def test_gauss_map_derivative_wiring(g24, ctx24):
    rng = np.random.default_rng(5)
    fr = random_frame(g24, rng)
    ef, tensors, lam = _first_candidate(fr, ctx24, -0.8)
    # the Gauss-map derivatives nabla_k xi + lambda_k X_k, as gauss() forms them
    gm = nomizu(ctx24, fr.xi) @ ef.x + ef.x * lam
    for k in range(lam.shape[1]):
        xk = ef.x[:, k]
        direct = np.einsum("a,b,abe->e", xk, fr.xi, ctx24.nabla_tensor) + lam[0, k] * xk
        assert np.max(np.abs(gm[:, k] - direct)) < 1e-12


# ---------------------------------------------------------------------------
# derived Gauss and Codazzi
# ---------------------------------------------------------------------------

def test_horosphere_codazzi_exact(g24, ctx24):
    # the left-invariant horosphere normal to A has parallel shape operator
    # S = diag(1/2 on v, 1 on z); the derived-Gauss Gammas are the geometric ones
    # wherever they are derived, and Codazzi holds exactly with them
    n = g24.dim - 1
    basis = np.zeros((g24.dim, n))
    basis[:n, :n] = np.eye(n)
    lam = np.array([0.5] * g24.d_v + [1.0] * g24.d_z)
    al = np.array([-0.25] * g24.d_v + [-1.0] * g24.d_z)
    gamma = np.einsum("ak,bi,abe,ej->kij", basis, basis, ctx24.nabla_tensor,
                      basis, optimize=True)
    fr = make_frame(g24, np.zeros(4), np.zeros(2), 1.0)
    tensors = _FrameTensors(ctx24, fr.xi, basis, al)
    derived = tensors.gamma(lam[None], np.arange(n ** 3))[0]
    assert np.max(np.abs(derived - gamma.ravel()), where=~np.isnan(derived), initial=0.0) < 1e-13
    res = tensors.codazzi(lam[None], np.arange(n ** 3))
    assert np.max(np.abs(res), initial=0.0, where=~np.isnan(res)) < 1e-13
    assert np.isnan(res).sum() == 0


@pytest.mark.parametrize("dims", DEFAULT_DIMS)
def test_horosphere_residual_is_zero(dims):
    assert horosphere_residual(CurvatureContext(DamekRicci.from_dims(*dims))) == 0.0


def test_horosphere_control_vanishes_only_at_its_shape_operator(g24, ctx24):
    # the probe's positive control is zero at S = diag(1/2 on v, 1 on z), and
    # not zero once the v block, the z block or both move or swap
    lam = np.repeat([0.5, 1.0], [g24.d_v, g24.d_z])
    tensors = _FrameTensors(ctx24, g24.vec(a=1.0), np.eye(g24.dim)[:, :-1], -lam * lam)
    assert tensors.aggregate(lam[None])[0] == horosphere_residual(ctx24) == 0.0
    on_v = np.repeat([1.0, 0.0], [g24.d_v, g24.d_z])
    wrong = np.stack([lam + 0.1 * on_v, lam + 0.1 * (1 - on_v), 1.1 * lam, lam[::-1]])
    assert np.all(tensors.aggregate(wrong) > 1e-2)


def test_quarter_space_dg1_vanishes_inside_core(g24, ctx24):
    # vectors of the -1/4 eigenspace pair to zero against every Gauss-map
    # derivative: R_T xi is proportional to xi there
    rng = np.random.default_rng(6)
    fr = random_frame(g24, rng)
    ef, tensors, lam = _first_candidate(fr, ctx24, -0.75)
    dg1 = _dg1(tensors, lam)[0]
    quarter = np.abs(ef.vector_alphas + 0.25) < 1e-9
    sub = dg1[quarter, :]
    assert np.max(np.abs(sub)) < 1e-10


def test_gamma_antisymmetry(g24, ctx24):
    rng = np.random.default_rng(7)
    fr = random_frame(g24, rng)
    _, tensors, lam = _first_candidate(fr, ctx24, -0.6)
    n = lam.shape[1]
    gam = tensors.gamma(lam, np.arange(n ** 3))[0].reshape(n, n, n)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                a, b = gam[k, i, j], gam[k, j, i]
                if not (np.isnan(a) or np.isnan(b)):
                    assert abs(a + b) < 1e-8


def test_no_z_isotropy_pairing_reduction():
    """The specialized Codazzi combination on commutant pairs.

    On a no-center-component candidate the reconstructed Gamma equals
    (2s^2-1)/(2s) <J_Z P, P'>, the Gauss-map derivative collapses to
    (1-3s^2)/(2s) P, and the Codazzi residual is (1-3s^2)/2 <J_Z P, P'> --
    a visible obstruction whenever the commutant pair is not isotropic.
    """
    g = DamekRicci.from_dims(4, 8)
    ctx = CurvatureContext(g)
    rng = np.random.default_rng(8)
    s = 0.5
    cst = no_z_candidate_constants(Fraction(1, 2))
    v = rng.standard_normal(8)
    v *= np.sqrt(float(cst["v"])) / np.linalg.norm(v)
    fr = make_frame(g, v, np.zeros(4), s)
    assert fr.d_p == 3  # d_v - d_z - 1
    # eigenframe: V_minus (4), V_1 family (4) + Q + p1 (1), V_2 = p2 (2)
    z_basis = np.eye(4)
    vm, v1 = [], []
    for i in range(4):
        z = z_basis[:, i]
        jzv = g.j_z(z) @ v
        vm.append(g.vec(jzv, s * z, 0.0))
        v1.append(g.vec(-s * jzv, float(cst["v"]) * z, 0.0) / np.sqrt(float(cst["v"])))
    # choose p2 as a pair with nonzero J_Z pairing for Z = z_basis[:,0]
    jz0 = g.j_z(z_basis[:, 0])
    p_cols = fr.p_basis
    pair_mat = p_cols.T @ jz0 @ p_cols
    k_idx, j_idx = np.unravel_index(np.argmax(np.abs(pair_mat)), pair_mat.shape)
    assert abs(pair_mat[k_idx, j_idx]) > 1e-3
    p_k = p_cols[:, k_idx]
    p_j = p_cols[:, j_idx]
    p1 = [p_cols[:, i] for i in range(3) if i not in (k_idx, j_idx)]
    frame_cols = (vm + v1 + [fr.q_vec]
                  + [g.vec(p) for p in p1]
                  + [g.vec(p_k), g.vec(p_j)])
    basis = np.column_stack(frame_cols)
    assert np.max(np.abs(basis.T @ basis - np.eye(12))) < 1e-10
    rho_m, rho_1, rho_2 = (float(cst["rho_minus"]), float(cst["rho_1"]),
                           float(cst["rho_2"]))
    lams = np.array([rho_m] * 4 + [rho_1] * 6 + [rho_2] * 2)
    alphas = np.array([-1.0] * 4 + [-0.25] * 8)
    c_const, h_mean = float(cst["C"]), float(cst["H"])
    # the quadratic relation holds exactly on the forced data; the trace
    # relation cannot (the multiplicity obstruction), so check them apart
    quad = lams ** 2 - h_mean * lams + (alphas - c_const)
    assert np.max(np.abs(quad)) < 1e-12
    assert abs(float(lams.sum()) - h_mean) > 1.0

    tensors = _FrameTensors(ctx, fr.xi, basis, alphas)
    # Gauss-map derivative on P = X_10 (first V_2 vector)
    gm = nomizu(ctx, fr.xi) @ basis + basis * lams
    k_pos, i_pos, j_pos = 10, 0, 11
    comp = np.ravel_multi_index(([k_pos], [i_pos], [j_pos]), (12, 12, 12))
    expect_gm = (1 - 3 * s * s) / (2 * s) * basis[:, k_pos]
    assert np.max(np.abs(gm[:, k_pos] - expect_gm)) < 1e-12
    pairing = float((jz0 @ p_k) @ p_j)
    gamma = tensors.gamma(lams[None], comp)[0, 0]
    assert abs(gamma - (2 * s * s - 1) / (2 * s) * pairing) < 1e-10
    res = tensors.codazzi(lams[None], comp)[0, 0]
    expect = 0.5 * (1 - 3 * s * s) * pairing
    assert abs(res - expect) < 1e-10
    assert abs(res) > 1e-3  # the obstruction is visible


def test_probe_floor_smoke(monkeypatch, ctx24):
    _set_c_grid(monkeypatch, 0.2, -1.6, -0.4)
    out = probe_codazzi_floor(ctx24, n_frames=3, seed=1)
    assert out["candidates"] > 0
    assert out["floor"] > 1e-6
    assert len(out["per_frame_min"]) == 3


def test_probe_refuses_no_frames(ctx24):
    with pytest.raises(ValueError, match="n_frames"):
        probe_codazzi_floor(ctx24, n_frames=0)


def test_candidate_aggregate_positive(g24, ctx24):
    rng = np.random.default_rng(9)
    fr = random_frame(g24, rng)
    _, tensors, lam = _first_candidate(fr, ctx24, -0.9)
    assert tensors.aggregate(lam)[0] > 1e-6


def test_specialized_codazzi_coefficient_identity():
    from drgeom.obstruction import specialized_codazzi_coefficient_identity
    assert specialized_codazzi_coefficient_identity()


def test_nomizu_transpose_formula_full_frame():
    # N_xi^t W = J_Y W / 2 - s W / 2 - [V, W]/2 on v-vectors, generic frame
    g = DamekRicci.from_dims(5, 8)
    ctx = CurvatureContext(g)
    rng = np.random.default_rng(20)
    fr = random_frame(g, rng)
    n = nomizu(ctx, fr.xi)
    for _ in range(10):
        w = rng.standard_normal(8)
        wf = g.vec(w)
        expect = g.vec(0.5 * (g.j_z(fr.y) @ w) - 0.5 * fr.s * w,
                       -0.5 * g.bracket_vz(fr.v, w), 0.0)
        assert np.max(np.abs(n.T @ wf - expect)) < 1e-12


def test_probe_serial_parallel_agree(monkeypatch, ctx24):
    # chunks of 2, 2 and 1 frames, mapped in this process and over a pool of two
    # workers; then one chunk of 5 frames against chunks of 3 and 2
    grid = _set_c_grid(monkeypatch, 0.25, -1.4, -0.65)
    monkeypatch.setattr(hypersurface, "CHUNK_FRAMES", 2)
    a = probe_codazzi_floor(ctx24, n_frames=5, seed=3, jobs=1)
    b = probe_codazzi_floor(ctx24, n_frames=5, seed=3, jobs=2)
    assert a["per_frame_min"] == b["per_frame_min"]
    assert a["floor"] == b["floor"]
    assert a == b
    seeds = np.random.SeedSequence(3).spawn(5)
    whole = _probe_chunk((ctx24, seeds, 0, grid))
    assert [r[0] for r in whole] == list(range(5))
    assert _probe_chunk((ctx24, seeds[:3], 0, grid)) + \
        _probe_chunk((ctx24, seeds[3:], 3, grid)) == whole


@pytest.mark.parametrize("chunk_frames, sizes", [(1, [1] * 5), (2, [2, 2, 1])])
def test_serial_probe_reports_each_chunk_before_the_next_starts(monkeypatch, ctx24, capsys,
                                                                chunk_frames, sizes):
    # each _probe_chunk call writes a marker first, so stderr shows the chunks'
    # sizes and that a chunk's frames are reported before the next chunk starts
    _set_c_grid(monkeypatch, 0.25, -1.4, -0.65)
    monkeypatch.setattr(hypersurface, "CHUNK_FRAMES", chunk_frames)

    def marked(args):
        print(f"chunk of {len(args[1])} frames starts", file=sys.stderr, flush=True)
        return _probe_chunk(args)
    monkeypatch.setattr(hypersurface, "_probe_chunk", marked)
    probe_codazzi_floor(ctx24, n_frames=5, seed=3)
    expected, done = [], 0
    for size in sizes:
        expected += [f"chunk of {size} frames starts",
                     *(f"probe: {done + k}/5 frames done" for k in range(1, size + 1))]
        done += size
    assert [line.split(",")[0] for line in capsys.readouterr().err.splitlines()] == expected


def test_probe_progress_counts_the_evaluated_candidates(ctx24, capsys):
    out = probe_codazzi_floor(ctx24, n_frames=2, seed=4)
    lines = capsys.readouterr().err.splitlines()
    counts = [re.fullmatch(rf"probe: {k}/2 frames done, \d+\.\d\d s, (\d+)/(\d+) evaluated",
                           line).groups() for k, line in enumerate(lines, 1)]
    assert len(counts) == 2 and sum(int(n) for _, n in counts) == out["candidates"]
    assert all(0 < int(done) < int(n) for done, n in counts)


def test_probe_c_grid_is_exact():
    # the default grid holds -1/4 and ends at 0 exactly, with no drift
    grid = probe_c_grid()
    assert len(grid) == 201 and grid[0] == -2.0 and grid[-1] == 0.0
    assert -0.25 in grid.tolist()
    assert np.array_equal(grid, -2.0 + 0.01 * np.arange(201))
    # the 1e-9 keeps C_STOP where (C_STOP - C_START) / C_STEP rounds below an integer
    assert [len(_c_grid(step)) for step in (0.01, 0.05, 0.03)] == [201, 41, 67]


# ---------------------------------------------------------------------------
# reference: the per-C, per-candidate probe the batched one replaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _RefCandidate:
    """One candidate S on xi-perp, as the per-candidate reference holds it."""

    c_const: float
    h_mean: float
    alphas: np.ndarray       # per eigenframe vector
    lambdas: np.ndarray      # principal curvature per eigenframe vector
    frame_basis: np.ndarray  # columns: eigenframe in ambient coords
    splits: tuple = ()

    @property
    def n(self) -> int:
        return self.lambdas.shape[0]

    def invariant_residual(self) -> float:
        return _invariant_residual(self.c_const, self.h_mean, self.lambdas, self.alphas)


def _ref_eigenspace_data(frame, ctx):
    from drgeom.numkernel import complete_basis, eig_sym
    jac = ctx.jacobi(frame.xi)
    perp = complete_basis(frame.g.dim, frame.xi[:, None])
    dec = eig_sym(perp.T @ jac @ perp)
    alphas = [float(np.mean(dec.eigenvalues[list(c)])) for c in dec.clusters]
    mults = [len(c) for c in dec.clusters]
    bases = [perp @ dec.cluster_basis(k) for k in range(len(dec.clusters))]
    return alphas, mults, bases


def _trace_gap(alphas, splits, c_const):
    """Tr S - H as a scalar function of H, written with the small root of each
    quadratic x^2 - H x + (alpha - C): (P - 1) H + sum (m - p) rho- for H >= 0
    and (M - 1) H + sum (p - m) rho+ for H < 0, where P and M are the total
    plus and minus counts, rho-+ is 2(alpha - C)/(H +- sqrt(disc)) with
    disc = H^2 - 4(alpha - C) > 0, and H/2 where disc <= 0."""
    n_plus, n_minus = (sum(col) for col in zip(*splits))

    def f(h):
        up = h >= 0.0
        total = ((n_plus if up else n_minus) - 1) * h
        for (p, m), alpha in zip(splits, alphas):
            a = alpha - c_const
            d = h * h - 4.0 * a
            small = 0.5 * h
            if d > 0.0:
                small = 2.0 * a / (h + math.sqrt(d) if up else h - math.sqrt(d))
            total += ((m - p) if up else (p - m)) * small
        return total
    return f


def _bisect_to_adjacent_floats(f, neg, pos):
    """Root of f in a bracket with f(neg) < 0 < f(pos): bisect until the two
    ends are adjacent floats, then return the end where f <= 0."""
    while True:
        mid = 0.5 * (neg + pos)
        if mid in (neg, pos):
            return neg
        fm = f(mid)
        if fm <= 0.0:
            neg = mid
        if fm >= 0.0:
            pos = mid


def _brentq_root(f, neg, pos):
    return brentq(f, min(neg, pos), max(neg, pos), xtol=1e-13)


def _dedupe(xs, tol=1e-9):
    out = []
    for x in sorted(xs):
        if not out or abs(x - out[-1]) > tol:
            out.append(x)
    return out


def _ref_shape_candidates(frame, ctx, c_const, root=_bisect_to_adjacent_floats):
    """Eigendata recomputed for this C, one trace scan of the whole H grid and
    one scalar root search per split and bracket."""
    return _ref_spectrum_candidates(*_ref_eigenspace_data(frame, ctx), c_const, root)


def _ref_spectrum_candidates(alphas, mults, bases, c_const, root=_bisect_to_adjacent_floats):
    """The candidates of a Jacobi spectrum: eigenvalues ``alphas`` of
    multiplicities ``mults`` on the eigenspace bases ``bases``."""
    split_ranges = [[(p, m - p) for p in range(m + 1)] for m in mults]
    out = []
    half = np.linspace(-H_BOUND, H_BOUND, H_SAMPLES)[H_SAMPLES // 2:]
    zero = H_SAMPLES // 2
    hs = np.concatenate([-half[::-1], [0.0], half])
    a = np.asarray(alphas)[None, :] - c_const
    disc = hs[:, None] ** 2 - 4.0 * a
    valid = np.all(disc >= 0.0, axis=1)
    valid[zero] = valid[zero + 1]  # H = 0 is scanned wherever +-half[0] is
    # a cell holds a valid root exactly when its end farther from H = 0 is valid:
    # the cell just inside the valid rows holds the branch point
    sq = np.sqrt(np.maximum(disc, 0.0))
    # the small root of each quadratic, as _trace_gap writes it
    up = hs[:, None] >= 0.0
    small = np.divide(2.0 * a, np.where(up, hs[:, None] + sq, hs[:, None] - sq),
                      out=np.repeat(0.5 * hs[:, None], len(alphas), axis=1), where=disc > 0.0)
    for splits in product(*split_ranges):
        plus = np.array([p for p, _ in splits], dtype=float)
        minus = np.array([m for _, m in splits], dtype=float)
        lead = np.where(up[:, 0], plus.sum() - 1.0, minus.sum() - 1.0)
        f = _trace_gap(alphas, splits, c_const)
        fvals = lead * hs + np.where(up[:, 0], 1.0, -1.0) * (small @ (minus - plus))
        fvals[zero] = f(0.0)  # the sign at H = 0 is the bisection's
        cross = (valid[:-1] | valid[1:]) & (fvals[:-1] * fvals[1:] < 0.0)
        roots = [float(hs[i]) for i in np.nonzero(valid & (fvals == 0.0))[0]]
        for i in np.nonzero(cross)[0]:
            ends = (hs[i], hs[i + 1]) if fvals[i] < 0.0 else (hs[i + 1], hs[i])
            roots.append(float(root(f, *ends)))
        for h in _dedupe(roots):
            lam, al, cols, ok = [], [], [], True
            for (p, m), alpha, basis in zip(splits, alphas, bases):
                d = h * h - 4.0 * (alpha - c_const)
                if d < -1e-12:
                    ok = False
                    break
                r = np.sqrt(max(d, 0.0))
                lam += [0.5 * (h + r)] * p + [0.5 * (h - r)] * m
                al += [alpha] * (p + m)
                cols.append(basis)
            if not ok:
                continue
            cand = _RefCandidate(c_const, h, np.array(al), np.array(lam),
                                 np.hstack(cols), splits)
            if cand.invariant_residual() <= QUADRATIC_TOL:
                out.append(cand)
    return out


def _ref_pairings(cand, ctx, frame):
    """ty[j, i, m] = <R(xi, X_j) X_i, Y_m> over the columns Y of [X | N_xi X]."""
    xi, x = frame.xi, cand.frame_basis
    t = np.matmul(x.T, np.tensordot(x, np.tensordot(xi, ctx.riemann_tensor, 1), (0, 0)))
    return t @ np.hstack([x, nomizu(ctx, xi) @ x])


def _ref_derived_gauss(cand, ctx, frame):
    x, n = cand.frame_basis, cand.n
    ty = _ref_pairings(cand, ctx, frame)
    # the numerator of Gamma[k, i, j], (t[j, i] + t[i, j]) . (N_xi X_k + lam_k X_k),
    # as p + q lam_k; half of it on j = i is dG1[i, k]
    sym = ty + np.transpose(ty, (1, 0, 2))
    num = np.transpose(sym[:, :, n:] + sym[:, :, :n] * cand.lambdas, (2, 1, 0))  # [k, i, j]
    dg1 = 0.5 * np.diagonal(num, axis1=1, axis2=2).T
    nab = np.matmul(x.T, np.tensordot(x, ctx.nabla_tensor, (0, 0))) @ x
    dalpha = cand.alphas[None, None, :] - cand.alphas[None, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = num / dalpha + nab
    gamma[:, np.abs(dalpha[0]) < 1e-9] = np.nan
    return dg1, gamma


def _ref_codazzi(cand, gamma, ctx, frame):
    lam = cand.lambdas
    # R(X_k, X_i, X_j, xi) = -R(xi, X_j, X_k, X_i) by pair symmetry
    rkij = -np.transpose(_ref_pairings(cand, ctx, frame)[:, :, :cand.n], (1, 2, 0))
    li_lj = lam[None, :, None] - lam[None, None, :]
    lk_lj = lam[:, None, None] - lam[None, None, :]
    gamma_ikj = np.transpose(gamma, (1, 0, 2))
    term1 = np.where(np.abs(li_lj) < 1e-12, 0.0, li_lj * gamma)
    term2 = np.where(np.abs(lk_lj) < 1e-12, 0.0, lk_lj * gamma_ikj)
    res = rkij - term1 + term2
    needed_missing = ((np.abs(li_lj) >= 1e-12) & np.isnan(gamma)) | \
                     ((np.abs(lk_lj) >= 1e-12) & np.isnan(gamma_ikj))
    return np.where(needed_missing, np.nan, res)


def _ref_probe_frame(g, ctx, frame_seed, fidx, c_grid):
    frame = random_frame(g, np.random.default_rng(frame_seed))
    best, best_info, n_candidates = np.inf, None, 0
    for c in c_grid:
        for cand in _ref_shape_candidates(frame, ctx, float(c)):
            n_candidates += 1
            _, gamma = _ref_derived_gauss(cand, ctx, frame)
            # the components with k, i and j distinct
            k, i, j = np.indices(gamma.shape)
            res = _ref_codazzi(cand, gamma, ctx, frame)[(k != i) & (k != j) & (i != j)]
            ok = ~np.isnan(res)
            agg = float(np.nanmax(np.abs(res))) if ok.any() else 0.0
            if agg < best:
                best = agg
                best_info = {"frame_index": fidx, "C": float(c),
                             "H": cand.h_mean, "splits": cand.splits}
    return fidx, float(best), n_candidates, best_info


REF_GRID = _c_grid(0.05)  # 41 C values


@pytest.mark.parametrize("seed", [2000, 12])
def test_probe_matches_per_candidate_reference(monkeypatch, g24, ctx24, seed):
    # seed 2000 holds the frame where an unoptimized einsum drifts by 1 ulp
    n_frames = 3
    frame_seeds = np.random.SeedSequence(seed).spawn(n_frames)
    ref = [_ref_probe_frame(g24, ctx24, frame_seeds[i], i, REF_GRID)
           for i in range(n_frames)]
    assert [r[:4] for r in _probe_chunk((ctx24, frame_seeds, 0, REF_GRID))] == ref
    _set_c_grid(monkeypatch, 0.05)
    out = probe_codazzi_floor(ctx24, n_frames=n_frames, seed=seed)
    floor_idx = int(np.argmin([r[1] for r in ref]))
    assert out["per_frame_min"] == [r[1] for r in ref]
    assert out["candidates"] == sum(r[2] for r in ref)
    assert out["floor"] == ref[floor_idx][1]
    assert out["floor_info"] == ref[floor_idx][3]


# ---------------------------------------------------------------------------
# the bounded search against the frame minimum of one aggregate batch per C
# ---------------------------------------------------------------------------

# 11 C values where (7,16) has at most about 100 candidates per C: a per-C
# batch of several hundred (7,16) rows would hold hundreds of MB per temporary
GRID_11 = -0.6 + 0.02 * np.arange(11)


@pytest.mark.parametrize("dims, seed, n_frames, c_grid", [
    ((2, 4), 0, 3, None), ((2, 4), 12, 3, None), ((2, 4), 47, 2, None),
    ((2, 4), 53, 2, None), ((5, 8), 12, 2, GRID_11), ((6, 8), 12, 2, GRID_11),
    ((7, 16), 12, 2, GRID_11)])
def test_probe_frame_equals_per_c_oracle(dims, seed, n_frames, c_grid):
    ctx = CurvatureContext(DamekRicci.from_dims(*dims))
    c_grid = probe_c_grid() if c_grid is None else c_grid
    pruned, frame_seeds = 0, np.random.SeedSequence(seed).spawn(n_frames)
    for i, (*found, evaluated) in enumerate(_probe_chunk((ctx, frame_seeds, 0, c_grid))):
        assert found == list(per_c_probe_frame(ctx, frame_seeds[i], i, c_grid))
        assert evaluated <= found[2]
        pruned += found[2] - evaluated
    assert pruned > 0  # the bound ruled some candidates out


@pytest.mark.parametrize("weaken", ["zero", "noisy"])
def test_probe_frame_with_a_weaker_bound_finds_the_same_minimum(monkeypatch, ctx24, weaken):
    # a weaker lower bound costs evaluations, never the result: at 0 every candidate
    # is evaluated, and scaled by random factors in [0.2, 1] the search goes on past
    # the first block until the bound rules the rest out
    bound, rng = _FrameTensors.codazzi_bound, np.random.default_rng(0)
    weaker = {"zero": lambda self, lam, triples: np.zeros(len(lam)),
              "noisy": lambda self, lam, triples:
                  bound(self, lam, triples) * rng.uniform(0.2, 1.0, len(lam))}[weaken]
    monkeypatch.setattr(_FrameTensors, "codazzi_bound", weaker)
    # the aggregate is codazzi_bound over every component; it stays exact
    monkeypatch.setattr(_FrameTensors, "aggregate", lambda self, lam: bound(self, lam, self.every))
    grid = probe_c_grid()
    for i, frame_seed in enumerate(np.random.SeedSequence(12).spawn(2)):
        *found, evaluated = _probe_chunk((ctx24, [frame_seed], i, grid))[0]
        assert found == list(per_c_probe_frame(ctx24, frame_seed, i, grid))
        assert BLOCK < evaluated <= found[2]
        assert (evaluated == found[2]) == (weaken == "zero")


# the (2,4) horosphere's principal curvatures, 1/2 on v and 1 on z, and the same
# with one on v moved: alpha_i = alpha_j with lam_i != lam_j, whose components
# the residual skips, so the aggregate of both is exactly 0
_HORO = [0.5, 0.5, 0.5, 0.5, 1.0, 1.0]
_BLIND = [0.5, 0.5, 0.5, 0.6, 1.0, 1.0]


@settings(max_examples=40, deadline=None)
@given(frame_seed=st.none() | st.integers(0, 2 ** 16),
       rows=st.lists(st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
                     min_size=1, max_size=6),
       triples=st.lists(st.sampled_from(_distinct(6).tolist()), max_size=30))
@example(frame_seed=None, rows=[_HORO], triples=[])
@example(frame_seed=None, rows=[_BLIND, _HORO], triples=[])
@example(frame_seed=None, rows=[[0.6, 0.6, 0.6, 0.6, 1.0, 1.0]], triples=[])  # 0.02
def test_codazzi_bound_is_at_most_the_aggregate(g24, ctx24, frame_seed, rows, triples):
    # on the horosphere normal to A (frame_seed None) or a random (2,4) frame, any
    # principal curvatures and any of the residual's components, besides the rows'
    # own sentinels
    if frame_seed is None:
        lam = np.repeat([0.5, 1.0], [g24.d_v, g24.d_z])
        tensors = _FrameTensors(ctx24, g24.vec(a=1.0), np.eye(g24.dim)[:, :-1], -lam * lam)
    else:
        fr = random_frame(g24, np.random.default_rng(frame_seed))
        ef = _Eigenframe(fr, ctx24)
        tensors = _FrameTensors(ctx24, fr.xi, ef.x, ef.vector_alphas)
    lam = np.array(rows)
    sentinels = tensors.sentinels(lam)
    bound = tensors.codazzi_bound(lam, np.concatenate([sentinels, triples]).astype(int))
    aggs = tensors.aggregate(lam)
    assert np.all(bound <= aggs)
    for row, agg, low in zip(rows, aggs, bound):
        if frame_seed is None and row in (_HORO, _BLIND):
            assert agg == 0.0 and low <= 1e-12


def test_codazzi_bound_over_every_component_is_the_codazzi_max(g24, ctx24):
    # the bound reads each component from ``codazzi`` and skips the NaN ones; its
    # sentinels are where each row's largest one sits
    fr = random_frame(g24, np.random.default_rng(5))
    ef = _Eigenframe(fr, ctx24)
    tensors = _FrameTensors(ctx24, fr.xi, ef.x, ef.vector_alphas)
    lam = _candidates([ef], [-1.1, -0.6, -0.25])[0][2]
    res = np.abs(tensors.codazzi(lam, tensors.every))
    assert np.isnan(res).any()  # some components are skipped
    cz = np.max(res, axis=1, initial=0.0, where=~np.isnan(res))
    bound = tensors.codazzi_bound(lam, tensors.every)
    assert np.array_equal(bound, cz)
    sentinels = tensors.sentinels(lam)
    assert np.array_equal(sentinels, np.sort(sentinels))
    assert np.array_equal(tensors.codazzi_bound(lam, sentinels), cz)


@pytest.fixture(scope="module")
def ctx58():
    return CurvatureContext(DamekRicci.from_dims(5, 8))


@settings(max_examples=30, deadline=None)
@given(pair=st.sampled_from([(2, 4), (5, 8)]), frame_seed=st.integers(0, 2 ** 16),
       data=st.data())
def test_residual_reads_exactly_the_components_with_distinct_indices(ctx24, ctx58, pair,
                                                                     frame_seed, data):
    # aggregate is the NaN-skipping max of |codazzi| over the (k, i, j) with k, i
    # and j distinct, and each sentinel is one of them: the bound over the sentinels
    # is then each row's aggregate itself
    ctx = {(2, 4): ctx24, (5, 8): ctx58}[pair]
    fr = random_frame(ctx.g, np.random.default_rng(frame_seed))
    ef = _Eigenframe(fr, ctx)
    tensors = _FrameTensors(ctx, fr.xi, ef.x, ef.vector_alphas)
    n = ef.x.shape[1]
    # a few repeated values, so that some terms drop below the 1e-12 cut
    value = st.floats(-2.0, 2.0) | st.sampled_from([-0.5, 0.5, 1.0])
    lam = np.array(data.draw(st.lists(st.lists(value, min_size=n, max_size=n),
                                      min_size=1, max_size=6)))
    distinct = _distinct(n)
    assert distinct.size == n * (n - 1) * (n - 2)
    res = np.abs(tensors.codazzi(lam, distinct))
    aggs = tensors.aggregate(lam)
    assert np.array_equal(aggs, np.max(res, axis=1, initial=0.0, where=~np.isnan(res)))
    sentinels = tensors.sentinels(lam)
    assert np.all(np.isin(sentinels, distinct))
    assert np.array_equal(sentinels, np.unique(sentinels))
    assert np.array_equal(tensors.codazzi_bound(lam, sentinels), aggs)


@pytest.mark.parametrize("dims", [(2, 4), (5, 8)], ids=lambda d: f"{d[0]}-{d[1]}")
def test_gamma_equals_the_matmul_form_of_the_derived_gauss_relation(dims):
    # Gamma[k, i, j] = (t_sym[(j, i)] @ (N_xi X + X diag lam))[k] / (alpha_j - alpha_i)
    # + <nabla_k X_i, X_j>, the relation as one matrix product per row, where
    # t_sym[(j, i)] = R(xi, X_j) X_i + R(xi, X_i) X_j; NaN where alpha_i = alpha_j
    ctx = CurvatureContext(DamekRicci.from_dims(*dims))
    for frame_seed in np.random.SeedSequence(12).spawn(2):
        fr = random_frame(ctx.g, np.random.default_rng(frame_seed))
        ef = _Eigenframe(fr, ctx)
        tensors = _FrameTensors(ctx, fr.xi, ef.x, ef.vector_alphas)
        lam = _candidates([ef], REF_GRID)[0][2][:200]
        b, n = lam.shape
        t = np.einsum("a,bj,ci,abce->jie", fr.xi, ef.x, ef.x, ctx.riemann_tensor)
        t_sym = (t + np.transpose(t, (1, 0, 2))).reshape(n * n, -1)
        num = np.matmul(t_sym, nomizu(ctx, fr.xi) @ ef.x + ef.x * lam[:, None, :])
        num = num.reshape(b, n, n, n).transpose(0, 3, 2, 1)  # [b, k, i, j]
        dalpha = ef.vector_alphas[None, :] - ef.vector_alphas[:, None]  # [i, j]
        dalpha[np.abs(dalpha) < 1e-9] = np.nan
        nab = np.einsum("ak,bi,abe,ej->kij", ef.x, ef.x, ctx.nabla_tensor, ef.x)
        matmul_form = (num / dalpha + nab).reshape(b, -1)
        gamma = tensors.gamma(lam, np.arange(n ** 3))
        derived = ~np.isnan(matmul_form)
        assert b and np.array_equal(~np.isnan(gamma), derived) and not derived.all()
        # relative to each row's largest |Gamma|, since a Gamma may cancel to rounding
        scale = np.max(np.abs(matmul_form), axis=1, where=derived, initial=0.0)
        assert np.all(np.abs(gamma - matmul_form)[derived]
                      <= 1e-12 * np.broadcast_to(scale[:, None], gamma.shape)[derived])


@pytest.mark.parametrize("dims", DEFAULT_DIMS, ids=lambda d: f"{d[0]}-{d[1]}")
def test_one_contraction_matches_the_full_curvature_contractions(dims):
    # R(X_k, X_i, X_j, xi) read off R(xi, X_j) X_k by pair symmetry, and dG1 as half
    # the derived-Gauss numerator on j = i, against contracting the curvature tensor
    # with every vector and R(xi, X_i) X_i . (N_xi X + X diag lam)
    ctx = CurvatureContext(DamekRicci.from_dims(*dims))
    for frame_seed in np.random.SeedSequence(12).spawn(2):
        fr = random_frame(ctx.g, np.random.default_rng(frame_seed))
        ef = _Eigenframe(fr, ctx)
        tensors, x, n = _FrameTensors(ctx, fr.xi, ef.x, ef.vector_alphas), ef.x, ef.x.shape[1]
        rkij = np.einsum("ak,bi,cj,e,abce->kij", x, x, x, fr.xi, ctx.riemann_tensor,
                         optimize=True).ravel()
        assert np.max(np.abs(tensors.rkij - rkij)) <= 1e-14 * np.max(np.abs(rkij))
        lam = np.random.default_rng(frame_seed).uniform(-2.0, 2.0, (8, n))
        t = np.einsum("a,bj,ci,abce->jie", fr.xi, x, x, ctx.riemann_tensor, optimize=True)
        t_diag, gm = t[np.arange(n), np.arange(n)], nomizu(ctx, fr.xi) @ x + x * lam[:, None, :]
        # dG1 is 0 on the symmetric pairs, where both sides are rounding, so the scale
        # is the size of the terms it sums
        scale = np.max(np.matmul(np.abs(t_diag), np.abs(gm)))
        assert np.max(np.abs(_dg1(tensors, lam) - np.matmul(t_diag, gm))) <= 1e-14 * scale


def test_probe_frame_keeps_the_first_of_tied_minima(monkeypatch, ctx24):
    # every candidate ties, and the bound puts them in reverse (C, candidate)
    # order; the first candidate of the first C with any still wins
    monkeypatch.setattr(_FrameTensors, "aggregate", lambda self, lam: np.ones(len(lam)))
    monkeypatch.setattr(_FrameTensors, "codazzi_bound",
                        lambda self, lam, triples: -np.arange(len(lam), dtype=float))
    frame_seed = np.random.SeedSequence(3).spawn(1)[0]
    grid = np.array([-1e6, -0.9, -0.5])  # nothing at -1e6
    [(fidx, best, n, info, evaluated)] = _probe_chunk((ctx24, [frame_seed], 0, grid))
    ef = _Eigenframe(random_frame(ctx24.g, np.random.default_rng(frame_seed)), ctx24)
    per_c = candidates_per_c(ef, grid)
    h, _, si = per_c[1]
    assert not per_c[0][0].size and h.size and n == evaluated == sum(p[0].size for p in per_c)
    assert best == 1.0
    assert info == {"frame_index": 0, "C": -0.9, "H": float(h[0]), "splits": ef.splits[si[0]]}


def _rows(eigenframe, cands):
    """(H, split) per candidate of one C, as plain floats and tuples."""
    h, _, si = cands
    return [(hb, eigenframe.splits[s]) for hb, s in zip(h.tolist(), si)]


def test_single_candidate_residuals_match_batch_rows(g24, ctx24):
    # a batch of one row, the batch row and the per-candidate reference agree
    fr = random_frame(g24, np.random.default_rng(11))
    eigenframe = _Eigenframe(fr, ctx24)
    tensors = _FrameTensors(ctx24, fr.xi, eigenframe.x, eigenframe.vector_alphas)
    for c in (-1.3, -0.8, -0.35):
        cands = candidates_per_c(eigenframe, [c])[0]
        assert _rows(eigenframe, cands) == \
               [(cd.h_mean, cd.splits) for cd in _ref_shape_candidates(fr, ctx24, c)]
        h, lam, si = cands
        if not len(h):
            continue
        every = np.arange(lam.shape[1] ** 3)
        dg1, gamma, res = _dg1(tensors, lam), tensors.gamma(lam, every), tensors.codazzi(lam, every)
        aggs = tensors.aggregate(lam)
        for b in range(len(h)):
            cand = _RefCandidate(c, float(h[b]), eigenframe.vector_alphas, lam[b],
                                 eigenframe.x, eigenframe.splits[si[b]])
            one_dg1 = _dg1(tensors, lam[b:b + 1])
            one_gamma = tensors.gamma(lam[b:b + 1], every)
            one_res = tensors.codazzi(lam[b:b + 1], every)
            ref_dg1, ref_gamma = _ref_derived_gauss(cand, ctx24, fr)
            assert np.array_equal(one_dg1[0], dg1[b])
            assert np.array_equal(one_dg1[0], ref_dg1)
            assert np.array_equal(one_gamma[0], gamma[b], equal_nan=True)
            assert np.array_equal(one_gamma[0], ref_gamma.ravel(), equal_nan=True)
            assert np.array_equal(one_res[0], res[b], equal_nan=True)
            assert np.array_equal(one_res[0], _ref_codazzi(cand, ref_gamma, ctx24, fr).ravel(),
                                  equal_nan=True)
            assert tensors.aggregate(lam[b:b + 1])[0] == aggs[b]


def _root_40_digits(alphas, splits, c_const, h0):
    def f(h):
        return sum(p * (h + mpmath.sqrt(h * h - 4 * (mpmath.mpf(a) - c_const))) / 2
                   + m * (h - mpmath.sqrt(h * h - 4 * (mpmath.mpf(a) - c_const))) / 2
                   for (p, m), a in zip(splits, alphas)) - h
    with mpmath.workdps(40):
        return float(mpmath.findroot(f, mpmath.mpf(h0)))


def test_bisection_matches_brentq_oracle(g24, ctx24):
    # the frame-wide bisection finds the same (C, split) candidates as scipy's
    # brentq on each bracket alone, with H within 1e-10.  Where Tr S - H is so
    # flat at the root that rounding moves both solvers by more than that, the
    # bisected H must instead be within 1e-10 of the root taken to 40 digits
    grid = probe_c_grid()
    n_cands, flat = 0, 0
    for frame_seed in np.random.SeedSequence(0).spawn(6):
        fr = random_frame(g24, np.random.default_rng(frame_seed))
        eigenframe = _Eigenframe(fr, ctx24)
        for c, cands in zip(grid, candidates_per_c(eigenframe, grid)):
            ref = _ref_shape_candidates(fr, ctx24, float(c), root=_brentq_root)
            rows = _rows(eigenframe, cands)
            assert [splits for _, splits in rows] == [cd.splits for cd in ref]
            n_cands += len(rows)
            for (h, splits), oracle in zip(rows, ref):
                if abs(h - oracle.h_mean) > 1e-10:
                    flat += 1
                    exact = _root_40_digits(eigenframe.alphas, splits, c, h)
                    assert abs(h - exact) <= 1e-10
    assert n_cands > 5000 and flat <= 5


def test_flat_root_within_1e_11_of_40_digit_root(g24, ctx24):
    # Tr S - H has slope 5e-7 at this root near H = -41.3; written with
    # rho-+ = (H -+ sqrt(disc))/2 it cancels to multiples of 7.1e-15 there,
    # which put the root 1.7e-9 off
    fr = random_frame(g24, np.random.default_rng(3))
    eigenframe = _Eigenframe(fr, ctx24)
    splits, c = ((1, 0), (1, 0), (0, 1), (2, 0), (1, 0)), -0.52
    h, _, si = candidates_per_c(eigenframe, [c])[0]
    roots = [hb for hb, s in zip(h.tolist(), si) if eigenframe.splits[s] == splits]
    assert len(roots) == 1 and abs(roots[0] + 41.2997) < 1e-4
    assert abs(roots[0] - _root_40_digits(eigenframe.alphas, splits, c, roots[0])) <= 1e-11


# a row's trace gaps and bisection do not depend on the other C values of its scan group
@pytest.mark.parametrize("dims, c_grid", [((2, 4), REF_GRID), ((5, 8), REF_GRID),
                                          ((6, 8), REF_GRID), ((7, 16), GRID_11)],
                         ids=["2-4", "5-8", "6-8", "7-16"])
def test_frame_batch_equals_one_c_at_a_time(dims, c_grid):
    ctx = CurvatureContext(DamekRicci.from_dims(*dims))
    fr = random_frame(ctx.g, np.random.default_rng(13))
    eigenframe = _Eigenframe(fr, ctx)
    batch = candidates_per_c(eigenframe, c_grid)
    assert sum(len(h) for h, _, _ in batch) > 0

    def rows(c, cands):
        return [(c, hb, eigenframe.splits[s], lb.tobytes()) for hb, lb, s in zip(*cands)]

    for c, cands in zip(c_grid, batch):
        alone = candidates_per_c(eigenframe, [c])[0]
        assert rows(c, cands) == rows(c, alone)


def test_bisection_through_complex_roots_warns_nothing(monkeypatch):
    # at C = -1/4, rho+- on the eigenvalue -1/4 + 8e-5 is complex for H < 0.0179,
    # and the first grid point past H = 0 is h0 = 0.025: a scan from H = 0, where the
    # split ((0, 2), (1, 2)) changes sign between 0 and h0, and the bisection's first
    # midpoint h0 / 2 has a complex rho+-
    c, alphas, split = -0.25, [-0.25003, -0.24992], ((0, 2), (1, 2))
    eigenframe = _made_up_eigenframe(monkeypatch, alphas, [2, 3])
    h0 = eigenframe.hs[1]
    f = _trace_gap(alphas, split, c)
    assert f(0.0) < 0.0 < f(h0) and (h0 / 2) ** 2 < 4.0 * (alphas[1] - c) < h0 ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, lam, si = candidates_per_c(eigenframe, [c])[0]
    assert all(_invariant_residual(c, hb, lb, eigenframe.vector_alphas) <= QUADRATIC_TOL
               for hb, lb in zip(h, lam))
    # the root, near 0.0098, lies where rho+- is complex, so it is no candidate
    assert not any(eigenframe.splits[s] == split and abs(hb) < h0 for hb, s in zip(h, si))


# ---------------------------------------------------------------------------
# the scan's cutoff: past it no split's trace gap changes sign or is 0
# ---------------------------------------------------------------------------

_HALF = np.linspace(-H_BOUND, H_BOUND, H_SAMPLES)[H_SAMPLES // 2:]
_H0 = float(_HALF[20])  # alpha - C = _H0^2 / 4 puts every disc at 0 on this grid row


def _spectra(test):
    """Made-up Jacobi spectra (alpha, multiplicity) and a C, with the cases below."""
    test = given(spectrum=st.lists(st.tuples(st.floats(-1.0, 0.0), st.integers(1, 3)),
                                   min_size=1, max_size=3),
                 c=st.floats(-2.0, 0.0))(test)
    # alpha = C: P = 1 and D1 = E1 = 0 on the split (1, 1), whose gap is 0 at every H
    test = example(spectrum=[(0.0, 2)], c=0.0)(test)
    # D1 = 2 (1/4) - 1/2 = 0 with d != 0 and E1 = -1/8 on the split ((0, 2), (1, 0)),
    # where P = 1
    test = example(spectrum=[(-0.5, 2), (-0.25, 1)], c=-0.75)(test)
    # D1 = E1 = 0 with a nonzero gap on the P = 1 split ((1, 0), (0, 2), (0, 1))
    test = example(spectrum=[(-0.875, 1), (-0.75, 2), (-0.375, 1)], c=-0.5)(test)
    # an exact grid zero of the split (2, 0) on the first scanned row
    test = example(spectrum=[(0.0, 2)], c=-_H0 ** 2 / 4)(test)
    # the only roots lie between the last two scanned rows
    test = example(spectrum=[(-0.259, 3)], c=-0.276)(test)
    # every disc > 0 from H = 0 on, and the split ((1, 1), (1, 1)) has Tr S - H = H,
    # whose root is the exact zero on the scan's H = 0 row
    return example(spectrum=[(-1.0, 2), (-0.5, 2)], c=-0.25)(test)


@settings(max_examples=30, deadline=None)
@_spectra
def test_cut_scan_equals_full_grid_scan(spectrum, c):
    # the oracle scans every grid row with the same arithmetic; the per-split
    # reference finds the same roots, each within 1e-9 (it bisects H < 0 by
    # itself where the scan mirrors H > 0, so a root may differ by an ulp)
    alphas, mults = [a for a, _ in spectrum], [m for _, m in spectrum]
    with pytest.MonkeyPatch.context() as mp:
        ef = _made_up_eigenframe(mp, alphas, mults)
    cut = candidates_per_c(ef, [c])[0]
    ef._cutoffs = lambda half_sq, c_values: np.full((2, len(c_values)), half_sq.size)
    full = candidates_per_c(ef, [c])[0]
    assert all(np.array_equal(x, y) for x, y in zip(cut, full))
    ends = np.cumsum([0, *mults])
    bases = [np.eye(ends[-1])[:, a:b] for a, b in zip(ends, ends[1:])]
    ref = _ref_spectrum_candidates(ef.alphas.tolist(), mults, bases, c)
    assert [ef.splits[s] for s in cut[2]] == [cd.splits for cd in ref]
    assert np.allclose(cut[0], [cd.h_mean for cd in ref], rtol=0.0, atol=1e-9)


def test_cutoff_scans_the_whole_grid_only_where_no_sign_is_proven(monkeypatch):
    # columns are C values, rows the split classes P != 1 and P = 1
    half_sq = _HALF ** 2
    ef = _made_up_eigenframe(monkeypatch, [-0.5, -0.25], [2, 1])
    (tilted, second), (cut, _) = ef._cutoffs(half_sq, np.array([-0.75, -0.7])).T
    # at C = -0.75 the split ((0, 2), (1, 0)) has D1 = 0, E1 = -1/8 and F = 15/8:
    # only the second order proves its sign, for H^2 > F/|E1| = 15
    assert second == np.searchsorted(half_sq, 1.001 * 15.0, side="right") < _HALF.size // 10
    assert max(tilted, cut) < _HALF.size // 10
    # D1 = E1 = 0 on the P = 1 split ((1, 0), (0, 2), (0, 1)), whose gap is 3/64 x^2 / H
    # plus higher orders: no sign is proven for that class, and only for it
    ef = _made_up_eigenframe(monkeypatch, [-0.875, -0.75, -0.375], [1, 2, 1])
    assert ef._coef[1:, ef.splits.index(((1, 0), (0, 2), (0, 1)))].tolist() == [-1, 2, 1]
    tilted, flat = ef._cutoffs(half_sq, np.array([-0.5]))[:, 0]
    assert flat == _HALF.size and tilted < _HALF.size // 10
    ef = _made_up_eigenframe(monkeypatch, [-1.0, -0.5], [2, 2])
    assert ef._cutoffs(half_sq, np.array([-0.25])).max() < _HALF.size // 10  # from H = 0 on


@settings(max_examples=30, deadline=None)
@_spectra
def test_cutoffs_equal_the_cutoff_of_each_c_alone(spectrum, c):
    alphas, mults = [a for a, _ in spectrum], [m for _, m in spectrum]
    with pytest.MonkeyPatch.context() as mp:
        ef = _made_up_eigenframe(mp, alphas, mults)
    half_sq = _HALF ** 2
    c_values = np.concatenate([[c], ef.alphas, _c_grid(0.1)])
    expected = [cutoff(ef, half_sq, cv) for cv in c_values]
    # all C values in one block, and blocks of two C values
    for block in (hypersurface.SCAN_BLOCK, 2 * len(ef.splits)):
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
            warnings.simplefilter("error")
            mp.setattr(hypersurface, "SCAN_BLOCK", block)
            cuts = ef._cutoffs(half_sq, c_values)
        assert [tuple(row) for row in cuts.T.tolist()] == expected


@settings(max_examples=30, deadline=None)
@_spectra
def test_grouped_scan_equals_one_c_at_a_time(spectrum, c):
    # 21 C values with every alpha, the drawn C and 0.0 in the middle, which every
    # alpha <= 0 makes a C scanned from row 0; SCAN_BLOCK 1 puts each C in a group of
    # its own, 1 << 40 all in one, and the middle value cuts the grid into groups of
    # at most a quarter of the rows (or a C over that alone)
    alphas, mults = [a for a, _ in spectrum], [m for _, m in spectrum]
    with pytest.MonkeyPatch.context() as mp:
        ef = _made_up_eigenframe(mp, alphas, mults)
    grid = _c_grid(0.1)
    grid = np.concatenate([grid[:8], [0.0], ef.alphas, [c], grid[8:]])[:21]
    hs_sq = ef.hs ** 2
    # each C's scan starts one row below the first where every disc >= 0
    starts = np.maximum(np.searchsorted(hs_sq, 4.0 * (ef.alphas.max() - grid)) - 1, 0)
    assert starts[8] == 0
    rows = np.maximum(np.minimum(ef._cutoffs(hs_sq, grid).max(axis=0) + 1, hs_sq.size) -
                      starts, 0)
    expected = [[x.tobytes() for x in cands] for cands in per_c_candidates(ef, grid)]
    for block in (1, len(ef.splits) * max(int(rows.sum()) // 4, 1), 1 << 40):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hypersurface, "SCAN_BLOCK", block)
            found = candidates_per_c(ef, grid)
        assert [[x.tobytes() for x in cands] for cands in found] == expected


@settings(max_examples=100, deadline=None)
@given(h=st.floats(1e-3, H_BOUND), q=st.floats(-1.0, 1.0))
def test_small_root_is_a_over_h_plus_a_bounded_excess(h, q):
    # rho-(H) = a/H + e with 0 <= e <= 4a^2/H^3 wherever disc = H^2 - 4a >= 0,
    # exactly, and for the float rho- up to rounding
    a = q * min(2.0, h * h / 4.0)
    assume(Fraction(h) ** 2 >= 4 * Fraction(a))
    with mpmath.workdps(50):
        hm, am = mpmath.mpf(h), mpmath.mpf(a)
        e = 2 * am / (hm + mpmath.sqrt(hm * hm - 4 * am)) - am / hm
        assert 0 <= e <= 4 * am * am / hm ** 3
    rho = hypersurface._small_root(h, np.array([2.0 * a]))[0]
    e = Fraction(float(rho)) - Fraction(a) / Fraction(h)
    tol = Fraction(16 * np.finfo(float).eps * (abs(a) / h + h))
    assert -tol <= e <= 4 * Fraction(a) ** 2 / Fraction(h) ** 3 + tol


@settings(max_examples=100, deadline=None)
@given(y=st.floats(-1e6, 0.25).filter(lambda y: abs(y) >= 1e-12))
@example(y=0.25)
@example(y=-0.25)
def test_catalan_remainder_is_at_most_12_y_squared(y):
    # c(y) = 2/(1 + sqrt(1 - 4y)) = 1 + y + 2y^2 + 5y^3 + ... for y <= 1/4, and the
    # second order cutoff takes |c(y) - 1 - y| <= 12 y^2, with equality at y = 1/4 only.
    # From c = 1 + y c^2: c - 1 - y = y^2 c^2 (c + 1), and 0 < c <= 2
    with mpmath.workdps(60):
        ym = mpmath.mpf(y)
        cy = 2 / (1 + mpmath.sqrt(1 - 4 * ym))
        rem = abs(cy - 1 - ym)
        assert mpmath.almosteq(rem, ym ** 2 * cy ** 2 * (cy + 1), rel_eps=mpmath.mpf(10) ** -30)
        assert 0 < cy <= 2 and rem <= 12 * ym ** 2
        assert (rem == 12 * ym ** 2) == (y == 0.25)


@settings(max_examples=50, deadline=None)
@given(spectrum=st.lists(st.tuples(st.floats(-1.0, 0.0), st.integers(1, 3)),
                         min_size=1, max_size=3),
       c=st.floats(-2.0, 0.0), h=st.floats(1e-3, H_BOUND))
@example(spectrum=[(-0.5, 2), (-0.25, 1)], c=-0.75, h=1.5)
@example(spectrum=[(-9.042464951631049e-290, 1)], c=0.0, h=1.0)
def test_p1_trace_gap_is_second_order_in_one_over_h_squared(spectrum, c, h):
    # wherever every disc >= 0, a split with P = 1 has H (Tr S - H) = D1 + E1 x + r
    # with x = 1/H^2 and |r| <= F x^2, exactly (700 digits: r is of order (a x)^2
    # relative to the terms, and a may be as small as a float gets)
    alphas, mults = [a for a, _ in spectrum], [m for _, m in spectrum]
    with pytest.MonkeyPatch.context() as mp:
        ef = _made_up_eigenframe(mp, alphas, mults)
    assume(h * h >= 4.0 * (ef.alphas.max() - c) and ef._classes[1].size)
    with mpmath.workdps(700):
        hm, x = mpmath.mpf(h), 1 / mpmath.mpf(h) ** 2
        a = [mpmath.mpf(float(alpha)) - mpmath.mpf(c) for alpha in ef.alphas]
        for d in ef._coef[1:, ef._classes[1]].T.tolist():
            gap = sum(dk * 2 * ak / (hm + mpmath.sqrt(hm * hm - 4 * ak)) for dk, ak in zip(d, a))
            d1 = sum(dk * ak for dk, ak in zip(d, a))
            e1 = sum(dk * ak ** 2 for dk, ak in zip(d, a))
            f = 12 * sum(abs(dk) * abs(ak) ** 3 for dk, ak in zip(d, a))
            assert abs(hm * gap - d1 - e1 * x) <= f * x * x


def test_candidates_of_several_frames_equal_each_frame_alone(monkeypatch, ctx24):
    # one bisection over (2,4) frames (5 eigenspaces) and made-up frames with 2 and 7:
    # zero-padded eigenspaces change no bit of any frame's candidates
    grid = _c_grid(0.02)
    frames = [_Eigenframe(random_frame(ctx24.g, np.random.default_rng(s)), ctx24)
              for s in np.random.SeedSequence(12).spawn(3)]
    narrow = _made_up_eigenframe(monkeypatch, [-0.5, -0.25], [2, 1])
    wide = _made_up_eigenframe(monkeypatch, [-1.0, -0.8, -0.6, -0.45, -0.3, -0.25, -0.1],
                               [1, 1, 1, 2, 1, 1, 1])
    eigenframes = [frames[0], narrow, frames[1], wide, frames[2]]
    assert sorted({ef.alphas.size for ef in eigenframes}) == [2, 5, 7]

    together = _candidates(eigenframes, grid)
    assert len(together) == len(eigenframes) and all(table[1].size for table in together)
    for ef, table in zip(eigenframes, together):
        assert _bits(table) == _bits(_candidates([ef], grid)[0]) == \
            _bits(_joined(candidates_per_c(ef, grid)))


def _bits(table):
    return [x.tobytes() for x in table]


def _joined(per_c):
    """Per-C (H, lambda, split) tuples joined in C order into one table (ci, h, lam, si)."""
    ci = np.repeat(np.arange(len(per_c)), [len(h) for h, _, _ in per_c])
    return (ci, *(np.concatenate(part) for part in zip(*per_c)))


@pytest.mark.parametrize("dims, n_frames, c_grid", [((2, 4), 3, probe_c_grid()),
                                                    ((5, 8), 1, REF_GRID)], ids=["2-4", "5-8"])
def test_flat_table_is_the_per_c_oracle_joined_in_c_order(dims, n_frames, c_grid):
    # the table is sorted by C, then split, then H, and one mask drops the roots
    # that the oracle's loop drops one at a time
    ctx = CurvatureContext(DamekRicci.from_dims(*dims))
    for s in np.random.SeedSequence(12).spawn(n_frames):
        ef = _Eigenframe(random_frame(ctx.g, np.random.default_rng(s)), ctx)
        table = _candidates([ef], c_grid)[0]
        assert table[1].size and np.all(np.diff(table[0]) >= 0)
        assert _bits(table) == _bits(_joined(per_c_candidates(ef, c_grid)))


@pytest.mark.parametrize("dims, n_frames, c_grid", [((2, 4), 3, probe_c_grid()),
                                                    ((5, 8), 1, REF_GRID)], ids=["2-4", "5-8"])
def test_candidates_equal_the_full_grid_scan(dims, n_frames, c_grid):
    # the scan starts each C one row below the first where every disc >= 0; a scan of
    # every row from H = 0 up to the same cutoffs finds the same table bit for bit,
    # including the roots in the cell of the branch point 2 sqrt(max alpha - C)
    ctx = CurvatureContext(DamekRicci.from_dims(*dims))
    for s in np.random.SeedSequence(11).spawn(n_frames):
        ef = _Eigenframe(random_frame(ctx.g, np.random.default_rng(s)), ctx)
        table = _candidates([ef], c_grid)[0]
        assert _bits(table) == _bits(_joined(per_c_candidates(ef, c_grid, from_h_zero=True)))
        first = np.searchsorted(ef.hs ** 2, 4.0 * (ef.alphas.max() - c_grid))
        ci, h = table[0], table[1]
        assert np.any((first[ci] > 1) & (np.abs(h) < ef.hs[np.minimum(first[ci], ef.hs.size - 1)]))
