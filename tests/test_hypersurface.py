"""Shape candidates, Nomizu operator, derived-Gauss and Codazzi residuals.

The probe's candidates are arrays from ``_Eigenframe.candidates`` and its
residuals rows of ``_FrameTensors``; the per-candidate reference below
rebuilds both one candidate at a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from drgeom import hypersurface
from drgeom.curvature import CurvatureContext
from drgeom.dralgebra import DamekRicci
from itertools import product

from scipy.optimize import brentq

from drgeom.hypersurface import (H_BOUND, H_SAMPLES, QUADRATIC_TOL, _Eigenframe,
                                 _FrameTensors, _probe_frame, horosphere_residual, nomizu,
                                 probe_c_grid, probe_codazzi_floor)
from drgeom.numkernel import EigenDecomposition
from drgeom.obstruction import no_z_candidate_constants
from drgeom.spectrum import make_frame, random_frame


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


def _first_candidate(fr, ctx, c):
    """The eigenframe, its tensors and the first candidate's (1, n) principal
    curvatures at C, or a skip when C has no candidate."""
    ef = _Eigenframe(fr, ctx)
    _, lam, _ = ef.candidates([c])[0]
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
        h, lam, _ = ef.candidates([float(c)])[0]
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
    h, lam, _ = ef.candidates([c_val])[0]
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
                             tuple(tuple(range(a, b)) for a, b in zip(ends, ends[1:])), 0.0)
    monkeypatch.setattr(hypersurface, "normal_jacobi",
                        lambda frame, ctx: (None, np.eye(n), None, dec))
    return _Eigenframe(None, None)


def test_h_grid_is_antisymmetric(monkeypatch):
    # the scan mirrors H >= 0 onto H < 0, which needs -H on the grid for every H
    hs = _made_up_eigenframe(monkeypatch, [0.0], [1]).hs
    assert hs.size == H_SAMPLES and hs[-1] == H_BOUND
    assert np.array_equal(hs, -hs[::-1])
    assert np.array_equal(hs[H_SAMPLES // 2:],
                          np.linspace(-H_BOUND, H_BOUND, H_SAMPLES)[H_SAMPLES // 2:])


def test_candidates_keep_an_exact_grid_zero(monkeypatch):
    # one eigenvalue of multiplicity 2 with alpha - C = h0^2 / 4: on the split
    # (2, 0) the trace gap is sqrt(H^2 - h0^2), exactly 0 at H = h0 and at
    # -h0, positive at every other valid grid H and undefined between; so no
    # bracket holds the root, only the grid zero
    h0 = np.linspace(-H_BOUND, H_BOUND, H_SAMPLES)[H_SAMPLES // 2:][500]
    ef = _made_up_eigenframe(monkeypatch, [h0 ** 2 / 4], [2])
    assert h0 in ef.hs.tolist() and -h0 in ef.hs.tolist()
    h, _, si = ef.candidates([0.0])[0]
    roots = [hb for hb, s in zip(h.tolist(), si) if ef.splits[s] == ((2, 0),)]
    assert h0 in roots and all(abs(h) == h0 for h in roots)
    assert roots == [-h0, h0]


def test_candidates_drop_a_root_within_1e_9_of_a_smaller_one(monkeypatch):
    # alpha = C with multiplicity 2: on the split (1, 1) the trace gap
    # rho+ + rho- - H is exactly 0 at every H, so each grid point is a root;
    # of two grid points 5e-10 apart only the smaller one is kept, on either
    # half of the grid
    ef = _made_up_eigenframe(monkeypatch, [0.0], [2])
    ef.hs = np.array([-2.0, -1.0 - 5e-10, -1.0, 1.0, 1.0 + 5e-10, 2.0])
    h, _, si = ef.candidates([0.0])[0]
    roots = [hb for hb, s in zip(h.tolist(), si) if ef.splits[s] == ((1, 1),)]
    assert [r for r in roots if r > 0.0] == [1.0, 2.0]
    assert roots == [-2.0, -1.0 - 5e-10, 1.0, 2.0]


def test_straddle_bisection_through_h_zero_with_alpha_equal_c(monkeypatch):
    # alpha = C = 0 with multiplicity 4: rho- is min(H, 0), so the split (2, 2)
    # has Tr S - H = H, and its only bracket is the pair of grid points around
    # 0.  Its first midpoint is H = 0, where the discriminant is 0 and the small
    # root's quotient would be 0/0
    ef = _made_up_eigenframe(monkeypatch, [0.0], [4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, lam, si = ef.candidates([0.0])[0]
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
    h, lam, _ = ef.candidates([c])[0]
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
    h, lam, _ = ef.candidates([-0.7])[0]
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
    gm = tensors.nx + tensors.x * lam
    for k in range(lam.shape[1]):
        xk = ef.x[:, k]
        direct = np.einsum("a,b,abe->e", xk, fr.xi, ctx24.nabla_tensor) + lam[0, k] * xk
        assert np.max(np.abs(gm[:, k] - direct)) < 1e-12


# ---------------------------------------------------------------------------
# derived Gauss and Codazzi
# ---------------------------------------------------------------------------

def test_horosphere_codazzi_exact(g24, ctx24):
    # the left-invariant horosphere normal to A has parallel shape operator
    # S = diag(1/2 on v, 1 on z); Codazzi holds exactly with geometric Gammas
    n = g24.dim - 1
    basis = np.zeros((g24.dim, n))
    basis[:n, :n] = np.eye(n)
    lam = np.array([0.5] * g24.d_v + [1.0] * g24.d_z)
    al = np.array([-0.25] * g24.d_v + [-1.0] * g24.d_z)
    gamma = np.einsum("ak,bi,abe,ej->kij", basis, basis, ctx24.nabla_tensor,
                      basis, optimize=True)
    fr = make_frame(g24, np.zeros(4), np.zeros(2), 1.0)
    tensors = _FrameTensors(ctx24, fr.xi, basis, al)
    res, skipped = tensors.codazzi(lam[None], gamma[None])
    assert np.max(np.abs(res), initial=0.0, where=~np.isnan(res)) < 1e-13
    assert skipped.sum() == 0


@pytest.mark.parametrize("dims", [(1, 2), (2, 4), (5, 8), (8, 16)])
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
    dg1 = tensors.gauss(lam)[0][0]
    quarter = np.abs(ef.vector_alphas + 0.25) < 1e-9
    sub = dg1[quarter, :]
    assert np.max(np.abs(sub)) < 1e-10


def test_gamma_antisymmetry(g24, ctx24):
    rng = np.random.default_rng(7)
    fr = random_frame(g24, rng)
    _, tensors, lam = _first_candidate(fr, ctx24, -0.6)
    gam = tensors.gauss(lam)[1][0]
    n = gam.shape[0]
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
    _, gammas = tensors.gauss(lams[None])
    # Gauss-map derivative on P = X_10 (first V_2 vector)
    gm = tensors.nx + tensors.x * lams
    k_pos, i_pos, j_pos = 10, 0, 11
    expect_gm = (1 - 3 * s * s) / (2 * s) * basis[:, k_pos]
    assert np.max(np.abs(gm[:, k_pos] - expect_gm)) < 1e-12
    pairing = float((jz0 @ p_k) @ p_j)
    gamma = gammas[0, k_pos, i_pos, j_pos]
    assert abs(gamma - (2 * s * s - 1) / (2 * s) * pairing) < 1e-10
    res = tensors.codazzi(lams[None], gammas)[0][0, k_pos, i_pos, j_pos]
    expect = 0.5 * (1 - 3 * s * s) * pairing
    assert abs(res - expect) < 1e-10
    assert abs(res) > 1e-3  # the obstruction is visible


def test_probe_floor_smoke(ctx24):
    out = probe_codazzi_floor(ctx24, n_frames=3,
                              c_grid=np.arange(-1.6, -0.2, 0.2), seed=1)
    assert out["candidates"] > 0
    assert out["floor"] > 1e-6
    assert len(out["per_frame_min"]) == 3


def test_candidate_aggregate_positive(g24, ctx24):
    rng = np.random.default_rng(9)
    fr = random_frame(g24, rng)
    _, tensors, lam = _first_candidate(fr, ctx24, -0.9)
    assert tensors.aggregate(lam)[0] > 1e-6


def test_specialized_codazzi_coefficient_identity():
    from drgeom.hypersurface import specialized_codazzi_coefficient_identity
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


def test_probe_serial_parallel_agree(ctx24):
    grid = np.arange(-1.4, -0.4, 0.25)
    a = probe_codazzi_floor(ctx24, n_frames=4, c_grid=grid, seed=3, jobs=1)
    b = probe_codazzi_floor(ctx24, n_frames=4, c_grid=grid, seed=3, jobs=2)
    assert a["per_frame_min"] == b["per_frame_min"]
    assert a["floor"] == b["floor"]


def test_probe_c_grid_is_exact():
    # the default grid holds -1/4 and ends at 0 exactly, with no drift
    grid = probe_c_grid()
    assert len(grid) == 201 and grid[0] == -2.0 and grid[-1] == 0.0
    assert -0.25 in grid.tolist()
    assert np.array_equal(grid, -2.0 + 0.01 * np.arange(201))
    assert [len(probe_c_grid(step)) for step in (0.01, 0.05, 0.03)] == [201, 41, 67]


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
    alphas, mults, bases = _ref_eigenspace_data(frame, ctx)
    split_ranges = [[(p, m - p) for p in range(m + 1)] for m in mults]
    out = []
    half = np.linspace(-H_BOUND, H_BOUND, H_SAMPLES)[H_SAMPLES // 2:]
    hs = np.concatenate([-half[::-1], half])
    a = np.asarray(alphas)[None, :] - c_const
    disc = hs[:, None] ** 2 - 4.0 * a
    valid = np.all(disc >= 0.0, axis=1)
    sq = np.sqrt(np.maximum(disc, 0.0))
    # the small root of each quadratic, as _trace_gap writes it
    up = hs[:, None] >= 0.0
    small = np.divide(2.0 * a, np.where(up, hs[:, None] + sq, hs[:, None] - sq),
                      out=np.repeat(0.5 * hs[:, None], len(alphas), axis=1), where=disc > 0.0)
    for splits in product(*split_ranges):
        plus = np.array([p for p, _ in splits], dtype=float)
        minus = np.array([m for _, m in splits], dtype=float)
        lead = np.where(up[:, 0], plus.sum() - 1.0, minus.sum() - 1.0)
        fvals = lead * hs + np.where(up[:, 0], 1.0, -1.0) * (small @ (minus - plus))
        cross = valid[:-1] & valid[1:] & (fvals[:-1] * fvals[1:] < 0.0)
        roots = [float(hs[i]) for i in np.nonzero(valid & (fvals == 0.0))[0]]
        f = _trace_gap(alphas, splits, c_const)
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


def _ref_derived_gauss(cand, ctx, frame):
    xi, x, n = frame.xi, cand.frame_basis, cand.n
    r4 = ctx.riemann_tensor
    gm = nomizu(ctx, xi) @ x + x * cand.lambdas[None, :]
    t = np.einsum("a,bj,ci,abce->jie", xi, x, x, r4, optimize=True)
    rxij = np.einsum("jie,ek->jik", t, gm, optimize=True)
    dg1 = np.stack([rxij[i, i, :] for i in range(n)])
    num = np.einsum("jie,ek->kij", t + np.transpose(t, (1, 0, 2)), gm, optimize=True)
    nab = np.einsum("ak,bi,abe,ej->kij", x, x, ctx.nabla_tensor, x, optimize=True)
    dalpha = cand.alphas[None, None, :] - cand.alphas[None, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = num / dalpha + nab
    gamma[:, np.abs(dalpha[0]) < 1e-9] = np.nan
    return dg1, gamma


def _ref_codazzi(cand, gamma, ctx, frame):
    x, lam = cand.frame_basis, cand.lambdas
    rkij = np.einsum("ak,bi,cj,e,abce->kij", x, x, x, frame.xi,
                     ctx.riemann_tensor, optimize=True)
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
            dg1, gamma = _ref_derived_gauss(cand, ctx, frame)
            res = _ref_codazzi(cand, gamma, ctx, frame)
            ok = ~np.isnan(res)
            cz = float(np.nanmax(np.abs(res))) if ok.any() else 0.0
            agg = max(float(np.max(np.abs(dg1))), cz)
            if agg < best:
                best = agg
                best_info = {"frame_index": fidx, "C": float(c),
                             "H": cand.h_mean, "splits": cand.splits}
    return fidx, float(best), n_candidates, best_info


REF_GRID = probe_c_grid(0.05)  # 41 C values


@pytest.mark.parametrize("seed", [2000, 12])
def test_probe_matches_per_candidate_reference(g24, ctx24, seed):
    # seed 2000 holds the frame where an unoptimized einsum drifts by 1 ulp
    n_frames = 3
    frame_seeds = np.random.SeedSequence(seed).spawn(n_frames)
    ref = [_ref_probe_frame(g24, ctx24, frame_seeds[i], i, REF_GRID)
           for i in range(n_frames)]
    for i in range(n_frames):
        assert _probe_frame((ctx24, frame_seeds[i], i, REF_GRID)) == ref[i]
    out = probe_codazzi_floor(ctx24, n_frames=n_frames, c_grid=REF_GRID, seed=seed)
    floor_idx = int(np.argmin([r[1] for r in ref]))
    assert out["per_frame_min"] == [r[1] for r in ref]
    assert out["candidates"] == sum(r[2] for r in ref)
    assert out["floor"] == ref[floor_idx][1]
    assert out["floor_info"] == ref[floor_idx][3]


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
        cands = eigenframe.candidates([c])[0]
        assert _rows(eigenframe, cands) == \
               [(cd.h_mean, cd.splits) for cd in _ref_shape_candidates(fr, ctx24, c)]
        h, lam, si = cands
        if not len(h):
            continue
        dg1, gamma = tensors.gauss(lam)
        res, _ = tensors.codazzi(lam, gamma)
        aggs = tensors.aggregate(lam)
        for b in range(len(h)):
            cand = _RefCandidate(c, float(h[b]), eigenframe.vector_alphas, lam[b],
                                 eigenframe.x, eigenframe.splits[si[b]])
            one_dg1, one_gamma = tensors.gauss(lam[b:b + 1])
            one_res, _ = tensors.codazzi(lam[b:b + 1], one_gamma)
            ref_dg1, ref_gamma = _ref_derived_gauss(cand, ctx24, fr)
            assert np.array_equal(one_dg1[0], dg1[b])
            assert np.array_equal(one_dg1[0], ref_dg1)
            assert np.array_equal(one_gamma[0], gamma[b], equal_nan=True)
            assert np.array_equal(one_gamma[0], ref_gamma, equal_nan=True)
            assert np.array_equal(one_res[0], res[b], equal_nan=True)
            assert np.array_equal(one_res[0], _ref_codazzi(cand, ref_gamma, ctx24, fr),
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
        for c, cands in zip(grid, eigenframe.candidates(grid)):
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
    h, _, si = eigenframe.candidates([c])[0]
    roots = [hb for hb, s in zip(h.tolist(), si) if eigenframe.splits[s] == splits]
    assert len(roots) == 1 and abs(roots[0] + 41.2997) < 1e-4
    assert abs(roots[0] - _root_40_digits(eigenframe.alphas, splits, c, roots[0])) <= 1e-11


def test_frame_batch_equals_one_c_at_a_time(g24, ctx24):
    fr = random_frame(g24, np.random.default_rng(13))
    eigenframe = _Eigenframe(fr, ctx24)
    batch = eigenframe.candidates(REF_GRID)
    assert sum(len(h) for h, _, _ in batch) > 0

    def rows(c, cands):
        return [(c, hb, eigenframe.splits[s], lb.tobytes()) for hb, lb, s in zip(*cands)]

    for c, cands in zip(REF_GRID, batch):
        alone = eigenframe.candidates([c])[0]
        assert rows(c, cands) == rows(c, alone)


def test_bisection_through_complex_roots_warns_nothing(g24, ctx24):
    # without a center component the Jacobi eigenvalues are -1 and -1/4, of
    # multiplicities 2 and 4, so the split with m+ = m- has Tr S - H = 2H.
    # Just below C = -1/4, rho+- on -1/4 is complex for |H| < 2e-3, inside the
    # grid bracket around H = 0 where that split changes sign
    v = np.array([0.5, -0.3, 0.1, 0.7])
    fr = make_frame(g24, v * np.sqrt(0.6) / np.linalg.norm(v), np.zeros(2), np.sqrt(0.4))
    eigenframe = _Eigenframe(fr, ctx24)
    c = -0.25 - 1e-6
    balanced = ((1, 1), (2, 2))
    assert np.allclose(eigenframe.alphas, [-1.0, -0.25]) and balanced in eigenframe.splits
    f = _trace_gap(eigenframe.alphas, balanced, c)
    near_zero = np.sort(eigenframe.hs[np.argsort(np.abs(eigenframe.hs))[:2]])
    assert np.all(near_zero ** 2 > 4e-6) and f(near_zero[0]) < 0.0 < f(near_zero[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, lam, _ = eigenframe.candidates([c])[0]
    assert all(_invariant_residual(c, hb, lb, eigenframe.vector_alphas) <= QUADRATIC_TOL
               for hb, lb in zip(h, lam))
