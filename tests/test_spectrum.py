"""Normal Jacobi spectrum: frames, cubic families, eigenvector certificates."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drgeom import spectrum
from drgeom.curvature import CurvatureContext
from drgeom.dralgebra import DamekRicci
from drgeom.numkernel import poly_eval_fraction, rational_bisect
from drgeom.spectrum import (NormalFrame, alpha_cubic, center_family_vector,
                             eta_alpha_exact_identity, f_cubic_roots,
                             make_frame, psi_homothety_ratio, psi_map,
                             random_frame, xi_spectrum)

MODULES = [(1, 2), (2, 4), (3, 4), (5, 8), (6, 8), (7, 8), (7, 16), (8, 16)]


@pytest.fixture(scope="module")
def gctx():
    cache = {}

    def get(d_z, d_v):
        if (d_z, d_v) not in cache:
            g = DamekRicci.from_dims(d_z, d_v)
            cache[(d_z, d_v)] = (g, CurvatureContext(g))
        return cache[(d_z, d_v)]

    return get


# ---------------------------------------------------------------------------
# frame construction
# ---------------------------------------------------------------------------

def test_frame_validates_unit_norm(gctx):
    g, _ = gctx(2, 4)
    with pytest.raises(ValueError, match="not 1"):
        make_frame(g, np.ones(4), np.zeros(2), 0.5)


def test_frame_distinguished_vectors(gctx):
    g, _ = gctx(2, 4)
    rng = np.random.default_rng(0)
    fr = random_frame(g, rng)
    assert abs(fr.t0 @ fr.t0 - 1.0) < 1e-12
    assert abs(fr.t0 @ fr.xi) < 1e-12
    # Q is xi-orthogonal always, unit exactly when Y = 0
    assert abs(fr.q_vec @ fr.xi) < 1e-12
    v = np.array([1.0, 0, 0, 0]) * np.sqrt(0.75)
    fr0 = make_frame(g, v, np.zeros(2), 0.5)
    assert abs(fr0.q_vec @ fr0.q_vec - 1.0) < 1e-12


@pytest.mark.parametrize("dims", MODULES)
def test_frame_dimension_identity(gctx, dims):
    # d_v = d_p + 2 d_z - d_minus1 for generic frames with V, Y nonzero
    g, _ = gctx(*dims)
    rng = np.random.default_rng(1)
    fr = random_frame(g, rng)
    assert g.d_v == fr.d_p + 2 * g.d_z - fr.d_minus1


@pytest.mark.parametrize("dims", MODULES)
def test_frame_z_minus1_is_k_square_minus1_space(gctx, dims):
    # make_frame takes the (-1)-eigenspace from its own eigh of K^2
    g, _ = gctx(*dims)
    rng = np.random.default_rng(17)
    for _ in range(3):
        frame = random_frame(g, rng)
        cols, _ = g.k_square_minus1_space(frame.v, frame.y)
        assert np.array_equal(frame.z_minus1, cols)


def test_frame_p_space_jy_invariant(gctx):
    g, _ = gctx(7, 16)
    rng = np.random.default_rng(2)
    fr = random_frame(g, rng)
    assert fr.d_p > 0
    jy = g.j_z(fr.y)
    proj = fr.p_basis @ fr.p_basis.T
    for i in range(fr.d_p):
        w = jy @ fr.p_basis[:, i]
        assert np.max(np.abs(w - proj @ w)) < 1e-10


# ---------------------------------------------------------------------------
# cubic families
# ---------------------------------------------------------------------------

def test_alpha_cubic_spot_values():
    out = alpha_cubic(0.0, 0.5, 0.25)
    assert out["q"] == Fraction(27, 16)
    coeffs = [-out["q"], 0, 3, 1]
    for eta in out["etas"]:
        assert abs(float(poly_eval_fraction(coeffs, Fraction(eta)))) < 1e-12
    for alpha in out["alphas"]:
        assert -1.0 < alpha <= 0.0
        assert abs(alpha + 0.25) > 1e-3


def test_alpha_cubic_exact_identity():
    assert eta_alpha_exact_identity()


def test_alpha_cubic_substitution_residual():
    out = alpha_cubic(-0.3, 0.4, 0.2)
    for eta, alpha in zip(out["etas"], out["alphas"]):
        assert abs(eta - (4 * alpha + 1)) < 1e-15
        lhs = (alpha + 1.0) * (alpha + 0.25) ** 2
        assert abs(lhs - float(out["q"]) / 64.0) < 1e-12


def test_alpha_cubic_continuity_at_zero():
    prev = None
    for mu in (-1e-3, -1e-6, 0.0):
        out = alpha_cubic(mu, 0.5, 0.25)
        if prev is not None:
            assert np.max(np.abs(np.array(out["alphas"]) - prev)) < 1e-2
        prev = np.array(out["alphas"])


def test_alpha_cubic_rejects_minus_one():
    with pytest.raises(ValueError, match="mu"):
        alpha_cubic(-1.0, 0.5, 0.25)


def test_f_cubic_roots_certificates():
    out = f_cubic_roots(0.125)
    assert out["certificate"]
    assert out["f_at_0"] == Fraction(1, 64)
    expect = -Fraction(1, 8) * (Fraction(1, 8) - Fraction(9, 4)) * (Fraction(1, 8) - Fraction(1, 4))
    assert out["f_at_minus_q"] == expect and expect < 0


@pytest.mark.parametrize("q", [0.01, 0.24])
def test_f_cubic_interlacing(q):
    out = f_cubic_roots(q)
    a1, a2, a3 = out["roots"]
    assert -1 < a1 < -0.75 < a2 < -0.25 < a3 <= 0
    assert abs((a1 + a2 + a3) - (-1.5)) < 1e-12  # Vieta


def test_f_cubic_domain():
    with pytest.raises(ValueError, match="outside"):
        f_cubic_roots(0.3)
    with pytest.raises(ValueError, match="outside"):
        f_cubic_roots(0.0)


WIDTH = Fraction(1, 10 ** 15)


def _bisected(coeffs, cuts, max_width=WIDTH):
    """What certified_brackets must return: plain bisection per interval."""
    return [rational_bisect(coeffs, lo, hi, max_width) for lo, hi in zip(cuts, cuts[1:])]


@settings(max_examples=60, deadline=None)
@given(mu=st.floats(-0.999, 0.0), v=st.floats(0.001, 0.998),
       y_frac=st.floats(0.001, 0.999))
def test_alpha_cubic_brackets_equal_bisection(mu, v, y_frac):
    y = y_frac * (1.0 - v)
    if not (y > 0 and v + y < 1):
        return
    out = alpha_cubic(mu, v, y)
    assert out["brackets"] == _bisected([-out["q"], 0, 3, 1], [-3, -2, 0, 1])


@settings(max_examples=60, deadline=None)
@given(q=st.floats(1e-9, 0.25, exclude_max=True))
def test_f_cubic_brackets_equal_bisection(q):
    qf = Fraction(q)
    expect = _bisected([qf ** 2, Fraction(9, 16), Fraction(3, 2), 1],
                       [-1, Fraction(-3, 4), Fraction(-1, 4), 0])
    assert list(f_cubic_roots(q)["brackets"]) == expect


# ---------------------------------------------------------------------------
# eigenvector families and the full report
# ---------------------------------------------------------------------------

def test_alpha_cubic_solved_once_per_mu_cluster(gctx, monkeypatch):
    g, ctx = gctx(8, 16)
    fr = random_frame(g, np.random.default_rng(11))
    calls = []

    def counted(mu, v, y):
        calls.append(mu)
        return alpha_cubic(mu, v, y)

    monkeypatch.setattr(spectrum, "alpha_cubic", counted)
    xi_spectrum(fr, ctx)
    assert sorted(calls) == sorted(mu for mu, _ in fr.mu_clusters)
    xi_spectrum(fr, ctx)  # a second report reuses the frame's roots
    assert len(calls) == len(fr.mu_clusters) > 1


@pytest.mark.parametrize("dims", [(2, 4), (7, 16), (8, 16)])
def test_spectral_report_matches_unmemoized_bisection(gctx, monkeypatch, dims):
    g, ctx = gctx(*dims)
    memo = xi_spectrum(random_frame(g, np.random.default_rng(12)), ctx)
    # every psi_map and homothety ratio solves its cubic afresh, by bisection
    monkeypatch.setattr(NormalFrame, "cubic_roots",
                        lambda fr, mu: alpha_cubic(mu, fr.vsq, fr.ysq))
    monkeypatch.setattr(spectrum, "certified_brackets", _bisected)
    plain = xi_spectrum(random_frame(g, np.random.default_rng(12)), ctx)
    for name in ("eigenvalues", "predicted", "basis_perp", "jacobi_perp"):
        assert np.array_equal(getattr(memo, name), getattr(plain, name)), name
    assert memo.clusters == plain.clusters and memo.dims == plain.dims
    assert memo.match_residual == plain.match_residual
    assert memo.certificate_residuals == plain.certificate_residuals


def test_psi_map_zero(gctx):
    g, _ = gctx(2, 4)
    rng = np.random.default_rng(3)
    fr = random_frame(g, rng)
    assert np.allclose(psi_map(fr, 0, np.zeros(2)), 0.0)


def test_psi_map_eigenvector_residual(gctx):
    g, ctx = gctx(2, 4)
    rng = np.random.default_rng(4)
    fr = random_frame(g, rng)
    jac = ctx.jacobi(fr.xi)
    mu, basis = fr.mu_clusters[0]
    roots = alpha_cubic(mu, fr.vsq, fr.ysq)
    for l in range(3):
        vec = psi_map(fr, l, basis[:, 0])
        res = np.linalg.norm(jac @ vec - roots["alphas"][l] * vec) / np.linalg.norm(vec)
        assert res < 1e-9


def test_psi_map_rejects_vector_outside_eigenspace(gctx):
    g, _ = gctx(5, 8)
    rng = np.random.default_rng(5)
    fr = random_frame(g, rng)
    bad = fr.z_minus1[:, 0]  # lives in the -1 eigenspace of K^2
    with pytest.raises(ValueError, match="eigenspace"):
        psi_map(fr, 0, bad)


def test_psi_homothety_matches_closed_form(gctx):
    g, _ = gctx(5, 8)
    rng = np.random.default_rng(6)
    fr = random_frame(g, rng)
    mu, basis = fr.mu_clusters[0]
    for l in range(3):
        closed = psi_homothety_ratio(fr, l, mu)
        for i in range(basis.shape[1]):
            z = basis[:, i]
            ratio = float(np.linalg.norm(psi_map(fr, l, z)) ** 2) / float(z @ z)
            assert abs(ratio - closed) < 1e-9 * closed


@pytest.mark.parametrize("dims", MODULES)
def test_xi_spectrum_generic(gctx, dims):
    g, ctx = gctx(*dims)
    rng = np.random.default_rng(7)
    fr = random_frame(g, rng)
    rep = xi_spectrum(fr, ctx)
    assert rep.complete
    assert rep.match_residual < 1e-9
    assert all(r < 1e-9 for r in rep.certificate_residuals.values())
    assert rep.eigenvalues.shape[0] == g.dim - 1
    assert rep.eigenvalues.min() > -1.0 - 1e-9
    assert rep.eigenvalues.max() < 1e-9


def test_xi_spectrum_no_center_case(gctx):
    g, ctx = gctx(2, 4)
    v = np.array([0.6, 0.3, 0.2, 0.1])
    v *= np.sqrt(0.7) / np.linalg.norm(v)
    fr = make_frame(g, v, np.zeros(2), np.sqrt(0.3))
    rep = xi_spectrum(fr, ctx)
    assert rep.match_residual < 1e-10
    values = sorted(set(np.round(rep.eigenvalues, 8)))
    assert np.allclose(values, [-1.0, -0.25])
    # multiplicities: d_z at -1 and d_z + 1 + d_p at -1/4
    assert np.sum(np.abs(rep.eigenvalues + 1.0) < 1e-9) == g.d_z


def test_xi_spectrum_reference_tangent_a(gctx):
    g, ctx = gctx(2, 4)
    jac = ctx.jacobi(g.vec(a=1.0))
    vals = np.linalg.eigvalsh(jac)
    assert np.allclose(sorted(vals), [-1.0, -1.0] + [-0.25] * 4 + [0.0], atol=1e-12)


def test_xi_spectrum_multiplicity_pattern(gctx):
    g, ctx = gctx(2, 4)
    rng = np.random.default_rng(8)
    fr = random_frame(g, rng)
    rep = xi_spectrum(fr, ctx)
    n_minus1 = int(np.sum(np.abs(rep.eigenvalues + 1.0) < 1e-8))
    assert n_minus1 == 1 + fr.d_minus1
    n_quarter = int(np.sum(np.abs(rep.eigenvalues + 0.25) < 1e-8))
    assert n_quarter == 2 + fr.d_p + fr.d_minus1


def test_xi_spectrum_subspace_decomposition(gctx):
    # L(-1) + L(-1/4) + R xi = s4 + p + z(-1) + v(-1) when the kernel is nonzero
    g, ctx = gctx(5, 8)
    rng = np.random.default_rng(9)
    fr = random_frame(g, rng)
    assert fr.d_minus1 > 0
    rep = xi_spectrum(fr, ctx)
    vals, vecs = np.linalg.eigh(rep.jacobi_perp)
    cols = [rep.basis_perp @ vecs[:, i] for i in range(len(vals))
            if abs(vals[i] + 1.0) < 1e-8 or abs(vals[i] + 0.25) < 1e-8]
    cols.append(fr.xi)
    lhs = np.column_stack(cols)
    rhs_cols = [fr.s4[:, i] for i in range(fr.s4.shape[1])]
    rhs_cols += [g.vec(fr.p_basis[:, i]) for i in range(fr.d_p)]
    rhs_cols += [g.vec(z=fr.z_minus1[:, i]) for i in range(fr.d_minus1)]
    rhs_cols += [g.vec(fr.v_minus1[:, i]) for i in range(fr.v_minus1.shape[1])]
    rhs = np.column_stack(rhs_cols)
    assert lhs.shape[1] == rhs.shape[1]
    q, _ = np.linalg.qr(rhs)
    proj = q @ q.T
    assert np.max(np.abs(lhs - proj @ lhs)) < 1e-9


def test_xi_spectrum_rejects_non_unit(gctx):
    g, ctx = gctx(2, 4)
    rng = np.random.default_rng(10)
    fr = random_frame(g, rng)
    object.__setattr__(fr, "xi", 2.0 * fr.xi)
    with pytest.raises(ValueError, match="unit"):
        xi_spectrum(fr, ctx)


def test_center_family_certificates(gctx):
    g, ctx = gctx(3, 4)
    rng = np.random.default_rng(11)
    fr = random_frame(g, rng)
    jac = ctx.jacobi(fr.xi)
    for i in range(fr.d_minus1):
        z = fr.z_minus1[:, i]
        m1 = center_family_vector(fr, z, "minus1")
        assert np.linalg.norm(jac @ m1 + m1) < 1e-9 * np.linalg.norm(m1)
        m4 = center_family_vector(fr, z, "quarter")
        assert np.linalg.norm(jac @ m4 + 0.25 * m4) < 1e-9 * np.linalg.norm(m4)
