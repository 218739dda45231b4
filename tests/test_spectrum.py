"""Normal Jacobi spectrum: frames, cubic families, eigenvector certificates."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisection import bisect_cuts, fraction_bisect
from drgeom import spectrum
from drgeom.curvature import CurvatureContext
from drgeom.dralgebra import DamekRicci
from drgeom.numkernel import poly_eval_fraction
from drgeom.spectrum import (alpha_cubic, eigen_families, eta_alpha_exact_identity,
                             f_cubic_roots, make_frame, psi_homothety_ratio, psi_map,
                             random_frame, xi_spectrum)
from families import center_family_vector, psi_image

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
ALPHA_CUTS = [-3, -2, 0, 1]
F_CUTS = [-1, Fraction(-3, 4), Fraction(-1, 4), 0]


def _alpha_oracle(out):
    return bisect_cuts([-out["q"], 0, 3, 1], ALPHA_CUTS, WIDTH)


def _f_oracle(q):
    qf = Fraction(q)
    return bisect_cuts([qf ** 2, Fraction(9, 16), Fraction(3, 2), 1], F_CUTS, WIDTH)


@settings(max_examples=60, deadline=None)
@given(mu=st.floats(-0.999, 0.0), v=st.floats(0.001, 0.998),
       y_frac=st.floats(0.001, 0.999))
def test_alpha_cubic_brackets_equal_bisection(mu, v, y_frac):
    y = y_frac * (1.0 - v)
    if not (y > 0 and v + y < 1):
        return
    out = alpha_cubic(mu, v, y)
    assert out["brackets"] == _alpha_oracle(out)


@pytest.mark.parametrize("mu", [-1 + 1e-12, -0.999999, -1e-10, -1e-6, 0.0])
def test_alpha_cubic_brackets_equal_bisection_at_the_ends_of_mu(mu):
    for v, y in [(0.5, 0.25), (0.01, 0.98), (0.9, 0.05)]:
        out = alpha_cubic(mu, v, y)
        assert out["brackets"] == _alpha_oracle(out)


@settings(max_examples=60, deadline=None)
@given(q=st.floats(1e-9, 0.25, exclude_max=True))
def test_f_cubic_brackets_equal_bisection(q):
    assert list(f_cubic_roots(q)["brackets"]) == _f_oracle(q)


@pytest.mark.parametrize("k", [1, 8, 12, 20, 24])
def test_f_cubic_brackets_equal_bisection_at_the_ledger_q(k):
    q = float(Fraction(k, 100))  # the lambda-chain samples of the general-case ledger
    assert list(f_cubic_roots(q)["brackets"]) == _f_oracle(q)


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
    for reports in (1, 2):  # a second report solves every cubic again
        xi_spectrum(fr, ctx)
        assert sorted(calls) == sorted(reports * [mu for mu, _ in fr.mu_clusters])
    assert len(fr.mu_clusters) > 1


@pytest.mark.parametrize("dims", [(2, 4), (7, 16), (8, 16)])
def test_spectral_report_matches_unmemoized_bisection(gctx, monkeypatch, dims):
    g, ctx = gctx(*dims)
    fast = xi_spectrum(random_frame(g, np.random.default_rng(12)), ctx)
    # every cubic bracketed again by the bisection on Fractions
    monkeypatch.setattr(spectrum, "rational_bisect", fraction_bisect)
    plain = xi_spectrum(random_frame(g, np.random.default_rng(12)), ctx)
    for name in ("eigenvalues", "predicted", "basis_perp", "jacobi_perp"):
        assert np.array_equal(getattr(fast, name), getattr(plain, name)), name
    assert fast.clusters == plain.clusters and fast.dims == plain.dims
    assert fast.match_residual == plain.match_residual
    assert fast.certificate_residuals == plain.certificate_residuals


@pytest.mark.parametrize("dims", MODULES)
def test_families_and_psi_images_equal_the_per_vector_references(gctx, dims):
    # each center vector's J_W V and each column's J_Z terms are formed once; the
    # vectors equal the per-vector references, which locate mu and solve its cubic
    g, _ = gctx(*dims)
    rng = np.random.default_rng(sum(dims))
    for _ in range(2):
        fr = random_frame(g, rng)
        families = eigen_families(fr)
        for name, kind in (("center_minus1", "minus1"), ("center_quarter", "quarter")):
            expect = [center_family_vector(fr, z, kind) for z in fr.z_minus1.T]
            got = families[name][1]
            assert len(got) == len(expect) == fr.d_minus1
            assert all(np.array_equal(a, b) for a, b in zip(got, expect)), name
        for mu, basis in fr.mu_clusters:
            images = psi_map(fr, basis, alpha_cubic(mu, fr.vsq, fr.ysq)["etas"])
            assert [len(col) for col in images] == 3 * [basis.shape[1]]
            for l, col in enumerate(images):
                for i, vec in enumerate(col):
                    assert np.array_equal(vec, psi_image(fr, l, basis[:, i])), (mu, l, i)


def test_psi_map_eigenvector_residual(gctx):
    g, ctx = gctx(2, 4)
    rng = np.random.default_rng(4)
    fr = random_frame(g, rng)
    jac = ctx.jacobi(fr.xi)
    mu, basis = fr.mu_clusters[0]
    roots = alpha_cubic(mu, fr.vsq, fr.ysq)
    for alpha, col in zip(roots["alphas"], psi_map(fr, basis, roots["etas"])):
        for vec in col:
            res = np.linalg.norm(jac @ vec - alpha * vec) / np.linalg.norm(vec)
            assert res < 1e-9


def test_psi_homothety_matches_closed_form(gctx):
    g, _ = gctx(5, 8)
    rng = np.random.default_rng(6)
    fr = random_frame(g, rng)
    mu, basis = fr.mu_clusters[0]
    etas = alpha_cubic(mu, fr.vsq, fr.ysq)["etas"]
    for eta, col in zip(etas, psi_map(fr, basis, etas)):
        closed = psi_homothety_ratio(fr, eta, mu)
        for z, vec in zip(basis.T, col):
            ratio = float(np.linalg.norm(vec) ** 2) / float(z @ z)
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
    # L(-1) + L(-1/4) + R xi = s4 + p + z(-1) + J_{z(-1)} V when the kernel is nonzero
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
    rhs_cols += [g.vec(g.j_z(fr.z_minus1[:, i]) @ fr.v) for i in range(fr.d_minus1)]
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
    families = eigen_families(fr)
    assert len(families["center_minus1"][1]) == len(families["center_quarter"][1]) == fr.d_minus1
    for m1, m4 in zip(families["center_minus1"][1], families["center_quarter"][1]):
        assert np.linalg.norm(jac @ m1 + m1) < 1e-9 * np.linalg.norm(m1)
        assert np.linalg.norm(jac @ m4 + 0.25 * m4) < 1e-9 * np.linalg.norm(m4)


@pytest.mark.parametrize("v, y, s", [((0, 0, 0, 0), (0, 0), 1.0), ((1, 0, 0, 0), (0, 0), 0.0),
                                     ((0, 0, 0, 0), (1, 0), 0.0),
                                     ((0.6, 0, 0, 0), (0.8, 0), 0.0)])
def test_xi_spectrum_without_families_predicts_nothing(gctx, v, y, s):
    # V = 0 or s = 0: no explicit families, so no certificate and an incomplete report,
    # even where the numeric spectrum leaves -1 and -1/4 (-0.9227, -0.52, -0.0573 at
    # (0.6 e1, 0.8 e1, 0))
    g, ctx = gctx(2, 4)
    fr = make_frame(g, np.array(v, dtype=float), np.array(y, dtype=float), s)
    assert eigen_families(fr) == {}
    rep = xi_spectrum(fr, ctx)
    assert rep.predicted.shape == (0,) and rep.eigenvalues.shape == (g.dim - 1,)
    assert rep.match_residual == float("inf") and not rep.complete
    assert rep.certificate_residuals == {}
