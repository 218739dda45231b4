"""Connection axioms, curvature cross-checks, Ricci diagnostics."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from drgeom.cli import DEFAULT_DIMS
from drgeom.clifford import CliffordModule, admissible, build_module
from connection import nabla
from drgeom.curvature import (CurvatureContext, curvature_from_connection, jacobi_closed_batch,
                              koszul_connection, ricci_heisenberg, ricci_isotropy)
from drgeom.dralgebra import DamekRicci, bracket_tensor
from drgeom.numkernel import orthonormalize


@pytest.fixture(scope="module")
def g24():
    return DamekRicci.from_dims(2, 4)


@pytest.fixture(scope="module")
def ctx24(g24):
    return CurvatureContext(g24)


def curvature_reference(nabla_tensor, bracket):
    """R(e_a, e_b) e_c as three plain einsums, the reference for the BLAS products."""
    nb = nabla_tensor
    return (np.einsum("bcd,ade->abce", nb, nb)
            - np.einsum("acd,bde->abce", nb, nb)
            - np.einsum("abd,dce->abce", bracket, nb))


def assert_curvature_matches_reference(generators):
    """Bit-identical on the full bracket and on its v + z block."""
    full = bracket_tensor(generators)
    for bracket in (full, full[:-1, :-1, :-1]):
        nb = koszul_connection(bracket)
        assert np.array_equal(curvature_from_connection(nb, bracket),
                              curvature_reference(nb, bracket))


@pytest.mark.parametrize("d_z,d_v", [(d_z, d_v) for d_v in range(1, 33)
                                     for d_z in range(1, 10) if admissible(d_z, d_v)])
def test_curvature_from_connection_equals_the_einsum_reference(d_z, d_v):
    assert_curvature_matches_reference(build_module(d_z, d_v).generators)


@pytest.mark.parametrize("dims", DEFAULT_DIMS)
def test_context_curvature_equals_the_einsum_reference(dims):
    ctx = CurvatureContext(DamekRicci.from_dims(*dims))
    ref = curvature_reference(ctx.nabla_tensor, ctx.bracket_tensor)
    assert np.array_equal(ctx.riemann_tensor, ref)
    assert np.array_equal(ctx.ricci, np.einsum("abca->bc", ref))


def _riemann(ctx, x, y, z):
    """R(x, y) z contracted from the curvature tensor."""
    return np.einsum("a,b,c,abce->e", x, y, z, ctx.riemann_tensor)


def _riemann4(ctx, x, y, z, w):
    return float(np.einsum("a,b,c,e,abce->", x, y, z, w, ctx.riemann_tensor))


def _nabla_flat(ctx, x, w):
    """Covariant derivative along x of the left-invariant extension of w."""
    return np.einsum("a,b,abe->e", x, w, ctx.nabla_tensor)


def _nabla_riemann(ctx, tk, x, y, z, w) -> float:
    """(nabla_{tk} R)(x, y, z, w) for left-invariant arguments.

    The scalar R(x, y, z, w) is constant for left-invariant fields, so the
    covariant derivative is minus the sum of the four slot-wise substitutions
    of nabla_{tk}.
    """
    total = 0.0
    for slot in range(4):
        args = [x, y, z, w]
        args[slot] = _nabla_flat(ctx, tk, args[slot])
        total -= _riemann4(ctx, *args)
    return total


def subalgebra_closure_residuals(ctx: CurvatureContext, basis: np.ndarray) -> dict:
    """How far a subspace is from being curvature- and connection-closed.

    ``basis`` holds orthonormal columns spanning the candidate subalgebra.
    Returns max projection residuals of R(h,h)h, nabla_h h, and the largest
    |(nabla_h R)(h,h,h,h)| component.
    """
    q = basis
    proj = q @ q.T
    k = q.shape[1]
    r_res = 0.0
    n_res = 0.0
    dr_res = 0.0
    for i in range(k):
        for j in range(k):
            nb = _nabla_flat(ctx, q[:, i], q[:, j])
            n_res = max(n_res, float(np.max(np.abs(nb - proj @ nb))))
            for l in range(k):
                rv = np.einsum("a,b,c,abce->e", q[:, i], q[:, j], q[:, l],
                               ctx.riemann_tensor)
                r_res = max(r_res, float(np.max(np.abs(rv - proj @ rv))))
    rng = np.random.default_rng(12345)
    for _ in range(60):
        c = rng.standard_normal((5, k))
        vs = [q @ ci for ci in c]
        dr_res = max(dr_res, abs(_nabla_riemann(ctx, *vs)))
    return {"riemann_closure": r_res, "nabla_closure": n_res,
            "nabla_riemann_inside": dr_res}


def test_nabla_closed_form_values(g24):
    a = g24.vec(a=1.0)
    assert np.allclose(nabla(g24, a, a), 0.0)
    u = g24.vec(v=[2.0, 0.0, 0.0, 0.0])
    assert np.allclose(nabla(g24, u, u), 2.0 * a)
    z = g24.vec(z=[0.0, 3.0])
    assert np.allclose(nabla(g24, z, z), 9.0 * a)


def test_nabla_metric_compatible_torsion_free(g24):
    rng = np.random.default_rng(0)
    for _ in range(200):
        t1, t2, t3 = (rng.standard_normal(g24.dim) for _ in range(3))
        mc = g24.inner(nabla(g24, t1, t2), t3) + g24.inner(t2, nabla(g24, t1, t3))
        assert abs(mc) < 1e-12
        tf = nabla(g24, t1, t2) - nabla(g24, t2, t1) - g24.bracket(t1, t2)
        assert np.max(np.abs(tf)) < 1e-12


def test_nabla_equals_koszul():
    # the context's tensors come from the generators by the Koszul formula;
    # the seven-term nabla and the block-wise bracket are the independent route
    for dims in DEFAULT_DIMS:
        g = DamekRicci.from_dims(*dims)
        ctx = CurvatureContext(g)
        basis = np.eye(g.dim)
        for i, ei in enumerate(basis):
            for j, ej in enumerate(basis):
                assert np.array_equal(ctx.bracket_tensor[i, j], g.bracket(ei, ej))
                assert np.array_equal(ctx.nabla_tensor[i, j], nabla(g, ei, ej))


@pytest.mark.parametrize("call", [lambda g, x: g.bracket(x, g.vec()),
                                  lambda g, x: g.bracket(g.vec(), x),
                                  lambda g, x: g.inner(x, g.vec()),
                                  lambda g, x: g.inner(g.vec(), x),
                                  lambda g, x: nabla(g, x, g.vec()),
                                  lambda g, x: nabla(g, g.vec(), x)])
@pytest.mark.parametrize("length", [6, 8])
def test_wrong_length_vector_is_rejected(g24, call, length):
    with pytest.raises(ValueError, match=r"vector has shape \(%d,\), expected \(7,\)" % length):
        call(g24, np.ones(length))


@pytest.mark.parametrize("slot", [0, 1])
def test_stacked_bracket_rejects_a_wrong_last_axis(g24, slot):
    args = [np.ones((3, 7)), np.ones((3, 7))]
    args[slot] = np.ones((3, 6))
    with pytest.raises(ValueError, match=r"shape \(3, 6\), expected \(7,\) in the last axis"):
        g24.bracket(*args)
    args[slot] = np.float64(1.0)
    with pytest.raises(ValueError, match=r"shape \(\), expected \(7,\)"):
        g24.bracket(*args)


def test_stacked_bracket_equals_the_pairwise_brackets(g24):
    rng = np.random.default_rng(4)
    xs, ys = rng.standard_normal((2, 5, 7))
    # x against every y: the leading axes broadcast
    table = g24.bracket(xs[:, None], ys[None, :])
    assert table.shape == (5, 5, 7)
    for i, j in itertools.product(range(5), repeat=2):
        assert np.allclose(table[i, j], g24.bracket(xs[i], ys[j]), rtol=0, atol=1e-13)
    assert np.allclose(g24.bracket_vz(xs[:, :4], ys[:, :4]),
                       [g24.bracket_vz(x[:4], y[:4]) for x, y in zip(xs, ys)], rtol=0, atol=1e-13)


def test_jacobi_of_a_scales_blocks(g24, ctx24):
    m = ctx24.jacobi(g24.vec(a=1.0))
    expect = np.diag([-0.25] * 4 + [-1.0] * 2 + [0.0])
    assert np.max(np.abs(m - expect)) < 1e-13


def test_jacobi_annihilates_base_vector(g24, ctx24):
    rng = np.random.default_rng(1)
    for _ in range(50):
        t = rng.standard_normal(g24.dim)
        assert np.max(np.abs(ctx24.jacobi(t) @ t)) < 1e-11 * max(
            1.0, np.linalg.norm(t) ** 3)


def test_jacobi_two_eigenvalues_along_v_a_normal(g24, ctx24):
    v = np.array([0.8, 0.0, 0.0, 0.0])
    xi = g24.vec(v, None, 0.6)
    m = ctx24.jacobi(xi)
    vals = np.linalg.eigvalsh(m)
    clusters = sorted(set(np.round(vals, 9)))
    assert np.allclose(clusters, [-1.0, -0.25, 0.0], atol=1e-11)


def test_riemann_antisymmetry_and_bianchi(g24, ctx24):
    rng = np.random.default_rng(2)
    for _ in range(60):
        x, y, z = (rng.standard_normal(g24.dim) for _ in range(3))
        assert np.max(np.abs(_riemann(ctx24, x, x, z))) < 1e-11
        b1 = (_riemann(ctx24, x, y, z) + _riemann(ctx24, y, z, x)
              + _riemann(ctx24, z, x, y))
        assert np.max(np.abs(b1)) < 1e-11


def test_riemann_matches_closed_jacobi(g24, ctx24):
    rng = np.random.default_rng(3)
    for _ in range(200):
        x, y = rng.standard_normal(g24.dim), rng.standard_normal(g24.dim)
        assembled = _riemann(ctx24, y, x, x)
        closed = jacobi_closed_batch(g24, x[None], y[None])[0]
        assert np.max(np.abs(assembled - closed)) < 1e-11 * max(
            1.0, np.linalg.norm(x) ** 2 * np.linalg.norm(y))


def test_riemann_pair_symmetry(g24, ctx24):
    rng = np.random.default_rng(4)
    for _ in range(60):
        x, y, z, w = (rng.standard_normal(g24.dim) for _ in range(4))
        assert abs(_riemann4(ctx24, x, y, z, w) - _riemann4(ctx24, z, w, x, y)) < 1e-11


def test_nabla_riemann_second_bianchi(g24, ctx24):
    rng = np.random.default_rng(5)
    for _ in range(40):
        a, b, c, d, e = (rng.standard_normal(g24.dim) for _ in range(5))
        total = (_nabla_riemann(ctx24, a, b, c, d, e)
                 + _nabla_riemann(ctx24, b, c, a, d, e)
                 + _nabla_riemann(ctx24, c, a, b, d, e))
        n = np.linalg.norm
        assert abs(total) < 1e-10 * max(1.0, n(a) * n(b) * n(c) * n(d) * n(e))


def test_nabla_riemann_vanishes_on_symmetric_ambient():
    g = DamekRicci.from_dims(3, 4)  # quaternionic hyperbolic: symmetric
    ctx = CurvatureContext(g)
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(40):
        args = [rng.standard_normal(g.dim) for _ in range(5)]
        worst = max(worst, abs(_nabla_riemann(ctx, *args)))
    assert worst < 1e-10


def test_nabla_riemann_nonzero_on_nonsymmetric(g24, ctx24):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(40):
        args = [rng.standard_normal(g24.dim) for _ in range(5)]
        worst = max(worst, abs(_nabla_riemann(ctx24, *args)))
    assert worst > 1e-6


def test_nabla_riemann_vanishes_inside_core_subalgebra(g24, ctx24):
    # span(A, V, Y, J_Y V) is tangent to a complex-hyperbolic totally
    # geodesic subgroup: closed under R, nabla, and with vanishing nabla-R
    rng = np.random.default_rng(8)
    v = rng.standard_normal(4)
    y = rng.standard_normal(2)
    jyv = g24.j_z(y) @ v
    basis = orthonormalize([g24.vec(a=1.0), g24.vec(v), g24.vec(z=y), g24.vec(jyv)])
    assert basis.shape[1] == 4
    res = subalgebra_closure_residuals(ctx24, basis)
    assert res["riemann_closure"] < 1e-10
    assert res["nabla_closure"] < 1e-10
    assert res["nabla_riemann_inside"] < 1e-10


def test_totally_geodesic_quaternionic_subalgebra():
    # span(A, V, J_Y V, J_Z V, J_KZ V; Y, Z, KZ) inside (5,8) is tangent to a
    # quaternionic-hyperbolic-plane subgroup
    g = DamekRicci.from_dims(5, 8)
    ctx = CurvatureContext(g)
    rng = np.random.default_rng(9)
    v = rng.standard_normal(8)
    y = rng.standard_normal(5)
    cols, info = g.k_square_minus1_space(v, y)
    assert info["dim"] >= 2
    z = cols[:, 0]
    k, kb = g.k_operator(v, y)
    kz = kb @ (k @ (kb.T @ z))
    vecs = [g.vec(a=1.0), g.vec(v), g.vec(z=y), g.vec(g.j_z(y) @ v), g.vec(z=z),
            g.vec(z=kz), g.vec(g.j_z(z) @ v), g.vec(g.j_z(kz) @ v)]
    basis = orthonormalize(vecs)
    assert basis.shape[1] == 8
    res = subalgebra_closure_residuals(ctx, basis)
    assert res["riemann_closure"] < 1e-10
    assert res["nabla_closure"] < 1e-10
    assert res["nabla_riemann_inside"] < 1e-9


def test_duality_inside_symmetric_subalgebra():
    # inside a symmetric totally geodesic subalgebra, eigenvectors dualize
    g = DamekRicci.from_dims(2, 4)
    ctx = CurvatureContext(g)
    rng = np.random.default_rng(10)
    v = rng.standard_normal(4)
    y = rng.standard_normal(2)
    jyv = g.j_z(y) @ v
    basis = orthonormalize([g.vec(a=1.0), g.vec(v), g.vec(z=y), g.vec(jyv)])
    proj = basis @ basis.T
    for _ in range(20):
        t1 = basis @ rng.standard_normal(4)
        t1 /= np.linalg.norm(t1)
        jm = basis.T @ ctx.jacobi(t1) @ basis
        vals, vecs = np.linalg.eigh(0.5 * (jm + jm.T))
        idx = int(rng.integers(0, 4))
        t2 = basis @ vecs[:, idx]
        lam = vals[idx]
        back = ctx.jacobi(t2) @ t1 - lam * t1
        assert np.max(np.abs(proj @ back)) < 1e-9


def test_ricci_isotropy_constant(g24, ctx24):
    c, worst = ricci_isotropy(ctx24)
    assert worst < 1e-10
    # scaling invariance of the ratio
    rng = np.random.default_rng(11)
    t = rng.standard_normal(7)
    r1 = float(t @ ctx24.ricci @ t) / float(t @ t)
    r2 = float((2 * t) @ ctx24.ricci @ (2 * t)) / float((2 * t) @ (2 * t))
    assert abs(r1 - r2) < 1e-12
    assert abs(r1 - c) < 1e-9


def test_ricci_isotropy_small_module():
    g = DamekRicci.from_dims(1, 2)
    c, worst = ricci_isotropy(CurvatureContext(g))
    assert worst < 1e-10
    assert c < 0  # negative Einstein constant, value recorded not asserted


def test_ricci_isotropy_fails_on_scaled_generators(g24):
    # negative control: with 1.1 J_i the algebra is no longer H-type, nor Einstein
    m = g24.module
    bad = DamekRicci(CliffordModule(m.d_z, m.d_v, 1.1 * m.generators, m.iso_flags))
    _, worst = ricci_isotropy(CurvatureContext(bad))
    assert worst > 1e-10


@pytest.mark.parametrize("dims", [(1, 2), (3, 4), (2, 4)])
def test_ricci_heisenberg_sign_split(dims):
    g = DamekRicci.from_dims(*dims)
    out = ricci_heisenberg(g.module.generators)
    assert out["sign_split"]
    assert out["offdiag"] < 1e-12
    ratio = abs(out["eigs_z"]).max() / abs(out["eigs_v"]).max()
    assert 0.0 < ratio < np.inf


def test_ricci_heisenberg_abelian_flat():
    out = ricci_heisenberg(np.zeros((2, 4, 4)))
    assert out["flat"]
    assert not out["sign_split"]


def test_totally_geodesic_commutant_extension():
    # span(A, V, Y, J_Y V) + span(P, J_Y P) for P in the commutant is tangent
    # to a complex-hyperbolic totally geodesic subgroup
    g = DamekRicci.from_dims(7, 16)
    ctx = CurvatureContext(g)
    from drgeom.spectrum import random_frame
    rng = np.random.default_rng(21)
    fr = random_frame(g, rng)
    assert fr.d_p > 0
    p = fr.p_basis[:, 0]
    jyp = g.j_z(fr.y) @ p
    cols = [fr.s4[:, i] for i in range(fr.s4.shape[1])]
    cols += [g.vec(p), g.vec(jyp)]
    basis = orthonormalize(cols)
    assert basis.shape[1] == 6
    res = subalgebra_closure_residuals(ctx, basis)
    assert res["riemann_closure"] < 1e-10
    assert res["nabla_closure"] < 1e-10
    assert res["nabla_riemann_inside"] < 1e-9
