"""Bracket structure, Heisenberg identities, and the K operator."""

from __future__ import annotations

import numpy as np
import pytest

from drgeom.clifford import CliffordModule
from drgeom.dralgebra import DamekRicci, verify_heisenberg_identities


@pytest.fixture(scope="module")
def g24():
    return DamekRicci.from_dims(2, 4)


def test_bracket_a_acts_as_half_on_v(g24):
    u = g24.vec(v=[1.0, -2.0, 0.5, 3.0])
    out = g24.bracket(g24.vec(a=1.0), u)
    assert np.allclose(out, 0.5 * u)
    z = g24.vec(z=[2.0, -1.0])
    assert np.allclose(g24.bracket(g24.vec(a=1.0), z), z)


def test_bracket_center_is_central(g24):
    z1 = g24.vec(z=[1.0, 0.0])
    z2 = g24.vec(z=[0.0, 1.0])
    assert np.allclose(g24.bracket(z1, z2), 0.0)
    u = g24.vec(v=[1.0, 2.0, 3.0, 4.0])
    assert np.allclose(g24.bracket(z1, u), 0.0)


def test_bracket_pairing_defines_j(g24):
    rng = np.random.default_rng(0)
    for _ in range(50):
        u, w = rng.standard_normal(4), rng.standard_normal(4)
        z = rng.standard_normal(2)
        lhs = float((g24.j_z(z) @ u) @ w)
        rhs = float(g24.bracket_vz(u, w) @ z)
        assert abs(lhs - rhs) < 1e-12


def test_bracket_bilinear_antisymmetric_jacobi(g24):
    rng = np.random.default_rng(1)
    for _ in range(30):
        t1, t2, t3 = (rng.standard_normal(g24.dim) for _ in range(3))
        anti = g24.bracket(t1, t2) + g24.bracket(t2, t1)
        assert np.max(np.abs(anti)) < 1e-12
        jac = (g24.bracket(t1, g24.bracket(t2, t3))
               + g24.bracket(t2, g24.bracket(t3, t1))
               + g24.bracket(t3, g24.bracket(t1, t2)))
        assert np.max(np.abs(jac)) < 1e-12


def test_nilradical_two_step(g24):
    rng = np.random.default_rng(2)
    for _ in range(20):
        ts = []
        for _ in range(3):
            t = rng.standard_normal(g24.dim)
            t[g24.ia] = 0.0
            ts.append(t)
        inner = g24.bracket(ts[0], ts[1])
        assert np.max(np.abs(g24.bracket(inner, ts[2]))) < 1e-12


def test_heisenberg_identities_zero_v(g24):
    y = np.array([1.0, 2.0])
    lhs = g24.bracket_vz(np.zeros(4), g24.j_z(y) @ np.zeros(4))
    assert np.allclose(lhs, 0.0)


def test_heisenberg_identities_random(g24):
    rep = verify_heisenberg_identities(g24)
    assert rep["passed"]
    assert rep["max_residual"] < 1e-12


def test_heisenberg_identities_fail_on_scaled_generators(g24):
    # negative control: 1.1 J_i gives [V, J_Y V] = 1.21 |V|^2 Y
    m = g24.module
    bad = DamekRicci(CliffordModule(m.d_z, m.d_v, 1.1 * m.generators, m.iso_flags))
    rep = verify_heisenberg_identities(bad)
    assert not rep["passed"] and rep["max_residual"] > 0.4


def test_heisenberg_second_identity_orthogonal_pair(g24):
    rng = np.random.default_rng(3)
    v = rng.standard_normal(4)
    u = rng.standard_normal(4)
    u -= (u @ v) / (v @ v) * v
    y = rng.standard_normal(2)
    jy = g24.j_z(y)
    lhs = g24.bracket_vz(v, jy @ u) - g24.bracket_vz(jy @ v, u)
    assert np.max(np.abs(lhs)) < 1e-12


# ---------------------------------------------------------------------------
# K operator
# ---------------------------------------------------------------------------

def test_k_operator_trivial_center():
    g = DamekRicci.from_dims(1, 2)
    k, basis = g.k_operator(np.array([1.0, 0.0]), np.array([1.0]))
    assert k.shape == (0, 0)
    assert basis.shape == (1, 0)


def test_k_operator_rejects_zero_arguments(g24):
    with pytest.raises(ValueError, match="nonzero"):
        g24.k_operator(np.zeros(4), np.array([1.0, 0.0]))


def test_k_operator_skew_and_bounded():
    rng = np.random.default_rng(4)
    for dims in [(3, 4), (5, 8), (7, 8)]:
        g = DamekRicci.from_dims(*dims)
        v = rng.standard_normal(g.d_v)
        y = rng.standard_normal(g.d_z)
        k, _ = g.k_operator(v, y)
        assert np.max(np.abs(k + k.T)) < 1e-12
        vals = np.linalg.eigvalsh(k @ k)
        assert vals.min() > -1.0 - 1e-10 and vals.max() < 1e-10


def test_k_square_full_kernel_on_octonionic_core():
    g = DamekRicci.from_dims(7, 8)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(8)
    y = rng.standard_normal(7)
    k, _ = g.k_operator(v, y)
    assert np.max(np.abs(k @ k + np.eye(6))) < 1e-11


def _center_complement_loop(d_z, y):
    # the Gram-Schmidt loop center_complement_basis ran before it called
    # numkernel.complete_basis, kept as the reference
    ny = np.linalg.norm(y)
    cols = [y / ny]
    for i in range(d_z):
        w = np.zeros(d_z)
        w[i] = 1.0
        for b in cols:
            w = w - (b @ w) * b
        nw = np.linalg.norm(w)
        if nw > 1e-10:
            cols.append(w / nw)
        if len(cols) == d_z:
            break
    return np.column_stack(cols[1:]) if len(cols) > 1 else np.zeros((d_z, 0))


@pytest.mark.parametrize("dims", [(1, 2), (2, 4), (3, 4), (4, 8), (5, 8), (6, 8),
                                  (7, 8), (8, 16)])
def test_center_complement_basis_matches_reference_loop(dims):
    g = DamekRicci.from_dims(*dims)
    rng = np.random.default_rng(dims[0])
    ys = [rng.standard_normal(g.d_z) for _ in range(5)] + [np.eye(g.d_z)[-1]]
    for y in ys:
        basis = g.center_complement_basis(y)
        assert basis.shape == (g.d_z, g.d_z - 1)
        assert np.array_equal(basis, _center_complement_loop(g.d_z, y))


def test_k_square_minus1_space_quaternionic():
    g = DamekRicci.from_dims(3, 4)
    rng = np.random.default_rng(6)
    cols, info = g.k_square_minus1_space(rng.standard_normal(4),
                                         rng.standard_normal(3))
    assert info["dim"] == 2  # d_z - 1
    assert info["even"]
    assert info["equiv_residual"] <= 1e-9
    assert info["k_invariance"] <= 1e-9


def test_k_square_minus1_space_empty():
    g = DamekRicci.from_dims(2, 4)
    rng = np.random.default_rng(7)
    cols, info = g.k_square_minus1_space(rng.standard_normal(4),
                                         rng.standard_normal(2))
    assert info["dim"] == 0
    assert cols.shape == (2, 0)


@pytest.mark.parametrize("dims, seed", [((3, 4), 6), ((2, 4), 7), ((5, 8), 8)])
def test_k_square_minus1_space_cluster_residual_and_gap(dims, seed):
    g = DamekRicci.from_dims(*dims)
    rng = np.random.default_rng(seed)
    v, y = rng.standard_normal(g.d_v), rng.standard_normal(g.d_z)
    _, info = g.k_square_minus1_space(v, y)
    vals = g.k_square_eigh(v, y)[2]
    dist = np.abs(vals + 1.0)
    assert info["cluster_residual"] == max([d for d in dist if d <= 1e-7], default=0.0)
    assert info["gap"] == min([d for d in dist if d > 1e-7], default=np.inf)
    assert info["cluster_residual"] <= 1e-7 < info["gap"]


def test_k_square_minus1_equivalence_both_directions():
    # the kernel equivalence: K^2 X = -X iff J_X J_Y V = |Y| J_{KX} V; on the
    # complement of the kernel the identity must fail
    g = DamekRicci.from_dims(5, 8)
    rng = np.random.default_rng(8)
    v = rng.standard_normal(8)
    y = rng.standard_normal(5)
    ny = np.linalg.norm(y)
    k, basis = g.k_operator(v, y)
    vals, vecs = np.linalg.eigh(k @ k)
    jyv = g.j_z(y) @ v
    for idx, val in enumerate(vals):
        x = basis @ vecs[:, idx]
        kx = basis @ (k @ vecs[:, idx])
        res = np.max(np.abs(g.j_z(x) @ jyv - ny * (g.j_z(kx) @ v)))
        if abs(val + 1.0) < 1e-9:
            assert res < 1e-9
        else:
            assert res > 1e-3


def test_k_eigenspaces_k_invariant():
    # every eigenspace of K^2 is preserved by K itself
    g = DamekRicci.from_dims(5, 8)
    rng = np.random.default_rng(9)
    v = rng.standard_normal(8)
    y = rng.standard_normal(5)
    k, basis = g.k_operator(v, y)
    k2 = k @ k
    vals, vecs = np.linalg.eigh(0.5 * (k2 + k2.T))
    from drgeom.numkernel import cluster_indices
    clusters = cluster_indices(list(vals))
    for c in clusters:
        block = vecs[:, list(c)]
        img = k @ block
        proj = block @ (block.T @ img)
        assert np.max(np.abs(img - proj)) < 1e-9
