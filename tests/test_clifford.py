"""Clifford module construction, the division-algebra table against the octonion
oracle, admissibility."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drgeom.clifford import (admissible, anticommutation_residual, build_module,
                             division_algebra_mults, is_symmetric_space, j_op, max_center_dim)
from octonion import QL_I, QL_J, QL_K, Octonion, oct_left_mult_matrix, quaternion_mul
from test_curvature import assert_curvature_matches_reference

ADMISSIBLE = [(d_z, d_v) for d_v in (2, 4, 8, 16)
              for d_z in range(1, max_center_dim(d_v) + 1)]


@pytest.mark.parametrize("d_v,expected", [(8, 7), (16, 8), (4, 3), (2, 1),
                                          (1, 0), (3, 0), (6, 1), (12, 3),
                                          (24, 7), (32, 9), (64, 11)])
def test_max_center_dim(d_v, expected):
    assert max_center_dim(d_v) == expected


def test_build_module_complex_structure():
    mod = build_module(1, 2)
    assert np.array_equal(mod.generators[0], np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_build_module_quaternionic_volume_sign():
    plus = build_module(3, 4, (1,))
    minus = build_module(3, 4, (-1,))
    vol_p = plus.generators[0] @ plus.generators[1] @ plus.generators[2]
    vol_m = minus.generators[0] @ minus.generators[1] @ minus.generators[2]
    assert np.allclose(vol_p, -np.eye(4), atol=1e-14)
    assert np.allclose(vol_m, np.eye(4), atol=1e-14)


@pytest.mark.parametrize("d_z,d_v", ADMISSIBLE)
def test_anticommutation_all_admissible(d_z, d_v):
    mod = build_module(d_z, d_v)
    assert anticommutation_residual(mod.generators) <= 1e-12


SMALL_ADMISSIBLE = [(d_z, d_v) for d_v in range(1, 17) for d_z in range(1, 9)
                    if admissible(d_z, d_v)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_build_module_any_iso_flags_validates_and_is_skew(data):
    d_z, d_v = data.draw(st.sampled_from(SMALL_ADMISSIBLE))
    copies = len(build_module(d_z, d_v).iso_flags)
    flags = tuple(data.draw(st.lists(st.sampled_from([1, -1]),
                                     min_size=copies, max_size=copies)))
    mod = build_module(d_z, d_v, flags)
    assert mod.iso_flags == flags
    assert mod.validate() <= 1e-12
    assert np.array_equal(mod.generators, -np.transpose(mod.generators, (0, 2, 1)))
    assert_curvature_matches_reference(mod.generators)


def test_build_module_rejects_excess_center():
    with pytest.raises(ValueError, match="admissible bound"):
        build_module(9, 16)


def test_admissible_agrees_with_build_module():
    # (9, 32) is within the Radon-Hurwitz bound but has no construction here
    assert max_center_dim(32) == 9 and not admissible(9, 32)
    for d_v in range(1, 33):
        for d_z in range(0, 11):
            try:
                build_module(d_z, d_v)
                built = True
            except ValueError:
                built = False
            assert built == admissible(d_z, d_v), (d_z, d_v)


def test_octonion_pair_model_matches_pair_formula():
    mod = build_module(8, 16)
    rng = np.random.default_rng(0)
    for i in range(8):
        z = np.zeros(8)
        z[i] = 1.0
        w = rng.standard_normal(16)
        got = j_op(mod, z) @ w
        zo = Octonion.basis(i)
        w1, w2 = Octonion(w[:8]), Octonion(w[8:])
        expect = np.concatenate([(zo * w2).coords, (-(zo.conj() * w1)).coords])
        assert np.max(np.abs(got - expect)) < 1e-14


def product_loop_generators(d_z: int) -> np.ndarray:
    """The irreducible module's generators from the oracle's products alone.

    d_z <= 7 takes L(e_1..e_{d_z}) on C, H or O, the first 2, 4 or 8
    coordinates of the octonions; d_z = 8 takes the octonion pairs, each
    generator from two product matrices, L(z) and L(z*).
    """
    if d_z == 8:
        ref = np.zeros((8, 16, 16))
        for i in range(8):
            z = Octonion.basis(i)
            ref[i, :8, 8:] = oct_left_mult_matrix(z)
            ref[i, 8:, :8] = -oct_left_mult_matrix(z.conj())
        return ref
    m = 2 if d_z == 1 else 4 if d_z <= 3 else 8
    return np.stack([oct_left_mult_matrix(Octonion.basis(i))[:m, :m]
                     for i in range(1, d_z + 1)])


@pytest.mark.parametrize("d_z,d_v", [(1, 2), (2, 4), (3, 4), (4, 8), (5, 8), (6, 8),
                                     (7, 8), (8, 16)])
def test_octonion_pair_generators_are_the_product_loop_bytes(d_z, d_v):
    # the bytes also fix the sign of every zero
    assert build_module(d_z, d_v).generators.tobytes() == product_loop_generators(d_z).tobytes()


def test_quaternion_literals_are_the_product_loop_bytes():
    loop = [np.column_stack([quaternion_mul(np.eye(4)[i], np.eye(4)[j]) for j in range(4)])
            for i in range(1, 4)]
    assert np.stack([QL_I, QL_J, QL_K]).tobytes() == np.stack(loop).tobytes()
    assert division_algebra_mults()[4][1:].tobytes() == np.stack(loop).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=16, max_size=16))
def test_division_algebra_table_product_matches_octonion_oracle(coords):
    x, y = np.array(coords[:8]), np.array(coords[8:])
    got = (x @ division_algebra_mults()[8].reshape(8, 64)).reshape(8, 8) @ y
    expect = (Octonion(x) * Octonion(y)).coords
    scale = max(1.0, float(np.linalg.norm(x) * np.linalg.norm(y)))
    assert np.max(np.abs(got - expect)) <= 1e-12 * scale


def test_j_op_zero_and_unit():
    mod = build_module(2, 4)
    assert np.allclose(j_op(mod, np.zeros(2)), 0.0)
    z = np.array([0.6, 0.8])
    j = j_op(mod, z)
    assert np.max(np.abs(j @ j + np.eye(4))) < 1e-12
    assert np.max(np.abs(j @ j.T - np.eye(4))) < 1e-12


def test_j_op_additive_exact():
    mod = build_module(3, 4)
    z1 = np.array([1.0, 2.0, -0.5])
    z2 = np.array([0.25, -1.0, 3.0])
    assert np.array_equal(j_op(mod, z1 + z2), j_op(mod, z1) + j_op(mod, z2))


def test_j_op_orthonormal_pair_anticommutator():
    mod = build_module(2, 4)
    z = np.array([1.0, 1.0])
    j = j_op(mod, z)
    assert np.max(np.abs(j @ j + 2.0 * np.eye(4))) < 1e-12


def test_j_op_dimension_mismatch():
    mod = build_module(2, 4)
    with pytest.raises(ValueError, match="shape"):
        j_op(mod, np.zeros(3))


# ---------------------------------------------------------------------------
# octonions
# ---------------------------------------------------------------------------

def test_octonion_left_mult_is_clifford_on_imaginaries():
    gens = [oct_left_mult_matrix(Octonion.basis(i)) for i in range(1, 8)]
    assert anticommutation_residual(np.stack(gens)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=16, max_size=16))
def test_octonion_norm_multiplicative(coords):
    x = Octonion(np.array(coords[:8]))
    y = Octonion(np.array(coords[8:]))
    assert abs((x * y).norm() - x.norm() * y.norm()) < 1e-9 * max(1.0, x.norm() * y.norm())


def test_octonion_conjugation_antiautomorphism():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = Octonion(rng.standard_normal(8))
        y = Octonion(rng.standard_normal(8))
        lhs = (x * y).conj()
        rhs = y.conj() * x.conj()
        assert np.max(np.abs(lhs.coords - rhs.coords)) < 1e-12


def test_octonion_not_associative():
    found = False
    for i in range(1, 8):
        for j in range(1, 8):
            for k in range(1, 8):
                a, b, c = (Octonion.basis(n) for n in (i, j, k))
                if np.max(np.abs(((a * b) * c - a * (b * c)).coords)) > 0.5:
                    found = True
    assert found


def j_from_octonions(z: Octonion, w: tuple[Octonion, Octonion],
                     imag_tol: float = 1e-12) -> tuple[Octonion, Octonion]:
    """The pair map (w1, w2) -> (z*w2, -conj(z)*w1) for purely imaginary z."""
    if abs(z.real) > imag_tol:
        raise ValueError(f"z must be purely imaginary, real part {z.real:.3e}")
    w1, w2 = w
    return (z * w2, -(z.conj() * w1))


def test_j_from_octonions_basis_example():
    z = Octonion.basis(1)
    out1, out2 = j_from_octonions(z, (Octonion.basis(0), Octonion.zero()))
    assert np.allclose(out1.coords, 0.0)
    assert np.allclose(out2.coords, Octonion.basis(1).coords)


def test_j_from_octonions_rejects_real_part():
    with pytest.raises(ValueError, match="imaginary"):
        j_from_octonions(Octonion.basis(0), (Octonion.basis(1), Octonion.zero()))


def test_j_from_octonions_norm():
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = rng.standard_normal(8)
        z[0] = 0.0
        zo = Octonion(z)
        w1, w2 = Octonion(rng.standard_normal(8)), Octonion(rng.standard_normal(8))
        o1, o2 = j_from_octonions(zo, (w1, w2))
        norm_in = np.sqrt(w1.norm() ** 2 + w2.norm() ** 2)
        norm_out = np.sqrt(o1.norm() ** 2 + o2.norm() ** 2)
        assert abs(norm_out - zo.norm() * norm_in) < 1e-12 * max(1.0, norm_out)


# ---------------------------------------------------------------------------
# symmetric space detection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d_z,d_v,flags,expected", [
    (1, 2, None, True),
    (2, 4, None, False),
    (7, 8, None, True),
    (3, 4, (1,), True),
    (3, 4, (-1,), True),
    (3, 8, (1, 1), True),
    (3, 8, (1, -1), False),
    (5, 8, None, False),
])
def test_is_symmetric_space(d_z, d_v, flags, expected):
    assert is_symmetric_space(build_module(d_z, d_v, flags)) is expected
