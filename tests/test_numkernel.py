"""Kernel layer: eigensolver contract and the exact polynomial engine.

sympy serves as the independent oracle for reduction, elimination and
resultants; the bisection root finder is checked against numpy roots.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from drgeom.numkernel import (MPoly, NotSymmetricError, certified_brackets,
                              cluster_indices, complete_basis, eig_sym, mpoly_resultant,
                              orthonormalize, poly_eval_fraction, poly_reduce,
                              rational_bisect, symmetric_eliminate)


# ---------------------------------------------------------------------------
# eig_sym
# ---------------------------------------------------------------------------

def test_eig_identity_single_cluster():
    dec = eig_sym(np.eye(2))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0])
    assert dec.clusters == ((0, 1),)


def test_eig_diagonal_two_clusters():
    dec = eig_sym(np.diag([-1.0, -0.25, -0.25]))
    assert dec.clusters == ((0,), (1, 2))
    assert np.allclose(dec.cluster_values(), [-1.0, -0.25])


def test_eig_matches_bisection_roots_of_shifted_cubic():
    # eigenvalues prescribed as the bisection-oracle roots of
    # f(t) = t^3 + 3/2 t^2 + 9/16 t + q^2 at q = 0.1
    q = Fraction(1, 10)
    coeffs = [q * q, Fraction(9, 16), Fraction(3, 2), Fraction(1)]
    roots = []
    for lo, hi in [(-1, Fraction(-3, 4)), (Fraction(-3, 4), Fraction(-1, 4)),
                   (Fraction(-1, 4), 0)]:
        blo, bhi = rational_bisect(coeffs, lo, hi)
        roots.append(float((blo + bhi) / 2))
    rng = np.random.default_rng(3)
    qmat, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    m = qmat @ np.diag(roots) @ qmat.T
    dec = eig_sym(m)
    assert np.max(np.abs(dec.eigenvalues - np.array(roots))) < 1e-10


def test_eig_rejects_companion_matrix():
    # the companion matrix of the cubic is not symmetric
    comp = np.array([[0.0, 0.0, -0.01], [1.0, 0.0, -9 / 16], [0.0, 1.0, -1.5]])
    with pytest.raises(ValueError, match="asymmetry"):
        eig_sym(comp)


def test_eig_reports_max_asymmetry():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="1.000e"):
        eig_sym(m)


def test_eig_reconstruction_residual_bulk():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 33))
        a = rng.standard_normal((n, n))
        m = a + a.T
        dec = eig_sym(m)
        assert dec.residual <= 1e-10 * np.linalg.norm(m)
        assert sum(len(c) for c in dec.clusters) == n


def test_eig_cluster_basis_deterministic():
    m = np.diag([2.0, 2.0, 5.0])
    d1, d2 = eig_sym(m), eig_sym(m)
    assert np.array_equal(d1.vectors, d2.vectors)
    # the repeated eigenvalue's basis spans the coordinate plane
    b = d1.cluster_basis(0)
    assert np.allclose(b.T @ b, np.eye(2), atol=1e-12)
    assert np.allclose(b[2, :], 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# orthonormalize against the three Gram-Schmidt loops it replaced
# ---------------------------------------------------------------------------

def _loop_orthonormalize(cols, tol=1e-10):
    basis = []
    for w in cols:
        w = w.astype(float).copy()
        for b in basis:
            w -= (b @ w) * b
        nw = np.linalg.norm(w)
        if nw > tol:
            basis.append(w / nw)
    if not basis:
        return np.zeros((cols[0].shape[0] if cols else 0, 0))
    return np.column_stack(basis)


def _loop_cluster_basis(vecs):
    n, m = vecs.shape
    proj = vecs @ vecs.T
    basis = []
    for i in range(n):
        w = proj[:, i].copy()
        for b in basis:
            w -= (b @ w) * b
        nw = np.linalg.norm(w)
        if nw > 1e-8:
            basis.append(w / nw)
        if len(basis) == m:
            break
    if len(basis) != m:
        return vecs
    return np.column_stack(basis)


def _loop_complete_basis(n, cols):
    basis = [cols[:, i] for i in range(cols.shape[1])]
    for i in range(n):
        if len(basis) == n:
            break
        w = np.zeros(n)
        w[i] = 1.0
        for b in basis:
            w -= (b @ w) * b
        nw = np.linalg.norm(w)
        if nw > 1e-10:
            basis.append(w / nw)
    new = basis[cols.shape[1]:]
    return np.column_stack(new) if new else np.zeros((n, 0))


def _clustered_symmetric(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.round(rng.standard_normal(n) * 2) / 2  # repeated eigenvalues
    m = q @ np.diag(vals) @ q.T
    return 0.5 * (m + m.T), q


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_orthonormalize_equals_the_gram_schmidt_loops(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    cols = [rng.standard_normal(n) for _ in range(int(rng.integers(0, n + 3)))]
    if len(cols) > 1:  # a dependent vector and a near-zero one get dropped
        cols.insert(1, 2.0 * cols[0] - 1e-12 * cols[-1])
    assert np.array_equal(orthonormalize(cols), _loop_orthonormalize(cols))
    m, q = _clustered_symmetric(rng, n)
    k = int(rng.integers(0, n + 1))
    assert np.array_equal(complete_basis(n, q[:, :k]), _loop_complete_basis(n, q[:, :k]))
    # eig_sym's cluster bases against the loop on the same LAPACK blocks
    vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
    blocks = [vecs[:, list(c)] for c in cluster_indices(list(vals))]
    expect = np.hstack([b if b.shape[1] == 1 else _loop_cluster_basis(b) for b in blocks])
    assert np.array_equal(eig_sym(m).vectors, expect)


def test_orthonormalize_basis_and_limit():
    e = np.eye(3)
    out = orthonormalize(e, basis=[e[1]], limit=1)
    assert np.array_equal(out, e[:, [0]])
    assert orthonormalize([], basis=[e[0]]).shape == (0, 0)
    assert orthonormalize([np.zeros(3)]).shape == (3, 0)


# ---------------------------------------------------------------------------
# MPoly ring
# ---------------------------------------------------------------------------

def test_mpoly_basic_ring_ops():
    t, q = MPoly.symbols("t q")
    p = (t + q) * (t - q)
    assert p == t ** 2 - q ** 2
    assert (p - p).is_zero
    assert p.evaluate({"t": 3, "q": 2}) == Fraction(5)


def test_mpoly_substitute_polynomial():
    t, q = MPoly.symbols("t q")
    p = t ** 2 + q
    assert p.substitute("t", q + 1) == q ** 2 + 3 * q + 1


def test_mpoly_divexact():
    x, y = MPoly.symbols("x y")
    a = x ** 2 - y ** 2
    assert a.divexact(x - y) == x + y
    assert a.divexact(x + 1) is None


_RING = ("x", "y", "z")


@st.composite
def _mpolys(draw):
    """A polynomial over a random sub-ring of x, y, z, built by the public
    constructor from terms that may hold zero coefficients."""
    vs = draw(st.permutations(_RING))[:draw(st.integers(1, len(_RING)))]
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(vs)),
                                 st.integers(-2, 2) | st.fractions(-2, 2, max_denominator=3),
                                 max_size=5))
    return MPoly(vs, terms)


def _assert_clean(p: MPoly):
    assert all(type(c) is Fraction and c != 0 for c in p.terms.values())
    assert all(len(e) == len(p.variables) and all(type(x) is int for x in e)
               for e in p.terms)


@settings(max_examples=150, deadline=None)
@given(a=_mpolys(), b=_mpolys(), ring=st.permutations(_RING + ("w",)))
def test_mpoly_results_keep_the_invariant(a, b, ring):
    # a + (-a) and products with cancelling terms must drop every zero
    for p in (a + b, a - b, a + (-a), a * b, (a + b) * (a - b), -a, a.embed(ring),
              (a * b).embed(ring), a / Fraction(-3, 2), a.coeff_of(a.variables[0], 1)):
        _assert_clean(p)
        again = MPoly(p.variables, p.terms)
        assert again == p and hash(again) == hash(p)


def _to_sympy(p: MPoly):
    return sum((sp.Rational(c.numerator, c.denominator)
                * sp.Mul(*(sp.Symbol(v) ** e for v, e in zip(p.variables, exp)))
                for exp, c in p.terms.items()), sp.Integer(0))


# e1 and e2 of (ei, ej): polynomials over the parameter ring (ek, q), or rationals
_EK, _Q = MPoly.symbols("ek q")
_PAIR_VALUES = [(-3 - _EK, _EK ** 2 + 3 * _EK), (_Q, Fraction(2, 3) - _EK * _Q),
                (Fraction(-1, 2), 5)]


@settings(max_examples=40, deadline=None)
@given(f=st.dictionaries(st.tuples(*[st.integers(0, 2)] * 4), st.integers(-3, 3),
                         min_size=1, max_size=6),
       which=st.integers(0, len(_PAIR_VALUES) - 1),
       skew=st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)))
def test_symmetric_eliminate_over_a_parameter_ring_matches_sympy(f, which, skew):
    # expr = f(ei + ej, ei ej, ek, q): the terms of f with equal powers of
    # (e1, e2) and different parameter parts tie in the symmetric exponent
    ei, ej, ek, q = MPoly.symbols("ei ej ek q")
    gens = (ei + ej, ei * ej, ek, q)
    expr = MPoly.zero(ei.variables)
    for exp, c in f.items():
        term = MPoly.constant(c, ei.variables)
        for g, e in zip(gens, exp):
            term = term * g ** e
        expr = expr + term
    values = _PAIR_VALUES[which]
    out = symmetric_eliminate(expr, ("ei", "ej"), values)
    xi, xj = sp.symbols("ei ej")
    sym, rem, _ = sp.polys.polyfuncs.symmetrize(_to_sympy(expr), xi, xj, formal=True)
    vals = [_to_sympy(v) if isinstance(v, MPoly) else sp.Rational(v.numerator, v.denominator)
            for v in values]
    oracle = (sym + rem).subs({sp.Symbol("s1"): vals[0], sp.Symbol("s2"): vals[1]},
                              simultaneous=True)
    assert rem == 0
    assert sp.expand(_to_sympy(out) - oracle) == 0
    # one monomial without its mirror image makes the input non-symmetric
    a, b, c = skew
    if a != b and c:
        with pytest.raises(NotSymmetricError):
            symmetric_eliminate(expr + c * ei ** a * ej ** b * ek, ("ei", "ej"), values)


def test_poly_reduce_single_step():
    t, q = MPoly.symbols("t q")
    p = t ** 3 + 3 * t ** 2 - q
    assert poly_reduce(t ** 3, "t", p) == -3 * t ** 2 + q


def test_poly_reduce_self_is_zero():
    t, q = MPoly.symbols("t q")
    p = t ** 3 + 3 * t ** 2 - q
    assert poly_reduce(p, "t", p).is_zero


def test_poly_reduce_t4_vs_long_division_oracle():
    t, q = MPoly.symbols("t q")
    p = t ** 3 + 3 * t ** 2 - q
    reduced = poly_reduce(t ** 4, "t", p)
    assert reduced == 9 * t ** 2 + q * t - 3 * q
    ts, qs = sp.symbols("t q")
    oracle = sp.rem(sp.Poly(ts ** 4, ts), sp.Poly(ts ** 3 + 3 * ts ** 2 - qs, ts))
    assert sp.expand(oracle.as_expr() - (9 * ts ** 2 + qs * ts - 3 * qs)) == 0


def test_poly_reduce_rejects_non_monic():
    t, q = MPoly.symbols("t q")
    with pytest.raises(ValueError, match="monic"):
        poly_reduce(t ** 2, "t", 2 * t ** 2 + q)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(-4, 4)),
                min_size=1, max_size=6))
def test_poly_reduce_idempotent(terms):
    t, q = MPoly.symbols("t q")
    a = MPoly.zero(("t", "q"))
    for deg, coeff in terms:
        a = a + coeff * t ** deg * q ** (deg % 2)
    p = t ** 3 + 3 * t ** 2 - q
    once = poly_reduce(a, "t", p)
    assert poly_reduce(once, "t", p) == once


# ---------------------------------------------------------------------------
# symmetric elimination
# ---------------------------------------------------------------------------

def _etas():
    return MPoly.symbols("e1 e2 e3 q")


def test_symmetric_eliminate_vieta_sum():
    e1, e2, e3, q = _etas()
    assert symmetric_eliminate(e1 + e2 + e3, ("e1", "e2", "e3"),
                               [-3, 0, q]) == MPoly.constant(-3, ("q",))


def test_symmetric_eliminate_vieta_product():
    e1, e2, e3, q = _etas()
    out = symmetric_eliminate(e1 * e2 * e3, ("e1", "e2", "e3"), [-3, 0, q])
    assert out == MPoly.symbols("q")[0]


def test_symmetric_eliminate_power_sum():
    e1, e2, e3, q = _etas()
    out = symmetric_eliminate(e1 ** 2 + e2 ** 2 + e3 ** 2, ("e1", "e2", "e3"),
                              [-3, 0, q])
    assert out == MPoly.constant(9, ("q",))


def test_symmetric_eliminate_pair_with_root_relation():
    # sigma1 of a root pair, with the third root eliminated: -3 - eta_k
    ei, ej, ek = MPoly.symbols("ei ej ek")
    out = symmetric_eliminate(ei + ej, ("ei", "ej"), [-3 - ek, ek * (ek + 3)])
    assert out == -3 - MPoly.symbols("ek")[0]


def test_symmetric_eliminate_rejects_asymmetric():
    e1, e2, e3, q = _etas()
    with pytest.raises(NotSymmetricError):
        symmetric_eliminate(e1 - e2, ("e1", "e2", "e3"), [-3, 0, q])


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 2))
def test_symmetric_eliminate_matches_sympy(p1, p2, p3):
    # random symmetric polynomial e1^p1 * powersum(p2) + e3^p3 against sympy
    e1, e2, e3, q = _etas()
    expr = ((e1 + e2 + e3) ** p1
            + (e1 ** p2 + e2 ** p2 + e3 ** p2)
            + (e1 * e2 * e3) ** p3)
    out = symmetric_eliminate(expr, ("e1", "e2", "e3"), [-3, 0, q])
    x1, x2, x3, qs = sp.symbols("x1 x2 x3 q")
    sexpr = ((x1 + x2 + x3) ** p1 + (x1 ** p2 + x2 ** p2 + x3 ** p2)
             + (x1 * x2 * x3) ** p3)
    res = sp.polys.polyfuncs.symmetrize(sexpr, x1, x2, x3, formal=True)
    oracle = res[0].subs({sp.Symbol("s1"): -3, sp.Symbol("s2"): 0,
                          sp.Symbol("s3"): qs})
    mine = out.evaluate({"q": Fraction(7, 3)})
    theirs = sp.Rational(sp.nsimplify(oracle.subs(qs, sp.Rational(7, 3))))
    assert mine == Fraction(theirs.p, theirs.q)


# ---------------------------------------------------------------------------
# resultant and bisection
# ---------------------------------------------------------------------------

def test_resultant_matches_sympy():
    t, a, b = MPoly.symbols("t a b")
    p1 = t ** 3 + a * t + b
    p2 = 2 * t ** 2 + t + a
    res = mpoly_resultant(p1, p2, "t")
    ts, As, Bs = sp.symbols("t a b")
    oracle = sp.resultant(ts ** 3 + As * ts + Bs, 2 * ts ** 2 + ts + As, ts)
    for av, bv in [(2, 3), (-1, 5), (0, 1), (7, -2)]:
        mine = res.evaluate({"a": av, "b": bv})
        theirs = oracle.subs({As: av, Bs: bv})
        assert mine == Fraction(int(theirs))


def test_rational_bisect_exact_signs():
    # p(t) = t^2 - 2: bracket sqrt(2)
    lo, hi = rational_bisect([-2, 0, 1], 1, 2, Fraction(1, 10 ** 20))
    assert lo < hi
    assert poly_eval_fraction([-2, 0, 1], lo) < 0 < poly_eval_fraction([-2, 0, 1], hi)
    assert abs(float((lo + hi) / 2) - np.sqrt(2)) < 1e-15


def test_rational_bisect_needs_sign_change():
    with pytest.raises(ValueError, match="sign change"):
        rational_bisect([1, 0, 1], 0, 1)


def test_certified_brackets_fall_back_on_an_exact_root():
    # p(t) = t^3 + 3 t^2 - 2 has the root -1, the first midpoint of [-2, 0]
    coeffs, cuts = [-2, 0, 3, 1], [-3, -2, 0, 1]
    width = Fraction(1, 10 ** 15)
    out = certified_brackets(coeffs, cuts, width)
    assert out[1] == (Fraction(-1), Fraction(-1))
    assert out == [rational_bisect(coeffs, lo, hi, width)
                   for lo, hi in zip(cuts, cuts[1:])]


def test_certified_brackets_without_alternation_match_bisection():
    # t^2 - 2 on three cuts: degree 2 and signs -, +, + do not certify
    coeffs, cuts = [-2, 0, 1], [0, 2, 3]
    with pytest.raises(ValueError, match="sign change"):
        certified_brackets(coeffs, cuts)
    assert (certified_brackets([-2, 0, 1], [1, 2], Fraction(1, 10 ** 20))
            == [rational_bisect([-2, 0, 1], 1, 2, Fraction(1, 10 ** 20))])
