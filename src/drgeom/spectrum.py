"""Spectral decomposition of the normal Jacobi operator.

A NormalFrame packages a unit normal xi = V + Y + sA together with the
derived subspaces: the four-dimensional core span(A, V, Y, J_Y V), the
commutant p of (V, J_Y V) inside v, the (-1)-eigenspace of K^2 in the
center, and the distinguished unit vectors T0 and Q.  The full predicted
spectrum of the Jacobi operator along xi consists of -1, -1/4 and, for
each K^2-eigenvalue mu != -1, a triple of roots of a shifted cubic; the
explicit eigenvector families are certified against the assembled operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .curvature import CurvatureContext
from .dralgebra import DamekRicci, is_minus1
from .numkernel import (EigenDecomposition, MPoly, cluster_indices, complete_basis, eig_sym,
                        orthonormalize, poly_eval_fraction, rational_bisect)


@dataclass(frozen=True)
class NormalFrame:
    """Unit normal data (V, Y, s) with derived subspaces, all precomputed."""

    g: DamekRicci
    v: np.ndarray
    y: np.ndarray
    s: float
    # derived, filled by make_frame
    xi: np.ndarray = field(repr=False, default=None)
    t0: np.ndarray = field(repr=False, default=None)
    q_vec: np.ndarray = field(repr=False, default=None)
    s4: np.ndarray = field(repr=False, default=None)
    p_basis: np.ndarray = field(repr=False, default=None)
    z_minus1: np.ndarray = field(repr=False, default=None)
    k_matrix: np.ndarray = field(repr=False, default=None)
    k_basis: np.ndarray = field(repr=False, default=None)
    mu_clusters: tuple = ()

    @property
    def vsq(self) -> float:
        return float(self.v @ self.v)

    @property
    def ysq(self) -> float:
        return float(self.y @ self.y)

    @property
    def d_minus1(self) -> int:
        return self.z_minus1.shape[1]

    @property
    def d_p(self) -> int:
        return self.p_basis.shape[1]

    def k_apply(self, z: np.ndarray) -> np.ndarray:
        """K_{V,Y} of a center vector lying in Y-perp."""
        return self.k_basis @ (self.k_matrix @ (self.k_basis.T @ z))


def make_frame(g: DamekRicci, v: np.ndarray, y: np.ndarray, s: float) -> NormalFrame:
    """Build a NormalFrame, validating |xi| = 1 and deriving all subspaces."""
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    norm = float(v @ v + y @ y + s * s)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"|xi|^2 = {norm} is not 1 within 1e-09")
    xi = g.vec(v, y, s)
    nv, ny = float(np.linalg.norm(v)), float(np.linalg.norm(y))
    jyv = g.j_z(y) @ v if ny > 0 else np.zeros(g.d_v)

    t0 = None
    if ny > 0 and nv > 0:
        t0 = g.vec(jyv, s * y, -(ny ** 2)) / ny
    q_vec = None
    if nv > 0:
        q_vec = g.vec(s * v, None, -(nv ** 2)) / nv

    cols = [g.vec(a=1.0), g.vec(v)]
    if ny > 0:
        cols.append(g.vec(z=y))
        if nv > 0:
            cols.append(g.vec(jyv))
    s4 = orthonormalize(cols)

    # p = kernel of U -> ([U, V], [U, J_Y V]) via rank-revealing SVD;
    # with Y = 0 the commutant is additionally cut down to V-perp
    if nv > 0:
        rows = [ (g.module.generators[i] @ v) for i in range(g.d_z) ]
        if ny > 0:
            rows += [ (g.module.generators[i] @ jyv) for i in range(g.d_z) ]
        else:
            rows.append(v)
        mat = np.stack(rows)
        _, sing, vh = np.linalg.svd(mat)
        rank = int(np.sum(sing > 1e-9))
        p_basis = vh[rank:].T if rank < g.d_v else np.zeros((g.d_v, 0))
    else:
        p_basis = np.eye(g.d_v)

    if nv > 0 and ny > 0:
        k_matrix, k_basis, vals, vecs = g.k_square_eigh(v, y)
        z_minus1 = k_basis @ vecs[:, is_minus1(vals)]
        mu_clusters = []
        for c in cluster_indices(list(vals)):
            mu = float(np.mean(vals[list(c)]))
            if is_minus1(mu):
                continue
            mu_clusters.append((mu, k_basis @ vecs[:, list(c)]))
    else:
        k_matrix = np.zeros((0, 0))
        k_basis = np.zeros((g.d_z, 0))
        z_minus1 = np.zeros((g.d_z, 0))
        mu_clusters = []

    return NormalFrame(g, v, y, float(s), xi=xi, t0=t0, q_vec=q_vec, s4=s4,
                       p_basis=p_basis, z_minus1=z_minus1,
                       k_matrix=k_matrix, k_basis=k_basis,
                       mu_clusters=tuple(mu_clusters))


def random_frame(g: DamekRicci, rng: np.random.Generator) -> NormalFrame:
    """Generic unit normal whose three components each have squared norm >= 0.05."""
    while True:
        v = rng.standard_normal(g.d_v)
        y = rng.standard_normal(g.d_z)
        s = float(rng.standard_normal())
        x = np.concatenate([v, y, [s]])
        x /= np.linalg.norm(x)
        v, y, s = x[:g.d_v], x[g.d_v:-1], float(x[-1])
        if min(v @ v, y @ y, s * s) >= 0.05:
            return make_frame(g, v, y, s)


# ---------------------------------------------------------------------------
# cubic eigenvalue families
# ---------------------------------------------------------------------------

def _cubic_brackets(coeffs, cuts) -> tuple[list[tuple[Fraction, Fraction]], list[float]]:
    """One root bracket per interval between consecutive ``cuts`` of the cubic
    with ascending ``coeffs``, each one exact integer bisection (``rational_bisect``)
    of its interval to width 1e-15 with no float shortcut, and their float midpoints."""
    brackets = [rational_bisect(coeffs, lo, hi, Fraction(1, 10 ** 15))
                for lo, hi in zip(cuts, cuts[1:])]
    return brackets, [float((lo + hi) / 2) for lo, hi in brackets]


def alpha_cubic(mu: float, v: float, y: float) -> dict:
    """The three Jacobi eigenvalues of a mu-family, in exact brackets.

    They solve (alpha+1)(alpha+1/4)^2 = 27/64 v^2 y (1+mu); the substitution
    eta = 4 alpha + 1 turns this into eta^2(eta+3) = q with
    q = 27 v^2 y (1+mu).  The cuts -3, -2, 0, 1 separate its three simple
    roots, and each bracket of eta is one exact ``_cubic_brackets`` bisection
    of its cut interval.  ``xi_spectrum`` solves it once per K^2 cluster.
    """
    if -1e-9 < mu <= 1e-9:
        mu = 0.0  # numerical noise around the kernel eigenvalue
    if not (-1.0 < mu <= 0.0):
        raise ValueError(f"mu = {mu} outside (-1, 0]; the -1 family is handled separately")
    if not (v > 0 and y > 0 and v + y < 1):
        raise ValueError(f"need v, y > 0 and v + y < 1, got v={v}, y={y}")
    q = Fraction(27) * Fraction(v) ** 2 * Fraction(y) * (1 + Fraction(mu))
    # p(t) = t^3 + 3 t^2 - q, roots in (-3,-2), (-2,0), (0,1)
    brackets, etas = _cubic_brackets([-q, 0, 3, 1], [-3, -2, 0, 1])
    alphas = [(e - 1.0) / 4.0 for e in etas]
    return {"q": q, "etas": etas, "alphas": alphas, "brackets": brackets}


def eta_alpha_exact_identity() -> bool:
    """p(4a+1) == 64 (a+1)(a+1/4)^2 - q as an exact polynomial identity."""
    a, q = MPoly.symbols("a q")
    t = 4 * a + 1
    p_shifted = t ** 3 + 3 * t ** 2 - q
    target = 64 * (a + 1) * (a + Fraction(1, 4)) ** 2 - q
    return (p_shifted - target).is_zero


def f_cubic_roots(q: float) -> dict:
    """Roots of f(t) = t^3 + 3/2 t^2 + 9/16 t + q^2 with interlacing proof.

    Valid for q in (0, 1/4); returns the three roots with the certified
    chain -1 < a1 < -3/4 < a2 < -1/4 < a3 <= 0 and the exact sign
    certificates f(0) > 0 and f(-q) < 0 that place a3 inside (-q, 0).
    Each bracket is one exact ``_cubic_brackets`` bisection of its cut interval.
    """
    qf = Fraction(q)
    if not (0 < qf < Fraction(1, 4)):
        raise ValueError(f"q = {q} outside (0, 1/4)")
    coeffs = [qf ** 2, Fraction(9, 16), Fraction(3, 2), Fraction(1)]
    brackets, roots = _cubic_brackets(coeffs, [-1, Fraction(-3, 4), Fraction(-1, 4), 0])
    f0 = qf ** 2
    f_minus_q = -qf * (qf - Fraction(9, 4)) * (qf - Fraction(1, 4))
    if poly_eval_fraction(coeffs, -qf) != f_minus_q:
        raise ArithmeticError(f"f(-q) disagrees with its factored form at q = {q}")
    return {"roots": roots, "brackets": tuple(brackets),
            "f_at_0": f0, "f_at_minus_q": f_minus_q,
            "certificate": bool(f0 > 0 and f_minus_q < 0)}


# ---------------------------------------------------------------------------
# eigenvector families
# ---------------------------------------------------------------------------

def eigen_families(frame: NormalFrame) -> dict[str, tuple[float, list[np.ndarray]]]:
    """The explicit eigenvector families along xi: name -> (eigenvalue, vectors).

    Fully generic frame (V, Y, s nonzero): T0 and the center family
    (|V|^2 - 1) Z + J_W V for -1; span(A, V, Y, J_Y V) minus span(xi, T0),
    the center family |V|^2 Z + J_W V and the commutant p for -1/4, with
    W = |Y| K Z - s Z for each Z of the (-1)-eigenspace of K^2.  With Y = 0:
    the lines J_Z V + s Z (-1) and -s J_Z V + |V|^2 Z (-1/4) for each center
    axis Z, then Q and p (-1/4).  Any other frame has no explicit families.
    """
    g = frame.g
    nv, ny, s = np.sqrt(frame.vsq), float(np.linalg.norm(frame.y)), frame.s
    p_vecs = [g.vec(frame.p_basis[:, i]) for i in range(frame.d_p)]
    if ny > 1e-13 and nv > 1e-13 and abs(s) > 1e-13:
        jws = [(z, g.j_z(ny * frame.k_apply(z) - s * z) @ frame.v) for z in frame.z_minus1.T]
        rest = orthonormalize([frame.s4[:, i] - frame.xi * (frame.xi @ frame.s4[:, i])
                               - frame.t0 * (frame.t0 @ frame.s4[:, i])
                               for i in range(frame.s4.shape[1])])
        return {"t0": (-1.0, [frame.t0]),
                "center_minus1": (-1.0, [g.vec(jw, (frame.vsq - 1.0) * z) for z, jw in jws]),
                "s4_quarter": (-0.25, [rest[:, i] for i in range(rest.shape[1])]),
                "center_quarter": (-0.25, [g.vec(jw, frame.vsq * z) for z, jw in jws]),
                "p_quarter": (-0.25, p_vecs)}
    if nv > 1e-13 and abs(s) > 1e-13:
        jzvs = [(z, g.j_z(z) @ frame.v) for z in np.eye(g.d_z)]
        return {"line_minus1": (-1.0, [g.vec(jzv, s * z) for z, jzv in jzvs]),
                "line_quarter": (-0.25, [g.vec(-s * jzv, frame.vsq * z) for z, jzv in jzvs]),
                "q_quarter": (-0.25, [frame.q_vec]),
                "p_quarter": (-0.25, p_vecs)}
    return {}


def psi_map(frame: NormalFrame, basis: np.ndarray, etas: list[float]) -> list[list[np.ndarray]]:
    """The homotheties from one mu-eigenspace of K^2 onto its cubic families.

    psi_l(Z) = eta_l nu_l Z + 3 nu_l J_Z J_Y V - 9 |V|^2 |Y| J_{KZ} V
               - 3 s eta_l J_Z V  with eta_l = 4 alpha_l + 1,
    nu_l = eta_l + 3 |V|^2, for each column Z of ``basis`` (the mu-eigenspace)
    and each eta_l of ``etas`` (that mu's cubic); returns images[l][column].
    """
    g, vsq, s = frame.g, frame.vsq, frame.s
    ny = float(np.linalg.norm(frame.y))
    jyv = g.j_z(frame.y) @ frame.v
    terms = []
    for z in basis.T:
        jz = g.j_z(z)
        terms.append((z, jz @ jyv, g.j_z(frame.k_apply(z)) @ frame.v, jz @ frame.v))
    images = []
    for eta in etas:
        nu = eta + 3.0 * vsq
        images.append([g.vec(3.0 * nu * jzjyv - 9.0 * vsq * ny * jkzv - 3.0 * s * eta * jzv,
                             eta * nu * z) for z, jzjyv, jkzv, jzv in terms])
    return images


def psi_homothety_ratio(frame: NormalFrame, eta: float, mu: float) -> float:
    """Closed-form |psi_l(Z)|^2 / |Z|^2 for Z in the mu-eigenspace, eta = eta_l."""
    v, y = frame.vsq, frame.ysq
    nu = eta + 3.0 * v
    return ((eta * nu) ** 2 + 9.0 * nu ** 2 * y * v - 81.0 * mu * v ** 3 * y
            + 9.0 * frame.s ** 2 * eta ** 2 * v + 54.0 * mu * nu * v ** 2 * y)


# ---------------------------------------------------------------------------
# full spectral report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: np.ndarray
    clusters: tuple
    predicted: np.ndarray
    match_residual: float
    certificate_residuals: dict
    dims: dict
    basis_perp: np.ndarray = field(repr=False, default=None)
    jacobi_perp: np.ndarray = field(repr=False, default=None)

    @property
    def complete(self) -> bool:
        return self.predicted.shape == self.eigenvalues.shape


def normal_jacobi(frame: NormalFrame, ctx: CurvatureContext
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, EigenDecomposition]:
    """The Jacobi operator along xi and its restriction to xi-perp.

    Returns (R_xi in ambient coordinates, orthonormal basis of xi-perp as
    columns, R_xi in that basis, its ``eig_sym`` decomposition).
    """
    jac = ctx.jacobi(frame.xi)
    perp = complete_basis(frame.g.dim, frame.xi[:, None])
    jac_perp = perp.T @ jac @ perp
    return jac, perp, jac_perp, eig_sym(jac_perp)


def xi_spectrum(frame: NormalFrame, ctx: CurvatureContext) -> SpectralReport:
    """Numeric spectrum of the Jacobi operator on xi-perp plus certificates.

    Every vector of ``eigen_families`` is checked as an eigenvector
    certificate; for a fully generic frame (V, Y, s all nonzero) so is every
    psi_l image, with ``alpha_cubic`` solved once per K^2 cluster.  A frame
    without families predicts nothing, so its report is not complete.
    """
    if abs(float(frame.xi @ frame.xi) - 1.0) > 1e-9:
        raise ValueError("xi is not a unit vector")
    jac, perp, jac_perp, dec = normal_jacobi(frame, ctx)
    preds: list[float] = []
    certs: dict[str, float] = {}
    dims = {"d_p": frame.d_p, "d_minus1": frame.d_minus1}

    def cert(name: str, vec: np.ndarray, alpha: float):
        preds.append(alpha)
        nv_ = np.linalg.norm(vec)
        if nv_ == 0:
            return
        res = float(np.linalg.norm(jac @ vec - alpha * vec)) / nv_
        certs[name] = max(certs.get(name, 0.0), res)

    families = eigen_families(frame)
    for name, (alpha, vectors) in families.items():
        for vec in vectors:
            cert(name, vec, alpha)
    if "t0" in families:  # fully generic frame
        # each psi_l image is an eigenvector certificate, and its squared
        # norm is checked against the closed-form homothety ratio
        spread = 0.0
        for mu, basis in frame.mu_clusters:
            roots = alpha_cubic(mu, frame.vsq, frame.ysq)
            images = psi_map(frame, basis, roots["etas"])
            for l, (eta, alpha) in enumerate(zip(roots["etas"], roots["alphas"])):
                closed = psi_homothety_ratio(frame, eta, mu)
                for vec in images[l]:
                    cert(f"psi_{l}", vec, alpha)
                    ratio = float(np.linalg.norm(vec) ** 2)
                    spread = max(spread, abs(ratio - closed) / max(closed, 1e-30))
        certs["psi_homothety_spread"] = spread

    predicted = np.sort(np.asarray(preds))
    if predicted.shape == dec.eigenvalues.shape:
        match = float(np.max(np.abs(predicted - dec.eigenvalues)))
    else:
        match = float("inf")
    return SpectralReport(dec.eigenvalues, dec.clusters, predicted, match,
                          certs, dims, basis_perp=perp, jacobi_perp=jac_perp)
