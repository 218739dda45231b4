"""Reference oracle for the test suite: the eigenvector families one vector at a time.

``center_family_vector`` builds one center family vector from its own
J_{|Y| K Z - s Z} V, and ``psi_image`` one psi_l image after locating the
K^2 eigenvalue mu of its argument and solving that mu's cubic afresh.
``drgeom.spectrum.eigen_families`` and ``psi_map`` form each shared term
once per center vector and must return exactly these vectors.
"""

from __future__ import annotations

import numpy as np

from drgeom.spectrum import NormalFrame, alpha_cubic


def center_family_vector(frame: NormalFrame, z: np.ndarray, kind: str) -> np.ndarray:
    """(|V|^2 - 1) Z + J_{|Y| K Z - s Z} V ('minus1') or the quarter variant."""
    g = frame.g
    ny = float(np.linalg.norm(frame.y))
    kz = frame.k_apply(z)
    arg = ny * kz - frame.s * z
    jv = g.j_z(arg) @ frame.v
    if kind == "minus1":
        return g.vec(jv, (frame.vsq - 1.0) * z)
    if kind == "quarter":
        return g.vec(jv, frame.vsq * z)
    raise ValueError(f"unknown family kind {kind!r}")


def locate_mu(frame: NormalFrame, z: np.ndarray) -> float:
    """The K^2 eigenvalue mu != -1 whose eigenspace holds Z."""
    nz = np.linalg.norm(z)
    for mu, basis in frame.mu_clusters:
        proj = basis @ (basis.T @ z)
        if np.linalg.norm(z - proj) <= 1e-8 * nz:
            return mu
    raise ValueError("Z does not lie in a single K^2 eigenspace away from -1")


def psi_image(frame: NormalFrame, l: int, z: np.ndarray) -> np.ndarray:
    """psi_l(Z) = eta_l nu_l Z + 3 nu_l J_Z J_Y V - 9 |V|^2 |Y| J_{KZ} V - 3 s eta_l J_Z V
    with eta_l = 4 alpha_l + 1 and nu_l = eta_l + 3 |V|^2, for Z in one mu-eigenspace."""
    g = frame.g
    eta = alpha_cubic(locate_mu(frame, z), frame.vsq, frame.ysq)["etas"][l]
    nu = eta + 3.0 * frame.vsq
    ny = float(np.linalg.norm(frame.y))
    jyv = g.j_z(frame.y) @ frame.v
    kz = frame.k_apply(z)
    vec_v = (3.0 * nu * (g.j_z(z) @ jyv) - 9.0 * frame.vsq * ny * (g.j_z(kz) @ frame.v)
             - 3.0 * frame.s * eta * (g.j_z(z) @ frame.v))
    return g.vec(vec_v, eta * nu * z)
