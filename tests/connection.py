"""Reference oracle for the test suite: the Levi-Civita connection of a
Damek-Ricci space in closed form.

``nabla`` writes nabla_x y out block by block in the (v, z, A) coordinates,
seven terms in all.  The package builds its connection tensor from the
bracket tensor by the Koszul formula (``CurvatureContext.nabla_tensor``);
the tests check that tensor against this independent route.
"""

from __future__ import annotations

import numpy as np

from drgeom.dralgebra import DamekRicci


def nabla(g: DamekRicci, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The left-invariant covariant derivative nabla_x of y's extension.

    Seven-term closed form; metric-compatible and torsion-free against the
    algebra bracket.  It is the reference for the Koszul-built
    ``CurvatureContext.nabla_tensor``.
    """
    x, y = g._check(x), g._check(y)
    v1, z1 = x[g.sv], x[g.sz]
    v2, z2, s2 = y[g.sv], y[g.sz], y[g.ia]
    v_out = -0.5 * (g.j_z(z2) @ v1) - 0.5 * (g.j_z(z1) @ v2) - 0.5 * s2 * v1
    z_out = -0.5 * g.bracket_vz(v2, v1) - s2 * z1
    a_out = 0.5 * float(v2 @ v1) + float(z2 @ z1)
    return g.vec(v_out, z_out, a_out)
