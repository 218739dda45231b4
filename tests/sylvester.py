"""Reference oracles for the test suite: the Sylvester resultant over the
exact polynomial ring.

``mpoly_resultant`` builds the Sylvester matrix of two ``MPoly`` in one
variable and takes its determinant by fraction-free (Bareiss) elimination,
with no use of the roots of either polynomial.  The ledger's cubic norm is
checked against it.
"""

from __future__ import annotations

from drgeom.numkernel import MPoly


def mpoly_resultant(a: MPoly, b: MPoly, var: str) -> MPoly:
    """Resultant of a and b with respect to ``var`` (Sylvester determinant)."""
    vs, a, b = a._aligned(b)
    m, n = a.degree(var), b.degree(var)
    if m == 0 and n == 0:
        raise ValueError("both polynomials are constant in the resultant variable")
    ac = [a.coeff_of(var, k) for k in range(m, -1, -1)]
    bc = [b.coeff_of(var, k) for k in range(n, -1, -1)]
    size = m + n
    rows: list[list[MPoly]] = []
    zero = MPoly.zero(vs)
    for i in range(n):
        rows.append([zero] * i + ac + [zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([zero] * i + bc + [zero] * (size - n - 1 - i))
    return det_bareiss(rows)


def det_bareiss(rows: list[list[MPoly]]) -> MPoly:
    """Fraction-free determinant over the polynomial ring."""
    n = len(rows)
    m = [row[:] for row in rows]
    sign = 1
    prev = MPoly.constant(1, rows[0][0].variables if n else ())
    for k in range(n - 1):
        if m[k][k].is_zero:
            for r in range(k + 1, n):
                if not m[r][k].is_zero:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return MPoly.zero(rows[0][0].variables)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                q = num.divexact(prev)
                if q is None:  # Bareiss guarantees exactness; belt and braces
                    raise ArithmeticError("fraction-free elimination failed")
                m[i][j] = q
            m[i][k] = MPoly.zero(m[i][k].variables)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det
