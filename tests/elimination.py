"""Reference oracle for the test suite: elimination of symmetric variables
through their elementary symmetric functions.

``symmetric_eliminate`` rewrites a polynomial symmetric in some variables as
a polynomial in e_1..e_k of those variables (leading symmetric monomial
first) and substitutes given values for the e_j, with no use of the roots
of any polynomial.  The ledger's eliminations over the center cubic's roots
are checked against it.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from drgeom.numkernel import MPoly


class NotSymmetricError(ValueError):
    """Raised when an expression is not symmetric in the requested variables."""

    def __init__(self, residue: MPoly):
        self.residue = residue
        super().__init__(f"non-symmetric residue: {residue!r}")


def elementary_symmetric(variables: Sequence[MPoly]) -> list[MPoly]:
    """e_1..e_k of the given variable polynomials."""
    # coefficients of t^j in prod (1 + x_i t), one factor at a time
    coeffs = [MPoly.constant(1, variables[0].variables)]
    for x in variables:
        coeffs = [a + b * x for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs[1:]


def symmetric_eliminate(expr: MPoly, sym_vars: Sequence[str],
                        elem_values: Sequence) -> MPoly:
    """Rewrite a polynomial symmetric in ``sym_vars`` via elementary symmetric
    functions and substitute their values, removing the variables entirely.

    ``elem_values`` supplies e_1..e_k (rationals or polynomials in the other
    variables).  Non-symmetric input raises NotSymmetricError carrying the
    offending residue.
    """
    sym_vars = tuple(sym_vars)
    k = len(sym_vars)
    vs = expr.variables + tuple(v for v in sym_vars if v not in expr.variables)
    expr = expr.embed(vs)
    idx = [vs.index(v) for v in sym_vars]
    elems = elementary_symmetric(
        [MPoly(vs, {tuple(int(j == i) for j in range(len(vs))): 1}) for i in idx])
    values = [val if isinstance(val, MPoly) else MPoly.constant(val, vs)
              for val in elem_values]
    if len(values) != k:
        raise ValueError(f"need {k} elementary symmetric values, got {len(values)}")

    def key(e):  # negated: the heap's smallest key is the largest (symmetric exponents, e)
        return tuple(-e[i] for i in idx), tuple(-x for x in e), e

    # every term of work with a symmetric part has a key in the heap; a popped
    # key whose term has since cancelled is skipped
    heap = [key(e) for e in expr.terms if any(e[i] for i in idx)]
    heapq.heapify(heap)
    work = dict(expr.terms)
    result = MPoly.zero(vs)
    # the products of e_j (generators, values) for each symmetric exponent
    prods: dict[tuple[int, ...], tuple[MPoly, MPoly]] = {}
    while heap:
        full_exp = heapq.heappop(heap)[2]
        c = work.get(full_exp)
        if c is None:
            continue
        sym_exp = tuple(full_exp[i] for i in idx)
        if any(sym_exp[i] < sym_exp[i + 1] for i in range(k - 1)):
            raise NotSymmetricError(MPoly(vs, work))
        if sym_exp not in prods:
            gen = val = MPoly.constant(1, vs)
            for j, power in enumerate(a - b for a, b in zip(sym_exp, sym_exp[1:] + (0,))):
                if power:
                    gen = gen * elems[j] ** power
                    val = val * values[j] ** power
            prods[sym_exp] = gen, val
        gen, val = prods[sym_exp]
        rest = MPoly(vs, {tuple(0 if i in idx else e for i, e in enumerate(full_exp)): c})
        # every term of rest * gen but the leading one (which cancels c x^full_exp)
        # has smaller symmetric exponents
        for e, d in (rest * gen).terms.items():
            prev = work.get(e)
            if prev is None:
                work[e] = -d
                if any(e[i] for i in idx):
                    heapq.heappush(heap, key(e))
            elif prev == d:
                del work[e]
            else:
                work[e] = prev - d
        result = result + rest * val
    result = result + MPoly(vs, work)
    if any(e[i] for e in result.terms for i in idx):
        raise NotSymmetricError(result)
    keep = [i for i, v in enumerate(result.variables) if v not in sym_vars]
    return MPoly([result.variables[i] for i in keep],
                 {tuple(e[i] for i in keep): c for e, c in result.terms.items()})
