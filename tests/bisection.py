"""Reference oracle for the test suite: bisection on ``Fraction``s.

``fraction_bisect`` halves [lo, hi] at the ``Fraction`` midpoint and takes
each sign from a ``Fraction`` Horner evaluation, one rational at a time.
``drgeom.numkernel.rational_bisect`` runs the same bisection on integers
over one denominator and must return exactly this pair.
"""

from __future__ import annotations

from fractions import Fraction

from drgeom.numkernel import poly_eval_fraction


def fraction_bisect(coeffs, lo, hi, max_width=Fraction(1, 10 ** 16)):
    """Bisection with exact sign evaluation; returns a bracketing interval.

    Requires lo < hi, a positive ``max_width`` and a strict sign change on
    [lo, hi]; an exact root hit collapses the bracket to a point.
    """
    lo, hi, max_width = Fraction(lo), Fraction(hi), Fraction(max_width)
    if max_width <= 0:
        raise ValueError(f"max_width must be positive, got {max_width}")
    if not lo < hi:
        raise ValueError(f"lo must be below hi, got lo = {lo}, hi = {hi}")
    flo = poly_eval_fraction(coeffs, lo)
    fhi = poly_eval_fraction(coeffs, hi)
    if flo == 0:
        return lo, lo
    if fhi == 0:
        return hi, hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        fm = poly_eval_fraction(coeffs, mid)
        if fm == 0:
            return mid, mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return lo, hi


def bisect_cuts(coeffs, cuts, max_width=Fraction(1, 10 ** 16)):
    """``fraction_bisect`` on each interval between consecutive cuts."""
    return [fraction_bisect(coeffs, lo, hi, max_width) for lo, hi in zip(cuts, cuts[1:])]
