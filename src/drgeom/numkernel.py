"""Numeric and exact-rational kernels.

Two independent layers live here: a thin symmetric-eigensolver wrapper with
deterministic eigenvalue clustering (and a least-squares solver), and a sparse
multivariate polynomial over exact rationals (arbitrary-precision, no floating
point) supporting reduction modulo a relation monic in one variable.  Everything
is immutable after construction and safe to map over parameter grids in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

SYM_TOL = 1e-12
CLUSTER_TOL = 1e-7


# ---------------------------------------------------------------------------
# symmetric eigensolver with clustering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenDecomposition:
    """Sorted spectrum of a symmetric operator with gap-clustering.

    ``vectors[:, i]`` is the eigenvector for ``eigenvalues[i]``; within each
    cluster the basis is re-derived by Gram-Schmidt against coordinate order,
    so it does not depend on LAPACK's arbitrary choice inside multiplicities.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    clusters: tuple[tuple[int, ...], ...]
    residual: float

    def cluster_values(self) -> list[float]:
        return [float(np.mean(self.eigenvalues[list(c)])) for c in self.clusters]

    def cluster_basis(self, k: int) -> np.ndarray:
        return self.vectors[:, list(self.clusters[k])]


def cluster_indices(values: Sequence[float]) -> tuple[tuple[int, ...], ...]:
    """Group indices of sorted values into chains with consecutive gap <= CLUSTER_TOL."""
    clusters: list[list[int]] = []
    for i, x in enumerate(values):
        if clusters and abs(x - values[clusters[-1][-1]]) <= CLUSTER_TOL:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return tuple(tuple(c) for c in clusters)


def orthonormalize(cols, tol: float = 1e-10, basis=(), limit: int | None = None) -> np.ndarray:
    """Gram-Schmidt of ``cols`` in order, against ``basis`` and each other.

    ``basis`` holds orthonormal vectors to project out first; they are not
    returned.  A vector whose remainder has norm at most ``tol`` is dropped,
    and the pass stops once ``limit`` new vectors are kept.  Returns the new
    vectors as columns, an (n, 0) block when none is kept.
    """
    basis = list(basis)
    new: list[np.ndarray] = []
    for w in cols:
        if limit is not None and len(new) >= limit:
            break
        w = w.astype(float)
        for b in basis + new:
            w -= (b @ w) * b
        nw = np.linalg.norm(w)
        if nw > tol:
            new.append(w / nw)
    return np.column_stack(new) if new else np.zeros((len(cols[0]) if len(cols) else 0, 0))


def complete_basis(n: int, cols: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal completion of orthonormal columns in R^n.

    Gram-Schmidt over the coordinate axes; returns only the new columns,
    an (n, 0) block when ``cols`` already spans R^n.
    """
    return orthonormalize(np.eye(n), basis=cols.T, limit=n - cols.shape[1])


def eig_sym(m: np.ndarray) -> EigenDecomposition:
    """Spectral decomposition of a symmetric matrix, rejecting an asymmetry
    above SYM_TOL; eigenvalues chain into clusters by ``cluster_indices``."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size:
        asym = float(np.max(np.abs(m - m.T)))
        if asym > SYM_TOL:
            raise ValueError(f"matrix is not symmetric: max asymmetry {asym:.3e} > {SYM_TOL:.3e}")
    if m.size == 0:
        return EigenDecomposition(np.zeros(0), np.zeros((0, 0)), (), 0.0)
    m = 0.5 * (m + m.T)
    vals, vecs = np.linalg.eigh(m)
    clusters = cluster_indices(list(vals))
    cols = []
    for c in clusters:
        block = vecs[:, list(c)]
        if len(c) > 1:
            # Gram-Schmidt the coordinate axes projected onto the cluster
            proj = block @ block.T
            axes = orthonormalize(proj.T, tol=1e-8, limit=len(c))
            if axes.shape[1] == len(c):  # else a pathological projector: keep LAPACK's
                block = axes
        cols.append(block)
    vecs = np.hstack(cols)
    residual = float(np.linalg.norm(m - vecs @ np.diag(vals) @ vecs.T))
    return EigenDecomposition(vals, vecs, clusters, residual)


_MAX_DAMP = np.finfo(float).max / 10.0  # one more tenfold growth would overflow


def levenberg_marquardt(model, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, r) at least-squares local minima of B problems run in lockstep, in plain numpy.

    ``x0`` is (B, p); ``model(x, rows) = (r, J)`` evaluates problems ``rows`` at the rows of x,
    r (len(rows), m) and J (len(rows), m, p), so each round is one call on the live problems.
    Each runs exactly as it would alone: steps solve [J; sqrt(mu) I] dx = [-r; 0]; mu starts
    at 1e-3 max |J e_k|^2 and shrinks or grows tenfold as |r|^2 falls or not.  A problem stops
    on a relative change of |r|^2 or x within 1e-12, when mu would pass _MAX_DAMP (every step
    is rejected at a stationary point), or after its own budget of 100 p model calls (MINPACK's).
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 2 or not len(x0):
        raise ValueError(f"x0 has shape {x0.shape}, expected (problems >= 1, parameters)")
    p = x0.shape[1]
    eye, zeros, live = np.eye(p), np.zeros(p), np.arange(len(x0))
    x, (r, jm) = list(x0), _rows_of(model, x0, live)
    cost, damp = [rb @ rb for rb in r], [1e-3 * np.max(np.sum(jb * jb, axis=0)) for jb in jm]
    for _ in range(100 * p - 1):
        steps = [np.linalg.lstsq(np.vstack([jm[b], np.sqrt(damp[b]) * eye]),
                                 np.concatenate([-r[b], zeros]))[0] for b in live]
        trial_x = np.stack([x[b] + step for b, step in zip(live, steps)])
        going = []
        for b, step, xb, rb, jb in zip(live, steps, trial_x, *_rows_of(model, trial_x, live)):
            trial = rb @ rb
            if not trial < cost[b]:  # also rejects a NaN residual
                if damp[b] <= _MAX_DAMP:
                    damp[b] *= 10.0
                    going.append(b)
                continue
            stop = (cost[b] - trial <= 1e-12 * cost[b]
                    or np.linalg.norm(step) <= 1e-12 * np.linalg.norm(x[b]))
            x[b], r[b], jm[b], cost[b], damp[b] = xb, rb, jb, trial, damp[b] / 10.0
            if not stop:
                going.append(b)
        live = np.array(going, dtype=int)
        if not going:
            break
    return np.stack(x), np.stack(r)


def _rows_of(model, x: np.ndarray, rows: np.ndarray) -> tuple[list, list]:
    """``model(x, rows)`` as per-problem lists of r and J, one entry per row asked."""
    r, jm = model(x, rows)
    if len(r) != len(rows) or len(jm) != len(rows):
        raise ValueError(f"model returned {len(r)} residual and {len(jm)} Jacobian rows "
                         f"for {len(rows)} problems")
    return list(r), list(jm)


# ---------------------------------------------------------------------------
# exact rational multivariate polynomials
# ---------------------------------------------------------------------------

RationalLike = Fraction | int


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary value of the float
    raise TypeError(f"cannot coerce {type(x).__name__} to an exact rational")


class MPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Terms map exponent tuples (aligned with ``variables``) to nonzero
    Fractions.  All arithmetic is exact; instances are immutable.

    Invariant: every instance has distinct variable names, every exponent
    is a tuple of ints of length ``len(variables)``, and every stored
    coefficient is a nonzero ``Fraction``.  ``MPoly(...)`` checks and
    normalizes outside input; the arithmetic builds its results from
    operands that already hold the invariant, so it goes through ``_new``,
    which only drops the zero coefficients that cancellation leaves.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], RationalLike]):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable names in {vs}")
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for exp, c in terms.items():
            c = _as_fraction(c)
            if c:
                exp = tuple(int(e) for e in exp)
                if len(exp) != len(vs):
                    raise ValueError("exponent length does not match variable count")
                cleaned[exp] = c
        self.variables = vs
        self.terms = cleaned

    @classmethod
    def _new(cls, vs: tuple[str, ...], terms: Mapping[tuple[int, ...], Fraction]) -> MPoly:
        """Trusted constructor: ``terms`` already has int-tuple exponents of
        length ``len(vs)`` and Fraction values; only zeros are dropped."""
        out = cls.__new__(cls)
        out.variables = vs
        out.terms = {e: c for e, c in terms.items() if c}
        return out

    # -- construction -------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> MPoly:
        return cls(variables, {})

    @classmethod
    def constant(cls, c, variables: Sequence[str] = ()) -> MPoly:
        vs = tuple(variables)
        return cls(vs, {tuple([0] * len(vs)): _as_fraction(c)})

    @classmethod
    def symbols(cls, names: str) -> tuple[MPoly, ...]:
        """Create variables sharing one ring, e.g. ``t, q = MPoly.symbols("t q")``."""
        vs = tuple(names.split())
        out = []
        for i in range(len(vs)):
            exp = [0] * len(vs)
            exp[i] = 1
            out.append(cls(vs, {tuple(exp): Fraction(1)}))
        return tuple(out)

    # -- ring structure -----------------------------------------------------

    def _aligned(self, other: MPoly) -> tuple[tuple[str, ...], MPoly, MPoly]:
        if self.variables == other.variables:
            return self.variables, self, other
        merged = list(self.variables) + [v for v in other.variables if v not in self.variables]
        return tuple(merged), self.embed(merged), other.embed(merged)

    def embed(self, variables: Sequence[str]) -> MPoly:
        """Reinterpret in a larger (or reordered) variable ring."""
        vs = tuple(variables)
        for v in self.variables:
            if v not in vs:
                raise ValueError(f"target ring is missing variable {v!r}")
        pos = [self.variables.index(v) if v in self.variables else None for v in vs]
        return MPoly._new(vs, {tuple(0 if i is None else exp[i] for i in pos): c
                               for exp, c in self.terms.items()})

    def _coerce(self, other) -> MPoly:
        if isinstance(other, MPoly):
            return other
        return MPoly.constant(_as_fraction(other), self.variables)

    def __add__(self, other) -> MPoly:
        other = self._coerce(other)
        vs, a, b = self._aligned(other)
        terms = dict(a.terms)
        for exp, c in b.terms.items():
            prev = terms.get(exp)
            terms[exp] = c if prev is None else prev + c
        return MPoly._new(vs, terms)

    __radd__ = __add__

    def __neg__(self) -> MPoly:
        return MPoly._new(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> MPoly:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> MPoly:
        return self._coerce(other) - self

    def __mul__(self, other) -> MPoly:
        other = self._coerce(other)
        vs, a, b = self._aligned(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                exp = tuple(x + y for x, y in zip(e1, e2))
                prev = terms.get(exp)
                terms[exp] = c1 * c2 if prev is None else prev + c1 * c2
        return MPoly._new(vs, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> MPoly:
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        out = MPoly.constant(1, self.variables)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __truediv__(self, other) -> MPoly:
        c = _as_fraction(other)
        return MPoly._new(self.variables, {e: v / c for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            try:
                other = MPoly.constant(_as_fraction(other), self.variables)
            except TypeError:
                return NotImplemented
        _, a, b = self._aligned(other)
        return a.terms == b.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            mono = "*".join(f"{v}^{e}" if e > 1 else v
                            for v, e in zip(self.variables, exp) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    # -- queries ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self, var: str) -> int:
        if var not in self.variables:
            return 0
        i = self.variables.index(var)
        return max((e[i] for e in self.terms), default=0)

    def coeff_of(self, var: str, power: int) -> MPoly:
        """Coefficient of var**power, as a polynomial in the remaining ring."""
        i = self.variables.index(var)
        return MPoly._new(self.variables, {exp[:i] + (0,) + exp[i + 1:]: c
                                           for exp, c in self.terms.items() if exp[i] == power})

    def depends_on(self, var: str) -> bool:
        return self.degree(var) > 0

    def evaluate(self, assignment: Mapping[str, RationalLike]) -> Fraction:
        missing = [v for v in self.variables
                   if v not in assignment and self.depends_on(v)]
        if missing:
            raise ValueError(f"missing values for {missing}")
        vals = [_as_fraction(assignment.get(v, 0)) for v in self.variables]
        total = Fraction(0)
        for exp, c in self.terms.items():
            term = c
            for x, e in zip(vals, exp):
                if e:
                    term *= x ** e
            total += term
        return total

    def substitute(self, var: str, value) -> MPoly:
        """Replace a variable by a polynomial (or rational) value, exactly."""
        if var not in self.variables:
            return self
        i = self.variables.index(var)
        if not isinstance(value, MPoly):
            value = MPoly.constant(_as_fraction(value), self.variables)
        out = MPoly.zero(self.variables)
        powers: dict[int, MPoly] = {0: MPoly.constant(1, self.variables)}
        maxdeg = self.degree(var)
        for k in range(1, maxdeg + 1):
            powers[k] = powers[k - 1] * value
        for k in range(maxdeg + 1):
            coeff = self.coeff_of(var, k)
            if not coeff.is_zero:
                out = out + coeff * powers[k]
        return out

    # -- exact division -----------------------------------------------------

    def divexact(self, other: MPoly) -> MPoly | None:
        """Exact multivariate quotient self/other, or None if not divisible."""
        vs, a, b = self._aligned(self._coerce(other))
        if b.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        quo: dict[tuple[int, ...], Fraction] = {}
        rem = dict(a.terms)
        blead = max(b.terms)
        bc = b.terms[blead]
        while rem:
            rlead = max(rem)
            diff = tuple(x - y for x, y in zip(rlead, blead))
            if any(d < 0 for d in diff):
                return None
            c = rem[rlead] / bc
            quo[diff] = quo.get(diff, Fraction(0)) + c
            for e2, c2 in b.terms.items():
                exp = tuple(x + y for x, y in zip(diff, e2))
                nc = rem.get(exp, Fraction(0)) - c * c2
                if nc:
                    rem[exp] = nc
                else:
                    rem.pop(exp, None)
        return MPoly(vs, quo)


def poly_reduce(a: MPoly, var: str, modulus: MPoly) -> MPoly:
    """Reduce ``a`` modulo a relation monic in ``var`` (exact long division).

    The result has degree in ``var`` strictly below d = deg(modulus) and is
    congruent to ``a`` modulo the relation.  ``a`` is split into its
    coefficients by degree in ``var``; from the top degree down, each var^k
    with k >= d is replaced by var^(k-d) times the tail var^d - modulus.
    """
    vs, a, modulus = a._aligned(modulus)
    d = modulus.degree(var)
    if d < 1:
        raise ValueError("modulus must have degree >= 1 in the reduction variable")
    lead = modulus.coeff_of(var, d)
    if not lead == MPoly.constant(1, vs):
        raise ValueError(f"modulus is not monic in {var!r}: leading coefficient {lead!r}")
    i = vs.index(var)
    rem = [a.coeff_of(var, k) for k in range(a.degree(var) + 1)]
    tail = [-modulus.coeff_of(var, j) for j in range(d)]
    for k in range(len(rem) - 1, d - 1, -1):
        for j, c in enumerate(tail):
            rem[k - d + j] = rem[k - d + j] + rem[k] * c
    return MPoly._new(vs, {e[:i] + (k,) + e[i + 1:]: c for k, p in enumerate(rem[:d])
                           for e, c in p.terms.items()})


# ---------------------------------------------------------------------------
# exact univariate root bracketing
# ---------------------------------------------------------------------------

def poly_eval_fraction(coeffs: Sequence[RationalLike], x: RationalLike) -> Fraction:
    """Horner evaluation over exact rationals; coeffs ascending."""
    x = _as_fraction(x)
    total = Fraction(0)
    for c in reversed([_as_fraction(c) for c in coeffs]):
        total = total * x + c
    return total


def rational_bisect(coeffs: Sequence[RationalLike], lo: RationalLike, hi: RationalLike,
                    max_width: RationalLike = Fraction(1, 10 ** 16)) -> tuple[Fraction, Fraction]:
    """Bisection with exact sign evaluation; returns a bracketing interval.

    Requires a strict sign change on [lo, hi]; an exact root hit collapses
    the bracket to a point.
    """
    lo, hi = _as_fraction(lo), _as_fraction(hi)
    max_width = _as_fraction(max_width)
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


# cells a float root may be off by before certification gives up
CELL_WALK = 4


def certified_brackets(coeffs: Sequence[RationalLike], cuts: Sequence[RationalLike],
                       max_width: RationalLike = Fraction(1, 10 ** 16)
                       ) -> list[tuple[Fraction, Fraction]]:
    """``rational_bisect`` on each interval between consecutive cuts, certified.

    If the degree equals the number of intervals and the exact values at
    the increasing cuts alternate in sign, none zero, each interval holds
    exactly one simple root.  Bisection of [lo, hi] then ends in the cell
    [lo + j w/2^k, lo + (j+1) w/2^k] holding it (k halvings reach
    ``max_width``) unless it meets the root exactly, so the cell of a float
    root is bisection's answer once its endpoints show a strict exact sign
    change.  Every other case, including a float root more than
    ``CELL_WALK`` cells off, falls back to ``rational_bisect``.
    """
    coeffs = [_as_fraction(c) for c in coeffs]
    cuts = [_as_fraction(c) for c in cuts]
    max_width = _as_fraction(max_width)
    vals = [poly_eval_fraction(coeffs, c) for c in cuts]
    degree = max((i for i, c in enumerate(coeffs) if c), default=0)
    certifiable = (degree == len(cuts) - 1
                   and all(a < b for a, b in zip(cuts, cuts[1:]))
                   and all(fa * fb < 0 for fa, fb in zip(vals, vals[1:])))
    fcoeffs = [float(c) for c in coeffs]
    out = []
    for lo, hi, flo in zip(cuts, cuts[1:], vals):
        cell = (_certified_cell(coeffs, fcoeffs, lo, hi, flo > 0, max_width)
                if certifiable else None)
        out.append(cell or rational_bisect(coeffs, lo, hi, max_width))
    return out


def _certified_cell(coeffs, fcoeffs, lo: Fraction, hi: Fraction, lo_positive: bool,
                    max_width: Fraction) -> tuple[Fraction, Fraction] | None:
    """Bisection's final cell on [lo, hi] from a float root, or None."""
    ratio = (hi - lo) / max_width
    halvings = (-(-ratio.numerator // ratio.denominator) - 1).bit_length()
    cell = (hi - lo) / (1 << halvings)
    # float bisection down to about one cell locates the root
    a, b, cell_f = float(lo), float(hi), float(cell)
    while b - a > cell_f:
        mid = 0.5 * (a + b)
        if not a < mid < b:  # adjacent floats: as close as float gets
            break
        val = 0.0
        for c in reversed(fcoeffs):
            val = val * mid + c
        if (val > 0) == lo_positive:
            a = mid
        else:
            b = mid
    j = min(max(int((Fraction(0.5 * (a + b)) - lo) // cell), 0), (1 << halvings) - 1)
    # walk towards the root; the signs at lo and hi keep j inside the grid
    for _ in range(CELL_WALK):
        left = lo + j * cell
        f_left = poly_eval_fraction(coeffs, left)
        f_right = poly_eval_fraction(coeffs, left + cell)
        if f_left == 0 or f_right == 0:
            return None
        left_on_lo_side = (f_left > 0) == lo_positive
        if left_on_lo_side and (f_right > 0) != lo_positive:
            return left, left + cell
        j += 1 if left_on_lo_side else -1
    return None
