"""Numeric and exact-rational kernels.

Two independent layers live here: a thin symmetric-eigensolver wrapper with
deterministic eigenvalue clustering (and a lockstep least-squares solver whose
damped steps are one stacked LAPACK call), and a sparse multivariate polynomial
over exact rationals (arbitrary-precision, no floating point) supporting
reduction modulo a relation monic in one variable.  A polynomial packs each
term's exponent tuple into one int key, the first variable in the highest bits,
so int order is tuple order, and holds int numerators over one shared positive
denominator prime to them; its arithmetic runs on ints.  Everything is immutable
after construction and safe to map over parameter grids in parallel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from types import MappingProxyType
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
    Only the spectrum, the basis and the clusters are kept; a caller that
    wants the reconstruction residual computes it from them.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    clusters: tuple[tuple[int, ...], ...]

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
        return EigenDecomposition(np.zeros(0), np.zeros((0, 0)), ())
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
    return EigenDecomposition(vals, np.hstack(cols), clusters)


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
    live = np.arange(len(x0))
    x, (r, jm) = x0.copy(), _rows_of(model, x0, live)
    cost = np.array([rb @ rb for rb in r])
    damp = np.array([1e-3 * np.max(np.sum(jb * jb, axis=0)) for jb in jm])
    for _ in range(100 * p - 1):
        steps = damped_steps(jm[live], r[live], damp[live])
        trial_x = x[live] + steps
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
    return x, r


def _rows_of(model, x: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``model(x, rows)`` as float arrays of r and J, one row per problem asked; copies,
    as accepted rows are written into them."""
    r, jm = model(x, rows)
    if len(r) != len(rows) or len(jm) != len(rows):
        raise ValueError(f"model returned {len(r)} residual and {len(jm)} Jacobian rows "
                         f"for {len(rows)} problems")
    return np.array(r, dtype=float), np.array(jm, dtype=float)


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def damped_steps(jm: np.ndarray, r: np.ndarray, damp: np.ndarray) -> np.ndarray:
    """The least-squares solutions dx of [J_b; sqrt(mu_b) I] dx = [-r_b; 0], one row per b.

    One call of the gufunc behind ``np.linalg.lstsq`` runs LAPACK's gelsd on every problem
    with ``lstsq``'s default rcond, so row b has the bits ``np.linalg.lstsq`` gives problem
    b alone, at a fraction of the cost of a Python loop of calls.
    """
    # private: numpy has no public stacked least-squares call; numpy >= 2 names it lstsq
    from numpy.linalg._umath_linalg import lstsq

    n, m, p = jm.shape
    a = np.concatenate([jm, np.sqrt(damp)[:, None, None] * np.eye(p)], axis=1)
    rhs = np.concatenate([-r, np.zeros((n, p))], axis=1)[:, :, None]
    with np.errstate(call=_raise_lstsq_error, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        x = lstsq(a, rhs, np.finfo(float).eps * (m + p), signature="ddd->ddid")[0]
    return x[:, :, 0]


# ---------------------------------------------------------------------------
# exact rational multivariate polynomials
# ---------------------------------------------------------------------------

RationalLike = Fraction | int

# An exponent uses the low _FIELD - 1 bits of its field; the top bit is a guard, clear in
# every stored key, that a sum of two exponents sets exactly when it passes _MAX_EXP.
_FIELD = 16
_MAX_EXP = (1 << (_FIELD - 1)) - 1
_MASK = (1 << _FIELD) - 1


@lru_cache(maxsize=None)
def _guard(n: int) -> int:
    """The guard bits of an n-variable key."""
    return sum(1 << (_FIELD * i + _FIELD - 1) for i in range(n))


def _shift(variables: tuple[str, ...], var: str) -> int:
    return _FIELD * (len(variables) - 1 - variables.index(var))


def _pack(exp, n: int) -> int:
    if len(exp) != n:
        raise ValueError("exponent length does not match variable count")
    key = 0
    for e in exp:
        try:
            e = operator.index(e)
        except TypeError:
            raise ValueError(f"exponent {e!r} is not an integer") from None
        if not 0 <= e <= _MAX_EXP:
            raise ValueError(f"exponent {e} is outside 0..{_MAX_EXP}")
        key = (key << _FIELD) | e
    return key


def _unpack(key: int, n: int) -> tuple[int, ...]:
    return tuple((key >> (_FIELD * i)) & _MASK for i in range(n - 1, -1, -1))


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"{x!r} is not a finite rational")
        return Fraction(x)  # exact binary value of the float
    raise TypeError(f"cannot coerce {type(x).__name__} to an exact rational")


class MPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    A term is a packed exponent key (``_FIELD`` bits per variable, the first
    variable highest, so key order is the exponent tuples' order) and an int
    numerator over the one shared denominator, so the arithmetic runs on ints.
    ``terms`` is the read-only ``{exponent tuple: Fraction}`` view, built once per
    instance; instances are immutable.

    Invariant: the variable names are distinct; every key packs exponents in
    0.._MAX_EXP for ``len(variables)`` variables; every numerator is a nonzero int;
    the denominator is a positive int with gcd 1 with the numerators.  So each
    polynomial has one representation in its ring.  ``MPoly(...)`` checks and
    normalizes outside input; the arithmetic builds its results through ``_new``,
    which drops zeros, divides out the common factor and, where exponents were
    added, rejects one past _MAX_EXP.
    """

    __slots__ = ("variables", "_terms", "_den", "_view")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], RationalLike]):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable names in {vs}")
        coeffs = {_pack(exp, len(vs)): _as_fraction(c) for exp, c in terms.items()}
        coeffs = {k: c for k, c in coeffs.items() if c}
        # the lcm of reduced denominators is already prime to the scaled numerators
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self.variables, self._den, self._view = vs, den, None
        self._terms = {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}

    @classmethod
    def _new(cls, vs: tuple[str, ...], terms: dict[int, int], den: int = 1,
             added: bool = False) -> MPoly:
        """Trusted constructor: ``terms`` maps keys of ``len(vs)`` fields to int
        numerators over ``den`` > 0.  Zeros are dropped and the common factor divided
        out; ``added`` (exponents were summed) checks the guard bits."""
        terms = {k: c for k, c in terms.items() if c}
        if added and reduce(operator.or_, terms, 0) & _guard(len(vs)):
            raise ValueError(f"an exponent passes {_MAX_EXP}, the largest MPoly holds")
        if den != 1:
            g = math.gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {k: c // g for k, c in terms.items()}
        out = cls.__new__(cls)
        out.variables, out._terms, out._den, out._view = vs, terms, den, None
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

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """The read-only ``{exponent tuple: Fraction}`` view of the terms."""
        if self._view is None:
            n, den = len(self.variables), self._den
            self._view = {_unpack(k, n): Fraction(c, den) for k, c in self._terms.items()}
        return MappingProxyType(self._view)

    def _rows(self, shift: int) -> dict[int, dict[int, int]]:
        """Numerators by the exponent in the field at ``shift``, that field cleared."""
        rows: dict[int, dict[int, int]] = {}
        for k, c in self._terms.items():
            e = (k >> shift) & _MASK
            rows.setdefault(e, {})[k - (e << shift)] = c
        return rows

    # -- ring structure -----------------------------------------------------

    def _aligned(self, other: MPoly) -> tuple[tuple[str, ...], MPoly, MPoly]:
        if self.variables == other.variables:
            return self.variables, self, other
        merged = self.variables + tuple(v for v in other.variables if v not in self.variables)
        return merged, self.embed(merged), other.embed(merged)

    def embed(self, variables: Sequence[str]) -> MPoly:
        """Reinterpret in a larger (or reordered) variable ring."""
        vs = tuple(variables)
        if vs == self.variables:
            return self
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable names in {vs}")
        for v in self.variables:
            if v not in vs:
                raise ValueError(f"target ring is missing variable {v!r}")
        moves = [(_shift(self.variables, v), _shift(vs, v)) for v in self.variables]
        return MPoly._new(vs, {sum(((k >> src) & _MASK) << dst for src, dst in moves): c
                               for k, c in self._terms.items()}, self._den)

    def _coerce(self, other) -> MPoly:
        if isinstance(other, MPoly):
            return other
        c = _as_fraction(other)
        return MPoly._new(self.variables, {0: c.numerator}, c.denominator)

    def __add__(self, other) -> MPoly:
        other = self._coerce(other)
        vs, a, b = self._aligned(other)
        den = math.lcm(a._den, b._den)
        fa, fb = den // a._den, den // b._den
        terms = dict(a._terms) if fa == 1 else {k: c * fa for k, c in a._terms.items()}
        get = terms.get
        for k, c in b._terms.items():
            terms[k] = get(k, 0) + c * fb
        return MPoly._new(vs, terms, den)

    __radd__ = __add__

    def __neg__(self) -> MPoly:
        return MPoly._new(self.variables, {k: -c for k, c in self._terms.items()}, self._den)

    def __sub__(self, other) -> MPoly:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> MPoly:
        return self._coerce(other) - self

    def __mul__(self, other) -> MPoly:
        other = self._coerce(other)
        vs, a, b = self._aligned(other)
        terms: dict[int, int] = {}
        get = terms.get
        right = list(b._terms.items())
        for k1, c1 in a._terms.items():
            for k2, c2 in right:
                k = k1 + k2
                terms[k] = get(k, 0) + c1 * c2
        return MPoly._new(vs, terms, a._den * b._den, added=True)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> MPoly:
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        out, base = self._coerce(1), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:  # no square past the last bit, which could pass _MAX_EXP for nothing
                base = base * base
        return out

    def __truediv__(self, other) -> MPoly:
        c = _as_fraction(other)
        if not c:
            raise ZeroDivisionError("division of a polynomial by zero")
        sign = 1 if c > 0 else -1
        return MPoly._new(self.variables, {k: v * sign * c.denominator
                                           for k, v in self._terms.items()},
                          self._den * abs(c.numerator))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            try:
                other = self._coerce(other)
            except TypeError:
                return NotImplemented
        _, a, b = self._aligned(other)
        return a._den == b._den and a._terms == b._terms

    def __hash__(self):
        # over the variables a term uses, by name, so that equal polynomials in
        # different or reordered rings hash equal
        n = len(self.variables)
        return hash((self._den, frozenset(
            (tuple(sorted((v, e) for v, e in zip(self.variables, _unpack(k, n)) if e)), c)
            for k, c in self._terms.items())))

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for key in sorted(self._terms, reverse=True):
            exp = _unpack(key, len(self.variables))
            mono = "*".join(f"{v}^{e}" if e > 1 else v
                            for v, e in zip(self.variables, exp) if e)
            bits.append(f"{Fraction(self._terms[key], self._den)}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    # -- queries ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degree(self, var: str) -> int:
        if var not in self.variables:
            return 0
        s = _shift(self.variables, var)
        return max(((k >> s) & _MASK for k in self._terms), default=0)

    def coeff_of(self, var: str, power: int) -> MPoly:
        """Coefficient of var**power, as a polynomial in the remaining ring."""
        s = _shift(self.variables, var)
        low = power << s
        return MPoly._new(self.variables, {k - low: c for k, c in self._terms.items()
                                           if (k >> s) & _MASK == power}, self._den)

    def depends_on(self, var: str) -> bool:
        return self.degree(var) > 0

    def evaluate(self, assignment: Mapping[str, RationalLike]) -> Fraction:
        n = len(self.variables)
        exps = [_unpack(k, n) for k in self._terms]
        degrees = [max(col) for col in zip(*exps)]
        missing = [v for v, d in zip(self.variables, degrees) if d and v not in assignment]
        if missing:
            raise ValueError(f"missing values for {missing}")
        # with x_i = p_i / q_i and d_i the degree in x_i, the value times the
        # denominator and every q_i^d_i is the int sum of c prod p_i^e_i q_i^(d_i - e_i)
        den, used = self._den, []
        for i, d in enumerate(degrees):
            if d:
                x = _as_fraction(assignment[self.variables[i]])
                p, q = x.numerator, x.denominator
                used.append((i, [p ** e * q ** (d - e) for e in range(d + 1)]))
                den *= q ** d
        total = 0
        for exp, c in zip(exps, self._terms.values()):
            for i, powers in used:
                c *= powers[exp[i]]
            total += c
        return Fraction(total, den)

    def substitute(self, var: str, value) -> MPoly:
        """Replace a variable by a polynomial (or rational) value, exactly."""
        if var not in self.variables:
            return self
        if not isinstance(value, MPoly):
            value = self._coerce(value)
        rows = self._rows(_shift(self.variables, var))
        top = max(rows, default=0)
        out = MPoly._new(self.variables, rows.get(top, {}), self._den)
        for k in range(top - 1, -1, -1):  # Horner's scheme
            out = out * value + MPoly._new(self.variables, rows.get(k, {}), self._den)
        return out

    # -- exact division -----------------------------------------------------

    def divexact(self, other: MPoly) -> MPoly | None:
        """Exact multivariate quotient self/other, or None if not divisible.

        Long division on int numerators: with ``scale`` s, s A = Q B + R holds
        for the numerators A, B of self and other throughout, and s grows only
        when the leading coefficient of B does not divide R's.  An exact
        quotient keeps every term of R within the degrees of A, so a guard bit
        set in R's leading key means no quotient exists.
        """
        vs, a, b = self._aligned(self._coerce(other))
        if b.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        guard = _guard(len(vs))
        (blead, bc), *rest = sorted(b._terms.items(), reverse=True)
        quo: dict[int, int] = {}
        rem = dict(a._terms)
        scale = 1
        while rem:
            rlead = max(rem)
            diff = (rlead | guard) - blead
            # R's lead past the bound, or not a multiple of B's lead
            if rlead & guard or (diff & guard) != guard:
                return None
            diff ^= guard
            r = rem.pop(rlead)
            m = abs(bc) // math.gcd(r, bc)
            if m != 1:
                scale *= m
                r *= m
                rem = {k: c * m for k, c in rem.items()}
                quo = {k: c * m for k, c in quo.items()}
            c = r // bc
            quo[diff] = c
            for k2, c2 in rest:
                k = diff + k2
                nc = rem.get(k, 0) - c * c2
                if nc:
                    rem[k] = nc
                else:
                    rem.pop(k, None)
        return MPoly._new(vs, {k: c * b._den for k, c in quo.items()}, scale * a._den)


def poly_reduce(a: MPoly, var: str, modulus: MPoly) -> MPoly:
    """Reduce ``a`` modulo a relation monic in ``var`` (exact long division).

    The result has degree in ``var`` strictly below d = deg(modulus) and is
    congruent to ``a`` modulo the relation.  ``a`` is split into its
    coefficients by degree in ``var``; from the top degree down, each var^k
    with k >= d is replaced by var^(k-d) times the tail var^d - modulus.
    The rows hold int numerators: with D the modulus' denominator and K the
    top degree, ``a``'s are scaled by D^(K-d+1), so row k is a multiple of
    D^(k-d+1) when its turn comes, and dividing its product with the tail by
    D is exact.
    """
    vs, a, modulus = a._aligned(modulus)
    d = modulus.degree(var)
    if d < 1:
        raise ValueError("modulus must have degree >= 1 in the reduction variable")
    shift = _shift(vs, var)
    mrows = modulus._rows(shift)
    if mrows[d] != {0: modulus._den}:
        raise ValueError(f"modulus is not monic in {var!r}: leading coefficient "
                         f"{modulus.coeff_of(var, d)!r}")
    dm, guard = modulus._den, _guard(len(vs))
    tail = [[(k, -c) for k, c in mrows.get(j, {}).items()] for j in range(d)]
    rows = a._rows(shift)
    top = max(rows, default=0)
    scale = dm ** max(top - d + 1, 0)
    rem = [{k: c * scale for k, c in rows.get(e, {}).items()} for e in range(top + 1)]
    for k in range(top, d - 1, -1):
        row = [(e, c // dm) for e, c in rem[k].items() if c]
        if reduce(operator.or_, (e for e, _ in row), 0) & guard:
            raise ValueError(f"an exponent passes {_MAX_EXP}, the largest MPoly holds")
        for j, tj in enumerate(tail):
            acc = rem[k - d + j]
            get = acc.get
            for e1, c1 in row:
                for e2, c2 in tj:
                    e = e1 + e2
                    acc[e] = get(e, 0) + c1 * c2
    return MPoly._new(vs, {e + (k << shift): c for k, row in enumerate(rem[:d])
                           for e, c in row.items()}, a._den * scale, added=True)


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

    Requires lo < hi, a positive ``max_width`` and a strict sign change on
    [lo, hi]; an exact root hit collapses the bracket to a point.  It halves
    [lo, hi] k times, the fewest that reach ``max_width``, unless a midpoint
    is a root.  Every point it visits is N / S with S = D 2^k (D the common
    denominator of lo and hi), so the signs come from one integer polynomial
    in N: Q S^deg p(N / S), Q the common denominator of the coefficients.
    There is no float shortcut; the bracket is that of bisection on
    ``Fraction``s.
    """
    lo, hi = _as_fraction(lo), _as_fraction(hi)
    max_width = _as_fraction(max_width)
    if max_width <= 0:  # bisection would never reach it
        raise ValueError(f"max_width must be positive, got {max_width}")
    if not lo < hi:
        raise ValueError(f"lo must be below hi, got lo = {lo}, hi = {hi}")
    coeffs = [_as_fraction(c) for c in coeffs]
    ratio = (hi - lo) / max_width
    halvings = (math.ceil(ratio) - 1).bit_length()
    scale = math.lcm(lo.denominator, hi.denominator) << halvings
    q = math.lcm(*(c.denominator for c in coeffs))
    weights = [c.numerator * (q // c.denominator) * scale ** (len(coeffs) - 1 - i)
               for i, c in enumerate(coeffs)]

    def sign(n: int) -> int:
        total = 0
        for w in reversed(weights):
            total = total * n + w
        return (total > 0) - (total < 0)

    a, b = lo.numerator * (scale // lo.denominator), hi.numerator * (scale // hi.denominator)
    slo, shi = sign(a), sign(b)
    if slo == 0:
        return lo, lo
    if shi == 0:
        return hi, hi
    if slo == shi:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(halvings):
        mid = (a + b) >> 1  # exact: a and b are multiples of 2^(halvings left)
        sm = sign(mid)
        if sm == 0:
            return Fraction(mid, scale), Fraction(mid, scale)
        if sm == slo:
            a = mid
        else:
            b = mid
    return Fraction(a, scale), Fraction(b, scale)
