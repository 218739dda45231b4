"""Proof-replay ledger for the Einstein hypersurface obstruction.

Each contradiction of the non-existence argument is executed either as an
exact identity over arbitrary-precision rationals (verdict ``exact-pass``,
reproducible bit for bit) or as a certified numeric check carrying its
residual and seed.  Steps are independent and pure; a report collects them
with machine-readable witnesses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .clifford import Octonion, max_center_dim
from .curvature import CurvatureContext, jacobi_closed_batch, nabla, ricci_heisenberg
from .dralgebra import DamekRicci
from .hypersurface import specialized_codazzi_coefficient_identity
from .numkernel import (MPoly, levenberg_marquardt, mpoly_resultant, orthonormalize,
                        poly_reduce, symmetric_eliminate)
from .spectrum import (NormalFrame, eigen_families, eta_alpha_exact_identity, f_cubic_roots,
                       random_frame)

EXACT = "exact-pass"
NUMERIC = "numeric-pass"
FAIL = "fail"
INFO = "info"


@dataclass(frozen=True)
class Check:
    """One recorded check: a ledger step or a suite check."""

    id: str
    anchor: str
    verdict: str
    residual: float | None = None
    witness: dict = field(default_factory=dict)
    runtime_s: float = 0.0

    def to_json(self) -> dict:
        """The deterministic payload; the runtime belongs in a report header."""
        return {"id": self.id, "anchor": self.anchor, "verdict": self.verdict,
                "residual": self.residual, "witness": _jsonable(self.witness)}


@dataclass
class LedgerReport:
    """Checks in the order recorded, timed by one lap clock.

    The clock starts when the report is created and each recorded check is
    charged the time since the previous one, so the step runtimes add up to
    the report's wall time from creation to its last check.
    """

    name: str
    steps: list[Check] = field(default_factory=list)
    _last: float = field(init=False, default=0.0, repr=False, compare=False)

    def __post_init__(self):
        self._lap()

    def _lap(self) -> float:
        now = time.perf_counter()
        elapsed, self._last = now - self._last, now
        return elapsed

    def record(self, step_id: str, anchor: str, ok: bool, exact: bool,
               residual: float | None = None, **witness):
        verdict = (EXACT if exact else NUMERIC) if ok else FAIL
        self.steps.append(Check(step_id, anchor, verdict, residual, witness, self._lap()))

    @property
    def passed(self) -> bool:
        return all(s.verdict != FAIL for s in self.steps)

    def step(self, step_id: str) -> Check:
        for s in self.steps:
            if s.id == step_id:
                return s
        raise KeyError(step_id)

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "steps": [s.to_json() for s in sorted(self.steps, key=lambda s: s.id)]}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return {"num": str(obj.numerator), "den": str(obj.denominator)}
    if isinstance(obj, MPoly):
        return repr(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


# ---------------------------------------------------------------------------
# special case: no v-component  (normal inside z + RA is impossible because
# the leaf is the nilpotent group, which is never Einstein)
# ---------------------------------------------------------------------------

def replay_no_v(g: DamekRicci) -> LedgerReport:
    """Nilpotent-leaf obstruction: Ricci of the Heisenberg-type group splits sign."""
    rep = LedgerReport(f"no-v-component({g.d_z},{g.d_v})")
    res = ricci_heisenberg(g.module.generators)
    rep.record("nilpotent-ricci-split", "nilpotent-non-einstein",
               res["sign_split"], exact=False, residual=res["offdiag"],
               eigs_v=[float(x) for x in res["eigs_v"]],
               eigs_z=[float(x) for x in res["eigs_z"]])
    flat = ricci_heisenberg(np.zeros_like(g.module.generators))
    rep.record("abelian-control-flat", "nilpotent-non-einstein",
               flat["flat"], exact=False,
               residual=float(max(np.max(np.abs(flat["eigs_v"]), initial=0),
                                  np.max(np.abs(flat["eigs_z"]), initial=0))))
    return rep


# ---------------------------------------------------------------------------
# special case: no A-component
# ---------------------------------------------------------------------------

def replay_no_a(ctx: CurvatureContext, samples: int = 12, seed: int = 0) -> LedgerReport:
    """The s = 0 chain: forced shape data clashes with the curvature value.

    With xi = V + Y the shape operator must send A to |Y|^2 V/2 - |V|^2 Y/2,
    which pins C = -(2 - |V|^2)^2/4 and forces Y = 0; then the center
    direction gives the exact gap -1/4 between the Gauss and curvature
    values of <R_xi Z, Z>.
    """
    g = ctx.g
    rep = LedgerReport(f"no-a-component({g.d_z},{g.d_v})")
    rng = np.random.default_rng(seed)

    nab_a = float(np.max(np.abs(ctx.nabla_tensor[g.ia])))
    rep.record("a-derivative-vanishes", "shape-from-tangency",
               nab_a <= 1e-14, exact=False, residual=nab_a)

    # one sampling loop serves both formulas; its time goes to the first step
    worst_sa = worst_c = 0.0
    for _ in range(samples):
        v = rng.standard_normal(g.d_v)
        y = rng.standard_normal(g.d_z)
        vsq = rng.uniform(0.15, 0.85)
        v *= np.sqrt(vsq) / np.linalg.norm(v)
        y *= np.sqrt(1.0 - vsq) / np.linalg.norm(y)
        xi = g.vec(v, y)
        # SA: tangential part of -(V/2 + Y), from <nabla_T A, xi> = <-V/2 - Y, T>
        w = g.vec(-0.5 * v, -y)
        sa = w - (w @ xi) * xi
        target = g.vec(0.5 * (y @ y) * v, -0.5 * vsq * y)
        worst_sa = max(worst_sa, float(np.max(np.abs(sa - target))))
        # C from the Gauss trace at A: <R_xi A, A> = C - |SA|^2
        raa = float(jacobi_closed_batch(g, xi[None], g.vec(a=1.0)[None])[0, g.ia])
        c_val = raa + float(sa @ sa)
        worst_c = max(worst_c, abs(c_val - (-0.25 * (2.0 - vsq) ** 2)))
    rep.record("shape-of-a-formula", "shape-from-tangency",
               worst_sa <= 1e-12, exact=False, residual=worst_sa, samples=samples)
    rep.record("einstein-difference-formula", "jacobi-evaluation",
               worst_c <= 1e-10, exact=False, residual=worst_c, samples=samples,
               derivative_consequence="A(|V|^2) = -|Y|^2 |V|^2, so |V| constant forces Y = 0")

    # Y = 0 sub-case: xi = V unit, SZ = J_Z V / 2, Gauss vs curvature gap
    worst_sz = 0.0
    worst_gap = 0.0
    for _ in range(samples):
        v = rng.standard_normal(g.d_v)
        v /= np.linalg.norm(v)
        z = rng.standard_normal(g.d_z)
        z /= np.linalg.norm(z)
        xi_vec, z_vec = g.vec(v), g.vec(z=z)
        # <nabla_T Z, xi> = <J_Z V/2, T> for all T: assemble the pairing vector
        pair = np.array([g.inner(nabla(g, e, z_vec), xi_vec) for e in np.eye(g.dim)])
        sz = g.vec(0.5 * (g.j_z(z) @ v))
        worst_sz = max(worst_sz, float(np.max(np.abs(pair - sz))))
        curv = g.inner(jacobi_closed_batch(g, xi_vec[None], z_vec[None])[0], z_vec)
        gauss = -float(sz @ sz) + (-0.25)  # H<SZ,Z> = 0, C = -1/4
        worst_gap = max(worst_gap, abs((gauss - curv) - (-0.25)))
    rep.record("center-direction-gap", "gauss-vs-curvature-clash",
               worst_gap <= 1e-12 and worst_sz <= 1e-12, exact=False,
               residual=max(worst_gap, worst_sz), gap=-0.25)
    return rep


# ---------------------------------------------------------------------------
# special case: no z-component
# ---------------------------------------------------------------------------

def no_z_candidate_constants(s: Fraction) -> dict:
    """Exact shape constants for a normal V + sA: rho values, C, H."""
    c = (s * s - 1) / 2
    v = 1 - s * s
    return {"C": c, "v": v, "H": -c / s,
            "rho_minus": (1 + s * s) / (2 * s),
            "rho_1": s / 2,
            "rho_2": (1 - 2 * s * s) / (2 * s)}


def replay_no_z(d_z: int, d_v: int, s_grid: list[Fraction] | None = None,
                seed: int = 0) -> LedgerReport:
    """Trace identity versus the isotropy cap: no integer eigenspace dimension.

    For every s on the grid, the multiplicity d2 of the third principal
    curvature solves (1 + d_z + d_v - 3 d2) s^2 + (d_z + d2 - 1) = 0, but it
    must exceed d_z + d_v/2 while also being capped by d_v/2 (isotropic
    subspace).  The scan certifies the incompatibility in exact rationals;
    s^2 = 1/3 degenerates to rho_1 = rho_2 instead.
    """
    rep = LedgerReport(f"no-z-component({d_z},{d_v})")
    if s_grid is None:
        s_grid = [Fraction(i, 50) for i in range(1, 50)]

    bad: list[dict] = []
    for s in s_grid:
        s2 = s * s
        if s2 == Fraction(1, 3):
            continue
        num = (1 + d_z + d_v) * s2 + (d_z - 1)
        den = 3 * s2 - 1
        d2 = num / den
        admissible = (d2.denominator == 1 and 0 <= d2 <= d_v
                      and d2 > Fraction(d_z) + Fraction(d_v, 2)
                      and d2 <= Fraction(d_v, 2))
        if admissible:
            bad.append({"s": s, "d2": d2})
        # re-derived bound: any real solution exceeds (1+d_z+d_v)/3 or is negative
        if not (d2 > Fraction(1 + d_z + d_v, 3) if den > 0 else d2 < 0):
            bad.append({"s": s, "d2": d2, "bound": "violated"})
    rep.record("trace-identity-scan", "principal-curvature-count",
               not bad, exact=True, grid_points=len(s_grid), violations=bad)

    s2 = Fraction(1, 3)
    # rho_1 - rho_2 = (3 s^2 - 1)/(2 s): vanishes identically at s^2 = 1/3
    diff_num = 3 * s2 - 1
    rep.record("equal-roots-at-one-third", "principal-curvature-count",
               diff_num == 0, exact=True, witness_value=diff_num)

    # numeric eigenvector certificates for the forced shape operator
    g = DamekRicci.from_dims(d_z, d_v)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for s in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        cst = no_z_candidate_constants(s)
        sf, vf, cf, hf = float(s), float(cst["v"]), float(cst["C"]), float(cst["H"])
        v = rng.standard_normal(d_v)
        v *= np.sqrt(vf) / np.linalg.norm(v)
        xi = g.vec(v, None, sf)
        for _ in range(4):
            z = rng.standard_normal(d_z)
            z /= np.linalg.norm(z)
            jzv = g.j_z(z) @ v
            z_vec, jzv_vec = g.vec(z=z), g.vec(jzv)
            # forced: SZ = J_Z V/2 + sZ; S(J_Z V) recovered through the Gauss relation
            s_z = g.vec(0.5 * jzv, sf * z)
            r_z = jacobi_closed_batch(g, xi[None], z_vec[None])[0]
            s_jzv = 2.0 * (-r_z + (hf - sf) * s_z + cf * z_vec)
            # symmetric on span(Z, J_Z V)
            sym = abs(float(s_z @ jzv_vec) - float(s_jzv @ z_vec))
            # eigenvector certificates
            e1 = sf * z_vec + jzv_vec
            se1 = sf * s_z + s_jzv
            r1 = float(np.max(np.abs(se1 - float(cst["rho_minus"]) * e1)))
            e2 = vf * z_vec - sf * jzv_vec
            se2 = vf * s_z - sf * s_jzv
            r2 = float(np.max(np.abs(se2 - float(cst["rho_1"]) * e2)))
            worst = max(worst, sym, r1, r2)
    rep.record("forced-shape-eigenvectors", "shape-from-tangency",
               worst <= 1e-10, exact=False, residual=worst)
    return rep


# ---------------------------------------------------------------------------
# dimension enumeration
# ---------------------------------------------------------------------------

def enumerate_dimension_cases(max_dv: int = 64) -> list[tuple[int, int]]:
    """All (d_z, d_v) where the center-kernel count can satisfy its bound.

    Requires d(-1) = 2 d_z - d_v/2 - 4 to be an even integer >= 2,
    d_p = d_v/2 - 4 >= 0, and d_z within the Radon-Hurwitz-type bound.
    """
    out = []
    for d_v in range(1, max_dv + 1):
        if d_v % 4:
            continue  # parity of d(-1) forces 4 | d_v
        if d_v // 2 - 4 < 0:
            continue
        for d_z in range(1, max_center_dim(d_v) + 1):
            dm1 = 2 * d_z - d_v // 2 - 4
            if dm1 >= 2 and dm1 % 2 == 0:
                out.append((d_z, d_v))
    return sorted(out)


def replay_dimension_cases() -> LedgerReport:
    """The enumeration leaves exactly the five cases the argument treats."""
    rep = LedgerReport("dimension-cases")
    cases = enumerate_dimension_cases()
    rep.record("enumeration", "dimension-enumeration",
               cases == [(5, 8), (6, 8), (7, 8), (7, 16), (8, 16)], exact=True, cases=cases)
    return rep


# ---------------------------------------------------------------------------
# octonion case (8, 16)
# ---------------------------------------------------------------------------

def _admissible_octonion_v(rng: np.random.Generator, vsq: float) -> np.ndarray:
    v1 = rng.standard_normal(8)
    v2 = rng.standard_normal(8)
    v2 -= (v1 @ v2) / (v1 @ v1) * v1
    v1 /= np.linalg.norm(v1)
    v2 /= np.linalg.norm(v2)
    return np.concatenate([v1, v2]) * np.sqrt(vsq / 2.0)


def replay_octonion_case(n_samples: int = 20, seed: int = 0) -> LedgerReport:
    """The (8,16) exclusion: the center kernel is six-dimensional, not four.

    For V = (V1, V2) with equal norms and V1 perp V2 (the shape every
    nonzero kernel forces) and Y along the real octonion, the numeric
    (-1)-eigenspace of K^2 has dimension 6 for every sample, while the
    dimension identity requires 2 d_z - d_v/2 - 4 = 4.
    """
    rep = LedgerReport("octonion-pairs(8,16)")
    g = DamekRicci.from_dims(8, 16)
    rng = np.random.default_rng(seed)

    required = 2 * 8 - 16 // 2 - 4
    rep.record("required-kernel-dimension", "dimension-identity",
               required == 4, exact=True, required=required)

    infos = []
    for _ in range(n_samples):
        vsq = rng.uniform(0.2, 0.7)
        ysq = rng.uniform(0.1, min(0.8, 0.95 - vsq))
        v = _admissible_octonion_v(rng, vsq)
        y = np.zeros(8)
        y[0] = np.sqrt(ysq)
        infos.append(g.k_square_minus1_space(v, y)[1])
    dims = [info["dim"] for info in infos]
    rep.record("kernel-dimension-samples", "octonion-center-mismatch",
               all(d == 6 for d in dims) and required != 6, exact=False,
               residual=max(info["cluster_residual"] for info in infos),
               observed=dims, required=required, samples=n_samples,
               min_gap=min(info["gap"] for info in infos))

    # the substituted second center vector solves both defining equations
    worst = 0.0
    imag_equiv = 0.0
    for _ in range(8):
        v1 = Octonion(rng.standard_normal(8))
        v2 = Octonion(rng.standard_normal(8))
        v2 = Octonion(v2.coords - (v1.coords @ v2.coords) / v1.norm() ** 2 * v1.coords)
        v1 = Octonion(v1.coords / v1.norm())
        v2 = Octonion(v2.coords / v2.norm())
        w = (v1 * v2.conj()).coords  # V1 V2^*, imaginary and unit
        # sample Z unit imaginary, orthogonal to V1 V2^*
        z = rng.standard_normal(8)
        z[0] = 0.0
        z -= (z @ w) * w
        z /= np.linalg.norm(z)
        zo = Octonion(z)
        zp = (zo * v2) * v1.conj()  # |V2| = 1
        worst = max(worst, np.max(np.abs((zo * v1).coords + (zp * v2).coords)),
                    np.max(np.abs((zo * v2).coords - (zp * v1).coords)),
                    abs(zp.norm() - 1.0), abs(float(zp.coords @ z)))
        imag_equiv = max(imag_equiv, abs(zp.real))
    rep.record("substituted-kernel-vector", "octonion-center-mismatch",
               worst <= 1e-12 and imag_equiv <= 1e-12, exact=False,
               residual=max(worst, imag_equiv))

    try:
        bad_v = np.concatenate([np.ones(8), 2 * np.ones(8)]) / 10.0
        _octonion_check_admissible(bad_v)
        ok = False
    except ValueError:
        ok = True
    rep.record("degenerate-v-rejected", "octonion-center-mismatch", ok, exact=True)
    return rep


def _octonion_check_admissible(v: np.ndarray):
    v1, v2 = v[:8], v[8:]
    if abs(np.linalg.norm(v1) - np.linalg.norm(v2)) > 1e-9 or abs(v1 @ v2) > 1e-9 \
            or np.linalg.norm(v1) < 1e-9:
        raise ValueError("V must split into equal-norm orthogonal octonion halves")


# ---------------------------------------------------------------------------
# word algebra for the quarter-eigenspace compatibility equation
# ---------------------------------------------------------------------------

class _SWord:
    """Span of {J, S'J, JS', S'JS'} with exact polynomial coefficients.

    S' is a symmetric operator with S'^2 = H S' + (C + 1/4), J is skew, and
    the principal curvature lam satisfies lam^2 = H lam + (C + 1); both
    relations are applied during reduction.  Coordinates are MPolys in
    (H, C, lam).
    """

    VARS = ("H", "C", "lam")

    def __init__(self, j=0, sj=0, js=0, sjs=0):
        conv = lambda x: x if isinstance(x, MPoly) else MPoly.constant(Fraction(x), self.VARS)
        self.c = [conv(j).embed(self.VARS), conv(sj).embed(self.VARS),
                  conv(js).embed(self.VARS), conv(sjs).embed(self.VARS)]

    @staticmethod
    def syms():
        return MPoly.symbols("H C lam")

    def lmul_s(self) -> "_SWord":
        h, c, _ = self.syms()
        small = c + Fraction(1, 4)
        j, sj, js, sjs = self.c
        return _SWord(j=small * sj, sj=j + h * sj, js=small * sjs, sjs=js + h * sjs)

    def rmul_s(self) -> "_SWord":
        h, c, _ = self.syms()
        small = c + Fraction(1, 4)
        j, sj, js, sjs = self.c
        return _SWord(j=small * js, sj=small * sjs, js=j + h * js, sjs=sj + h * sjs)

    def transpose(self) -> "_SWord":
        j, sj, js, sjs = self.c
        return _SWord(j=-j, sj=-js, js=-sj, sjs=-sjs)

    def scale(self, p) -> "_SWord":
        return _SWord(*[p * x for x in self.c])

    def __add__(self, other) -> "_SWord":
        return _SWord(*[a + b for a, b in zip(self.c, other.c)])

    def __sub__(self, other) -> "_SWord":
        return _SWord(*[a - b for a, b in zip(self.c, other.c)])

    def reduce_lam(self) -> "_SWord":
        h, c, lam = self.syms()
        modulus = lam ** 2 - h * lam - (c + 1)
        return _SWord(*[poly_reduce(x, "lam", modulus) for x in self.c])

    @property
    def is_zero(self) -> bool:
        return all(x.is_zero for x in self.c)


def quarter_compat_element() -> _SWord:
    """J + 4 S'JS' - 2 lam (JS' + S'J), the compatibility combination."""
    _, _, lam = _SWord.syms()
    return _SWord(j=1, sj=-2 * lam, js=-2 * lam, sjs=4)


def replay_quarter_eigenspace_jcompat(seed: int = 0,
                                      run_minimization: bool = True) -> LedgerReport:
    """Case ledger for the compatibility of S' with the complex structures.

    Symbolic branches are exact in the word algebra; the structures of the
    two module families are built from the curvature tensor and checked
    numerically, and a random-restart least-squares search reports the
    residual floor of the compatibility equation at (5,8) as evidence.
    """
    rep = LedgerReport("quarter-eigenspace-jcompat")
    h, c, lam = _SWord.syms()
    e = quarter_compat_element()

    # (a) scalar S' = tau id forces equal principal curvatures
    tau, lam1, lam2 = MPoly.symbols("tau lam1 lam2")
    eq1 = 1 + 4 * tau ** 2 - 4 * lam1 * tau
    eq2 = 1 + 4 * tau ** 2 - 4 * lam2 * tau
    diff_ok = (eq1 - eq2) == 4 * tau * (lam2 - lam1)
    tau_zero_value = eq1.substitute("tau", 0)
    rep.record("scalar-shape-branch", "quarter-compat",
               diff_ok and tau_zero_value == MPoly.constant(1, eq1.variables).embed(eq1.variables),
               exact=True)

    # (b) commuting branch: reduce modulo S'J = JS' and the S' quadratic
    small = c + Fraction(1, 4)
    # e with S'JS' -> (C + 1/4) J + H JS' and S'J -> JS'
    j_coeff = e.c[0] + small * e.c[3]
    js_coeff = e.c[1] + e.c[2] + h * e.c[3]
    expect_j = 2 * (2 * c + 1)
    expect_js = 4 * (h - lam)
    branch_b_ok = (j_coeff == expect_j) and (js_coeff == expect_js)
    # C = -1/2, lam = H contradicts lam^2 - H lam - (C+1) = 0
    quad = lam ** 2 - h * lam - (c + 1)
    contradiction = quad.substitute("lam", h).substitute("C", Fraction(-1, 2))
    branch_b_ok = branch_b_ok and contradiction == MPoly.constant(Fraction(-1, 2), quad.variables).embed(quad.variables)
    rep.record("commuting-shape-branch", "quarter-compat", branch_b_ok, exact=True)

    # (c) the multiplier chain: S' e reduced by e gives the printed combination,
    # and adding the transpose yields 2 (H lam + 2C)(JS' - S'J)
    x = e.lmul_s()
    x = (x - e.scale(x.c[3] / 4)).reduce_lam()
    target = _SWord(j=-(2 * c * lam + h), sj=-(h * lam + c), js=h * lam + 3 * c)
    step_c1 = (x - target).reduce_lam().is_zero
    y = (x + x.transpose()).reduce_lam()
    target2 = _SWord(js=2 * (h * lam + 2 * c), sj=-2 * (h * lam + 2 * c))
    step_c2 = (y - target2).reduce_lam().is_zero
    rep.record("multiplier-chain", "quarter-compat", step_c1 and step_c2, exact=True)

    # (d) H = C = 0 branch: (S' - lam/2) J (S' - lam/2) = e/4
    half_lam = lam / 2
    f = _SWord(j=1).lmul_s().rmul_s() \
        - _SWord(j=1).lmul_s().scale(half_lam) \
        - _SWord(j=1).rmul_s().scale(half_lam) \
        + _SWord(j=1).scale(half_lam * half_lam)
    diff = (f - e.scale(Fraction(1, 4))).reduce_lam()
    # at H = C = 0 (lam^2 = 1, S'^2 = 1/4)
    at_hc0 = [p.substitute("H", 0).substitute("C", 0) for p in diff.c]
    rep.record("isotropy-factorization", "quarter-compat",
               all(p.is_zero for p in at_hc0), exact=True)

    # quaternionic triple induced by the curvature tensor on (5,8)
    g = DamekRicci.from_dims(5, 8)
    ctx = CurvatureContext(g)
    rng = np.random.default_rng(seed)
    frame = random_frame(g, rng)
    lm1, lq = quarter_structure_bases(frame)
    gs = curvature_complex_structures(frame, ctx, lm1, lq)
    worst = 0.0
    dim_q = lq.shape[1]
    for m in gs:
        worst = max(worst, float(np.max(np.abs(m + m.T))),
                    float(np.max(np.abs(m @ m + np.eye(dim_q)))))
    triple = gs[0] @ gs[1] @ gs[2]
    tri_res = min(float(np.max(np.abs(triple - np.eye(dim_q)))),
                  float(np.max(np.abs(triple + np.eye(dim_q)))))
    trace_gap = abs(abs(float(np.trace(triple))) - dim_q)  # a subspace swap has trace 0
    rep.record("quaternionic-triple", "curvature-complex-structures",
               worst <= 1e-11 and tri_res <= 1e-11 and trace_gap <= 1e-9,
               exact=False, residual=max(worst, tri_res),
               triple_trace=float(np.trace(triple)), dim=dim_q)

    # per-structure isotropic planes exist but are incompatible with the triple
    iso = _isotropic_plane_witness(gs)
    rep.record("isotropic-plane-witness", "curvature-complex-structures",
               iso["single_ok"] and not iso["simultaneous"], exact=False,
               residual=iso["single_residual"], cross_pairing=iso["cross_pairing"])

    # (6,8) block structure of the induced skew forms
    g6 = DamekRicci.from_dims(6, 8)
    ctx6 = CurvatureContext(g6)
    frame6 = random_frame(g6, rng)
    lm1_6, lq6 = quarter_structure_bases(frame6)
    block = _six_eight_block_check(frame6, ctx6, lm1_6, lq6)
    rep.record("kernel-direction-block-form", "curvature-complex-structures",
               block["ok"], exact=False, residual=block["residual"],
               singular_values=block["profile"])

    # lambda bound chain and the two squaring chains
    chain_ok = True
    worst_cert = True
    for qq in [Fraction(k, 100) for k in (1, 8, 12, 20, 24)]:
        r = f_cubic_roots(float(qq))
        (l1, h1), (l2, h2), (l3, h3) = r["brackets"]
        # alpha interlacing in exact brackets: -1 < a1 < -3/4 < a2 < -1/4 < a3 <= 0
        chain_ok &= (Fraction(-1) < l1 and h1 < Fraction(-3, 4)
                     and Fraction(-3, 4) < l2 and h2 < Fraction(-1, 4)
                     and Fraction(-1, 4) < l3 and h3 <= 0)
        # |lam| chain with lam = sqrt(-alpha): compare -alpha against 1/4, 3/4, 1
        chain_ok &= (-h3 < Fraction(1, 4) < -h2 and -l2 < Fraction(3, 4) < -l1
                     and -l1 < 1)
        worst_cert &= bool(r["certificate"])
        # biggest root inside (-q, 0) exactly
        chain_ok &= (l3 > -qq)
    rep.record("principal-curvature-bound-chain", "cubic-root-chain",
               chain_ok and worst_cert, exact=True)

    sq = _squaring_chains_exact()
    rep.record("squaring-chains", "cubic-root-chain", sq["ok"], exact=True)

    if run_minimization:
        floor, witness = _compat_residual_floor(gs, seed)
        rep.record("residual-floor-minimization", "quarter-compat", floor > 1e-2,
                   exact=False, residual=floor, seed=seed, method="cayley-lm", **witness)
    return rep


def quarter_structure_bases(frame: NormalFrame) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the -1 and -1/4 eigenspaces of a generic frame,
    from its eigenvector families in their order."""
    families = eigen_families(frame).values()
    return tuple(orthonormalize([v for alpha, vecs in families if alpha == value
                                 for v in vecs]) for value in (-1.0, -0.25))


def curvature_complex_structures(frame: NormalFrame, ctx: CurvatureContext,
                                 lm1: np.ndarray, lq: np.ndarray) -> list[np.ndarray]:
    """The operators on the -1/4 space induced by each unit -1 direction.

    <G_i T1, T2> = -4 R(xi, T1, T2, X_i); on the quaternionic-core modules
    these are the restrictions of the ambient complex structures.
    """
    out = []
    for i in range(lm1.shape[1]):
        m = -4.0 * np.einsum("a,bj,ck,e,abce->kj", frame.xi, lq, lq, lm1[:, i],
                             ctx.riemann_tensor, optimize=True)
        out.append(m)
    return out


def _isotropic_plane_witness(gs: list[np.ndarray]) -> dict:
    """A half-dimension G_1-isotropic plane exists; no plane works for all."""
    n = gs[0].shape[0]
    # eigen-plane of the rotation G_1: span(e, G_1 e)^perp-complement trick:
    # take e_0 and any vector orthogonal to both e_0 and G_1 e_0
    e0 = np.zeros(n)
    e0[0] = 1.0
    g1e0 = gs[0] @ e0
    w = np.zeros(n)
    w[1] = 1.0
    w -= (w @ e0) * e0 + (w @ g1e0) * g1e0 / float(g1e0 @ g1e0)
    w /= np.linalg.norm(w)
    plane = np.column_stack([e0, w])
    single = float(np.max(np.abs(plane.T @ gs[0] @ plane)))
    cross = max(float(np.max(np.abs(plane.T @ g @ plane))) for g in gs[1:])
    return {"single_ok": single <= 1e-12, "single_residual": single,
            "simultaneous": cross <= 1e-9, "cross_pairing": cross}


def _six_eight_block_check(frame: NormalFrame, ctx: CurvatureContext,
                           lm1: np.ndarray, lq: np.ndarray) -> dict:
    """Singular profile {1,1,1,1,|a|,|a|} of the induced forms on (6,8)."""
    ok = True
    worst = 0.0
    profiles = []
    for i in range(lm1.shape[1]):
        x = lm1[:, i]
        # <rJ_i T_j, T_k> = 2 R(xi, X_i, T_j, T_k)
        m = 2.0 * np.einsum("a,b,cj,dk,abcd->kj", frame.xi, x, lq, lq,
                            ctx.riemann_tensor, optimize=True)
        worst = max(worst, float(np.max(np.abs(m + m.T))))
        sv = np.linalg.svd(m, compute_uv=False)
        profiles.append([float(s) for s in sv])
        a_i = abs(float(x @ frame.t0))
        expected = np.sort(np.concatenate([np.ones(4), a_i * np.ones(2)]))[::-1]
        ok &= bool(np.max(np.abs(np.sort(sv)[::-1] - expected)) <= 1e-9)
    return {"ok": ok and worst <= 1e-11, "residual": worst, "profile": profiles[0]}


def _squaring_chains_exact() -> dict:
    """Both squaring chains of the (6,8) parity argument, in exact arithmetic.

    With u_i = sqrt(-alpha_i) and the cubic's symmetric relations, the case
    u1 + u2 = 1 + u3 forces q = u3^3 + u3^2 - u3/4 (so the sign clash on
    (-q, 0) applies), and the case u1 + u3 = 1 + u2 collapses to
    2 (q - 1/4) alpha2 = 0.
    """
    u1, u2, u3, q = MPoly.symbols("u1 u2 u3 q")
    power_sum = u1 ** 2 + u2 ** 2 + u3 ** 2 - Fraction(3, 2)
    prod_rel = u1 * u2 * u3 - q
    # chain 1: (u1+u2)^2 - (1+u3)^2 reduced by the power sum leaves
    # 2 u1 u2 = 2 u3^2 + 2 u3 - 1/2
    a = (u1 + u2) ** 2 - (1 + u3) ** 2
    c1 = (a - power_sum) - (2 * u1 * u2 - 2 * u3 ** 2 - 2 * u3 + Fraction(1, 2))
    # multiply the resulting product value by u3: u3(u3^2 + u3 - 1/4) = q
    prod_value = u3 ** 2 + u3 - Fraction(1, 4)
    c2 = u3 * prod_value - (u1 * u2 * u3) + prod_rel  # == u3*value - q
    c2_ok = c2 == u3 ** 3 + u3 ** 2 - Fraction(1, 4) * u3 - q
    # chain 2 end: -(alpha)(alpha + 1/4)^2 = (q + alpha)^2 expands to the
    # displaced cubic; subtracting f leaves 2 (q - 1/4) alpha
    al = MPoly.symbols("al")[0]
    alq = al.embed(("al", "q"))
    qq = MPoly.symbols("q")[0].embed(("al", "q"))
    displaced = alq ** 3 + Fraction(3, 2) * alq ** 2 + (2 * qq + Fraction(1, 16)) * alq + qq ** 2
    expand_ok = ((qq + alq) ** 2 + alq * (alq + Fraction(1, 4)) ** 2) == displaced
    f_poly = alq ** 3 + Fraction(3, 2) * alq ** 2 + Fraction(9, 16) * alq + qq ** 2
    leftover = displaced - f_poly
    leftover_ok = leftover == 2 * (qq - Fraction(1, 4)) * alq
    return {"ok": c1.is_zero and c2_ok and expand_ok and leftover_ok}


def _compat_model(gmat: np.ndarray, split: int, signs):
    """x = (H, u, K) -> (r, J): the compatibility residual on a Cayley chart, its Jacobian.

    Q = (I - K)^-1 (I + K) (K skew, x[2:] above the diagonal), S' = Q diag(H/2 +- u/2) Q^T (+
    on the first ``split``), C = (u^2 - H^2 - 1)/4 (discriminants u^2 and u^2 + 3, no penalty),
    lam_i = (H + signs_i sqrt(u^2 + 3))/2; r stacks G_i + 4 S'G_iS' - 2 lam_i (G_iS' + S'G_i).
    """
    n = gmat.shape[1]
    eye, tri = np.eye(n), np.triu_indices(n, 1)
    dks = np.einsum("ki,kj->kij", eye[tri[0]], eye[tri[1]])
    dks -= dks.transpose(0, 2, 1)
    scales = np.array([np.full(n, 0.5), np.where(np.arange(n) < split, 0.5, -0.5)])[:, None]
    signs = np.asarray(signs, dtype=float)[:, None, None]

    def model(x):
        kmat = np.einsum("k,kij->ij", x[2:], dks)
        inv = np.linalg.inv(eye - kmat)
        q = inv @ (eye + kmat)
        diag = x[:2] @ scales[:, 0]
        s = (q * diag) @ q.T
        root = np.sqrt(x[1] * x[1] + 3.0)
        lam = 0.5 * (x[0] + signs * root)
        gs, sg = gmat @ s, s @ gmat
        dq = (inv @ dks @ (eye + q) * diag) @ q.T  # dQ D Q^T, dQ = (I - K)^-1 dK (I + Q)
        ds = np.concatenate([q * scales @ q.T, dq + dq.transpose(0, 2, 1)])[:, None]
        dm = 4.0 * (ds @ gs + sg @ ds) - 2.0 * lam * (gmat @ ds + ds @ gmat)
        dm[:2] -= (gs + sg) * np.stack([np.ones_like(signs), x[1] / root * signs])  # 2 dlam/d(H, u)
        return (gmat + 4.0 * sg @ s - 2.0 * lam * (gs + sg)).ravel(), dm.reshape(len(x), -1).T
    return model


# the restarts' sign patterns of lam_i: not all principal curvatures on the -1 space coincide
# (the argument's standing assumption), so only mixed patterns are admissible
MIXED_SIGNS = [(1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)]


def _compat_residual_floor(gs: list[np.ndarray], seed: int) -> tuple[float, dict]:
    """Residual floor of the compatibility equation at (5,8): evidence, not a certificate.

    Sizes are the largest spectral norm of the three blocks.  At ``split`` 0 or n, S' = tau I,
    block i is c_i G_i (c_+ = 1 - s, c_- = 1 + 3s/a^2, s real, a > 0) and the restart's value is
    the infimum min(m_+, m_-), m_+- the largest |G_i| of sign +-1; ``boundary_value`` is the
    least.  Others take the Levenberg-Marquardt optimum of the Frobenius norm, the best
    ``margin`` above it.  The floor, the least of all, is an upper bound on the least residual.
    """
    rng = np.random.default_rng(seed)
    gmat, n = np.stack(gs), gs[0].shape[0]
    norms = np.linalg.norm(gmat, 2, axis=(1, 2))
    scalar, interior = [np.inf], [np.inf]
    for _ in range(24):
        split = rng.integers(0, n + 1)
        signs = MIXED_SIGNS[rng.integers(0, len(MIXED_SIGNS))]
        x0 = np.concatenate([rng.normal(0, 1, 2), rng.normal(0, 0.7, n * (n - 1) // 2)])
        if split in (0, n):
            plus = np.array(signs) > 0
            scalar.append(float(min(norms[plus].max(), norms[~plus].max())))
        else:
            r = levenberg_marquardt(_compat_model(gmat, split, signs), x0)[1]
            interior.append(float(np.max(np.linalg.norm(r.reshape(-1, n, n), 2, axis=(1, 2)))))
    boundary, best = min(scalar), min(interior)
    return min(boundary, best), {"boundary_value": boundary, "margin": best - boundary}


# ---------------------------------------------------------------------------
# general case: the exact polynomial ledger
# ---------------------------------------------------------------------------

def _coefficient_ring():
    return MPoly.symbols("ei ej ek q s v w lam")


def m_coefficients() -> dict[str, MPoly]:
    """The four coefficients of the two-eigenvalue shape relation.

    Expressed in the pair eta_i, eta_j (sigma1 = ei + ej, sigma2 = ei ej),
    the center norm w = |Y| (y = w^2), v = |V|^2 and the -1 principal
    curvature lam; q is kept free.
    """
    ei, ej, ek, q, s, v, w, lam = _coefficient_ring()
    s1 = ei + ej
    s2 = ei * ej
    y = w * w
    m1 = 9 * v * w * (ei - ej) * (q - s2)
    m2 = 36 * v * w * (s - lam) * (s2 * (s1 + 6) - 2 * q)
    m3 = s * (3 * v * (2 * s2 ** 2 + 3 * s2 * s1) + q * (2 * s1 ** 2 - 8 * s2 - 3 * v * s1))
    m4 = 2 * (ei - ej) * (9 * v * (s ** 2 - y - 2 * s * lam) * s2
                          - q * (12 * s ** 2 + 3 * v - 12 * s * lam + s1))
    return {"m1": m1, "m2": m2, "m3": m3, "m4": m4}


def product_identity_reduction() -> dict:
    """m2 m3 - m1 m4 reduced to the quadratic with the printed leading term.

    After eliminating the symmetric pair (sigma1 -> -3 - eta_k,
    sigma2 -> eta_k(eta_k + 3)), rewriting |Y|^2 through the unit-normal
    relation and reducing modulo the center cubic, the product combination
    factors exactly as 54 q v w (A2 eta_k^2 + A1 eta_k + A0) with
    A2 = q(1 - 3v) + 9(1 + 5v)(1 - v).
    """
    ei, ej, ek, q, s, v, w, lam = _coefficient_ring()
    ms = m_coefficients()
    e_poly = ms["m2"] * ms["m3"] - ms["m1"] * ms["m4"]
    elim = symmetric_eliminate(e_poly, ("ei", "ej"),
                               [-3 - ek, ek * ek + 3 * ek])
    elim = poly_reduce(elim, "w", w ** 2 - (1 - s ** 2 - v))
    red = poly_reduce(elim, "ek", ek ** 3 + 3 * ek ** 2 - q)
    red = poly_reduce(red, "w", w ** 2 - (1 - s ** 2 - v))
    factor = 54 * q * v * w
    a2_target = q * (1 - 3 * v) + 9 * (1 + 5 * v) * (1 - v)
    coeffs = [red.coeff_of("ek", k) for k in range(3)]
    quots = [c.divexact(factor) for c in coeffs]
    ok = all(qt is not None for qt in quots)
    a2_match = ok and quots[2] == a2_target
    lam_free = not red.depends_on("lam")
    return {"ok": ok and a2_match and lam_free and red.degree("ek") <= 2,
            "a2_match": a2_match, "lam_free": lam_free,
            "A2": quots[2] if ok else None, "A1": quots[1] if ok else None,
            "A0": quots[0] if ok else None, "factor": factor}


def leading_coefficient_positivity() -> dict:
    """A2 > 0 on the admissible range, split at v = 1/3 as in the argument.

    On 0 < v < 1 with 0 <= q < 27 v^2 (1 - v): for v <= 1/3 the addend
    q(1-3v) is nonnegative and 9(1+5v)(1-v) is positive; for v > 1/3 the
    exact identity A2 = 9(1-v)^2(1+3v)^2 + (q - 27 v^2 (1-v))(1-3v) writes
    A2 as a positive square plus a product of two negative factors.  The
    sign of each linear factor on each open v-interval is exact: a linear
    function there is a positive combination of its values at the two ends.
    """
    q, v = MPoly.symbols("q v")
    f5, f1, f3, g3 = 1 + 5 * v, 1 - v, 1 + 3 * v, 1 - 3 * v
    a2 = q * g3 + 9 * f5 * f1
    identity = a2 - 9 * f1 ** 2 * f3 ** 2 - (q - 27 * v ** 2 * f1) * g3
    third = Fraction(1, 3)
    signs = {"1+5v on (0,1)": _linear_sign(f5, 0, 1),
             "1-v on (0,1)": _linear_sign(f1, 0, 1),
             "1+3v on (0,1)": _linear_sign(f3, 0, 1),
             "1-3v on (0,1/3)": _linear_sign(g3, 0, third),
             "1-3v on (1/3,1)": _linear_sign(g3, third, 1)}
    signs_ok = (list(signs.values()) == [1, 1, 1, 1, -1]
                and g3.evaluate({"v": third}) == 0)
    # exact spot value at v = 1/2, y = 1/4, mu = 0
    spot = a2.evaluate({"q": Fraction(27, 16), "v": Fraction(1, 2)})
    return {"identity_ok": identity.is_zero, "factor_signs": signs,
            "signs_ok": signs_ok, "spot_ok": spot == Fraction(477, 32), "spot": spot,
            "ok": identity.is_zero and signs_ok and spot == Fraction(477, 32),
            "hypothesis": "q < 27 v^2 (1 - v), from q = 27 v^2 y (1+mu), y < 1-v, mu <= 0"}


def _linear_sign(linear: MPoly, lo, hi) -> int:
    """The strict sign of a linear polynomial in v on the open interval
    (lo, hi), from its exact values at the ends; 0 if it has none."""
    if linear.degree("v") > 1:
        raise ValueError(f"{linear!r} is not linear in v")
    ends = {(x > 0) - (x < 0) for x in (linear.evaluate({"v": Fraction(t)}) for t in (lo, hi))}
    ends.discard(0)  # a zero end keeps the open interval's sign strict
    return ends.pop() if len(ends) == 1 else 0


def phi_psi_polys():
    """The two quadratics controlling the commuting kernel-direction branch."""
    t, q, s, v, y, lam = MPoly.symbols("t q s v y lam")

    def phi(at):
        return 3 * s * ((3 * v + 2) * at ** 2 + 6 * (v + 1) * at - (9 * v + 2 * q))

    def psi(at):
        return (2 * at ** 2 + 6 * (y - 3 * s ** 2 + 4 * s * lam) * at
                + 18 * v * (s ** 2 - 2 * s * lam - y))

    return phi, psi


def cyclic_sum_vanishing() -> dict:
    """The cyclic obstruction sum vanishes exactly on the forced locus.

    The cyclic sum of (eta_j - eta_k)(eta_k - eta_i) Psi(eta_i) Psi(eta_j)
    Phi(eta_k) is symmetric; eliminating the roots through e1 = -3, e2 = 0,
    e3 = q and substituting q = 27 v^2 y, y = 1 - s^2 - v and
    lam = 2s(1-v)/(2-3v) (denominator-cleared) gives exactly zero.  The
    divisibility by (q-4)(s(3v-2) lam + 2 s^2 (1-v)) is attempted in the
    constrained ring and reported.
    """
    e1, e2, e3 = MPoly.symbols("e1 e2 e3")
    phi, psi = phi_psi_polys()

    def term(a, b, c):
        return (b - c) * (c - a) * psi(a) * psi(b) * phi(c)

    cs = term(e1, e2, e3) + term(e2, e3, e1) + term(e3, e1, e2)
    q = MPoly.symbols("q")[0]
    f_elim = symmetric_eliminate(cs, ("e1", "e2", "e3"), [-3, 0, q])

    s, v, y = MPoly.symbols("s v y")
    f_sub = f_elim.substitute("q", 27 * v ** 2 * y).substitute("y", 1 - s ** 2 - v)
    deg = f_sub.degree("lam")
    num = 2 * s * (1 - v)
    den = 2 - 3 * v
    combo = MPoly.zero(f_sub.variables)
    for k in range(deg + 1):
        combo = combo + f_sub.coeff_of("lam", k) * num ** k * den ** (deg - k)
    vanishes = combo.is_zero

    lam = MPoly.symbols("lam")[0]
    locus = ((27 * v ** 2 * (1 - s ** 2 - v) - 4)
             * (s * (3 * v - 2) * lam + 2 * s ** 2 * (1 - v)))
    quotient = f_sub.divexact(locus)
    return {"ok": vanishes, "lam_degree": deg,
            "divisible_by_locus": quotient is not None,
            "relations_used": ["q = 27 v^2 y", "y = 1 - s^2 - v",
                               "lam = 2s(1-v)/(2-3v)"]}


def psi_coprimality_samples() -> dict:
    """Resultants of Psi (and Phi) with the center cubic at exact samples.

    Nonzero resultants certify that Psi cannot vanish at a root of the
    cubic, so the commuting branch's coefficient operator is invertible.
    """
    t = MPoly.symbols("t")[0]
    phi, psi = phi_psi_polys()
    p_poly = t ** 3 + 3 * t ** 2 - MPoly.symbols("q")[0]
    res_psi_poly = mpoly_resultant(p_poly, psi(t), "t")
    res_phi_poly = mpoly_resultant(p_poly, phi(t), "t")
    samples = []
    ok = True
    for v in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)):
        for s in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)):
            y = 1 - s * s - v
            if y <= 0 or v == Fraction(2, 3):
                continue
            q = 27 * v * v * y
            lam = 2 * s * (1 - v) / (2 - 3 * v)
            assign = {"q": q, "s": s, "v": v, "y": y, "lam": lam}
            res_psi = res_psi_poly.evaluate(assign)
            res_phi = res_phi_poly.evaluate(assign)
            ok &= res_psi != 0
            samples.append({"v": v, "s": s, "res_psi": res_psi, "res_phi": res_phi})
    return {"ok": ok, "samples": samples}


def final_positivity_analysis(grid: int = 50) -> dict:
    """Exact minimization of 2v^2 + (2-v)^2 + 8y(1-3v) on the closed triangle.

    The expression is linear in y, so the minimum over the closure lies on
    the boundary; every edge and vertex is minimized in exact arithmetic.
    The minimum over the closure is 0, attained only at (v, y) = (2/3, 1/3)
    where s = 0, so the expression is strictly positive on the admissible
    open region.  The grid minimum over the default interior simplex grid
    and the spot value at (1/2, 1/4) are returned exactly.
    """
    v, y = MPoly.symbols("v y")
    gexpr = 2 * v ** 2 + (2 - v) ** 2 + 8 * y * (1 - 3 * v)

    def geval(vv: Fraction, yy: Fraction) -> Fraction:
        return gexpr.evaluate({"v": vv, "y": yy})

    # interior critical points: dg/dy = 8(1-3v) = 0 -> v = 1/3, then
    # dg/dv = 6v - 4 - 24y = 0 -> y = -1/12 < 0: none inside
    interior_critical_y = Fraction(6, 1) * Fraction(1, 3) - 4
    interior_ok = interior_critical_y / 24 < 0
    # edge y = 0: 3v^2 - 4v + 4, vertex at v = 2/3, value 8/3
    edge_y0 = geval(Fraction(2, 3), Fraction(0))
    # edge v = 0: 4 + 8y, min 4 at y = 0
    edge_v0 = geval(Fraction(0), Fraction(0))
    # edge v + y = 1: 27v^2 - 36v + 12 = 3(3v-2)^2, min 0 at v = 2/3
    edge_poly = gexpr.substitute("y", 1 - v)
    factored_ok = edge_poly - 3 * (3 * v - 2) ** 2 == MPoly.zero(edge_poly.variables)
    edge_diag = geval(Fraction(2, 3), Fraction(1, 3))
    vertices = [geval(Fraction(0), Fraction(0)), geval(Fraction(1), Fraction(0)),
                geval(Fraction(0), Fraction(1))]
    closure_min = min(edge_y0, edge_v0, edge_diag, *vertices)

    grid_min = None
    argmin = None
    for i in range(1, grid):          # s^2 = i / grid
        for j in range(1, grid - i):  # v = j / grid, y = 1 - s^2 - v
            vv_ = Fraction(j, grid)
            yy_ = 1 - Fraction(i, grid) - vv_
            val = geval(vv_, yy_)
            if grid_min is None or val < grid_min:
                grid_min, argmin = val, (Fraction(i, grid), vv_, yy_)
    spot = geval(Fraction(1, 2), Fraction(1, 4))
    return {"interior_critical_points": interior_ok,
            "edge_min_y0": edge_y0, "edge_min_v0": edge_v0,
            "diag_factored": factored_ok, "closure_min": closure_min,
            "min_at": {"v": Fraction(2, 3), "y": Fraction(1, 3), "s": 0},
            "positive_on_open_region": bool(closure_min == 0 and factored_ok
                                            and interior_ok),
            "grid_min": grid_min, "grid_argmin": argmin,
            "spot_half_quarter": spot, "spot_ok": spot == Fraction(7, 4)}


def general_case_ledger(exact: bool = True) -> LedgerReport:
    """All exact steps of the general-position contradiction, with the two
    polynomial identities it uses: the eta = 4 alpha + 1 form of the Jacobi
    cubic and the collapse of the symmetric-core Codazzi coefficient.

    Every step runs in rational arithmetic; ``exact=False`` keeps only the
    cheap ones (the positivity arguments, their grids and spot values).
    """
    rep = LedgerReport("general-case-ledger")
    if exact:
        r1 = product_identity_reduction()
        rep.record("product-identity-reduction", "two-eigenvalue-shape-relation",
                   r1["ok"], exact=True,
                   A2=r1["A2"], A1=r1["A1"], A0=r1["A0"], lam_free=r1["lam_free"])

        r3 = cyclic_sum_vanishing()
        rep.record("cyclic-sum-vanishing", "commuting-kernel-branch",
                   r3["ok"], exact=True, divisible_by_locus=r3["divisible_by_locus"],
                   relations_used=r3["relations_used"])

        r4 = psi_coprimality_samples()
        rep.record("poly-coprimality", "commuting-kernel-branch",
                   r4["ok"], exact=True,
                   n_samples=len(r4["samples"]),
                   min_abs_res_psi=str(min(abs(s["res_psi"]) for s in r4["samples"])))

        rep.record("eta-alpha-identity", "normal-jacobi-spectrum",
                   eta_alpha_exact_identity(), exact=True,
                   identity="p(4a+1) = 64 (a+1) (a+1/4)^2 - q, p(t) = t^3 + 3 t^2 - q")
        rep.record("codazzi-coefficient-collapse", "symmetric-core-codazzi",
                   specialized_codazzi_coefficient_identity(), exact=True,
                   identity="4 r (1/2 + (lj - li) lk + (lk - li) lj)")

    r2 = leading_coefficient_positivity()
    rep.record("leading-coefficient-positivity", "two-eigenvalue-shape-relation",
               r2["ok"], exact=True, factor_signs=r2["factor_signs"], spot=r2["spot"],
               hypothesis=r2["hypothesis"])

    r5 = final_positivity_analysis()
    rep.record("final-positivity", "final-positivity",
               r5["positive_on_open_region"] and r5["spot_ok"], exact=True,
               closure_min=r5["closure_min"], grid_min=r5["grid_min"],
               grid_argmin=r5["grid_argmin"], spot=r5["spot_half_quarter"])
    return rep


# ---------------------------------------------------------------------------
# the annihilation identity on the commutant and the center involution
# ---------------------------------------------------------------------------

def _center_involution(frame: NormalFrame):
    """Z (the first column of the (-1)-space of K^2), KZ, |Y| and
    F_Z = J_Y J_Z J_{KZ} / (|Z|^2 |Y|)."""
    g = frame.g
    z = frame.z_minus1[:, 0]
    kz = frame.k_apply(z)
    ny = float(np.linalg.norm(frame.y))
    return z, kz, ny, (g.j_z(frame.y) @ g.j_z(z) @ g.j_z(kz)) / (float(z @ z) * ny)


def replay_p_space_annihilation(seed: int = 0) -> LedgerReport:
    """F_Z involution structure and the forced annihilation on the commutant.

    For Z in the (-1)-eigenspace of K^2 the operator
    F_Z = J_Y J_Z J_{KZ} / (|Z|^2 |Y|) is a symmetric involution whose
    (+1)-space contains V, J_Y V, J_Z V, J_{KZ} V; for center dimension
    above three the two eigenspaces have equal dimension.  The shape
    formulas for W = (J_Y J_Z + |Y| J_{KZ}) P force <S J_Y W, W> to equal
    both halves of +-|Y|^2 |W|^2, so W must vanish; on the (7,16) module
    the annihilation already holds identically, which is recorded.
    """
    rep = LedgerReport("p-space-annihilation")
    rng = np.random.default_rng(seed)

    for dims in [(5, 8), (7, 16)]:
        g = DamekRicci.from_dims(*dims)
        frame = random_frame(g, rng)
        if frame.d_minus1 == 0:
            continue
        z, kz, ny, fz = _center_involution(frame)
        sym_res = float(np.max(np.abs(fz - fz.T)))
        inv_res = float(np.max(np.abs(fz @ fz - np.eye(g.d_v))))
        vals = np.linalg.eigvalsh(0.5 * (fz + fz.T))
        plus_dim = int(np.sum(vals > 0))
        spectrum_pm1 = float(np.max(np.abs(np.abs(vals) - 1.0)))
        vecs_plus = [frame.v, g.j_z(frame.y) @ frame.v, g.j_z(z) @ frame.v,
                     g.j_z(kz) @ frame.v]
        plus_res = max(float(np.max(np.abs(fz @ u - u))) / max(np.linalg.norm(u), 1e-30)
                       for u in vecs_plus)
        ok = (sym_res <= 1e-11 and inv_res <= 1e-11 and spectrum_pm1 <= 1e-11
              and plus_res <= 1e-9 and plus_dim == g.d_v // 2)
        rep.record(f"involution-structure({dims[0]},{dims[1]})",
                   "center-involution", ok, exact=False,
                   residual=max(sym_res, inv_res, plus_res),
                   plus_dim=plus_dim, expected_plus_dim=g.d_v // 2)

        if frame.d_p > 0:
            w_res = 0.0
            jy = g.j_z(frame.y)
            for i in range(frame.d_p):
                p_vec = frame.p_basis[:, i]
                w = jy @ (g.j_z(z) @ p_vec) + ny * (g.j_z(kz) @ p_vec)
                w_res = max(w_res, float(np.linalg.norm(w)))
            rep.record(f"annihilation-identity({dims[0]},{dims[1]})",
                       "commutant-annihilation", w_res <= 1e-9, exact=False,
                       residual=w_res, d_p=frame.d_p)

        # the symmetry clash that forces W = 0 for any Einstein shape operator
        clash_res = 0.0
        ysq = frame.ysq
        for _ in range(6):
            w = rng.standard_normal(g.d_v)
            jyw = g.j_z(frame.y) @ w
            sw = g.vec(-0.5 * jyw + 0.5 * frame.s * w, 0.5 * g.bracket_vz(frame.v, w))
            sjyw = g.vec(0.5 * ysq * w + 0.5 * frame.s * jyw, 0.5 * g.bracket_vz(frame.v, jyw))
            plusside = g.inner(sjyw, g.vec(w)) - 0.5 * ysq * float(w @ w)
            minusside = g.inner(sw, g.vec(jyw)) + 0.5 * ysq * float(w @ w)
            clash_res = max(clash_res, abs(plusside), abs(minusside))
        rep.record(f"symmetry-clash({dims[0]},{dims[1]})",
                   "commutant-annihilation", clash_res <= 1e-11, exact=False,
                   residual=clash_res, clash_coefficient=ysq)

    # d_z = 3 with isomorphic summands: the involution collapses to the identity
    g3 = DamekRicci.from_dims(3, 4)
    fz3 = _center_involution(random_frame(g3, rng))[3]
    id_res = min(float(np.max(np.abs(fz3 - np.eye(4)))),
                 float(np.max(np.abs(fz3 + np.eye(4)))))
    rep.record("involution-identity(3,4)", "center-involution",
               id_res <= 1e-11 and g3.symmetric, exact=False, residual=id_res,
               flagged_symmetric=g3.symmetric)
    return rep
