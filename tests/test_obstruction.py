"""Proof-replay ledger: every contradiction as an exact or certified check."""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drgeom import obstruction
from drgeom.curvature import CurvatureContext
from drgeom.dralgebra import DamekRicci
from drgeom.numkernel import MPoly, levenberg_marquardt, orthonormalize
from drgeom.obstruction import (EXACT, FAIL, MIXED_SIGNS, _compat_model,
                                _compat_residual_floor, _linear_sign, _SWord,
                                center_cubic_norm, curvature_complex_structures,
                                cyclic_sum_vanishing,
                                enumerate_dimension_cases,
                                final_positivity_analysis, general_case_ledger,
                                leading_coefficient_positivity, m_coefficients,
                                product_identity_reduction,
                                psi_coprimality_samples, quarter_compat_element,
                                replay_no_a, replay_no_v,
                                replay_no_z, replay_octonion_case,
                                replay_p_space_annihilation,
                                replay_quarter_eigenspace_jcompat)
from drgeom.spectrum import eigenspaces, random_frame
from elimination import symmetric_eliminate
from families import center_family_vector
from sylvester import mpoly_resultant


@pytest.fixture(scope="module")
def g24():
    return DamekRicci.from_dims(2, 4)


@pytest.fixture(scope="module")
def ctx24(g24):
    return CurvatureContext(g24)


# ---------------------------------------------------------------------------
# special cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dims", [(1, 2), (7, 8)])
def test_replay_no_v(dims):
    rep = replay_no_v(DamekRicci.from_dims(*dims))
    assert rep.passed
    assert rep.step("nilpotent-ricci-split").verdict != FAIL
    assert rep.step("abelian-control-flat").verdict != FAIL


def test_replay_no_a(ctx24):
    rep = replay_no_a(ctx24, seed=0)
    assert rep.passed
    assert rep.step("einstein-difference-formula").residual < 1e-10
    assert rep.step("center-direction-gap").witness["gap"] == -0.25
    assert rep.step("center-direction-gap").residual < 1e-12


def test_replay_no_a_rotation_invariance(ctx24):
    # the clash is isotropic in V: different seeds rotate V, same verdicts
    r1 = replay_no_a(ctx24, seed=1)
    r2 = replay_no_a(ctx24, seed=2)
    assert r1.passed and r2.passed


@pytest.mark.parametrize("dims", [(2, 4), (3, 4), (7, 8), (8, 16)])
def test_replay_no_z(dims):
    rep = replay_no_z(*dims)
    assert rep.passed
    scan = rep.step("trace-identity-scan")
    assert scan.verdict == EXACT
    assert scan.witness["violations"] == []
    assert rep.step("equal-roots-at-one-third").verdict == EXACT
    assert rep.step("forced-shape-eigenvectors").residual < 1e-10


def test_replay_no_z_rederived_bound(monkeypatch):
    # the grid scan's verdict includes d2 > (1 + d_z + d_v)/3 at every point
    monkeypatch.setattr(obstruction, "NO_Z_GRID", tuple(Fraction(i, 20) for i in range(1, 20)))
    rep = replay_no_z(5, 8)
    assert rep.passed
    assert rep.step("trace-identity-scan").witness["violations"] == []
    assert rep.step("trace-identity-scan").witness["grid_points"] == 19


# ---------------------------------------------------------------------------
# dimension enumeration
# ---------------------------------------------------------------------------

def test_enumerate_dimension_cases_exact():
    cases = enumerate_dimension_cases()
    assert cases == [(5, 8), (6, 8), (7, 8), (7, 16), (8, 16)]


def test_enumerate_dimension_cases_bound_independent(monkeypatch):
    cases = []
    for max_dv in (16, 64, 128):
        monkeypatch.setattr(obstruction, "MAX_DV", max_dv)
        cases.append(enumerate_dimension_cases())
    assert cases[0] == cases[1] == cases[2]


def test_enumerate_symmetric_member_flagged():
    from drgeom.clifford import build_module, is_symmetric_space
    assert is_symmetric_space(build_module(7, 8))
    # the remaining candidates are not symmetric with default flags
    for d_z, d_v in [(5, 8), (6, 8), (7, 16), (8, 16)]:
        assert not is_symmetric_space(build_module(d_z, d_v))


def test_dimension_identity_p_space():
    # d_p = d_v/2 - 4 for the surviving cases
    for d_z, d_v in [(5, 8), (6, 8), (7, 16), (8, 16)]:
        d_m1 = 2 * d_z - d_v // 2 - 4
        d_p = d_v - 2 * d_z + d_m1
        assert d_p == d_v // 2 - 4


# ---------------------------------------------------------------------------
# octonion case
# ---------------------------------------------------------------------------

def test_replay_octonion_case():
    rep = replay_octonion_case(seed=0)
    assert rep.passed
    samples = rep.step("kernel-dimension-samples")
    assert samples.witness["observed"] == [6] * 20
    assert samples.witness["required"] == 4
    assert 0.0 < samples.residual <= 1e-12  # the -1 cluster, measured rather than 0.0
    # the dropped K^2 eigenvalue on Y-perp is 0, a full unit away from -1
    assert abs(samples.witness["min_gap"] - 1.0) <= 1e-9
    assert rep.step("substituted-kernel-vector").residual < 1e-11
    assert rep.step("degenerate-v-rejected").verdict == EXACT


def test_octonion_structured_v_kernel():
    g = DamekRicci.from_dims(8, 16)
    v = np.zeros(16)
    v[0] = v[9] = np.sqrt(0.3)  # V1 along 1, V2 along e1
    y = np.zeros(8)
    y[0] = np.sqrt(0.3)
    _, info = g.k_square_minus1_space(v, y)
    assert info["dim"] == 6


# ---------------------------------------------------------------------------
# quarter-space compatibility
# ---------------------------------------------------------------------------

def test_sword_reduction_rules():
    h, c, lam = _SWord.syms()
    e = quarter_compat_element()
    # transpose is an involution; the element flips sign under it (J skew)
    assert (e.transpose().transpose() - e).is_zero
    assert (e + e.transpose()).is_zero


def test_replay_quarter_eigenspace_jcompat_fast():
    rep = replay_quarter_eigenspace_jcompat(seed=0, run_minimization=False)
    assert rep.passed
    for sid in ("scalar-shape-branch", "commuting-shape-branch",
                "multiplier-chain", "isotropy-factorization", "squaring-chains",
                "principal-curvature-bound-chain"):
        assert rep.step(sid).verdict == EXACT
    assert rep.step("quaternionic-triple").residual < 1e-11
    assert abs(abs(rep.step("quaternionic-triple").witness["triple_trace"]) - 4) < 1e-9


def _listed_quarter_structure_bases(frame):
    # the -1 and -1/4 family lists, as the quarter-eigenspace replay built its
    # bases before it read them from spectrum.eigenspaces
    lm1 = [frame.t0] + [center_family_vector(frame, frame.z_minus1[:, i], "minus1")
                        for i in range(frame.d_minus1)]
    rest = orthonormalize([frame.s4[:, i]
                           - frame.xi * (frame.xi @ frame.s4[:, i])
                           - frame.t0 * (frame.t0 @ frame.s4[:, i])
                           for i in range(frame.s4.shape[1])])
    lq = [rest[:, i] for i in range(rest.shape[1])]
    lq += [center_family_vector(frame, frame.z_minus1[:, i], "quarter")
           for i in range(frame.d_minus1)]
    lq += [frame.g.vec(frame.p_basis[:, i]) for i in range(frame.d_p)]
    return orthonormalize(lm1), orthonormalize(lq)


@pytest.mark.parametrize("dims", [(2, 4), (3, 4), (5, 8), (6, 8), (7, 16), (8, 16)])
def test_quarter_structure_bases_equal_the_listed_families(dims):
    g = DamekRicci.from_dims(*dims)
    rng = np.random.default_rng(sum(dims))
    for _ in range(4):
        frame = random_frame(g, rng)
        spaces = dict(eigenspaces(frame))
        for alpha, expect in zip((-1.0, -0.25), _listed_quarter_structure_bases(frame)):
            assert np.array_equal(spaces[alpha], expect)


def test_replay_quarter_minimization_floor():
    rep = replay_quarter_eigenspace_jcompat(seed=0, run_minimization=True)
    assert rep.passed
    floor = rep.step("residual-floor-minimization").residual
    assert floor > 1e-2


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_replay_quarter_minimization_floor_other_seeds(seed):
    step = replay_quarter_eigenspace_jcompat(seed=seed).step("residual-floor-minimization")
    assert step.verdict != FAIL
    assert step.residual > 1e-2
    # every G_i is orthogonal, so the scalar-branch infimum is 1 in the spectral norm,
    # and the best interior optimum lies about 0.3136 above it
    assert step.witness == {"seed": seed, "method": "cayley-lm",
                            "boundary_value": step.residual,
                            "margin": pytest.approx(0.31362, abs=1e-5)}
    assert step.residual == pytest.approx(1.0, abs=1e-12)


def test_quarter_floor_model_calls_stay_bounded(monkeypatch):
    # the scalar-split restarts are closed form: only the interior ones call the model;
    # count the problems each batched call evaluates, one split per row
    splits = []

    def counting_model(gmat, problem_splits, signs):
        model = _compat_model(gmat, problem_splits, signs)

        def counted(x, rows):
            splits.extend(problem_splits[b] for b in rows)
            return model(x, rows)
        return counted
    monkeypatch.setattr(obstruction, "_compat_model", counting_model)
    replay_quarter_eigenspace_jcompat(seed=0)
    assert 0 < len(splits) < 2000
    assert all(0 < s < 4 for s in splits)


def _lone_model(gmat, split, signs):
    # one problem through the batched model: x[None] in, row 0 out
    model = _compat_model(gmat, [split], [signs])
    return lambda x: tuple(out[0] for out in model(x[None], [0]))


def _compat_reference(gmat, split, signs, x):
    # the compatibility residual from the (H, C) quadratics, S' = Q D Q^T
    h, u = x[0], x[1]
    c = (u * u - h * h - 1.0) / 4.0
    kmat = np.zeros((4, 4))
    kmat[np.triu_indices(4, 1)] = x[2:]
    kmat -= kmat.T
    q = np.linalg.solve(np.eye(4) - kmat, np.eye(4) + kmat)
    s_roots = np.roots([1.0, -h, -(c + 0.25)])
    lam_roots = np.roots([1.0, -h, -(c + 1.0)])
    s_hi, s_lo = (h + u) / 2, (h - u) / 2  # u may be negative: the labels swap
    assert np.allclose(sorted(s_roots), sorted([s_hi, s_lo]))
    smat = q @ np.diag([s_hi] * split + [s_lo] * (4 - split)) @ q.T
    out = []
    for gi, sg in zip(gmat, signs):
        lam = max(lam_roots) if sg > 0 else min(lam_roots)
        out.append(gi + 4 * smat @ gi @ smat - 2 * lam * (gi @ smat + smat @ gi))
    return np.concatenate([m.ravel() for m in out])


@pytest.mark.parametrize("split", range(5))
def test_compat_model_jacobian_matches_central_differences(split):
    rng = np.random.default_rng(100 + split)
    gmat = rng.standard_normal((3, 4, 4))
    step = 1e-6
    for signs in [p for p in itertools.product((1, -1), repeat=3) if len(set(p)) == 2]:
        model = _lone_model(gmat, split, signs)
        for _ in range(3):
            x = np.concatenate([rng.normal(0, 1, 2), rng.normal(0, 0.7, 6)])
            r, jac = model(x)
            assert jac.shape == (48, 8)
            assert np.allclose(r, _compat_reference(gmat, split, signs, x), rtol=0, atol=1e-9)
            central = np.column_stack([(model(x + step * e)[0] - model(x - step * e)[0])
                                       / (2 * step) for e in np.eye(8)])
            assert np.max(np.abs(central - jac)) <= 1e-7 * max(1.0, np.max(np.abs(jac)))


def _quarter_structures(seed):
    # the (5,8) structures replay_quarter_eigenspace_jcompat draws at this seed
    g = DamekRicci.from_dims(5, 8)
    frame = random_frame(g, np.random.default_rng(seed))
    spaces = dict(eigenspaces(frame))
    return curvature_complex_structures(frame, CurvatureContext(g), spaces[-1.0], spaces[-0.25])


BLOCK_NORMS = {"spectral": lambda m: np.linalg.norm(m, 2, axis=(-2, -1)),
               "max-entry": lambda m: np.max(np.abs(m), axis=(-2, -1))}


def _scalar_point(split, a, s):
    # (H, u) with a = u + sqrt(u^2 + 3), s = (H - u) a at split 0; split 4 mirrors u -> -u
    u = (a * a - 3.0) / (2.0 * a)
    return u + s / a, (u if split == 0 else -u)


def _scalar_infimum(gmat, signs, norm):
    # min(m_+, m_-): the largest block norm among the G_i of each sign
    m, plus = BLOCK_NORMS[norm](gmat), np.array(signs) > 0
    return min(m[plus].max(), m[~plus].max())


@pytest.mark.parametrize("split", [0, 4])
def test_scalar_split_residual_is_a_multiple_of_each_structure(split):
    gmat = np.stack(_quarter_structures(0))
    rng = np.random.default_rng(split)
    for signs in MIXED_SIGNS:
        model = _lone_model(gmat, split, signs)
        for a, s in zip(np.exp(rng.normal(0, 1.5, 4)), rng.normal(0, 2, 4)):
            h, u = _scalar_point(split, a, s)
            # S' = tau I at K = 0 exactly; the Cayley chart keeps Q orthogonal up to rounding
            r, jac = model(np.concatenate([[h, u], np.zeros(6)]))
            assert np.all(jac[:, 2:] == 0.0)
            jac_k = model(np.concatenate([[h, u], rng.normal(0, 0.7, 6)]))[1]
            assert np.max(np.abs(jac_k[:, 2:])) <= 1e-13 * max(1.0, h * h)
            coef = np.where(np.array(signs) > 0, 1.0 - s, 1.0 + 3.0 * s / a ** 2)
            assert np.allclose(r.reshape(3, 4, 4), coef[:, None, None] * gmat,
                               rtol=0, atol=1e-12 * max(1.0, h * h))


@pytest.mark.parametrize("norm", sorted(BLOCK_NORMS))
def test_scalar_split_never_beats_its_closed_form(norm):
    gmat = np.stack(_quarter_structures(0))
    rng = np.random.default_rng(7)
    ratios = []
    for split, signs in itertools.product((0, 4), MIXED_SIGNS):
        model = _lone_model(gmat, split, signs)
        bound = _scalar_infimum(gmat, signs, norm)
        # heavy tails: log-normal a and Cauchy s put |H| up to about 1e5 and crowd s = 1
        for a, s in zip(np.exp(rng.normal(0, 3, 250).clip(-7, 7)), rng.standard_cauchy(250)):
            r = model(np.concatenate([_scalar_point(split, a, s), rng.normal(0, 0.7, 6)]))[0]
            ratios.append(np.max(BLOCK_NORMS[norm](r.reshape(3, 4, 4))) / bound)
        # s = 1 (a -> oo) zeroes c_+ and s = -a^2/3 (a -> 0) zeroes c_-: the residual
        # falls to m_- and m_+ from above, and the lesser limit is the infimum
        limits = []
        for path in ([(a, 1.0) for a in (1e1, 1e2, 1e3)],
                     [(a, -a * a / 3.0) for a in (1e-1, 1e-2, 1e-3)]):
            vals = [np.max(BLOCK_NORMS[norm](model(np.concatenate(
                [_scalar_point(split, a, s), np.zeros(6)]))[0].reshape(3, 4, 4))) for a, s in path]
            assert vals[0] > vals[1] > vals[2] >= bound * (1 - 1e-12)
            limits.append(vals[2])
        assert min(limits) == pytest.approx(bound, rel=1e-5)
    assert len(ratios) == 3000 and min(ratios) >= 1 - 1e-12


def test_scalar_restart_lm_ends_above_the_closed_form():
    # seed 0's first restart has split 4: run Levenberg-Marquardt on it to its budget
    gmat, rng = np.stack(_quarter_structures(0)), np.random.default_rng(0)
    split, signs = rng.integers(0, 5), MIXED_SIGNS[rng.integers(0, 6)]
    x0 = np.concatenate([rng.normal(0, 1, 2), rng.normal(0, 0.7, 6)])
    assert split == 4
    r = levenberg_marquardt(_compat_model(gmat, [split], [signs]), x0[None])[1][0]
    r = r.reshape(3, 4, 4)
    for norm in BLOCK_NORMS:
        assert np.max(BLOCK_NORMS[norm](r)) >= _scalar_infimum(gmat, signs, norm)


def test_floor_scalar_restarts_take_the_closed_form():
    # scaled structures have block norms 1, 1/2 and 2, so min(m_+, m_-) depends on the
    # sign pattern; replay the restarts' draws to find the scalar-split ones
    gs = [m * c for m, c in zip(_quarter_structures(0), (1.0, 0.5, 2.0))]
    rng, expect = np.random.default_rng(0), []
    for _ in range(24):
        split, signs = rng.integers(0, 5), MIXED_SIGNS[rng.integers(0, 6)]
        rng.normal(0, 1, 2), rng.normal(0, 0.7, 6)  # x0
        if split in (0, 4):
            expect.append(_scalar_infimum(np.stack(gs), signs, "spectral"))
    floor, witness = _compat_residual_floor(gs, 0)
    assert len(set(expect)) > 1 and witness["boundary_value"] == min(expect)
    assert floor == min(witness["boundary_value"], witness["boundary_value"] + witness["margin"])


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_compat_residual_floor_reproducible_bit_for_bit(tmp_path, flags):
    first = _compat_residual_floor(_quarter_structures(1), 1)
    # the second call runs in a fresh process, whose heap layout differs; under -O every
    # guard of the lockstep solver still runs, because none of them is an assert
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "quarter.json"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, *flags, "-m", "drgeom.cli", "replay",
                           "quarter-jcompat", "--seed", "1", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps = {s["id"]: s for s in json.loads(out.read_text())["replays"][0]["steps"]}
    step = steps["residual-floor-minimization"]
    assert step["residual"].hex() == first[0].hex()
    for key in ("boundary_value", "margin"):
        assert step["witness"][key].hex() == first[1][key].hex()


QUARTER_FLOOR_BITS = json.loads(
    (Path(__file__).parent / "data" / "quarter_floor_bits.json").read_text())["seeds"]


@pytest.mark.parametrize("pinned", QUARTER_FLOOR_BITS, ids=lambda p: f"seed{p['seed']}")
def test_compat_residual_floor_keeps_its_pinned_bits(pinned):
    floor, witness = _compat_residual_floor(_quarter_structures(pinned["seed"]), pinned["seed"])
    assert (floor.hex(), witness["margin"].hex()) == (pinned["floor"], pinned["margin"])


_unit = st.floats(-2.0, 2.0, allow_nan=False)


@settings(max_examples=15, deadline=None)
@given(gmat=st.lists(_unit, min_size=48, max_size=48),
       problems=st.lists(st.tuples(st.integers(0, 4), st.sampled_from(MIXED_SIGNS),
                                   st.lists(_unit, min_size=8, max_size=8)),
                         min_size=1, max_size=4))
def test_lockstep_levenberg_marquardt_equals_lone_runs_bit_for_bit(gmat, problems):
    gmat = np.reshape(gmat, (3, 4, 4))
    splits, signs, x0 = zip(*problems)
    x0 = np.array(x0)
    xs, rs = levenberg_marquardt(_compat_model(gmat, splits, signs), x0)
    assert xs.shape == (len(problems), 8) and rs.shape == (len(problems), 48)
    for b, (split, sign, _) in enumerate(problems):
        x1, r1 = levenberg_marquardt(_compat_model(gmat, [split], [sign]), x0[b][None])
        assert xs[b].tobytes() == x1[0].tobytes()
        assert rs[b].tobytes() == r1[0].tobytes()


def test_levenberg_marquardt_stops_at_an_exact_zero_residual():
    # with only G_3[3, 3] nonzero a start at 0 reaches r = 0 exactly; every later step is
    # rejected, and the damping grew until it overflowed and lstsq raised on the NaN step
    gmat = np.zeros((3, 4, 4))
    gmat[2, 3, 3] = 1.0
    model, calls = _compat_model(gmat, [0], [(1, 1, -1)]), []

    def counted(x, rows):
        calls.append(len(rows))
        return model(x, rows)
    x, r = levenberg_marquardt(counted, np.zeros((1, 8)))
    assert np.all(np.isfinite(x)) and np.all(r == 0.0)
    assert len(calls) < 800


def test_levenberg_marquardt_rejects_a_flat_or_empty_start_and_a_short_model():
    model = _compat_model(np.stack(_quarter_structures(0)), [1, 2], MIXED_SIGNS[:2])
    x0 = np.zeros((2, 8))
    for flat in (x0[0], x0[:0]):
        with pytest.raises(ValueError, match=r"x0 has shape \(\d?,? ?8,?\)"):
            levenberg_marquardt(model, flat)
    with pytest.raises(ValueError, match="model returned 1 residual and 1 Jacobian rows "
                                         "for 2 problems"):
        levenberg_marquardt(lambda x, rows: tuple(a[:1] for a in model(x, rows)), x0)


# ---------------------------------------------------------------------------
# exact general-case ledger
# ---------------------------------------------------------------------------

def test_m_coefficients_pair_symmetry():
    ms = m_coefficients()
    prod = ms["m2"] * ms["m3"] - ms["m1"] * ms["m4"]
    swapped = prod.substitute("ei", MPoly.symbols("tmp")[0]) \
                  .substitute("ej", MPoly.symbols("ei ej ek q s v w lam")[0]) \
                  .substitute("tmp", MPoly.symbols("ei ej ek q s v w lam")[1])
    assert (prod - swapped).is_zero


def test_product_identity_reduction_exact():
    out = product_identity_reduction()
    assert out["ok"]
    assert out["lam_free"]
    a2 = out["A2"]
    assert a2.evaluate({"q": Fraction(27, 16), "v": Fraction(1, 2)}) == Fraction(477, 32)


def test_leading_coefficient_positivity():
    out = leading_coefficient_positivity()
    assert out["ok"]
    assert out["identity_ok"]
    assert out["factor_signs"] == {"1+5v on (0,1)": 1, "1-v on (0,1)": 1,
                                   "1+3v on (0,1)": 1, "1-3v on (0,1/3)": 1,
                                   "1-3v on (1/3,1)": -1}
    assert out["spot"] == Fraction(477, 32)


def test_linear_sign_from_the_interval_ends():
    v = MPoly.symbols("v")[0]
    assert _linear_sign(1 - 3 * v, 0, Fraction(1, 3)) == 1   # zero at one end only
    assert _linear_sign(1 - 3 * v, Fraction(1, 3), 1) == -1
    assert _linear_sign(1 - 3 * v, 0, 1) == 0                # changes sign inside
    assert _linear_sign(MPoly.zero(v.variables), 0, 1) == 0
    with pytest.raises(ValueError, match="not linear"):
        _linear_sign(v * v, 0, 1)


def test_cyclic_sum_vanishing_exact():
    out = cyclic_sum_vanishing()
    assert out["ok"]
    assert out["divisible_by_locus"]


def test_psi_coprimality():
    out = psi_coprimality_samples()
    assert out["ok"]
    assert all(s["res_psi"] != 0 for s in out["samples"])


def test_psi_coprimality_resultants_match_sympy():
    # the two symbolic resultants, evaluated at a sample, equal sympy's
    # resultants of the cubic and Psi/Phi specialized at that sample
    t = sp.Symbol("t")
    out = psi_coprimality_samples()
    assert len(out["samples"]) == 15
    for smp in out["samples"]:
        v, s = (sp.Rational(smp[k].numerator, smp[k].denominator) for k in ("v", "s"))
        y = 1 - s ** 2 - v
        q = 27 * v ** 2 * y
        lam = 2 * s * (1 - v) / (2 - 3 * v)
        cubic = t ** 3 + 3 * t ** 2 - q
        psi = (2 * t ** 2 + 6 * (y - 3 * s ** 2 + 4 * s * lam) * t
               + 18 * v * (s ** 2 - 2 * s * lam - y))
        phi = 3 * s * ((3 * v + 2) * t ** 2 + 6 * (v + 1) * t - (9 * v + 2 * q))
        for key, poly in (("res_psi", psi), ("res_phi", phi)):
            oracle = sp.Rational(sp.resultant(cubic, poly, t))
            assert smp[key] == Fraction(int(oracle.p), int(oracle.q)), (smp["v"], smp["s"], key)


@pytest.fixture(scope="module")
def cyclic_sum_by_elimination():
    """The reference route: the cyclic sum expanded in e1, e2, e3 and rewritten
    through the elementary symmetric functions of the cubic's roots."""
    e1, e2, e3 = MPoly.symbols("e1 e2 e3")
    phi, psi = obstruction.phi_psi_polys()

    def term(a, b, c):
        return (b - c) * (c - a) * psi(a) * psi(b) * phi(c)

    cs = term(e1, e2, e3) + term(e2, e3, e1) + term(e3, e1, e2)
    return symmetric_eliminate(cs, ("e1", "e2", "e3"), [-3, 0, MPoly.symbols("q")[0]])


def test_cyclic_sum_trace_equals_the_elementary_symmetric_route(cyclic_sum_by_elimination):
    assert cyclic_sum_vanishing()["sum"] == cyclic_sum_by_elimination


def test_cyclic_sum_trace_fails_the_oracle_with_a_wrong_power_sum(
        monkeypatch, cyclic_sum_by_elimination):
    # negative control: p2 = e1^2 - 2 e2 = 9, not 3
    monkeypatch.setattr(obstruction, "CENTER_POWER_SUMS", (3, -3, 3))
    assert cyclic_sum_vanishing()["sum"] != cyclic_sum_by_elimination


@pytest.mark.parametrize("power", [0, 1, 2])
def test_cyclic_sum_does_not_vanish_with_one_phi_coefficient_changed(monkeypatch, power):
    # negative control: one coefficient of Phi moves by s, so the sum no
    # longer vanishes on the locus
    phi, psi = obstruction.phi_psi_polys()
    s = MPoly.symbols("s")[0]
    monkeypatch.setattr(obstruction, "phi_psi_polys",
                        lambda: (lambda at: phi(at) + s * at ** power, psi))
    assert not cyclic_sum_vanishing()["ok"]


def test_center_cubic_norm_is_the_sylvester_resultant_at_the_samples():
    t, q = MPoly.symbols("t q")
    phi, psi = obstruction.phi_psi_polys()
    cubic = t ** 3 + 3 * t ** 2 - q
    oracles = {"res_psi": mpoly_resultant(cubic, psi(t), "t"),
               "res_phi": mpoly_resultant(cubic, phi(t), "t")}
    samples = psi_coprimality_samples()["samples"]
    assert len(samples) == 15
    for smp in samples:
        v, s = smp["v"], smp["s"]
        y = 1 - s * s - v
        assign = {"q": 27 * v * v * y, "s": s, "v": v, "y": y,
                  "lam": 2 * s * (1 - v) / (2 - 3 * v)}
        for key, oracle in oracles.items():
            assert smp[key] == oracle.evaluate(assign), (v, s, key)


_RATIONALS = st.fractions(-20, 20, max_denominator=12)


@settings(max_examples=100, deadline=None)
@given(q=_RATIONALS, g=st.lists(_RATIONALS, min_size=3, max_size=3))
@example(q=Fraction(4), g=[Fraction(1), Fraction(-2), Fraction(0)])  # degree 1
@example(q=Fraction(-1, 3), g=[Fraction(5, 2), Fraction(0), Fraction(0)])  # a constant
@example(q=Fraction(0), g=[Fraction(0)] * 3)  # p has the double root 0, g = 0
def test_center_cubic_norm_is_the_sylvester_resultant(q, g):
    t = MPoly.symbols("t")[0]
    oracle = mpoly_resultant(t ** 3 + 3 * t ** 2 - q, g[0] + g[1] * t + g[2] * t * t, "t")
    assert center_cubic_norm(g, q) == oracle.evaluate({})


def test_final_positivity_analysis():
    out = final_positivity_analysis()
    assert out["positive_on_open_region"]
    assert out["closure_min"] == 0
    assert out["min_at"] == {"v": Fraction(2, 3), "y": Fraction(1, 3), "s": 0}
    assert out["spot_half_quarter"] == Fraction(7, 4)
    assert out["grid_min"] > 0
    # the exact interior-grid minimum over the default 50x50 simplex grid
    assert out["grid_min"] == Fraction(79, 500)


def _fraction_grid_min(grid: int):
    """The grid minimum as one Fraction evaluation per point, in the same order."""
    v, y = MPoly.symbols("v y")
    gexpr = 2 * v ** 2 + (2 - v) ** 2 + 8 * y * (1 - 3 * v)
    grid_min = None
    argmin = None
    for i in range(1, grid):          # s^2 = i / grid
        for j in range(1, grid - i):  # v = j / grid, y = 1 - s^2 - v
            vv_ = Fraction(j, grid)
            yy_ = 1 - Fraction(i, grid) - vv_
            val = gexpr.evaluate({"v": vv_, "y": yy_})
            if grid_min is None or val < grid_min:
                grid_min, argmin = val, (Fraction(i, grid), vv_, yy_)
    return grid_min, argmin


@pytest.mark.parametrize("grid", [3, 7, 10, 50])
def test_final_positivity_grid_equals_the_fraction_loop(grid):
    out = final_positivity_analysis(grid)
    assert (out["grid_min"], out["grid_argmin"]) == _fraction_grid_min(grid)


def test_general_case_ledger_exact_passes():
    rep = general_case_ledger(exact=True)
    assert rep.passed
    for s in rep.steps:
        if s.id in ("product-identity-reduction", "cyclic-sum-vanishing",
                    "poly-coprimality", "final-positivity", "eta-alpha-identity",
                    "codazzi-coefficient-collapse"):
            assert s.verdict == EXACT
    # the two identities run only with the exact steps
    assert rep.step("eta-alpha-identity").verdict == EXACT
    assert rep.step("codazzi-coefficient-collapse").verdict == EXACT
    cheap = {s.id for s in general_case_ledger(exact=False).steps}
    assert not cheap & {"eta-alpha-identity", "codazzi-coefficient-collapse"}
    # the smallest |Res_t(t^3 + 3t^2 - q, Psi)| over the 15 samples, pinned
    assert rep.step("poly-coprimality").witness["min_abs_res_psi"] == \
        "1530609129/1535312500000"


def test_general_case_ledger_payload_is_pinned():
    # every witness is rational, so the payload text is the same on every platform
    pinned = (Path(__file__).parent / "data" / "general_case_ledger.json").read_text()
    assert json.dumps(general_case_ledger().to_json(), indent=2) + "\n" == pinned


def test_leading_coefficient_positivity_is_exact():
    # the identity and the factor signs are all rational: no float grid
    step = general_case_ledger(exact=False).step("leading-coefficient-positivity")
    assert step.verdict == EXACT
    assert step.witness["factor_signs"]["1-3v on (1/3,1)"] == -1


def test_ledger_json_roundtrip():
    import json
    rep = general_case_ledger(exact=False)
    payload = rep.to_json()
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["name"] == "general-case-ledger"
    assert all("verdict" in s for s in back["steps"])


# ---------------------------------------------------------------------------
# annihilation / involution
# ---------------------------------------------------------------------------

def test_replay_p_space_annihilation():
    rep = replay_p_space_annihilation(seed=0)
    assert rep.passed
    ids = [s.id for s in rep.steps]
    assert "involution-structure(5,8)" in ids
    assert "involution-identity(3,4)" in ids
    assert "annihilation-identity(7,16)" in ids
    for s in rep.steps:
        if s.id.startswith("involution-structure"):
            assert s.witness["plus_dim"] == s.witness["expected_plus_dim"]
        if s.id.startswith("symmetry-clash"):
            assert s.witness["clash_coefficient"] > 0


def test_replay_reproducible_bit_for_bit(monkeypatch):
    import json
    monkeypatch.setattr(obstruction, "OCTONION_SAMPLES", 6)
    a = replay_octonion_case(seed=4).to_json()
    b = replay_octonion_case(seed=4).to_json()
    assert json.dumps(a) == json.dumps(b)
    c = replay_no_z(3, 4).to_json()
    d = replay_no_z(3, 4).to_json()
    assert json.dumps(c) == json.dumps(d)
