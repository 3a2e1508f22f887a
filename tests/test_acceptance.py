"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import time
from importlib import resources

import numpy as np
import pytest

import hypoel as H
from hypoel.cli import main as cli_main
from hypoel.grids import cell_frequency
from hypoel.symbols import multi_indices_up_to

from conftest import random_symbol

FIXTURES = resources.files("hypoel") / "fixtures"


class Criterion:
    """Collects sub-checks and prints one summary line on success."""

    def __init__(self, number: int, title: str, budget_s: float):
        self.number = number
        self.title = title
        self.budget = budget_s
        self.t0 = time.perf_counter()

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if elapsed < self.budget else "PASS (over budget)"
        print(f"ACCEPTANCE {self.number} [{self.title}]: {status} in {elapsed:.2f}s (budget {self.budget:.0f}s)")
        assert elapsed < self.budget, f"criterion {self.number} exceeded its {self.budget}s budget"


# -- 1: strength-function oracle equivalence ------------------------------------------


def brute_force_strength_sq(q: H.SymbolPolynomial, xi) -> float:
    total = 0.0
    for alpha in multi_indices_up_to(q.dimension, q.order):
        total += abs(complex(q.derive(alpha)(xi))) ** 2
    return total


def test_criterion_1_strength_oracle():
    crit = Criterion(1, "strength oracle equivalence", 5.0)
    rng = np.random.default_rng(2024)
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        q = random_symbol(rng, dim, 4)
        pts = rng.uniform(-5, 5, size=(20, dim))
        direct = q.strength(pts) ** 2
        for i, xi in enumerate(pts):
            expected = brute_force_strength_sq(q, xi)
            assert abs(direct[i] - expected) <= 1e-10 * max(1.0, abs(expected))
    crit.finish()


# -- 2: exponent estimation --------------------------------------------------------------


def test_criterion_2_exponent_estimation():
    crit = Criterion(2, "exponent estimation", 30.0)
    for terms in ({(2, 0): 1.0, (0, 2): 1.0}, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): 1.0}):
        t0 = time.perf_counter()
        rep = H.estimate_d(H.SymbolPolynomial(2, terms))
        assert rep.verdict == "hypoelliptic-consistent"
        assert abs(rep.d_estimate - 1.0) <= 0.05
        assert rep.d_snapped == (1, 1)
        assert time.perf_counter() - t0 < 10.0

    t0 = time.perf_counter()
    rep = H.estimate_d(H.SymbolPolynomial(2, {(2, 0): 1.0, (0, 1): 1j}))
    assert rep.verdict == "hypoelliptic-consistent"
    assert abs(rep.d_estimate - 2.0) <= 0.2
    assert rep.d_snapped == (2, 1)
    assert time.perf_counter() - t0 < 10.0

    t0 = time.perf_counter()
    rep = H.estimate_d(H.SymbolPolynomial(2, {(2, 0): 1.0, (0, 2): -1.0}))
    assert rep.verdict == "violated"
    direction = np.asarray(rep.witness.direction)
    characteristic = np.array([1.0, 1.0]) / math.sqrt(2)
    angle = min(
        math.acos(np.clip(abs(float(np.dot(direction, c))), -1, 1))
        for c in (characteristic, characteristic * (1, -1))
    )
    assert angle <= 1e-2
    assert time.perf_counter() - t0 < 10.0
    crit.finish()


# -- 3: sequence suite --------------------------------------------------------------------


def test_criterion_3_sequence_suite():
    crit = Criterion(3, "sequence suite", 1.0)
    for s in (1, 2, 3):
        rep = H.check_basic(H.gevrey(s), 60)
        assert rep.h1.passed
        assert rep.root_monotone.passed
        assert rep.h3_left.passed
        assert rep.h3_right_h <= 2**s + 1e-6
    b = H.fit_power_bound(H.gevrey(1), 2, 1, 60)
    assert 3.4 <= b <= 4.0
    inc = H.fit_inclusion(H.gevrey(1), H.gevrey(2), 60)
    assert inc.holds and inc.L == pytest.approx(1.0) and inc.C == pytest.approx(1.0)
    assert not H.fit_inclusion(H.gevrey(2), H.gevrey(1), 60).holds
    crit.finish()


# -- 4: ball-sup sandwich suite -------------------------------------------------------------


def test_criterion_4_weight_suite():
    crit = Criterion(4, "temperate weight suite", 5.0)
    w = H.OnePlusNorm(2)
    fit = H.fit_temperate(w)
    assert fit.success and (fit.c, fit.n_exp) == (1.0, 1.0)
    for delta in (0.1, 1.0):
        assert H.h_delta(w, delta, np.zeros(2)) == pytest.approx(1.0 + delta, rel=1e-6)
        for j in (2, 3):
            rep = H.verify_ball_sup_sandwich(w, delta, j=j, fit=fit)
            assert rep.sandwich_lower_margin >= -1e-12
            assert rep.sandwich_upper_margin >= -1e-12
            assert rep.power_identity_residual <= 1e-9

    strength = H.StrengthWeight(H.SymbolPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0}))
    for delta in (0.1, 1.0):
        rep = H.verify_ball_sup_sandwich(strength, delta, j=2)
        assert rep.passed
        assert rep.sandwich_lower_margin >= -1e-6
        assert rep.sandwich_upper_margin >= -1e-6
        assert rep.power_identity_residual <= 1e-6
    crit.finish()


# -- 5: numerics oracles -----------------------------------------------------------------------


def test_criterion_5_numerics_oracles():
    crit = Criterion(5, "grid engine oracles", 60.0)
    unit = H.BoxDomain((0.0, 0.0), (1.0, 1.0))
    spec = H.GridSpec(unit, 128)

    # Plancherel on every bump fixture
    fixtures = [H.gaussian_bump(spec, w) for w in (0.05, 0.1, 0.2)]
    fixtures += [H.polynomial_bump(spec), H.modulated_bump(spec, (2, 1), 0.15)]
    for u in fixtures:
        assert H.weighted_norm(u, 1.0, 2.0) == pytest.approx(u.l2_norm(), rel=1e-6)

    # plane-wave eigenfunction identity
    lap = H.SymbolPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
    for k in [(1, 0), (2, 1), (4, -4)]:
        u = H.plane_wave(spec, k)
        lam = complex(lap(cell_frequency(spec, k)))
        err = np.max(np.abs(H.apply_operator(lap, u).values - lam * u.values)) / abs(lam)
        assert err <= 1e-10

    # restricted norm of the constant function
    om1 = H.BoxDomain((0.0,), (1.0,))
    spec1 = H.GridSpec(om1, 128)
    one = H.GridFunction(spec1, np.ones(128))
    assert abs(H.restricted_l2(one, om1, 1.0 / 3.0) - math.sqrt(1.0 / 3.0)) <= 2.0 / 128

    # shrink norm closed form
    spec1f = H.GridSpec(om1, 4096)
    onef = H.GridFunction(spec1f, np.ones(4096))
    assert abs(H.shrink_norm(onef, om1, 1.0, 0.5) - 3.0**-1.5) <= 1e-3

    # spectral Laplacian against a second-order finite-difference oracle
    coarse = H.GridSpec(unit, 128)
    fine = H.GridSpec(unit, 1024)
    u_c = H.gaussian_bump(coarse, 0.12)
    u_f = H.gaussian_bump(fine, 0.12, normalize=False)
    vals = u_f.values / H.GridFunction(fine, u_f.values).l2_norm()
    h = (fine.cell.hi[0] - fine.cell.lo[0]) / fine.resolution
    lap_fd = (
        np.roll(vals, 1, 0) + np.roll(vals, -1, 0) + np.roll(vals, 1, 1) + np.roll(vals, -1, 1) - 4 * vals
    ) / h**2
    oracle = -lap_fd[::8, ::8]
    spectral = H.apply_operator(lap, u_c).values
    rel = np.linalg.norm(spectral - oracle) / np.linalg.norm(oracle)
    assert rel <= 1e-4
    crit.finish()


# -- 6: iterate-bound verification -----------------------------------------------------------------


def test_criterion_6_iterate_bound():
    crit = Criterion(6, "derivative-through-iterates bound", 60.0)
    heat = H.SymbolPolynomial(2, {(2, 0): 1.0, (0, 1): 1j})
    omega = H.BoxDomain((-0.35, -0.35), (0.35, 0.35))
    d = H.RationalExponent(2, 1)
    constants = {}
    for res in (64, 128):
        spec = H.GridSpec(omega, res)
        fixtures = [H.gaussian_bump(spec, w) for w in (0.05, 0.1, 0.2)]
        rep = H.verify_iterate_bound(heat, d, fixtures, omega, 3, [0.05, 0.1, 0.2])
        assert rep.verdict == "pass"
        for case in rep.cases:
            if not case.flagged:
                assert case.margin >= -1e-9 * max(case.rhs, 1.0)
        constants[res] = rep.fitted_constant
    assert abs(constants[128] - constants[64]) <= 0.3 * constants[64]
    crit.finish()


# -- 7: growth chain -------------------------------------------------------------------------------


def test_criterion_7_growth_chain():
    crit = Criterion(7, "iterate-to-derivative growth chain", 120.0)
    lap = H.SymbolPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
    omega = H.BoxDomain((-0.7, -0.7), (0.7, 0.7))
    spec = H.GridSpec(omega, 128)
    u = H.gaussian_bump(spec, 0.1)

    # sequence-domination precondition: passes at d=1, diverges at d=2
    assert H.fit_inclusion(H.gevrey(1.0), H.gevrey(1), 60).holds
    assert not H.fit_inclusion(H.gevrey(2.0), H.gevrey(1), 60).holds

    rep = H.verify_growth_chain(u, lap, H.gevrey(1), H.RationalExponent(1, 1), omega, 0.05, 6, 12)
    assert rep.verdict == "pass"
    for fit in (rep.vector_fit, rep.space_fit):
        assert math.isfinite(fit.constant) and fit.constant > 0
        assert fit.residual_tail_slope <= 0.0 + 1e-9
    crit.finish()


# -- 8: constant strength and frozen-iterate domination ----------------------------------------------


def test_criterion_8_constant_strength_and_domination():
    crit = Criterion(8, "constant strength and iterate domination", 60.0)
    x1 = H.SymbolPolynomial.variable(2, 0)
    region = H.BoxDomain((-1.0, -1.0), (1.0, 1.0))
    drift = H.VariableOperator(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): x1}, region)
    assert H.check_constant_strength(drift).verdict == "constant-strength"

    constants = {}
    for res in (64, 128):
        spec = H.GridSpec(region, res)
        u = H.gaussian_bump(spec, 0.15, support=H.BoxDomain((-0.9, -0.9), (0.9, 0.9)))
        rep = H.verify_domination(drift, (0.0, 0.0), u, 3, region)
        assert rep.verdict == "pass"
        assert math.isfinite(rep.fitted_constant)
        constants[res] = rep.fitted_constant
    assert abs(constants[128] - constants[64]) <= 0.3 * constants[64]

    degenerate = H.VariableOperator(
        1, {(2,): H.SymbolPolynomial.variable(1, 0)}, H.BoxDomain((-1.0,), (1.0,))
    )
    rep = H.check_constant_strength(degenerate)
    assert rep.verdict == "not-constant-strength"
    assert abs(rep.witness["x"][0]) <= 1e-3
    crit.finish()


# -- 9: CLI contract ----------------------------------------------------------------------------------


def test_criterion_9_cli_contract(tmp_path, capsys):
    crit = Criterion(9, "CLI contract", 120.0)
    runs = {
        "analyze": ["analyze", "--symbol", str(FIXTURES / "laplacian.json")],
        "seq-check": ["seq-check", "--gevrey", "2", "--pmax", "60"],
        "strength": ["strength", "--p", str(FIXTURES / "first_order.json"),
                     "--q", str(FIXTURES / "laplacian.json")],
    }
    for name, args in runs.items():
        out1 = tmp_path / f"{name}-1.json"
        out2 = tmp_path / f"{name}-2.json"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes(), f"{name} reports differ between runs"
        report = json.loads(out1.read_text())
        assert report["report-version"] == 3
        assert set(report) == {"report-version", "command", "config", "results"}

    bad = tmp_path / "malformed.json"
    bad.write_text("{ not json")
    assert cli_main(["analyze", "--symbol", str(bad)]) == 2

    code = cli_main(["verify", "--check", "th1", "--config", str(FIXTURES / "verify_th1_bad.json")])
    assert code == 2
    assert "factorial-inclusion" in capsys.readouterr().err
    crit.finish()
