"""The three benchmark workloads, generated from a seed.

A workload is a list of operations.  Each operation is one question put to
hypoel through its public API (or its CLI) on inputs generated here, paired
with a check against an answer computed in ``checks`` without hypoel.  The
seed draws coefficients, fixture parameters and file contents; the shape of
every workload (which functions, grid sizes, ray counts, orders) is fixed, so
the cost of a round barely moves from seed to seed.

Operations kept for a named fault take inputs that do not depend on the seed,
so they fail the same way in every round of every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import checks as C
import hypoel as H
import hypoel.cli  # noqa: F401 -- the package does not import its CLI module

WORKLOADS = ("ray-sweep", "spectral-chain", "cli-batch")

#: packaged fixtures, relative to the root of the checkout, which is the working
#: directory of a run: the CLI echoes some paths into its reports
FIXTURES = Path("src/hypoel/fixtures")


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    #: None when the answer is right, otherwise why not
    check: Callable[[object], "str | None"]
    #: the named fault this operation is kept for, and how to recognise it
    fault: str | None = None
    is_fault: Callable[[object], bool] | None = None


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    by_name = {"ray-sweep": ray_sweep, "spectral-chain": spectral_chain, "cli-batch": cli_batch}
    return by_name[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]), workdir)


# -- symbol families ---------------------------------------------------------------


def _c(rng, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 3)


def _e(n: int, **powers) -> tuple:
    """Multi-index with the given powers, keyed x0, x1, ..."""
    return tuple(powers.get(f"x{j}", 0) for j in range(n))


def elliptic2(rng, n: int) -> dict:
    """Positive-definite quadratic form plus lower order terms: elliptic, d = 1."""
    diag = [_c(rng, 0.5, 2.0) for _ in range(n)]
    terms = {_e(n, **{f"x{j}": 2}): diag[j] for j in range(n)}
    for j in range(n):
        for k in range(j + 1, n):
            terms[_e(n, **{f"x{j}": 1, f"x{k}": 1})] = round(_c(rng, -0.3, 0.3) * math.sqrt(diag[j] * diag[k]), 3)
    terms[_e(n, x0=1)] = complex(0, _c(rng, -1.0, 1.0))
    terms[_e(n)] = _c(rng, 0.5, 2.0)
    return terms


def elliptic4(rng) -> dict:
    """c1 xi1^4 + b xi1^2 xi2^2 + c2 xi2^4 + lower order, b >= 0: elliptic of order 4 in 2-D."""
    return {
        (4, 0): _c(rng, 0.5, 2.0),
        (0, 4): _c(rng, 0.5, 2.0),
        (2, 2): _c(rng, 0.0, 1.0),
        (2, 0): complex(0, _c(rng, -1.0, 1.0)),
        (0, 0): _c(rng, 0.5, 2.0),
    }


def quasi_elliptic(rng, orders: tuple) -> tuple[dict, tuple]:
    """sum_j c_j xi_j^{m_j} + terms of quasi-order < 1, with the orders on permuted axes."""
    m = tuple(int(v) for v in rng.permutation(orders))
    n = len(m)
    terms = {_e(n, **{f"x{j}": m[j]}): _c(rng, 0.5, 2.0) for j in range(n)}
    for j in range(n):
        terms[_e(n, **{f"x{j}": m[j] // 2})] = complex(0, _c(rng, -1.0, 1.0))
    a, b = sorted(range(n), key=lambda j: m[j])[-2:]
    terms[_e(n, **{f"x{a}": 1, f"x{b}": 1})] = _c(rng, -0.5, 0.5)
    terms[_e(n)] = _c(rng, 0.5, 2.0)
    return terms, m


def _sym(terms: dict) -> H.SymbolPolynomial:
    return H.SymbolPolynomial(len(next(iter(terms))), terms)


# -- ray-sweep ----------------------------------------------------------------------


def ray_sweep(rng, workdir: Path) -> list[Op]:
    ops: list[Op] = []

    def estimate(name, terms, directions, expected):
        q, cfg = _sym(terms), H.RayConfig(directions=directions)
        ops.append(Op(name, lambda: H.estimate_d(q, cfg), lambda r: C.check_exponent(r, expected)))

    estimate("estimate_d/elliptic-2d-o2@256", elliptic2(rng, 2), 256, (1, 1))
    estimate("estimate_d/elliptic-2d-o2@2048", elliptic2(rng, 2), 2048, (1, 1))
    estimate("estimate_d/elliptic-3d-o2@1024", elliptic2(rng, 3), 1024, (1, 1))
    estimate("estimate_d/elliptic-2d-o4@1024", elliptic4(rng), 1024, (1, 1))
    for orders in ((2, 4), (4, 6), (2, 6), (2, 4, 6)):
        terms, m = quasi_elliptic(rng, orders)
        label = "".join(map(str, orders))
        estimate(f"estimate_d/quasi-{len(m)}d-{label}@256", terms, 256, C.quasi_elliptic_d(m))

    qe, m = quasi_elliptic(rng, (2, 4))
    d_true = max(m) / min(m)
    q = _sym(qe)
    ops.append(
        Op(
            "check_hypoelliptic/quasi-2d-24@d",
            lambda: H.check_hypoelliptic(q, d_true),
            lambda r: C.check_verdict(r, "hypoelliptic-consistent"),
        )
    )
    wave = _sym({(2, 0): _c(rng, 0.5, 2.0), (0, 2): -_c(rng, 0.5, 2.0), (1, 0): complex(0, _c(rng, -1, 1))})
    ops.append(
        Op("check_hypoelliptic/wave-2d", lambda: H.check_hypoelliptic(wave, 1.0), lambda r: C.check_verdict(r, "violated"))
    )
    # this ray count and the 2048-ray strength pair below put five operations of
    # about the same cost mid-round, so the median is not the median of one operation
    free, free_cfg = _sym({(2, 0): _c(rng, 0.5, 2.0), (1, 0): _c(rng, -1, 1), (0, 0): _c(rng, 0.5, 2.0)}), H.RayConfig(directions=1024)
    ops.append(Op("estimate_d/variable-free-2d@1024", lambda: H.estimate_d(free, free_cfg),
                  lambda r: C.check_verdict(r, "violated")))
    e4, cfg = _sym(elliptic4(rng)), H.RayConfig(directions=2048)
    ops.append(
        Op("check_hypoelliptic/elliptic-2d-o4@2048", lambda: H.check_hypoelliptic(e4, 1.0, cfg),
           lambda r: C.check_verdict(r, "hypoelliptic-consistent"))
    )

    for n, rays in ((2, 2048), (3, 256)):
        p_terms = elliptic2(rng, n)
        scaled = {a: _c(rng, 0.5, 2.0) * c for a, c in p_terms.items()}
        scaled[_e(n, **{f"x{n - 1}": 1})] = _c(rng, -1, 1)
        p, q, cfg = _sym(p_terms), _sym(scaled), H.RayConfig(directions=rays)
        ops.append(
            Op(f"equally_strong/P~cP+lower-{n}d@{rays}", lambda p=p, q=q, cfg=cfg: H.equally_strong(p, q, cfg),
               lambda r: C.check_verdict(r, "equally-strong"))
        )
    p2, p4 = _sym(elliptic2(rng, 2)), _sym(elliptic4(rng))
    ops.append(
        Op("equally_strong/o2-vs-o4", lambda: H.equally_strong(p2, p4), lambda r: C.check_verdict(r, "P-weaker"))
    )
    # the variable-free symbol is bounded along the xi2 axis, where the elliptic one grows
    ops.append(
        Op("equally_strong/variable-free-vs-o2", lambda: H.equally_strong(free, p2),
           lambda r: C.check_verdict(r, "P-weaker"))
    )

    # symmetric in x1, so the freeze lattice's middle column is exactly x1 = 0
    half = _c(rng, 0.5, 1.5)
    box = H.BoxDomain((-half, -_c(rng, 0.5, 1.5)), (half, _c(rng, 0.5, 1.5)))
    x = [H.SymbolPolynomial.variable(2, j) for j in range(2)]
    a = _c(rng, 0.5, 2.0) + _c(rng, 0.0, 1.0) * x[0] * x[0] + _c(rng, 0.0, 1.0) * x[1] * x[1]
    bounded = H.VariableOperator(
        2, {(2, 0): a, (0, 2): _c(rng, 0.5, 2.0) * a, (1, 0): _c(rng, -1, 1) + _c(rng, -1, 1) * x[1]}, box
    )
    ops.append(
        Op("check_constant_strength/bounded", lambda: H.check_constant_strength(bounded),
           lambda r: C.check_verdict(r, "constant-strength"))
    )
    # the principal coefficient vanishes on the line x1 = 0
    vanishing = H.VariableOperator(
        2, {(2, 0): _c(rng, 0.5, 2.0) * x[0], (0, 2): _c(rng, 0.5, 2.0) * x[0], (1, 0): _c(rng, 0.5, 2.0)}, box,
    )
    ops.append(
        Op("check_constant_strength/vanishing", lambda: H.check_constant_strength(vanishing),
           lambda r: C.check_verdict(r, "not-constant-strength"))
    )

    for n in (2, 3):
        pair_cfg = H.PairSampleConfig(seed=int(rng.integers(2**31)))
        ops.append(
            Op(f"fit_temperate/one-plus-norm-{n}d", lambda n=n, cfg=pair_cfg: H.fit_temperate(H.OnePlusNorm(n), cfg),
               C.check_temperate_one_plus_norm)
        )
    s_terms = elliptic2(rng, 2)
    weight = H.StrengthWeight(_sym(s_terms))
    pair_cfg = H.PairSampleConfig(seed=int(rng.integers(2**31)))
    # independent pairs from the balls the fit is claimed on
    pairs = np.random.default_rng(pair_cfg.seed)
    xi = C.ball_points(pairs, 512, 2, pair_cfg.xi_radius)
    eta = C.ball_points(pairs, 512, 2, pair_cfg.eta_radius)
    ops.append(
        Op("fit_temperate/strength", lambda: H.fit_temperate(weight, pair_cfg),
           lambda r: C.check_temperate_fit(r, s_terms, xi, eta))
    )
    for label, w in (("one-plus-norm", H.OnePlusNorm(2)), ("strength", weight)):
        delta = _c(rng, 0.25, 1.0)
        ops.append(
            Op(f"verify_ball_sup_sandwich/{label}", lambda w=w, delta=delta: H.verify_ball_sup_sandwich(w, delta),
               C.check_sandwich)
        )

    # a second order-4 symbol at 1024 rays.  With it, a round's median lies
    # among six operations of 50 to 75 ms and its 90th percentile among three
    # estimates of about 430 ms (2-D order 2 at 2048 rays, 2-D order 4 and 3-D
    # order 2 at 1024), not in a gap between operations of different cost,
    # where a quantile moves with the rank.
    estimate("estimate_d/elliptic-2d-o4b@1024", elliptic4(rng), 1024, (1, 1))

    # faults, on inputs that do not depend on the seed
    spike = H.SymbolPolynomial(1, {(0,): 1.0, (40,): 1.0})
    ops.append(
        Op("estimate_d/overflow-1d", lambda: H.estimate_d(spike), lambda r: C.check_exponent(r, (1, 1)),
           fault="overflow-1d",
           is_fault=lambda r: r.verdict == "inconclusive" and r.d_estimate is not None and abs(r.d_estimate - 2.52) < 0.05)
    )
    qe3 = H.SymbolPolynomial(3, {(2, 0, 0): 1.0, (0, 6, 0): 1.0, (0, 0, 4): 1.0})
    cfg = H.RayConfig(directions=1024)
    ops.append(
        Op("estimate_d/refine-overestimate", lambda: H.estimate_d(qe3, cfg), lambda r: C.check_exponent(r, (3, 1)),
           fault="refine-overestimate",
           is_fault=lambda r: r.verdict == "hypoelliptic-consistent" and r.d_estimate > 3 * 1.02)
    )
    return ops


# -- spectral-chain -----------------------------------------------------------------


class GridPair:
    """A grid as the program sees it (GridSpec) and as the checks see it (checks.Grid)."""

    def __init__(self, omega_lo, omega_hi, resolution: int):
        self.omega = H.BoxDomain(tuple(omega_lo), tuple(omega_hi))
        lo, hi = np.asarray(omega_lo, float), np.asarray(omega_hi, float)
        mid, half = 0.5 * (lo + hi), 0.75 * (hi - lo)
        self.grid = C.Grid(mid - half, mid + half, resolution)
        cell = H.BoxDomain(tuple(self.grid.lo), tuple(self.grid.hi))
        self.spec = H.GridSpec(self.omega, resolution, cell)
        self.lo, self.hi = self.omega.lo, self.omega.hi

    def function(self, values) -> H.GridFunction:
        # a fresh GridFunction per call, so no operation reuses another's cached spectrum
        return H.GridFunction(self.spec, values)


def _k(rng, n: int, top: int) -> tuple:
    return tuple(int(v) for v in rng.integers(1, top + 1, n) * rng.choice([-1, 1], n))


def spectral_chain(rng, workdir: Path) -> list[Op]:
    ops: list[Op] = []
    box2 = ((-0.35, -0.35), (0.35, 0.35))
    box3 = ((-0.28,) * 3, (0.28,) * 3)
    delta = 0.05

    def lap(n):
        return {_e(n, **{f"x{j}": 2}): _c(rng, 0.5, 2.0) for j in range(n)}

    def sweep_op(name, call, reference, unflagged_only):
        ref = {}

        def check(sweep):
            if "v" not in ref:
                ref["v"] = reference()
            return C.check_sweep(sweep, ref["v"], C.NORM_RTOL, unflagged_only)

        ops.append(Op(name, call, check))

    # plane waves: closed-form derivative and iterate norms
    f = GridPair(*box2, 256)
    k = _k(rng, 2, 6)
    pw = C.plane_wave_values(f.grid, k)
    sweep_op("derivative_norms/plane-wave-256^2", lambda: H.derivative_norms(f.function(pw), 6, f.omega, delta),
             lambda: C.plane_wave_derivative_norms(f.grid, k, 6, f.lo, f.hi, delta), True)
    for res, n, box, lmax in ((512, 2, box2, 4), (32, 3, box3, 4)):
        fx, kk, terms = GridPair(*box, res), _k(rng, n, 3), lap(n)
        vals, q = C.plane_wave_values(fx.grid, kk), _sym(terms)
        sweep_op(f"iterate_norms/plane-wave-{res}^{n}",
                 lambda fx=fx, vals=vals, q=q, lmax=lmax: H.iterate_norms(q, fx.function(vals), lmax, fx.omega, delta),
                 lambda fx=fx, kk=kk, terms=terms, lmax=lmax: C.plane_wave_iterate_norms(fx.grid, kk, terms, lmax, fx.lo, fx.hi, delta),
                 True)
    f3 = GridPair(*box3, 64)
    k3 = _k(rng, 3, 4)
    pw3 = C.plane_wave_values(f3.grid, k3)
    sweep_op("derivative_norms/plane-wave-64^3", lambda: H.derivative_norms(f3.function(pw3), 3, f3.omega, delta),
             lambda: C.plane_wave_derivative_norms(f3.grid, k3, 3, f3.lo, f3.hi, delta), True)

    # bumps: norms recomputed spectrally by the checks
    g3 = GridPair(*box3, 32)
    gauss3 = C.gaussian_values(g3.grid, g3.lo, g3.hi, _c(rng, 0.06, 0.12), [_c(rng, -0.03, 0.03) for _ in range(3)])
    sweep_op("derivative_norms/gaussian-32^3", lambda: H.derivative_norms(g3.function(gauss3), 4, g3.omega, delta),
             lambda: C.derivative_norms_ref(g3.grid, gauss3, 4, g3.lo, g3.hi, delta), False)
    p2 = GridPair(*box2, 128)
    poly2 = C.polynomial_values(p2.grid, p2.lo, p2.hi, int(rng.integers(6, 11)))
    sweep_op("derivative_norms/polynomial-128^2", lambda: H.derivative_norms(p2.function(poly2), 8, p2.omega, delta),
             lambda: C.derivative_norms_ref(p2.grid, poly2, 8, p2.lo, p2.hi, delta), False)
    m2 = GridPair(*box2, 1024)
    heat = {(2, 0): _c(rng, 0.5, 2.0), (0, 1): complex(0, _c(rng, 0.5, 2.0))}
    mod = C.plane_wave_values(m2.grid, _k(rng, 2, 8)) * C.gaussian_values(
        m2.grid, m2.lo, m2.hi, _c(rng, 0.06, 0.12), [_c(rng, -0.05, 0.05) for _ in range(2)]
    )
    q_heat = _sym(heat)
    sweep_op("iterate_norms/modulated-1024^2", lambda: H.iterate_norms(q_heat, m2.function(mod), 2, m2.omega, delta),
             lambda: C.iterate_norms_ref(m2.grid, mod, heat, 2, m2.lo, m2.hi, delta), False)

    # shrink norms against one explicit mask per shrink distance
    s5 = GridPair(*box2, 512)
    s1 = GridPair(*box2, 1024)
    shrink_inputs = (
        ("polynomial-512^2", s5, C.polynomial_values(s5.grid, s5.lo, s5.hi, int(rng.integers(6, 11))), 2.0, 0.25),
        ("gaussian-1024^2", s1, C.gaussian_values(s1.grid, s1.lo, s1.hi, _c(rng, 0.06, 0.15), [0.0, 0.0]), 1.0, 0.2),
        ("gaussian-32^3", g3, gauss3, 2.0, 0.2),
    )
    for label, fx, vals, mu, t in shrink_inputs:
        ref = {}

        def check(r, fx=fx, vals=vals, mu=mu, t=t, ref=ref):
            if "v" not in ref:
                ref["v"] = C.brute_shrink_norm(fx.grid, vals, fx.lo, fx.hi, mu, t)
            return C.check_close(r, ref["v"], C.NORM_RTOL)

        ops.append(Op(f"shrink_norm/{label}",
                      lambda fx=fx, vals=vals, mu=mu, t=t: H.shrink_norm(fx.function(vals), fx.omega, mu, t), check))

    # estimate harness: every unflagged case must close at the fitted constant
    c7 = GridPair((-0.7, -0.7), (0.7, 0.7), 128)
    lap2 = {(2, 0): 1.0, (0, 2): 1.0}
    bump7 = C.gaussian_values(c7.grid, c7.lo, c7.hi, _c(rng, 0.08, 0.14), [_c(rng, -0.05, 0.05) for _ in range(2)])
    ops.append(Op(
        "verify_growth_chain/gaussian-128^2",
        lambda: H.verify_growth_chain(c7.function(bump7), _sym(lap2), H.gevrey(1), H.RationalExponent(1, 1),
                                      c7.omega, delta, 6, 12),
        lambda r: C.check_growth_chain(r, 1.0, 1.0, 2),
    ))
    e2 = GridPair(*box2, 128)
    bumps = [C.gaussian_values(e2.grid, e2.lo, e2.hi, _c(rng, 0.05, 0.2), [0.0, 0.0]) for _ in range(2)]
    heat2 = _sym({(2, 0): 1.0, (0, 1): 1j})
    # wider bumps meet the cutoff at the box edge and leave every case flagged at this resolution
    narrow = C.gaussian_values(e2.grid, e2.lo, e2.hi, _c(rng, 0.04, 0.06), [0.0, 0.0])
    ops.append(Op(
        "verify_iterate_bound/heat-128^2",
        lambda: H.verify_iterate_bound(heat2, H.RationalExponent(2, 1), [e2.function(narrow)], e2.omega, 2, [0.1]),
        C.check_cases_close,
    ))
    r_sym = _sym({(1, 0): 1.0, (0, 0): _c(rng, -1, 1)})
    ops.append(Op(
        "verify_dominated_transfer/laplacian-128^2",
        lambda: H.verify_dominated_transfer(_sym(lap2), r_sym, H.RationalExponent(1, 1),
                                            [e2.function(b) for b in bumps], e2.omega, 0.25),
        C.check_cases_close,
    ))
    dr = GridPair((-1.0, -1.0), (1.0, 1.0), 128)
    x1 = H.SymbolPolynomial.variable(2, 0)
    drift = H.VariableOperator(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): _c(rng, 0.5, 2.0) * x1}, dr.omega)
    # the packaged domination fixture, not a seeded one: the fixture-support test
    # rejects some supported fixtures by rounding (see CHANGES.md)
    bump_d = C.gaussian_values(dr.grid, (-0.9, -0.9), (0.9, 0.9), 0.15, [0.0, 0.0])
    ops.append(Op(
        "verify_domination/drift-128^2",
        lambda: H.verify_domination(drift, (0.0, 0.0), dr.function(bump_d), 3, dr.omega),
        C.check_cases_close,
    ))

    # a second transfer, on other bumps.  With it the median of a round lies
    # between the two transfers, which cost the same, not in the gap below one.
    bumps_b = [C.gaussian_values(e2.grid, e2.lo, e2.hi, _c(rng, 0.05, 0.2), [0.0, 0.0]) for _ in range(2)]
    r_sym_b = _sym({(1, 0): 1.0, (0, 0): _c(rng, -1, 1)})
    ops.append(Op(
        "verify_dominated_transfer/laplacian-128^2-b",
        lambda: H.verify_dominated_transfer(_sym(lap2), r_sym_b, H.RationalExponent(1, 1),
                                            [e2.function(b) for b in bumps_b], e2.omega, 0.25),
        C.check_cases_close,
    ))

    # fault: the chain holds exactly on a plane wave, but the verdict is fail
    cw = GridPair(*box2, 256)
    wave = C.plane_wave_values(cw.grid, (3, -2))

    def short_tail(r):
        fit = r.vector_fit
        usable = [(l, res) for l, res, f in zip(fit.labels, fit.log_residuals, fit.flagged) if not f and res is not None]
        return r.verdict == "fail" and len(usable) <= 3 and C.slope(usable[-2:]) > 0

    ops.append(Op(
        "verify_growth_chain/chain-short-tail",
        lambda: H.verify_growth_chain(cw.function(wave), _sym(lap2), H.gevrey(1), H.RationalExponent(1, 1),
                                      cw.omega, delta, 6, 12),
        lambda r: None if r.verdict in ("pass", "inconclusive") else f"verdict {r.verdict}, expected pass",
        fault="chain-short-tail", is_fault=short_tail,
    ))
    return ops


# -- cli-batch ------------------------------------------------------------------------


def _symbol_doc(terms: dict) -> dict:
    n = len(next(iter(terms)))
    return {
        "dimension": n,
        "terms": [{"alpha": list(a), "re": complex(c).real, "im": complex(c).imag} for a, c in terms.items()],
    }


def write_cli_inputs(rng, workdir: Path) -> dict:
    """Write the generated input files of cli-batch; returns their paths and parameters."""
    workdir.mkdir(parents=True, exist_ok=True)
    files = {}

    def put(name, text):
        files[name] = workdir / name
        files[name].write_text(text, encoding="utf-8")

    def put_json(name, doc):
        put(name, json.dumps(doc, indent=2, sort_keys=True) + "\n")

    p_terms = elliptic2(rng, 2)
    put_json("elliptic.json", _symbol_doc(p_terms))
    scaled = {a: _c(rng, 0.5, 2.0) * c for a, c in p_terms.items()}
    scaled[(0, 1)] = _c(rng, -1, 1)
    put_json("elliptic_scaled.json", _symbol_doc(scaled))
    put_json("elliptic4.json", _symbol_doc(elliptic4(rng)))
    qe, m = quasi_elliptic(rng, (2, 4))
    put_json("quasi.json", _symbol_doc(qe))
    put("malformed.json", '{"dimension": 2, "terms": [{"alpha": [1], "re": 1.0}]}\n')
    s_table = _c(rng, 1.0, 2.0)
    put("gevrey_table.txt", "".join(f"{p} {math.exp(C.log_gevrey(s_table, p))!r}\n" for p in range(61)))
    th1 = {
        "check": "th1", "symbol": "elliptic.json", "d": "1/1", "resolution": 128,
        "omega": {"lo": [-0.7, -0.7], "hi": [0.7, 0.7]}, "sequence": {"kind": "gevrey", "s": 1.0},
        "fixture": {"family": "gaussian_bump", "width": _c(rng, 0.06, 0.12)},
        "delta": 0.05, "lmax": 4, "amax": 8,
    }
    put_json("verify_th1.json", th1)
    prop31 = {
        "check": "prop31", "symbol": _symbol_doc({(2, 0): 1.0, (0, 1): 1j}), "d": "2/1", "resolution": 64,
        "omega": {"lo": [-0.35, -0.35], "hi": [0.35, 0.35]}, "kmax": 2, "deltas": [0.1, 0.2],
        "fixtures": [{"family": "gaussian_bump", "width": _c(rng, 0.05, 0.2)} for _ in range(2)],
    }
    put_json("verify_prop31.json", prop31)
    s = [_c(rng, 1.0, 3.0) for _ in range(4)]
    # inclusion into gevrey(t) holds exactly when s <= t; one t on each side of s
    t = [max(1.0, round(s[0] + 0.5, 3)), None, max(1.0, round(s[2] - 0.5, 3)), None]
    return {"files": files, "quasi_d": C.quasi_elliptic_d(m), "s_table": s_table, "s": s, "t": t}


def cli_batch(rng, workdir: Path) -> list[Op]:
    gen = write_cli_inputs(rng, workdir)
    files = gen["files"]
    out_dir = workdir / "reports"
    out_dir.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []
    first_report: dict = {}

    def fx(name):
        return str(FIXTURES / name)

    def cli(name, argv, expected_code, check_doc=None):
        """expected_code None: exit 0 exactly when the report's verdict is pass, else 1."""
        out = out_dir / f"{name}.json"

        def call():
            if out.exists():
                out.unlink()
            with contextlib.redirect_stderr(io.StringIO()):
                code = H.cli.main(argv + ["--out", str(out)])
            return code, out.read_bytes() if out.exists() else None

        def check(result):
            code, data = result
            if expected_code == 2:
                return None if code == 2 and data is None else f"exit code {code} for rejected input"
            if data is None:
                return f"no report written (exit {code})"
            doc = json.loads(data)
            want = expected_code if expected_code is not None else (0 if doc["results"]["verdict"] == "pass" else 1)
            if code != want:
                return f"exit code {code}, expected {want}"
            if first_report.setdefault(name, data) != data:
                return "report differs from the first run of the same command"
            return check_doc(doc) if check_doc else None

        ops.append(Op(f"cli/{name}", call, check))

    def exponent(expected):
        def check(doc):
            est = doc["results"]["estimate"]
            if est["verdict"] != "hypoelliptic-consistent" or tuple(est["d_snapped"] or ()) != tuple(expected):
                return f"estimate {est['verdict']} d_snapped {est['d_snapped']}, expected {expected}"
            return None
        return check

    def verdict(key, expected):
        def check(doc):
            got = doc["results"][key] if key else doc["results"]["verdict"]
            got = got["verdict"] if isinstance(got, dict) else got
            return None if got == expected else f"verdict {got}, expected {expected}"
        return check

    def closes(doc):
        res = doc["results"]
        cases = res.get("cases", [])
        for case in cases:
            if not case["flagged"] and case["lhs"] > case["rhs"] + C.CLOSE_RTOL * max(case["rhs"], 1.0):
                return f"case {case['params']} does not close"
        return None

    def chain_closes(doc):
        res = doc["results"]
        fits = [SimpleNamespace(**res[key]) for key in ("vector_fit", "space_fit")]
        return C.check_growth_fit(fits[0], lambda l: C.log_gevrey(1.0, 2 * l)) or C.check_growth_fit(
            fits[1], lambda a: C.log_gevrey(1.0, a)
        )

    def verify(name, config, check_doc=closes):
        cli(f"verify-{name}", ["verify", "--check", name.split("-")[0], "--config", config], None, check_doc)

    # 32 rays put this analysis among the three 200-term Gevrey checks below, at
    # about their cost: the median of a round then lies inside that group of
    # four, not in the gap between them and the wave analysis
    cli("analyze-laplacian@32", ["analyze", "--symbol", fx("laplacian.json"), "--rays", "32"], 0, exponent((1, 1)))
    cli("analyze-heat-d2", ["analyze", "--symbol", fx("heat.json"), "--d", "2"], 0,
        lambda doc: exponent((2, 1))(doc) or verdict("check_at_d", "hypoelliptic-consistent")(doc))
    cli("analyze-wave", ["analyze", "--symbol", fx("wave.json")], 0, verdict("estimate", "violated"))
    cli("analyze-elliptic", ["analyze", "--symbol", str(files["elliptic.json"]), "--rays", "512"], 0, exponent((1, 1)))
    cli("analyze-elliptic4", ["analyze", "--symbol", str(files["elliptic4.json"])], 0, exponent((1, 1)))
    cli("analyze-quasi", ["analyze", "--symbol", str(files["quasi.json"])], 0, exponent(gen["quasi_d"]))

    for i, (s, pmax) in enumerate(zip(gen["s"], (200, 120, 200, 200))):
        argv = ["seq-check", "--gevrey", repr(s), "--pmax", str(pmax), "--power-m", "2"]
        t = gen["t"][i]
        if t is not None:
            argv += ["--inclusion-gevrey", repr(t)]

        def seq_doc(doc, s=s, pmax=pmax, t=t):
            res = doc["results"]
            if not all(res[k]["passed"] for k in ("h1", "root_monotone", "h3_left")):
                return "a basic condition failed on a Gevrey sequence"
            want = C.gevrey_power_bound(s, pmax)
            if C.check_close(res["h4_b"], want, C.CLOSED_FORM_RTOL):
                return f"power bound {res['h4_b']!r}, expected {want!r}"
            if t is not None and res["inclusion"]["holds"] != (s <= t):
                return f"inclusion gevrey({s}) in gevrey({t}) reported {res['inclusion']['holds']}"
            return None

        cli(f"seq-check-gevrey-{i}", argv, 0, seq_doc)

    def table_doc(s, cap):
        def check(doc):
            res = doc["results"]
            if not all(res[k]["passed"] for k in ("h1", "root_monotone", "h3_left")):
                return "a basic condition failed on a Gevrey table"
            want = C.gevrey_power_bound(s, cap // 2)
            return C.check_close(res["h4_b"], want, C.CLOSED_FORM_RTOL)
        return check

    cli("seq-check-factorial-table", ["seq-check", "--table", fx("factorial_table.txt"), "--pmax", "20"], 0,
        table_doc(1.0, 20))
    cli("seq-check-gevrey-table", ["seq-check", "--table", str(files["gevrey_table.txt"]), "--pmax", "60"], 0,
        table_doc(gen["s_table"], 60))

    cli("strength-equal", ["strength", "--p", str(files["elliptic.json"]), "--q", str(files["elliptic_scaled.json"])],
        0, verdict(None, "equally-strong"))
    cli("strength-o2-o4", ["strength", "--p", fx("laplacian.json"), "--q", str(files["elliptic4.json"])],
        0, verdict(None, "P-weaker"))
    cli("strength-o1-o2", ["strength", "--p", fx("first_order.json"), "--q", fx("laplacian.json")],
        0, verdict(None, "P-weaker"))
    cli("strength-drift", ["strength", "--variable", fx("drift_operator.json")], 0, verdict(None, "constant-strength"))
    cli("strength-degenerate", ["strength", "--variable", fx("degenerate_operator.json")], 0,
        verdict(None, "not-constant-strength"))

    verify("th1-packaged", fx("verify_th1.json"), lambda doc: verdict(None, "pass")(doc) or chain_closes(doc))
    for check in ("p1", "prop31", "domination"):
        verify(f"{check}-packaged", fx(f"verify_{check}.json"))
    verify("th1-generated", str(files["verify_th1.json"]), chain_closes)
    verify("prop31-generated", str(files["verify_prop31.json"]))

    cli("verify-th1-bad-inclusion", ["verify", "--check", "th1", "--config", fx("verify_th1_bad.json")], 2)
    cli("analyze-missing-file", ["analyze", "--symbol", str(workdir / "missing.json")], 2)
    cli("analyze-malformed", ["analyze", "--symbol", str(files["malformed.json"])], 2)
    return ops
