"""Estimating the hypoellipticity exponent from ray sweeps.

The symbol inequality characterizing hypoellipticity bounds weighted
derivative ratios at frequency infinity.  Sampling the ratios along
geometric ray grids and regressing tail slopes recovers the minimal
exponent d, which is rational: 1 for elliptic operators, 2 for the heat
operator, and no d at all for the wave operator.
"""

from hypoel import SymbolPolynomial, check_hypoelliptic, estimate_d

CASES = {
    "laplacian": SymbolPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0}),
    "laplacian + drift": SymbolPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): 1.0}),
    "heat": SymbolPolynomial(2, {(2, 0): 1.0, (0, 1): 1j}),
    "wave": SymbolPolynomial(2, {(2, 0): 1.0, (0, 2): -1.0}),
    # a scaled wave reads violated too: its parts are summed term by term, so 3 t1^2 - 3 t2^2 is exactly 0 where t1 = t2
    "3 x wave": SymbolPolynomial(2, {(2, 0): 3.0, (0, 2): -3.0}),
}

for name, q in CASES.items():
    rep = estimate_d(q)
    print(f"{name}:")
    print(f"  verdict   : {rep.verdict}")
    if rep.d_estimate is not None:
        mu, nu = rep.d_snapped
        print(f"  d estimate: {rep.d_estimate:.6f}  (snapped to {mu}/{nu})")
        print(f"  fitted C  : {rep.fitted_c:.4f}")
    if rep.verdict == "violated":
        direction = [round(float(v), 4) for v in rep.witness.direction]
        print(f"  witness ray: direction {direction}, slope {rep.witness.slope:.2f}")
    print()

# Testing a fixed exponent directly: the heat symbol satisfies the
# inequality at d = 2 but not at d = 1.
heat = CASES["heat"]
for d in (1.0, 2.0, 3.0):
    print(f"heat symbol at d = {d}: {check_hypoelliptic(heat, d).verdict}")
