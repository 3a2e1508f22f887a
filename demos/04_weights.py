"""Temperate weights and their ball-supremum regularization.

A weight h is temperate when shifting the argument costs at most a
polynomial factor: h(xi + eta) <= (1 + C|eta|)^N h(xi).  The ball-sup
h_delta(xi) = sup over |eta| <= delta of h(xi + eta) is again temperate and
sits in the sandwich h <= h_delta <= (1 + C delta)^N h; powers commute with
the regularization.
"""

import numpy as np

from hypoel import (
    OnePlusNorm,
    StrengthWeight,
    SymbolPolynomial,
    fit_temperate,
    h_delta,
    verify_ball_sup_sandwich,
)

w = OnePlusNorm(2)
fit = fit_temperate(w)
print(f"1 + |xi|: temperate with C = {fit.c}, N = {fit.n_exp} (residual {fit.residual:.1e})")

print("\nball sup at the origin (closed form 1 + delta):")
for delta in (0.1, 0.5, 1.0):
    print(f"  delta = {delta}: h_delta = {h_delta(w, delta, np.zeros(2)):.9f}")

rep = verify_ball_sup_sandwich(w, delta=0.5, j=3)
print(
    f"\nsandwich margins: lower {rep.sandwich_lower_margin:.2e}, "
    f"upper {rep.sandwich_upper_margin:.2e}; "
    f"power identity residual {rep.power_identity_residual:.2e}"
)

# The strength function of any polynomial is a temperate weight.
lap = SymbolPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
sw = StrengthWeight(lap)
fit = fit_temperate(sw)
print(f"\nstrength of the Laplacian: C = {fit.c}, N = {fit.n_exp}")
rep = verify_ball_sup_sandwich(sw, delta=1.0, j=2, fit=fit)
print(f"sandwich verdict: {'pass' if rep.passed else 'fail'}")
