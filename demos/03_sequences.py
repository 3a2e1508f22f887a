"""Defining sequences: condition checks and fitted constants, all in log domain.

Gevrey sequences (p!)^s are the canonical family: log-convex, stable under
derivation and multiplication, and closed under powers.  Constant fits
report the exact maximum over the tested range plus a tail slope, so
"bounded on range" and "divergent" are distinguishable.
"""

from hypoel import (
    check_basic,
    fit_inclusion,
    fit_power_bound,
    gevrey,
    power_sequence,
)

for s in (1, 2, 3):
    rep = check_basic(gevrey(s), pmax=60)
    print(
        f"gevrey({s}): log-convex={rep.h1.passed} root-monotone={rep.root_monotone.passed} "
        f"stability-left={rep.h3_left.passed} fitted H={rep.h3_right_h:.4f} (<= {2**s})"
    )

# Power bound: M_{2p} <= B^p (M_p)^2.  For factorials the ratio is the
# central binomial coefficient, so B approaches 4 from below.
b = fit_power_bound(gevrey(1), 2, 1, pmax=60)
print(f"\npower bound for doubled indices, factorials: B = {b:.4f}")

# Inclusions M_p <= C L^p N_p: factorials embed in their square, never the
# other way around.
fwd = fit_inclusion(gevrey(1), gevrey(2))
bwd = fit_inclusion(gevrey(2), gevrey(1))
print(f"\np! inside (p!)^2 : holds={fwd.holds} with L={fwd.L}, C={fwd.C}")
print(f"(p!)^2 inside p! : holds={bwd.holds} (tail slope {bwd.tail_slope:.3f})")

# Powered sequences compose exactly.
ps = power_sequence(gevrey(1.5), 2.0)
print(f"\n(gevrey(1.5))^2 log M_10 = {ps.log_m(10):.6f} = gevrey(3) log M_10 = {gevrey(3).log_m(10):.6f}")

# Factorial domination p! <= C L^p M_p is the inclusion of p! in M_p.  The
# classes ignore geometric factors, so the fitted L is at least 1: for
# M = p! itself that is L = 1, with C = 1.
own = fit_inclusion(gevrey(1), gevrey(1), pmax=200)
print(f"\np! inside p! : holds={own.holds} with L={own.L}, C={own.C}")
