"""Verifying the growth chain: operator iterates control all derivatives.

For a d-hypoelliptic constant-coefficient operator, functions whose iterate
norms grow like C^{l+1} M_{l m} have derivative norms growing like
C^{a+1} (M_a)^d.  The harness fits both constants on a spectral grid and
checks that the fitted-constant residuals decay toward the sweep's tail.
"""

import hypoel as H

laplacian = H.SymbolPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
omega = H.BoxDomain((-0.7, -0.7), (0.7, 0.7))
spec = H.GridSpec(omega, 128)
bump = H.gaussian_bump(spec, width=0.1)

# Hypothesis side: iterate norms against factorial targets.
vec = H.fit_roumieu_vector(bump, laplacian, H.gevrey(1), omega, delta=0.05, lmax=6)
print("iterate fit:   constant = {:.4f}".format(vec.constant))
print("  norms:", ["{:.3e}".format(n) for n in vec.norms])
print("  residuals:", [None if r is None else round(r, 3) for r in vec.log_residuals])
print("  unresolved:", vec.flagged)

# Conclusion side: derivative norms against the powered sequence.
space = H.fit_roumieu_space(bump, H.gevrey(1), d=1.0, region=omega, delta=0.05, amax=12)
print("\nderivative fit: constant = {:.4f}".format(space.constant))
print("  residual tail slope:", round(space.residual_tail_slope, 4))

# The combined verdict enforces the preconditions (sequence conditions,
# factorial-power inclusion, exponent consistency) before fitting.
report = H.verify_growth_chain(
    bump, laplacian, H.gevrey(1), H.RationalExponent(1, 1), omega, 0.05, lmax=6, amax=12
)
print("\ngrowth chain verdict:", report.verdict)

# The same chain for the heat operator needs the squared sequence, because
# its exponent is 2 and the factorial-power inclusion must hold.
heat = H.SymbolPolynomial(2, {(2, 0): 1.0, (0, 1): 1j})
report = H.verify_growth_chain(
    bump, heat, H.gevrey(2), H.RationalExponent(2, 1), omega, 0.05, lmax=4, amax=8
)
print("heat with squared-factorial targets:", report.verdict)

try:
    H.verify_growth_chain(
        bump, heat, H.gevrey(1), H.RationalExponent(2, 1), omega, 0.05, lmax=4, amax=8
    )
except H.PreconditionError as err:
    print("heat with plain factorial targets is rejected:", err.name)
