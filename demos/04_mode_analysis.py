"""
One-dimensional mode analysis of the adjoint kernel
===================================================

On each rotation class z^d the operator collapses to a weighted radial
average, so its L^2 behavior is a one-dimensional eigenvalue problem
per mode.  The best constant on mode d is 1/(d(d+1)), maximized at
d = 1, and the operator L^2 norm is the square root sqrt(1/2).
"""

import math

import numpy as np

from disknorms import (
    DiskRule,
    Operator,
    apply,
    l2_norm_numeric,
    mode_best_constant,
    mode_rayleigh_maximum,
    mode_reduce,
)

print("two reductions done by hand")
print("---------------------------")
c = mode_reduce(1, lambda r: np.ones_like(r))
print(f"  d = 1, f_1 = 1      -> coefficient {c:.10g}   (2 * int r^2 = 2/3)")
c = mode_reduce(2, lambda r: r)
print(f"  d = 2, f_2 = r      -> coefficient {c:.10g}   (2 * int r^4 = 2/5)")
print()

print(" d   best constant   rayleigh scan   agreement")
print("------------------------------------------------")
for d in range(1, 9):
    exact, _profile = mode_best_constant(d)
    scanned = mode_rayleigh_maximum(d)
    print(f" {d}   {exact:.10f}   {scanned:.10f}   {abs(exact - scanned):.1e}")

print()
res = l2_norm_numeric(40)
print(f"sup over modes, square root: {res.value:.15f}")
print(f"sqrt(1/2)                  : {math.sqrt(0.5):.15f}")
print(f"mode where the sup sits    : d = 1")
print()

# Fidelity check: the reduction must agree with full 2-d quadrature of
# the operator on a genuinely non-radial input. f(w) = w^3 |w| lives on
# mode 3 with radial part r^4 since w^3 |w| = (w/|w|)^3 * |w|^4. The rule
# is passed explicitly: the default apply sums angular modes itself, and
# would compare the reduction with itself.
f = lambda w: w**3 * np.abs(w)
c = mode_reduce(3, lambda r: r**4)
print("mode-3 fidelity against full quadrature, f(w) = w^3 |w|")
print("--------------------------------------------------------")
for z in (0.25 + 0j, 0.5 + 0.3j, 0.85 + 0j):
    direct = apply(Operator.J0_STAR, f, z, DiskRule.for_point(z)).value
    reduced = c * z**2
    print(
        f"  z = {z!s:<12} reduced image = {reduced:.12g}  "
        f"|direct - reduced| = {abs(direct - reduced):.2e}"
    )
