"""
Squeezing the Cauchy transform norm from both sides
===================================================

For p > 2 the L^p -> sup norm of the Cauchy transform has the closed
form ((2p - 2)/(p - 2))^(1 - 1/p).  This script checks that number two
independent ways:

 1. from above, by evaluating the defining kernel-moment integral with
    singularity-aware quadrature and comparing;
 2. from below, by pairing the operator against its extremal family
    and letting the anchor b march toward the maximizing point b = 0.
"""

import math

import numpy as np

from disknorms import (
    DiskRule,
    NormQuery,
    Target,
    closed_form_norm,
    integrate_disk_singular,
    lower_bound_via_extremal,
)
from disknorms.profiles import profile_K

print("closed form vs quadrature of the kernel moment at the center")
print("-------------------------------------------------------------")
for p in (3.0, 4.0, 10.0):
    closed = closed_form_norm(NormQuery("cauchy", p, Target.L_INFINITY))
    q = p / (p - 1.0)
    # the norm is the (1 - 1/p) power of the q-th kernel moment at the center,
    # computed here both from the closed profile and by raw singular quadrature
    profile_route = profile_K(p, 0.0) ** (1.0 - 1.0 / p)
    rule = DiskRule.for_point(0.0, singular=True)
    # the rule supplies the singular factor |w|^-q; the rest of the integrand is 1
    moment = integrate_disk_singular(np.ones_like, 0.0, q, rule)
    quad_route = moment.value.real ** (1.0 - 1.0 / p)
    print(
        f"  p = {p:<4g} closed = {closed.value:.10f}  "
        f"profile = {profile_route:.10f}  quadrature = {quad_route:.10f}  "
        f"spread = {max(abs(closed.value - profile_route), abs(closed.value - quad_route)):.2e}"
    )

print()
print("extremal march: lower bounds climbing toward the closed form")
print("-------------------------------------------------------------")
for p in (3.0, 4.0):
    closed = closed_form_norm(NormQuery("cauchy", p, Target.L_INFINITY))
    print(f"  p = {p:g}, target = {closed.value:.10f}")
    for b in (0.3, 0.1, 0.01):
        low = lower_bound_via_extremal("cauchy", p, b)
        ratio = low.value / closed.value
        print(
            f"    b = {b:<5g} lower = {low.value:.10f}"
            f"  ({100.0 * ratio:.4f}% of the norm)"
        )
    print()

print("the p = infinity endpoint, where the answer is exactly 2")
print("---------------------------------------------------------")
closed = closed_form_norm(NormQuery("cauchy", math.inf, Target.L_INFINITY))
low = lower_bound_via_extremal("cauchy", math.inf, 0.0)
print(f"  closed form   = {closed.value:.12f}")
print(f"  extremal pair = {low.value:.12f}  (quadrature error {low.error_estimate:.1e})")
