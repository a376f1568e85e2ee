"""
Square-integrable inputs with unbounded transforms
==================================================

Three densities, each in L^2 of the disk with norm squared at most
2/log(3/2), whose transforms blow up at a single anchor point.  The
blow-up rate is log log(3/eps): slow enough that every truncation looks
tame, fast enough to rule out any L^2 -> L^infinity bound.

For each density this script reports
  * its L^2 mass against the shared ceiling,
  * the truncation ladder in the transformed abscissa where the
    divergence law is a straight line of slope one,
  * the transform evaluated along a ray into the anchor, with the
    quadrature's error estimate.
"""

import numpy as np

from disknorms import (
    COUNTEREXAMPLE_NAMES,
    Operator,
    apply,
    counterexample,
    counterexample_l2_mass,
    divergence_ladder,
    divergence_slope,
)

PAIRED_OP = {
    "CAUCHY_P2": Operator.CAUCHY,
    "J0_P2": Operator.J0,
    "J0STAR_P2": Operator.J0_STAR,
}

for name in COUNTEREXAMPLE_NAMES:
    density, ceiling, law = counterexample(name)
    mass = counterexample_l2_mass(name)
    print(name)
    print(f"  law               : {law}")
    print(f"  L^2 mass          : {mass:.6f}  (ceiling {ceiling:.6f})")

    eps = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    x, vals = divergence_ladder(name, eps)
    slope = divergence_slope(name, eps)
    print("  truncation ladder (abscissa is the transformed eps):")
    for e, xx, v in zip(eps, x, vals):
        print(f"    eps = {e:<7g} x = {xx:.6f}  integral = {v:.6f}")
    print(f"  fitted slope      : {slope:.4f}  (law predicts 1)")

    op = PAIRED_OP[name]
    anchor = 0.3 if name == "CAUCHY_P2" else 1.0
    print(f"  transform along the ray toward the anchor at {anchor:g}:")
    for r in (0.5, 0.9, 0.99):
        z = complex(r * anchor) if name == "CAUCHY_P2" else complex(r)
        # the rule is sized for kernels at z, not for the density's own
        # singularity at the anchor; its estimate says how far to trust it
        image = apply(op, density, z)
        print(
            f"    z = {z.real:<5g} Re transform = {image.value.real:.6f}"
            f"  (estimate {image.abs_error_estimate:.1e})"
        )
    print()

# None of the three ladders flattens out. The masses sit safely under
# one shared ceiling while the transforms grow without bound in
# magnitude (the Cauchy one toward -infinity, the kernel phase lines up
# negatively at an interior anchor), which is exactly the claimed
# failure of boundedness into L^infinity at p = 2.
