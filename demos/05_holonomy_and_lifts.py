"""Numerics on leaves: time forms, holonomy, saddle behavior.

The time form dx/X(x) detects fields whose solutions branch: for x^3 d/dx
its integral over an open half circle vanishes, which is impossible for a
field with univalued solutions.  The vanishing-order rule makes the verdict
exact; the integral corroborates it.

Lifting a small loop around a linear saddle estimates the derivative of the
holonomy return map: for eigenvalues (1, -3) it is a primitive cube root of
unity.  Lifting descent paths into a three-dimensional Siegel germ shows
the saddle behavior of its leaves: radial descent shrinks one transverse
coordinate, while descent along a well-chosen logarithmic spiral makes both
transverse coordinates grow.
"""

import cmath
import math

from foliations.corpus import linear_saddle, strict_siegel_diagonal
from foliations.dynamics import (
    LogSpiral,
    half_circle,
    lift_path,
    loop_lift_ratio,
    semicomplete_order_test,
    separating_direction,
    spiral_path,
    time_form_integral,
)
from foliations.expressions import parse_expression

cubic = parse_expression("x^3", ("x",))
value, err = time_form_integral(cubic, half_circle(0.1))
print(f"time-form integral of x^3 over a half circle: |I| = {abs(value):.2e}")
print("verdict:", semicomplete_order_test(cubic).verdict)
quadratic = parse_expression("x^2", ("x",))
print("verdict for x^2:", semicomplete_order_test(quadratic).verdict)

for k in (3, 2):
    ratio, err = loop_lift_ratio(linear_saddle(k), "y", 0.1, 0.01)
    print(f"\nholonomy derivative of the (1, -{k}) saddle: "
          f"{ratio:.6f} (= exp(-2 pi i / {k}) up to 1e-4; estimated error {err:.1e})")
    print(f"  ratio^{k} = {ratio**k:.6f}")

x = strict_siegel_diagonal()
print("\nSiegel germ:", x.render())
ray = LogSpiral(0.1, -1.0, 0.0, 3.0)
lift = lift_path(x, "x", ray, [0.01, 0.01])
m2 = lift.fiber_moduli("y")
print(f"radial descent: |x2| goes {m2[0]:.3e} -> {m2[-1]:.3e} (decays)")

v = separating_direction([1, 1 + 1j, -2 - 1j])
print(f"separating direction v = {v:.4f} "
      f"(angle {math.degrees(cmath.phase(v)):.1f} deg)")
spiral = lift_path(x, "x", spiral_path(0.1, 0.3, v, -10.0), [0.01, 0.01],
                   escape_radius=1e9)
s2 = spiral.fiber_moduli("y")
s3 = spiral.fiber_moduli("z")
print(f"spiral descent: |x2| {s2[0]:.3e} -> {s2[-1]:.3e}, "
      f"|x3| {s3[0]:.3e} -> {s3[-1]:.3e} (both grow)")
