"""Boundary-value structure along the cut: Wronskians and the cycle jump.

Approaching the negative real axis from above and below gives two period
vectors, the closed form at h + i0 and h - i0; their Wronskian
W = J0(h+) J2(h-) - J0(h-) J2(h+) is the constant -32 pi i on (-1/4, 0) and
-16 pi i on (-inf, -1/4).  Crossing the cut jumps the cycle by twice the
vanishing cycle, the small oval around the origin where y^2 < 0.  With
y = iY that oval is the truncated pendulum's real oval at level -h, so its
periods come from the real closed form at -h; the cut-plane closed form at
h +- i d approaches the same jump as d shrinks.
"""

import math

from raylien import periods_complex, vanishing_cycle_periods, wronskians

print(__doc__)

for label, hs, expect in (
    ("W on (-1/4, 0), expected -32 pi i:", (-0.20, -0.15, -0.10), -32j * math.pi),
    ("W on (-inf, -1/4), expected -16 pi i:", (-0.5, -1.0, -2.0), -16j * math.pi),
):
    print(label)
    for h in hs:
        w, tag = wronskians(h)
        print(f"  h = {h:+.2f}:  W = {w:.12g}   [{tag}]   |W/expected - 1| = "
              f"{abs(w / expect - 1):.1e}")
print()

print("Jump across the cut vs the vanishing-cycle period at h = -0.1:")
vc = vanishing_cycle_periods(-0.1)
for d in (1e-3, 5e-4, 2.5e-4):
    up = periods_complex(complex(-0.1, d))
    dn = periods_complex(complex(-0.1, -d))
    jump = up.J0 - dn.J0
    rel = min(abs(jump - 2 * vc.J0), abs(jump + 2 * vc.J0)) / abs(jump)
    print(f"  offset {d:.1e}:  J0 jump = {jump:.8g},  "
          f"|jump -+ 2 J0_vc|/|jump| = {rel:.2e}")
print(f"  2 * J0 over the vanishing cycle = {2*vc.J0:.8g}")
