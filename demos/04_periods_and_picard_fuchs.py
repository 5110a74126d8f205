"""Numerical periods of the level ovals and the Picard-Fuchs structure.

I0 = loop integral of y dx (the enclosed area), I2 of x^2 y dx, and their
derivatives J0, J2 (integrands dx/y, x^2 dx/y) are complete elliptic
integrals, evaluated in closed form: in s = x^2 each is a sum of positive
terms built from Carlson's symmetric integral R_D, with a hypergeometric
series 2F1(+-1/2, 3/2; 3; z) where a difference would cancel near a centre
(B. C. Carlson, Math. Comp. 49 (1987) 595-606 and 53 (1989) 327-333; DLMF
19.29), and each value carries a derived rounding bound.  On every case the
four integrals satisfy the two exact linear Picard-Fuchs identities
3 I0 = 4h J0 - a J2 and 15 b I2 = -4a h J0 + (12bh + 4a^2) J2; their
residuals sit at machine precision across the whole annulus.  On the
eight-loop exterior the closed form continues into the complex cut plane
with principal branches of the square root and of complex R_D; there its
J0 = dI0/dh and J2 = dI2/dh still hold, which central differences of I0, I2
at complex h show.  (The tests cross-check the continuation against the
Picard-Fuchs system integrated as a linear ODE in h, tests/pf_reference.py.)
"""

import math

import numpy as np

from raylien import CASES, periods_complex, periods_real, pf_residual
from raylien.elliptic import case_grid

print(__doc__)

print("Sample values (h, I0, I2, J0, J2):")
for case_name, h in (
    ("global-center", 1.0),
    ("truncated-pendulum", 0.12),
    ("eight-interior", -0.1),
    ("eight-exterior", 1.0),
):
    pv = periods_real(CASES[case_name], h)
    print(f"  {case_name:20s} h={h:+.3f}  I0={pv.I0:.9f}  I2={pv.I2:.9f}  "
          f"J0={pv.J0:.9f}  J2={pv.J2:.9f}")
print()

print("Small-oval behavior at the global center (harmonic limit):")
for h in (1e-3, 1e-5, 1e-7):
    pv = periods_real(CASES["global-center"], h)
    print(f"  h={h:.0e}:  I0/(2 pi h) = {pv.I0/(2*math.pi*h):.9f}   "
          f"I2/(pi h^2) = {pv.I2/(math.pi*h*h):.9f}")
print()

print("Picard-Fuchs residuals |4h J0 - a J2 - 3 I0| and")
print("|-4a h J0 + (12bh + 4a^2) J2 - 15 b I2| (relative), worst over 50-point grids:")
for case_name, case in CASES.items():
    worst = 0.0
    for h in case_grid(case, 50):
        worst = max(worst, *pf_residual(case, float(h)))
    print(f"  {case_name:20s} max residual {worst:.3e}")
print()

print("Complex continuation: closed-form J against dI/dh by central differences:")
for h in (0.5 + 0.3j, 2.0 - 1.5j, 50.0 + 80.0j):
    a = periods_complex(h)
    step = 1e-4 * abs(h)
    up, dn = periods_complex(h + step), periods_complex(h - step)
    rel0 = abs((up.I0 - dn.I0) / (2 * step) - a.J0) / abs(a.J0)
    rel2 = abs((up.I2 - dn.I2) / (2 * step) - a.J2) / abs(a.J2)
    print(f"  h = {h}:  J0 = {a.J0:.10f}   differences {rel0:.2e} (J0), {rel2:.2e} (J2)")
print()

pv100 = periods_complex(100 + 100j)
pv1000 = periods_complex(1000 + 1000j)
alpha = math.log(abs(pv1000.J0) / abs(pv100.J0)) / math.log(10)
print(f"Large-|h| decay: |J0| ~ |h|^alpha with alpha = {alpha:+.4f} (expect -1/4)")
