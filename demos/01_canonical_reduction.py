"""Canonical reduction of polynomial one-forms.

Every one-form arising from the perturbation splits exactly as

    omega = (u(H) x^2 + v(H)) y dx + r dH + dR

with u, v polynomials in the energy H.  Integrating over a level oval
kills the r dH and dR parts, so the pair (u, v) is all that survives:
the oval integral is u(h) I2(h) + v(h) I0(h).  This script reduces a few
monomials in each Hamiltonian sign case and verifies the identities
exactly (rational arithmetic, zero residual).
"""

from raylien import CASES, OneForm, PolyXY, reduce, verify_decomposition
from raylien.catalog import all_entries

print(__doc__)

for case_name in ("global-center", "truncated-pendulum", "eight-interior"):
    case = CASES[case_name]
    print(f"== {case_name}  (a={case.a}, b={case.b}) ==")
    for i, j in ((0, 3), (4, 1), (2, 5), (1, 4)):
        omega = OneForm(PolyXY.monomial(i, j))
        dec = reduce(omega, case)
        ok = verify_decomposition(omega, dec, case)
        print(f"  x^{i} y^{j} dx:  u = {dec.u},  v = {dec.v}   [exact: {ok}]")
    print()

print("The built-in catalog pins 23 quadruples (u, v, r, R), nine global-centre")
print("entries and their images on the other two sign cases; each is verified")
print("as an exact identity and its (u, v) is reproduced independently by the")
print("reduction engine:")
good = 0
for entry in all_entries():
    dec = reduce(entry.form, entry.case)
    assert verify_decomposition(entry.form, entry.decomposition, entry.case)
    assert dec.u == entry.decomposition.u and dec.v == entry.decomposition.v
    good += 1
print(f"  {good}/23 verified.")

print()
print("Monomials with both exponents odd admit no such decomposition at all")
print("(their integral over the asymmetric right oval of the eight loop is a")
print("nonzero algebraic function no (u, v) pair can produce):")
try:
    reduce(OneForm(PolyXY.monomial(1, 1)), CASES["global-center"])
except Exception as exc:
    print(f"  x y dx -> {type(exc).__name__}: {exc}")
