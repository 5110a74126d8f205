"""The hand-derived decomposition catalog: exact identities, engine agreement."""

import dataclasses

import pytest

from raylien.catalog import _image, all_entries, instantiate
from raylien.exactalg import PolyXY
from raylien.forms import (
    EIGHT_INTERIOR, GLOBAL_CENTER, TRUNCATED_PENDULUM, reduce, verify_decomposition,
)


def test_catalog_has_23_entries():
    entries = all_entries()
    assert len(entries) == 23
    by_case = {}
    for e in entries:
        by_case.setdefault(e.case.name, []).append(e)
    assert len(by_case["global-center"]) == 9
    assert len(by_case["truncated-pendulum"]) == 7
    assert len(by_case["eight-interior"]) == 7


# (ident, case, form, u, v, r, R) of every entry, as str() prints them
PINNED = [
    ("gc-1", "global-center", "(y^3) dx + (0) dy",
     "-3/7", "12/7*H",
     "-3/7*xy",
     "1/7*xy^3"),
    ("gc-2", "global-center", "(x^4y) dx + (0) dy",
     "-8/7", "4/7*H",
     "6/7*xy",
     "-2/7*xy^3"),
    ("gc-3", "global-center", "(y^5) dx + (0) dy",
     "-320/231*H - 40/231", "240/77*H^2 + 20/231*H",
     "-15/77*x^5y - 5/21*x^3y - 85/77*xy^3 + 10/77*xy",
     "5/77*x^5y^3 + 5/63*x^3y^3 + 17/77*xy^5 - 10/231*xy^3"),
    ("gc-4", "global-center", "(x^6y) dx + (0) dy",
     "4/3*H + 32/21", "-16/21*H",
     "2/3*x^3y - 8/7*xy",
     "-2/9*x^3y^3 + 8/21*xy^3"),
    ("gc-5", "global-center", "(x^2y^3) dx + (0) dy",
     "4/3*H + 8/21", "-4/21*H",
     "-1/3*x^3y - 2/7*xy",
     "1/9*x^3y^3 + 2/21*xy^3"),
    ("gc-6", "global-center", "(x^2y^5) dx + (0) dy",
     "80/39*H^2 + 3620/3003*H + 160/1001", "-1600/3003*H^2 - 80/1001*H",
     "-5/39*x^7y - 1055/3003*x^5y - 95/117*x^3y^3 - 30/91*x^3y - 2000/3003*xy^3 - 120/1001*xy",
     "5/117*x^7y^3 + 1055/9009*x^5y^3 + 19/117*x^3y^5 + 10/91*x^3y^3 + 400/3003*xy^5 + 40/1001*xy^3"),
    ("gc-7", "global-center", "(xy^4) dx + (0) dy",
     "0", "0",
     "-2/3*x^6 - 4/3*x^4 - 2*x^2y^2 - 2/3*x^2 - 2/3*y^2",
     "1/15*x^10 + 1/4*x^8 + 1/3*x^6y^2 + 1/3*x^6 + 2/3*x^4y^2 + 1/2*x^2y^4 + 1/6*x^4 + 1/3*x^2y^2 + 1/6*y^4"),
    ("gc-xky2[k=2]", "global-center", "(x^2y^2) dx + (0) dy",
     "0", "0",
     "-2/3*x^3",
     "2/21*x^7 + 2/15*x^5 + 1/3*x^3y^2"),
    ("gc-xky4[k=2]", "global-center", "(x^2y^4) dx + (0) dy",
     "0", "0",
     "-8/21*x^7 - 8/15*x^5 - 4/3*x^3y^2",
     "8/231*x^11 + 32/315*x^9 + 4/21*x^7y^2 + 8/105*x^7 + 4/15*x^5y^2 + 1/3*x^3y^4"),
    ("tp-1", "truncated-pendulum", "(y^3) dx + (0) dy",
     "-3/7", "12/7*H",
     "-3/7*xy",
     "1/7*xy^3"),
    ("tp-2", "truncated-pendulum", "(x^4y) dx + (0) dy",
     "8/7", "-4/7*H",
     "-6/7*xy",
     "2/7*xy^3"),
    ("tp-3", "truncated-pendulum", "(y^5) dx + (0) dy",
     "-320/231*H + 40/231", "240/77*H^2 - 20/231*H",
     "15/77*x^5y - 5/21*x^3y - 85/77*xy^3 - 10/77*xy",
     "-5/77*x^5y^3 + 5/63*x^3y^3 + 17/77*xy^5 + 10/231*xy^3"),
    ("tp-4", "truncated-pendulum", "(x^6y) dx + (0) dy",
     "-4/3*H + 32/21", "-16/21*H",
     "-2/3*x^3y - 8/7*xy",
     "2/9*x^3y^3 + 8/21*xy^3"),
    ("tp-5", "truncated-pendulum", "(x^2y^3) dx + (0) dy",
     "4/3*H - 8/21", "4/21*H",
     "-1/3*x^3y + 2/7*xy",
     "1/9*x^3y^3 - 2/21*xy^3"),
    ("tp-6", "truncated-pendulum", "(x^2y^5) dx + (0) dy",
     "80/39*H^2 - 3620/3003*H + 160/1001", "1600/3003*H^2 - 80/1001*H",
     "5/39*x^7y - 1055/3003*x^5y - 95/117*x^3y^3 + 30/91*x^3y + 2000/3003*xy^3 - 120/1001*xy",
     "-5/117*x^7y^3 + 1055/9009*x^5y^3 + 19/117*x^3y^5 - 10/91*x^3y^3 - 400/3003*xy^5 + 40/1001*xy^3"),
    ("tp-7", "truncated-pendulum", "(xy^4) dx + (0) dy",
     "0", "0",
     "2/3*x^6 - 4/3*x^4 - 2*x^2y^2 + 2/3*x^2 + 2/3*y^2",
     "1/15*x^10 - 1/4*x^8 - 1/3*x^6y^2 + 1/3*x^6 + 2/3*x^4y^2 + 1/2*x^2y^4 - 1/6*x^4 - 1/3*x^2y^2 - 1/6*y^4"),
    ("el-1", "eight-interior", "(y^3) dx + (0) dy",
     "3/7", "12/7*H",
     "-3/7*xy",
     "1/7*xy^3"),
    ("el-2", "eight-interior", "(x^4y) dx + (0) dy",
     "8/7", "4/7*H",
     "6/7*xy",
     "-2/7*xy^3"),
    ("el-3", "eight-interior", "(y^5) dx + (0) dy",
     "320/231*H + 40/231", "240/77*H^2 + 20/231*H",
     "-15/77*x^5y + 5/21*x^3y - 85/77*xy^3 + 10/77*xy",
     "5/77*x^5y^3 - 5/63*x^3y^3 + 17/77*xy^5 - 10/231*xy^3"),
    ("el-4", "eight-interior", "(x^6y) dx + (0) dy",
     "4/3*H + 32/21", "16/21*H",
     "2/3*x^3y + 8/7*xy",
     "-2/9*x^3y^3 - 8/21*xy^3"),
    ("el-5", "eight-interior", "(x^2y^3) dx + (0) dy",
     "4/3*H + 8/21", "4/21*H",
     "-1/3*x^3y + 2/7*xy",
     "1/9*x^3y^3 - 2/21*xy^3"),
    ("el-6", "eight-interior", "(x^2y^5) dx + (0) dy",
     "80/39*H^2 + 3620/3003*H + 160/1001", "1600/3003*H^2 + 80/1001*H",
     "-5/39*x^7y + 1055/3003*x^5y - 95/117*x^3y^3 - 30/91*x^3y + 2000/3003*xy^3 + 120/1001*xy",
     "5/117*x^7y^3 - 1055/9009*x^5y^3 + 19/117*x^3y^5 + 10/91*x^3y^3 - 400/3003*xy^5 - 40/1001*xy^3"),
    ("el-7", "eight-interior", "(xy^4) dx + (0) dy",
     "0", "0",
     "-2/3*x^6 + 4/3*x^4 - 2*x^2y^2 - 2/3*x^2 + 2/3*y^2",
     "1/15*x^10 - 1/4*x^8 + 1/3*x^6y^2 + 1/3*x^6 - 2/3*x^4y^2 + 1/2*x^2y^4 - 1/6*x^4 + 1/3*x^2y^2 - 1/6*y^4"),
]


def _pin(e):
    d = e.decomposition
    return (e.ident, e.case.name, str(e.form), str(d.u), str(d.v), str(d.r), str(d.R))


def test_catalog_entries_are_pinned():
    assert [_pin(e) for e in all_entries()] == PINNED


@pytest.mark.parametrize("entry", all_entries(), ids=lambda e: e.ident)
def test_catalog_identity_holds_exactly(entry):
    assert verify_decomposition(entry.form, entry.decomposition, entry.case)


@pytest.mark.parametrize("entry", all_entries(), ids=lambda e: e.ident)
def test_reduce_reproduces_catalog_uv(entry):
    d = reduce(entry.form, entry.case)
    assert d.u == entry.decomposition.u
    assert d.v == entry.decomposition.v


@pytest.mark.parametrize("family", ["xky2", "xky4"])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6])
def test_families_verify_for_all_k(family, k):
    e = instantiate(family, GLOBAL_CENTER, k)
    assert verify_decomposition(e.form, e.decomposition, e.case)
    d = reduce(e.form, e.case)
    assert d.uv_is_zero()


def test_families_are_global_center_only():
    with pytest.raises(ValueError):
        instantiate("xky2", TRUNCATED_PENDULUM, 2)


@pytest.mark.parametrize("case, ps, pt", [(TRUNCATED_PENDULUM, 1, 1), (EIGHT_INTERIOR, 1, 0)])
def test_image_rejects_a_term_without_a_real_image(case, ps, pt):
    gc1 = all_entries()[0]  # y^3 dx
    d = gc1.decomposition
    # x^2 y^3 picks up i^5 (tp) or i^2 (el), one more than the identity's i^4 or i^1
    bad = dataclasses.replace(d, R=d.R + PolyXY.monomial(2, 3))
    with pytest.raises(ValueError, match="no real image"):
        _image(dataclasses.replace(gc1, decomposition=bad), "x-1", case, ps, pt)
