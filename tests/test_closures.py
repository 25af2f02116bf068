"""Algebraic, ranked and sampled-intersection closures."""

import random
from fractions import Fraction as F

import pytest

from copyposet import PreconditionError
from copyposet import closures
from copyposet.structures import all_structures, get_structure
from copyposet.structures.treetz import tree_le

fs = frozenset


# -- algebraic closure -----------------------------------------------------------

def test_ac_dlo_is_identity(dlo):
    res = closures.algebraic_closure(dlo, {F(0), F(1)}, 10)
    assert res.member_set() == {F(0), F(1)} and res.exact


def test_ac_pairs_support_square(pairs):
    u, up = fs((0, 1)), fs((2, 3))
    res = closures.algebraic_closure(pairs, {u, up}, 12)
    assert res.exact
    assert res.member_set() == {
        fs((0, 1)), fs((2, 3)), fs((0, 2)), fs((0, 3)),
        fs((1, 2)), fs((1, 3))}


def test_exchange_failure_on_pairs(pairs):
    u, up, v = fs((0, 1)), fs((2, 3)), fs((0, 2))
    ac_uu = closures.algebraic_closure(pairs, {u, up}, 12)
    ac_uv = closures.algebraic_closure(pairs, {u, v}, 12)
    assert v in ac_uu.member_set()
    assert up not in ac_uv.member_set()
    assert len(ac_uu.members) == 6


def test_kernels_empty():
    for sid in ("zorder", "pureset", "dlo"):
        res = closures.algebraic_closure(get_structure(sid), frozenset(), 10)
        assert res.member_set() == set()


def test_ac_zorder_covers_window_inexactly(zorder):
    res = closures.algebraic_closure(zorder, {0}, 8)
    assert set(zorder.prefix(8)) <= res.member_set()
    assert not res.exact  # every integer is in the closure


def test_ac_is_closure_operator_on_samples():
    rng = random.Random(7)
    for st in all_structures():
        if not st.algebraically_finite:
            continue
        window = st.prefix(8)
        for _ in range(6):
            base = frozenset(rng.sample(window, rng.randint(0, 3)))
            bigger = base | {window[rng.randrange(len(window))]}
            c1 = closures.algebraic_closure(st, base, 10).member_set()
            c2 = closures.algebraic_closure(st, bigger, 10).member_set()
            assert base <= c1          # extensive
            assert c1 <= c2 or not base <= bigger  # monotone
            again = closures.algebraic_closure(
                st, c1, max(10, len(c1))).member_set()
            assert again == c1         # idempotent at window


def test_ac_depth_precondition(dlo):
    with pytest.raises(PreconditionError):
        closures.algebraic_closure(dlo, {F(0), F(1)}, 1)


# -- ranked closure ----------------------------------------------------------------

def test_rc_zorder_full_window(zorder):
    res = closures.ranked_closure(zorder, set(), 1, 7)
    assert res.exact
    assert set(zorder.prefix(7)) <= res.member_set()


def test_rc_dlo_is_base(dlo):
    res = closures.ranked_closure(dlo, {F(0)}, 3, 10)
    assert res.exact and res.member_set() == {F(0)}


def test_rc_zeta2_full_window():
    z2 = get_structure("zeta2")
    res = closures.ranked_closure(z2, set(), 2, 9)
    assert res.exact
    assert set(z2.prefix(9)) <= res.member_set()
    shallow = closures.ranked_closure(z2, set(), 1, 9)
    assert not shallow.exact  # bound 1 cannot resolve the rank-2 orbit


def test_rc_contains_ac(structure):
    base = frozenset(structure.prefix(2))
    ac = closures.algebraic_closure(structure, base, 10).member_set()
    rc = closures.ranked_closure(structure, base, 3, 10).member_set()
    window = set(structure.prefix(10)) | base
    assert (ac & window) <= (rc & window)


# -- intersection closure upper bound ---------------------------------------------

def test_ic_dlo_shrinks_to_base(dlo):
    got = closures.intersection_closure_upper(dlo, {F(0)}, 8, 10, seed=1)
    assert got == {F(0)}


def test_ic_single_copy_structures_cover_window():
    z = get_structure("zorder")
    assert closures.intersection_closure_upper(z, set(), 3, 7) == \
        frozenset(z.prefix(7))
    z2 = get_structure("zeta2")
    assert closures.intersection_closure_upper(z2, set(), 3, 7) == \
        frozenset(z2.prefix(7))


def test_ic_tree_is_down_set():
    tt = get_structure("treetz")
    x = tt.point_at(3)
    got = closures.intersection_closure_upper(tt, {x}, 8, 10)
    expected = {y for y in tt.prefix(10) if tree_le(y, x)} | {x}
    assert got == frozenset(expected)


def test_ic_requires_samples(dlo):
    with pytest.raises(PreconditionError):
        closures.intersection_closure_upper(dlo, set(), 0, 8)


# -- the sandwich ------------------------------------------------------------------

def test_closure_sandwich_sampled():
    rng = random.Random(999)
    for st in all_structures():
        window = st.prefix(8)
        wset = set(st.prefix(10))
        for trial in range(5):
            base = frozenset(rng.sample(window, rng.randint(0, 3)))
            ac = closures.algebraic_closure(st, base, 10).member_set()
            rc_res = closures.ranked_closure(st, base, 3, 10)
            rc = rc_res.member_set()
            ic = closures.intersection_closure_upper(
                st, base, samples=4, depth=10, seed=trial)
            assert (ac & wset) <= (rc & wset) <= (ic & wset)
            if rc_res.exact:
                assert (rc & wset) == (ic & wset)
