"""Copy construction: constraints, membership, determinism, error modes."""

import ast
import hashlib
import importlib
import json
import pkgutil
from fractions import Fraction as F
from itertools import combinations, islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from copyposet.errors import (
    ImpossibleConstructionError,
    InclusionContractError,
    PreconditionError,
    SearchBudgetError,
    UnsupportedConstructionError,
)
import copyposet
from copyposet import certify, closures, core, engine, typesets
from copyposet.core import (IN, OUT, UNKNOWN, CutCopy, FinitenessAnswer,
                            Membership)
from copyposet.structures import BUILTIN_IDS, PureSet, Structure, get_structure

fs = frozenset


def decided_out(handle, depth):
    """The window points ``handle`` decides out, in enumeration order."""
    return [x for x in handle.structure.prefix(depth)
            if handle.membership(x).is_out]


def test_identity_membership(structure):
    c = engine.copy_identity(structure)
    for x in structure.prefix(6):
        assert c.membership(x).is_in
    # only the back-and-forth search stages
    assert not hasattr(c, "advance")


# -- copy_through -------------------------------------------------------------

def test_copy_through_proper_dlo(dlo):
    c = engine.copy_through(dlo, {F(0)}, engine.copy_identity(dlo),
                            proper=True)
    assert c.membership(F(0)).is_in
    assert decided_out(c, 8), "properness needs a decided exclusion"


def test_copy_through_proper_unsupported_on_single_copy():
    for sid in ("zorder", "zeta2"):
        st = get_structure(sid)
        with pytest.raises(UnsupportedConstructionError):
            engine.copy_through(st, set(), engine.copy_identity(st),
                                proper=True)


def test_copy_through_nested_parent(dlo):
    parent = engine.powerset_embedding_dlo(dlo, members=(0,))
    c = engine.copy_through(dlo, set(), parent, proper=False)
    for x in c.decided_in(30):
        assert parent.membership(x).is_in


def test_copy_through_fix_outside_parent(dlo):
    parent = engine.powerset_embedding_dlo(dlo, members=())
    with pytest.raises(PreconditionError):
        engine.copy_through(dlo, {F(5)}, parent, proper=False)


# -- copy_avoiding -------------------------------------------------------------

def test_copy_avoiding_dlo(dlo):
    c = engine.copy_avoiding(dlo, {F(0)}, {F(1)})
    assert c.membership(F(0)).is_in
    assert c.membership(F(1)).is_out


def test_copy_avoiding_impossible_on_ranked():
    z = get_structure("zorder")
    with pytest.raises(ImpossibleConstructionError) as e:
        engine.copy_avoiding(z, set(), {0})
    assert e.value.certificate["status"] == "ranked-certified"

    pa = get_structure("pairs")
    with pytest.raises(ImpossibleConstructionError) as e:
        engine.copy_avoiding(pa, {fs((0, 1)), fs((2, 3))}, {fs((0, 2))})
    assert "{0,2}" in str(e.value)
    assert e.value.certificate["typeset"]


def test_copy_avoiding_rejects_fixed_point(dlo):
    with pytest.raises(ImpossibleConstructionError):
        engine.copy_avoiding(dlo, {F(0)}, {F(0)})


class _UncertifiedPureSet(PureSet):
    """A user-written structure whose oracle cannot certify rank."""

    def type_unranked(self, sockel, x):
        return None


def test_uncertified_unrankedness_is_not_assumed():
    st = _UncertifiedPureSet()
    with pytest.raises(UnsupportedConstructionError):
        engine.copy_avoiding(st, set(), {0})
    assert st.unranked_witness(set(), 0, {1}) is None


@pytest.mark.parametrize("sid, avoid", [("rado", "0"), ("treetz", "L0:[]")])
def test_max_avoiding_copy_closed_form(sid, avoid):
    st = get_structure(sid)
    a = st.decode(avoid)
    c = engine.max_avoiding_copy(st, [a], 8)
    assert c.membership(a).is_out
    assert certify.check_copy(c, 8, 2, 500).verdict == "pass"


def test_membership_decisions_permanent(dlo):
    c = engine.BackForthCopy(dlo, fix=[F(0)], avoid=[F(1)])
    c.advance(3)
    snapshot_in = set(c.decided_in(10))
    snapshot_out = set(decided_out(c, 10))
    c.advance(9)
    assert snapshot_in <= set(c.decided_in(10))
    assert snapshot_out <= set(decided_out(c, 10))


def _dlo_back_forth(fix, avoid):
    # the constructors build cut copies on every built-in: the search is
    # built directly
    dlo = get_structure("dlo")
    return engine.BackForthCopy(dlo, fix=map(dlo.decode, fix),
                                avoid=map(dlo.decode, avoid), seed=0)


def test_advance_determinism():
    a = _dlo_back_forth(["0"], ["1"])
    b = _dlo_back_forth(["0"], ["1"])
    a.advance(4).advance(4)
    b.advance(8)
    assert a._map == b._map
    assert set(a.decided_in(12)) == set(b.decided_in(12))
    assert a.trace == b.trace


def test_advance_zero_is_noop():
    c = _dlo_back_forth([], ["0"])
    c.advance(4)
    before = dict(c._map)
    c.advance(0)
    assert dict(c._map) == before


# -- the interval copies --------------------------------------------------------

def test_interval_copy_membership(dlo):
    s0 = engine.powerset_embedding_dlo(dlo, members=(0,))
    assert s0.membership(F(1, 2)).is_in
    assert s0.membership(F(3, 2)).is_out
    assert s0.membership(F(-1, 2)).is_in
    assert s0.membership(F(1)).is_out  # integers never belong
    empty = engine.powerset_embedding_dlo(dlo, members=())
    assert empty.membership(F(1, 2)).is_out
    assert empty.membership(F(-1, 2)).is_in


def test_interval_copy_cofinite(dlo):
    co = engine.powerset_embedding_dlo(dlo, cofinite_complement=(1,))
    assert co.membership(F(1, 2)).is_in
    assert co.membership(F(3, 2)).is_out
    assert co.membership(F(5, 2)).is_in


def test_interval_copy_monotone(dlo):
    s0 = engine.powerset_embedding_dlo(dlo, members=(0,))
    s01 = engine.powerset_embedding_dlo(dlo, members=(0, 1))
    for x in dlo.prefix(40):
        if s0.membership(x).is_in:
            assert s01.membership(x).is_in


def test_interval_copy_incomparable_witnesses(dlo):
    s0 = engine.powerset_embedding_dlo(dlo, members=(0,))
    s1 = engine.powerset_embedding_dlo(dlo, members=(1,))
    assert s0.membership(F(1, 2)).is_in and s1.membership(F(1, 2)).is_out
    assert s1.membership(F(3, 2)).is_in and s0.membership(F(3, 2)).is_out


def test_powerset_embedding_requires_dlo(zorder):
    with pytest.raises(UnsupportedConstructionError):
        engine.powerset_embedding_dlo(zorder, members=(0,))


@given(st.sets(st.integers(min_value=0, max_value=9)),
       st.sets(st.integers(min_value=0, max_value=9)))
@settings(max_examples=40, deadline=None)
def test_interval_copy_order_embedding_property(a, b):
    dlo = get_structure("dlo")
    ha = engine.powerset_embedding_dlo(dlo, members=tuple(sorted(a)))
    hb = engine.powerset_embedding_dlo(dlo, members=tuple(sorted(b)))
    window = dlo.prefix(60)
    a_in = {x for x in window if ha.membership(x).is_in}
    b_in = {x for x in window if hb.membership(x).is_in}
    assert (a_in <= b_in) == (a <= b)


# -- union chains ------------------------------------------------------------------

def test_union_chain_equals_top(dlo):
    fam = [engine.powerset_embedding_dlo(dlo, members=tuple(range(k)))
           for k in (1, 2, 3)]
    u = engine.union_chain(fam)
    top = engine.powerset_embedding_dlo(dlo, members=(0, 1, 2))
    for x in dlo.prefix(40):
        assert u.membership(x).kind == top.membership(x).kind


def test_union_chain_detects_violation(dlo):
    s0 = engine.powerset_embedding_dlo(dlo, members=(0,))
    s1 = engine.powerset_embedding_dlo(dlo, members=(1,))
    with pytest.raises(InclusionContractError):
        engine.union_chain([s0, s1])


def test_union_single_handle(dlo):
    s0 = engine.powerset_embedding_dlo(dlo, members=(0,))
    u = engine.union_chain([s0])
    for x in dlo.prefix(20):
        assert u.membership(x).kind == s0.membership(x).kind


# -- descending chains ----------------------------------------------------------------

def test_descending_chain_dlo(dlo):
    chain = engine.descending_chain(
        dlo, {F(0)}, engine.copy_identity(dlo), 3, depth=10)
    assert len(chain) == 4
    for lower, upper in zip(chain[1:], chain):
        cert = certify.check_inclusion(lower, upper, 8)
        assert cert.verdict == "pass"
    inter = engine.chain_intersection(dlo, chain, 10)
    assert inter == [F(0)]


def test_descending_chain_unsupported_on_zorder(zorder):
    with pytest.raises(UnsupportedConstructionError):
        engine.descending_chain(zorder, set(), engine.copy_identity(zorder),
                                1)


@pytest.mark.parametrize("sid, depth", [("dlo", 1), ("zetaeta", 2),
                                        ("treetz", 2)])
def test_descending_chain_past_its_window_is_a_budget_error(sid, depth):
    # a structure with proper copies whose window holds no unranked point
    # over u_0: the search ran out, it did not refute the chain
    s = get_structure(sid)
    with pytest.raises(SearchBudgetError) as err:
        engine.descending_chain(s, s.prefix(1), engine.copy_identity(s), 3,
                                depth=depth)
    assert str(err.value) == ("no certified-unranked point over the fixed "
                              "set in the window U_%d" % depth)
    assert (err.value.scanned, err.value.blocking) == (depth, None)


def test_descending_chain_fix_outside_top_copy(dlo):
    top = engine.powerset_embedding_dlo(dlo, members=(0,))
    with pytest.raises(PreconditionError,
                       match="fixed point 5 not inside the top copy"):
        engine.descending_chain(dlo, {F(5)}, top, 2)


def test_descending_chain_strictness(dlo):
    chain = engine.descending_chain(
        dlo, {F(0)}, engine.copy_identity(dlo), 3, depth=10)
    for lower, upper in zip(chain[1:], chain):
        strict = any(
            upper.membership(x).is_in and lower.membership(x).is_out
            for x in dlo.prefix(20))
        assert strict


def test_cofinite_chain_longer_than_its_window_stays_strict(dlo):
    # 12 levels share out 6 unranked window points: each later level cuts
    # the enum-least point its parent holds
    chain = engine.descending_chain(dlo, set(), engine.copy_identity(dlo),
                                    12, depth=6)
    assert all(isinstance(c, CutCopy) for c in chain[1:])
    window = dlo.prefix(32)
    for lower, upper in zip(chain[1:], chain):
        assert any(upper.membership(x).is_in and lower.membership(x).is_out
                   for x in window)
        assert certify.check_inclusion(lower, upper, 32).verdict == "pass"


def test_cofinite_copies_on_the_flagged_structures():
    for sid in ("pureset", "dlo", "equiv"):
        st = get_structure(sid)
        ident = engine.copy_identity(st)
        u0, u1 = st.prefix(2)
        assert isinstance(engine.copy_avoiding(st, {u0}, {u1}), CutCopy)
        assert isinstance(engine.copy_through(st, {u0}, ident, proper=True),
                          CutCopy)
        whole = engine.copy_through(st, {u0}, ident, proper=False)
        assert all(whole.membership(x).is_in for x in st.prefix(32))
    # inside the maximum copy avoiding 0, a rado copy is cofinite too
    rado = get_structure("rado")
    top = engine.max_avoiding_copy(rado, [0], 8)
    c = engine.copy_through(rado, {2}, top, proper=True)
    assert c.describe() == "cofinite avoid={0,1}"
    assert certify.check_copy(c, 8).verdict == "pass"


@pytest.mark.parametrize("sid, avoid, text", [
    ("dlo", "1", "cofinite avoid={1}"),
    ("treetz", "L1:[]", "tree minus up-sets of {L1:[]}"),
])
def test_a_copy_through_that_is_not_proper_cuts_nothing(sid, avoid, text):
    st = get_structure(sid)
    parent = engine.copy_avoiding(st, set(), {st.decode(avoid)})
    c = engine.copy_through(st, set(), parent, proper=False)
    assert c is parent and c.describe() == text


def test_cut_copies_on_zetaeta_and_pairs():
    # zetaeta takes the avoided point's whole block out, pairs the avoided
    # pair's least element off the fixed pairs' support
    ze, pairs = get_structure("zetaeta"), get_structure("pairs")
    c = engine.copy_avoiding(ze, {ze.decode("(0|0)")}, {ze.decode("(1|5)")})
    assert c.describe() == "zetaeta minus blocks {1}"
    assert c.membership(ze.decode("(1|-7)")).is_out
    assert c.membership(ze.decode("(1/2|3)")).is_in
    c = engine.copy_avoiding(pairs, {fs((0, 1))}, {fs((1, 4)), fs((2, 3))})
    assert c.describe() == "pairs [N minus {2,4}]^2"
    assert c.membership(fs((2, 9))).is_out and c.membership(fs((0, 5))).is_in
    # the avoided pairs share 1: one cut is enough, so the copy is maximal
    c = engine.max_avoiding_copy(pairs, [fs((0, 1)), fs((1, 2)), fs((1, 3))],
                                 8)
    assert c.describe() == "pairs [N minus {1}]^2"
    for h in (c, engine.max_avoiding_copy(ze, [ze.decode("(0|0)")], 8)):
        assert certify.check_copy(h, 10, 2, 60).verdict == "pass"


@pytest.mark.parametrize("sid", BUILTIN_IDS)
def test_no_constructor_builds_a_back_and_forth_copy(sid, monkeypatch):
    # the identity is the cut copy with no roots; on every structure with
    # proper copies, rado included, the through, avoiding and maximum
    # avoiding copies and every chain level are cut copies
    def refuse(*args, **kwargs):
        raise AssertionError("a BackForthCopy was built")

    monkeypatch.setattr(engine.BackForthCopy, "__init__", refuse)
    st = get_structure(sid)
    ident = engine.copy_identity(st)
    assert type(ident) is CutCopy and ident.roots == fs()
    assert ident.describe() == "identity"
    if st.single_copy:
        return
    u0 = fs(st.prefix(1))
    avoid = [x for x in st.prefix(8)
             if x not in u0 and st.type_unranked(u0, x) is True][:2]
    assert engine.copy_through(st, u0, ident, proper=False) is ident
    inner = engine.copy_avoiding(st, u0, avoid)
    cut = [inner, engine.copy_through(st, u0, ident, proper=True),
           engine.copy_through(st, u0, inner, proper=True),
           engine.max_avoiding_copy(st, avoid, 8)]
    cut += engine.descending_chain(st, u0, ident, 3)[1:]
    cut += engine.descending_chain(st, u0, inner, 3)[1:]
    assert [type(h) for h in cut] == [CutCopy] * 10
    closures.intersection_closure_upper(st, u0, 4, 8)
    if st.algebraically_finite:
        # a closed-form parent takes the cut inside it
        for side in engine.disjoint_pair(st, fs()):
            inside = [engine.copy_through(st, fs(), side, proper=True)]
            inside += engine.descending_chain(st, fs(), side, 2)[1:]
            assert [(type(h), h.parent) for h in inside] == [(CutCopy,
                                                              side)] * 3


def test_a_structure_without_a_cut_gets_a_back_and_forth_copy():
    # algebraicity and no cut of its own: the constructors fall back on
    # the search
    class Uncut(type(get_structure("zetaeta"))):
        cut_root = Structure.cut_root

    st = Uncut()
    a = st.decode("(0|0)")
    c = engine.copy_avoiding(st, set(), {a})
    assert isinstance(c, engine.BackForthCopy)
    assert c.advance(2).membership(a).is_out
    u0, ident = fs(st.prefix(1)), engine.copy_identity(st)
    c = engine.copy_through(st, u0, ident, proper=True)
    assert isinstance(c, engine.BackForthCopy)
    chain = engine.descending_chain(st, u0, ident, 3)
    assert all(isinstance(h, engine.BackForthCopy) for h in chain[1:])
    for lower, upper in zip(chain[1:], chain):
        assert certify.check_inclusion(lower, upper, 8).verdict == "pass"


def test_only_a_back_and_forth_parent_keeps_the_search(dlo):
    parent = engine.decide_window(_dlo_back_forth([], ["1"]), 8)
    c = engine.copy_through(dlo, set(), parent, proper=True)
    assert isinstance(c, engine.BackForthCopy) and c.parent is parent
    # decide_window advances the search only: a closed form is left alone
    for side in engine.disjoint_pair(dlo, ()):
        assert engine.decide_window(side, 8, stages=8) is side
        assert not hasattr(side, "advance")


# -- disjoint pairs ---------------------------------------------------------------------

@pytest.mark.parametrize("sid,fix", [
    ("dlo", fs()),
    ("rado", fs()),
    ("pureset", fs()),
    ("equiv", fs()),
    ("pairs", fs({fs((0, 1)), fs((2, 3))})),
    ("rado", fs({0, 5})),
    ("rado", fs({3})),
    ("pairs", fs()),
    ("pureset", fs({3, 4})),
    ("equiv", fs({(0, 1), (2, 2)})),
    ("dlo", fs({F(-3), F(0), F(1, 2), F(7)})),
])
def test_disjoint_pair_meets_in_closure(sid, fix):
    st = get_structure(sid)
    left, right = engine.disjoint_pair(st, fix)
    core = st.ac_members_exact(fix) | fix
    window = st.prefix(12)
    for x in window:
        ml, mr = left.membership(x), right.membership(x)
        if x in core:
            assert ml.is_in and mr.is_in
        else:
            assert not (ml.is_in and mr.is_in)
            assert ml.is_out or mr.is_out


# sha256 of the certificates of the rado disjoint pairs over {}, {3} and
# {0, 5}: both sides' copy checks, which name each side, and the pair's
# disjointness check, one sorted JSON line each.  Pinned when rado's
# through, avoiding and chain copies became cofinite: the tagged pairs
# kept their bytes.  Re-pinned when the tagged class lost its floor and the
# pair over {} became tagged classes: all nine records changed only in the
# side descriptions
PINNED_RADO_DISJOINT_PAIRS_SHA256 = \
    "d18907dc0bdc12094fcdc9c24d34f6c39a6a0eea710a5b868c59b7aa742015aa"


@pytest.mark.parametrize("sid,fix,left,right", [
    ("dlo", (), "dlo intervals (-inf,0)", "dlo intervals (0,+inf)"),
    ("dlo", ("0", "1/2"), "dlo intervals (-1/4,0] (1/4,1/2] (3/4,+inf)",
     "dlo intervals (-inf,-1/4) [0,1/4) [1/2,3/4)"),
    ("rado", (), "rado tagged-class ones=[1] zeros=[0] fix={}",
     "rado tagged-class ones=[0, 1] zeros=[] fix={}"),
    ("rado", ("3",), "rado tagged-class ones=[2] zeros=[8] fix={3}",
     "rado tagged-class ones=[8] zeros=[2] fix={3}"),
], ids=["dlo", "dlo-over-0,1/2", "rado", "rado-over-3"])
def test_disjoint_pair_sides_describe_their_parameters(sid, fix, left, right):
    st = get_structure(sid)
    pair = engine.disjoint_pair(st, fs(map(st.decode, fix)))
    assert [side.describe() for side in pair] == [left, right]


def test_rado_pair_over_nothing_is_the_split_mod_4():
    left, right = engine.disjoint_pair(get_structure("rado"), fs())
    for x in range(64):
        assert left.membership(x).is_in == (x % 4 == 2)
        assert right.membership(x).is_in == (x % 4 == 3)


def test_closed_form_handle_classes_are_few():
    # one handle per closed-form family, besides the union and the search
    for info in pkgutil.walk_packages(copyposet.__path__, "copyposet."):
        importlib.import_module(info.name)
    found, todo = set(), [core.CopyHandle]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("copyposet."):
                found.add(cls.__name__)
    assert found == {"CutCopy", "RuleCopy", "UnionCopy", "BackForthCopy",
                     "TaggedCopyRado", "IntervalCopyDLO", "IntervalsCopyDLO"}


def test_rado_disjoint_pair_bytes_are_pinned():
    rado = get_structure("rado")
    digest = hashlib.sha256()
    for fix in (fs(), fs({3}), fs({0, 5})):
        left, right = engine.disjoint_pair(rado, fix)
        certs = [certify.check_copy(side, 8, 2, 500) for side in (left, right)]
        certs.append(certify.check_disjointness(left, right, 12, fix))
        for cert in certs:
            digest.update(json.dumps(cert.to_record(), sort_keys=True).encode()
                          + b"\n")
    assert digest.hexdigest() == PINNED_RADO_DISJOINT_PAIRS_SHA256


@pytest.mark.parametrize("sid", ["pureset", "dlo", "rado", "equiv",
                                 "pairs"])
def test_disjoint_pairs_over_small_fixed_sets_certify(sid):
    st = get_structure(sid)
    assert st.algebraically_finite
    window = st.prefix(8)
    fixed_sets = [fs({x}) for x in window] + [
        fs(pair) for pair in combinations(window[:6], 2)]
    for fix in fixed_sets:
        left, right = engine.disjoint_pair(st, fix)
        core = st.ac_members_exact(fix) | fix
        verdicts = [certify.check_disjointness(left, right, 12, core).verdict]
        verdicts += [certify.check_copy(side, depth).verdict
                     for side in (left, right) for depth in (8, 12)]
        assert verdicts == ["pass"] * 5, [st.encode(x) for x in fix]


@pytest.mark.parametrize("sid", ["pureset", "dlo", "rado", "equiv",
                                 "pairs"])
def test_copies_inside_a_disjoint_pair_side_are_cut_copies(sid):
    # a copy minus a finite set is a copy without algebraicity: a proper
    # copy and a chain inside either side cut the side, and certify
    st = get_structure(sid)
    w = st.prefix(3)
    fixes = [fs(), fs({fs((0, 1))})] if sid == "pairs" else [
        fs(), fs(w[2:]), fs(w[1:])]
    for fix in fixes:
        for side in engine.disjoint_pair(st, fix):
            c = engine.copy_through(st, fix, side, proper=True)
            assert type(c) is CutCopy and c.parent is side
            assert [certify.check_copy(c, d).verdict for d in (8, 12)] == \
                ["pass"] * 2, c.describe()
            chain = engine.descending_chain(st, fix, side, 3)
            assert [certify.check_inclusion(lower, upper, 8).verdict
                    for lower, upper in zip(chain[1:], chain)] == \
                ["pass"] * 3, c.describe()


def test_rado_copy_inside_a_residue_side_is_cut():
    rado = get_structure("rado")
    side = engine.disjoint_pair(rado, ())[0]
    c = engine.copy_through(rado, {2}, side, proper=True)
    assert type(c) is CutCopy
    assert c.describe() == ("cofinite avoid={6} inside "
                            "rado tagged-class ones=[1] zeros=[0] fix={}")
    assert certify.check_copy(c, 8, 2, 200).verdict == "pass"


def test_disjoint_pair_unsupported():
    for sid in ("zorder", "zeta2", "zetaeta", "treetz"):
        st = get_structure(sid)
        with pytest.raises(UnsupportedConstructionError):
            engine.disjoint_pair(st, set())


# -- bernstein two-colouring ---------------------------------------------------------------

def test_bernstein_dlo_serves_small_typesets(dlo):
    res = engine.bernstein_base(dlo, 10)
    assert set(res.side_a) | set(res.side_b) == set(dlo.prefix(10))
    assert not (set(res.side_a) & set(res.side_b))
    small = set(dlo.prefix(4))
    assert not [e for e in res.unserved if set(e[0]) <= small]


def test_bernstein_unsupported(zorder):
    with pytest.raises(UnsupportedConstructionError):
        engine.bernstein_base(zorder, 10)
    pa = get_structure("pairs")
    with pytest.raises(UnsupportedConstructionError):
        engine.bernstein_base(pa, 10)


def test_bernstein_pureset_balanced():
    ps = get_structure("pureset")
    res = engine.bernstein_base(ps, 6)
    assert set(res.side_a) | set(res.side_b) == set(range(6))


# sha256 over one JSON line per (structure, depth, sockel_cap) below
PINNED_BERNSTEIN_SHA256 = \
    "391d8888509e104ab50a04199f98c91e1f5bdc4c70e43d3fe4a3306c8f3a4092"


def test_bernstein_bases_are_pinned():
    # sides, served and unserved classes, with each class's sockel and rep
    digest = hashlib.sha256()
    for sid in ("pureset", "dlo", "rado", "equiv"):
        st = get_structure(sid)
        enc = st.encode
        for depth in (6, 10, 12, 14):
            for cap in (1, 2):
                res = engine.bernstein_base(st, depth, sockel_cap=cap)
                rec = {"structure": sid, "depth": depth, "sockel_cap": cap,
                       "a": [enc(x) for x in res.side_a],
                       "b": [enc(x) for x in res.side_b]}
                for name in ("served", "unserved"):
                    rec[name] = [[[enc(p) for p in f], enc(r)]
                                 for f, r in getattr(res, name)]
                digest.update(json.dumps(rec, sort_keys=True).encode()
                              + b"\n")
    assert digest.hexdigest() == PINNED_BERNSTEIN_SHA256


def _bernstein_record(st, depth, cap):
    res = engine.bernstein_base(st, depth, sockel_cap=cap)
    enc = st.encode
    return ([enc(x) for x in res.side_a], [enc(x) for x in res.side_b],
            [([enc(p) for p in f], enc(r)) for f, r in res.served],
            [([enc(p) for p in f], enc(r)) for f, r in res.unserved])


BERNSTEIN_CASES = ((6, 0), (6, 2), (14, 0), (14, 2))
BERNSTEIN_IDS = ("pureset", "dlo", "rado", "equiv")


def test_bernstein_bases_do_not_depend_on_the_tables_kept():
    # cold tables (each case on a fresh instance), warm tables, and a
    # mixed order on one more fresh instance: d = 14 before d = 6, cap 2
    # before cap 0, and a check_copy on the structure in between that
    # reads the tables of its own sockels
    for sid in BERNSTEIN_IDS:
        st = get_structure(sid)
        cold = {case: _bernstein_record(type(st)(), *case)
                for case in BERNSTEIN_CASES}
        warm = {case: _bernstein_record(st, *case)
                for case in BERNSTEIN_CASES}
        st = type(st)()
        mixed = {}
        for case in BERNSTEIN_CASES[::-1]:
            mixed[case] = _bernstein_record(st, *case)
            if case == (14, 0):
                copy = CutCopy(st, st.prefix(8)[1::2])
                assert certify.check_copy(copy, 8, 2, 500).verdict == "pass"
        assert cold == warm == mixed, sid


def test_bernstein_bases_with_fewer_tables_kept(forgetful):
    want = [_bernstein_record(get_structure(sid), *case)
            for sid in BERNSTEIN_IDS for case in BERNSTEIN_CASES]
    memos = forgetful(core.TypeClasses, 2)
    got = [_bernstein_record(get_structure(sid), *case)
           for sid in BERNSTEIN_IDS for case in BERNSTEIN_CASES]
    assert sum(m.misses for m in memos) > 2
    assert got == want


def test_bernstein_negative_sockel_cap_is_a_precondition_error():
    with pytest.raises(PreconditionError, match="sockel_cap"):
        engine.bernstein_base(get_structure("rado"), 6, sockel_cap=-1)


def _reference_bernstein(structure, depth, sockel_cap=2):
    """The greedy of ``engine.bernstein_base`` with sides as letters, its
    reps found by scanning the window's class ids, and every class's
    members read through ``members``: the reference the base must agree
    with."""
    if not structure.stabilizer_orbits_all_infinite:
        raise UnsupportedConstructionError("finite stabilizer orbits")
    window = structure.prefix(depth)
    assigned = {}
    served, unserved = [], []
    scan_cap = 64 * (depth + 1)
    for size in range(0, sockel_cap + 1):
        for ftup in combinations(window, size):
            table = structure.memo[core.TypeClasses, ftup]
            ids = table.ids
            while len(ids) < depth:
                table.grow(window.__getitem__)
            reps = []
            for x, c in zip(window, ids):
                if c == len(reps):
                    reps.append(x)
            for c, rep in enumerate(reps):
                have = set()
                fresh = []
                for i, m in enumerate(table.members(c, rep)):
                    if i > scan_cap:
                        break
                    side = assigned.get(m)
                    if side is not None:
                        have.add(side)
                    elif len(fresh) < 2:
                        fresh.append(m)
                    if len(have) == 2 or len(fresh) >= 2:
                        break
                for side in [s for s in "AB" if s not in have]:
                    if not fresh:
                        break
                    assigned[fresh.pop(0)] = side
                    have.add(side)
                if len(have) == 2:
                    served.append((ftup, rep))
                else:
                    unserved.append((ftup, rep))
    flip = False
    for x in window:
        if x not in assigned:
            assigned[x] = "B" if flip else "A"
            flip = not flip
    return engine.BernsteinResult(
        tuple(x for x in window if assigned[x] == "A"),
        tuple(x for x in window if assigned[x] == "B"),
        tuple(served), tuple(unserved))


def _against_the_reference(st, depth, cap):
    # the base and the reference each on a fresh instance, then the base
    # again on the tables the reference grew
    cold = engine.bernstein_base(type(st)(), depth, sockel_cap=cap)
    st = type(st)()
    want = _reference_bernstein(st, depth, cap)
    assert cold == want == engine.bernstein_base(st, depth, sockel_cap=cap), \
        (st.structure_id, depth, cap)
    return want


@pytest.mark.parametrize("sid", BERNSTEIN_IDS)
def test_bernstein_bases_match_the_reference_greedy(sid):
    # each case on cold tables, and again on the warm tables the
    # reference grew
    st = get_structure(sid)
    for depth in range(1, 15):
        for cap in range(4):
            _against_the_reference(st, depth, cap)


def test_bernstein_lists_a_class_its_stream_cannot_serve():
    # over nothing the one class's stream yields only 0: it gets side A,
    # no member is left for B, and the class is listed unserved
    class Lonely(PureSet):
        def typeset_iter(self, sockel, x):
            stream = super().typeset_iter(sockel, x)
            return stream if sockel else islice(stream, 1)

    st = Lonely()
    for depth in (1, 2, 6):
        for cap in range(3):
            res = _against_the_reference(st, depth, cap)
            assert res.unserved == (((), 0),)
            assert 0 in res.side_a
            assert sorted(res.side_a + res.side_b) == list(range(depth))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_bernstein_raises_a_stream_error_again(k):
    # a typeset stream that raises after k members: every later base reads
    # the k kept members, reopens the stream past them and meets the same
    # error; the table keeps only the members the stream yielded
    class Breaking(PureSet):
        def typeset_iter(self, sockel, x):
            for i, y in enumerate(super().typeset_iter(sockel, x)):
                if i == k:
                    raise SearchBudgetError("stream broke", scanned=i)
                yield y

    st = Breaking()
    for _ in range(2):
        with pytest.raises(SearchBudgetError, match="^stream broke$"):
            engine.bernstein_base(st, 6)
    # over nothing the first class stops after reading 0 and 1; over {0}
    # the class of 1 reads 1, 2 and 3
    ftup = (0,) if k == 2 else ()
    assert st.memo[core.TypeClasses, ftup].drawn == {0: [[], [0], [1, 2]][k]}


# -- the no-isolated-point proxy ---------------------------------------------------------------

def test_second_copy_in_every_neighbourhood(dlo):
    # for sampled proper copies and neighbourhoods (F inside, E outside),
    # a distinct second copy in the same neighbourhood is constructible
    for seed in range(4):
        c = engine.copy_through(dlo, {F(0)}, engine.copy_identity(dlo),
                                proper=True, seed=seed)
        engine.decide_window(c, 8)
        inside = [x for x in c.decided_in(8)][:2]
        outside = [x for x in decided_out(c, 8)][:2]
        witness = next(x for x in c.decided_in(8) if x not in inside)
        second = engine.copy_avoiding(
            dlo, set(inside), set(outside) | {witness}, seed=seed)
        assert all(second.membership(x).is_in for x in inside)
        assert all(second.membership(x).is_out for x in outside)
        # the two copies differ at the witness inside the doubled window
        assert c.membership(witness).is_in
        assert second.membership(witness).is_out


@pytest.mark.parametrize("sid", ["zetaeta", "treetz"])
def test_supported_constructors_certify_on_non_amalgamation(sid):
    st = get_structure(sid)
    c = engine.copy_through(st, frozenset(), engine.copy_identity(st),
                            proper=True)
    engine.decide_window(c, 10)
    assert certify.check_copy(c, 8, 2, 500).verdict == "pass"
    avoidable = [x for x in st.prefix(8)
                 if st.type_unranked(frozenset(), x) is True]
    a = engine.copy_avoiding(st, frozenset(), avoidable[:1])
    engine.decide_window(a, 10)
    assert certify.check_copy(a, 8, 2, 500).verdict == "pass"


def test_trace_records_moves():
    c = _dlo_back_forth(["0"], ["1"])
    c.advance(4)
    assert len(c.trace) == 4
    rec = c.trace[0]
    assert set(rec) == {"round", "move", "source", "target", "scanned",
                        "checks"}
    assert rec["move"] == "forth"


def test_golden_trace_avoiding():
    # frozen from a reference run; guards reproducibility of the scheduler
    c = _dlo_back_forth(["0"], ["1"])
    c.advance(4)
    assert c.trace == [
        {"round": 0, "move": "forth", "source": "1", "target": "1/2",
         "scanned": 2, "checks": 1},
        {"round": 1, "move": "forth", "source": "-1", "target": "-1",
         "scanned": 1, "checks": 1},
        {"round": 2, "move": "forth", "source": "1/2", "target": "1/3",
         "scanned": 1, "checks": 1},
        {"round": 3, "move": "forth", "source": "-1/2", "target": "-1/2",
         "scanned": 1, "checks": 1},
    ]


# (round, move, source, target, scanned, checks) of every move of a
# back-and-forth through-proper copy over nothing with its window decided
# at depth 8, frozen from a reference run: back steps as well as forth
# steps
GOLDEN_THROUGH_TRACES = {
    "dlo": [
        (0, 'back', '0', '1', 1, 1),
        (0, 'forth', '1', '2', 1, 1),
        (1, 'forth', '-1', '-1', 2, 1),
        (1, 'back', '-1/2', '1/2', 1, 1),
        (2, 'forth', '1/2', '3/2', 1, 1),
        (2, 'back', '-2/3', '-1/2', 1, 1),
        (3, 'back', '-2', '-2', 1, 1),
        (3, 'forth', '2', '3', 1, 1),
        (4, 'forth', '3/2', '5/2', 1, 1),
        (5, 'forth', '-3/2', '-3/2', 1, 1),
        (6, 'forth', '1/3', '4/3', 1, 1),
        (7, 'forth', '3', '4', 1, 1),
        (8, 'forth', '-3', '-3', 1, 1),
        (9, 'forth', '5/2', '7/2', 1, 1),
        (10, 'forth', '-5/2', '-5/2', 1, 1),
        (11, 'forth', '2/3', '5/3', 1, 1),
        (12, 'forth', '4', '5', 1, 1),
        (13, 'forth', '-4', '-4', 1, 1),
        (14, 'forth', '7/2', '9/2', 1, 1),
        (15, 'forth', '-7/2', '-7/2', 1, 1),
        (16, 'forth', '-1/3', '2/3', 1, 1),
        (17, 'forth', '5', '6', 1, 1),
        (18, 'forth', '-5', '-5', 1, 1),
        (19, 'forth', '9/2', '11/2', 1, 1),
        (20, 'forth', '-9/2', '-9/2', 1, 1),
        (21, 'forth', '6', '7', 1, 1),
        (22, 'forth', '-6', '-6', 1, 1),
        (23, 'forth', '11/2', '13/2', 1, 1)],
    "equiv": [
        (0, 'back', '0.0', '0.1', 1, 1),
        (0, 'forth', '0.1', '0.2', 2, 1),
        (1, 'forth', '1.0', '1.0', 1, 1),
        (1, 'back', '1.1', '1.1', 1, 1),
        (2, 'forth', '0.2', '0.3', 2, 1),
        (2, 'back', '2.0', '2.0', 1, 1),
        (3, 'back', '1.2', '1.2', 1, 1),
        (3, 'forth', '0.3', '0.4', 2, 1),
        (4, 'forth', '2.1', '2.1', 1, 1),
        (5, 'forth', '3.0', '3.0', 1, 1),
        (6, 'forth', '0.4', '0.5', 2, 1),
        (7, 'forth', '1.3', '1.3', 1, 1),
        (8, 'forth', '2.2', '2.2', 1, 1),
        (9, 'forth', '3.1', '3.1', 1, 1),
        (10, 'forth', '4.0', '4.0', 1, 1),
        (11, 'forth', '0.5', '0.6', 2, 1),
        (12, 'forth', '1.4', '1.4', 1, 1),
        (13, 'forth', '2.3', '2.3', 1, 1),
        (14, 'forth', '3.2', '3.2', 1, 1),
        (15, 'forth', '4.1', '4.1', 1, 1),
        (16, 'forth', '5.0', '5.0', 1, 1),
        (17, 'forth', '0.6', '0.7', 2, 1),
        (18, 'forth', '1.5', '1.5', 1, 1),
        (19, 'forth', '2.4', '2.4', 1, 1),
        (20, 'forth', '3.3', '3.3', 1, 1),
        (21, 'forth', '4.2', '4.2', 1, 1),
        (22, 'forth', '5.1', '5.1', 1, 1),
        (23, 'forth', '6.0', '6.0', 1, 1)]
}


def _through_proper(st):
    """A through-proper copy over nothing, built by back-and-forth as
    copy_through builds it on a structure that defines no cut."""
    ident = engine.copy_identity(st)
    return engine.BackForthCopy(st, avoid={ident.unranked_member(fs())},
                                parent=ident, seed=0)


@pytest.mark.parametrize("sid", sorted(GOLDEN_THROUGH_TRACES))
def test_golden_trace_through_proper_with_back_moves(sid):
    c = _through_proper(get_structure(sid))
    engine.decide_window(c, 8)
    keys = ["round", "move", "source", "target", "scanned", "checks"]
    assert [list(m) for m in c.trace] == [keys] * len(c.trace)
    assert [tuple(m.values()) for m in c.trace] == GOLDEN_THROUGH_TRACES[sid]


# sha256 of the traces of _back_forth_handles(), one JSON line of
# [source, target, move, scanned] per move per handle: a candidate stream
# that yields a different set of images shows up as a different
# ``scanned``.  Re-pinned when zetaeta and pairs built cut copies and the
# handles became ones built directly on dlo and equiv, pinned at the
# commit before, whose search they share
PINNED_BACK_FORTH_TRACES_SHA256 = (
    "2da411c6afb2026d7d9343785706bdbb0e35415998d110dd3e469e4d68be4af1")


def _back_forth_chain(st):
    """The two links of a chain over {u_0}, as descending_chain builds them
    by back-and-forth, each decided at d = 8."""
    fix = fs(st.prefix(1))
    free = [x for x in st.prefix(10) if x not in fix
            and st.type_unranked(fix, x) is True]
    parent = engine.copy_identity(st)
    links = []
    for i, batch in enumerate((free[0::2], free[1::2])):
        parent = engine.BackForthCopy(st, fix=fix, avoid=batch,
                                      parent=parent, seed=i)
        links.append(engine.decide_window(parent.advance(20), 8))
    return links


def _back_forth_handles():
    """Built directly on dlo and equiv: the through-proper and avoiding
    copies over nothing, decided at d = 8 and 12, and the two links of a
    chain over the first point."""
    for sid in ("dlo", "equiv"):
        st = get_structure(sid)
        avoid = next(x for x in st.prefix(8)
                     if st.type_unranked(fs(), x) is True)
        for d in (8, 12):
            for h in (_through_proper(st),
                      engine.BackForthCopy(st, avoid={avoid}, seed=0)):
                yield engine.decide_window(h, d)
        yield from _back_forth_chain(st)


def test_back_forth_traces_are_pinned():
    digest = hashlib.sha256()
    for h in _back_forth_handles():
        moves = [[m["source"], m["target"], m["move"], m["scanned"]]
                 for m in h.trace]
        digest.update(json.dumps(moves).encode() + b"\n")
    assert digest.hexdigest() == PINNED_BACK_FORTH_TRACES_SHA256


def test_back_forth_maps_extend():
    # the search tests no orbit, so an inexact candidate stream would show
    # here: every decided map must pass the raw oracle.  To the pinned
    # handles this adds the chain on pureset, and through-proper and
    # avoiding copies over {u_1}, as the closure sandwiches build them.
    # The handles read the base-class stream
    handles = list(_back_forth_handles())
    handles += _back_forth_chain(get_structure("pureset"))
    for sid in ("pureset", "dlo", "equiv"):
        st = get_structure(sid)
        ident = engine.copy_identity(st)
        fix = fs(st.prefix(2)[1:])
        avoid = next(x for x in st.prefix(8)
                     if x not in fix and st.type_unranked(fix, x) is True)
        for cut in (ident.unranked_member(fix), avoid):
            handles.append(engine.decide_window(
                engine.BackForthCopy(st, fix=fix, avoid={cut}, seed=0), 8))
    assert len(handles) == 20
    for h in handles:
        st = h.structure
        ground = 1 + max(st.index_of(p) for p in (*h._map, *h._range))
        assert certify.brute_extendable(st, h._map, ground), h.describe()


def test_engine_names_no_structure():
    # structure-specific copies live behind the structure hooks
    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    strings = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant)
               and isinstance(node.value, str)}
    assert not strings & set(BUILTIN_IDS)


def test_structures_write_one_candidate_generator():
    classes = [type(get_structure(sid)) for sid in BUILTIN_IDS]
    # back steps read target_candidates over the inverse map
    assert not [cls for cls in classes if "source_candidates" in vars(cls)]
    # extendability is derived from the orbit key in the base class
    assert not [cls for cls in classes if "extendable" in vars(cls)]
    # orbit equality over a sockel compares type keys in the base class
    assert not [cls for cls in classes if "same_type" in vars(cls)]
    # no built-in constructor reaches the back-and-forth search, so no
    # built-in writes a candidate stream of its own
    assert not [cls for cls in classes if "target_candidates" in vars(cls)]
    # with every stabilizer orbit infinite, the finiteness, rank and
    # algebraic-closure answers follow from the flag in the base class,
    # and the copies built from the whole structure are cofinite
    assert not [(cls, name) for cls in classes
                if cls.stabilizer_orbits_all_infinite
                for name in ("typeset_finite", "type_unranked",
                             "ac_members_exact", "cut_root", "cuts",
                             "describe_cut")
                if name in vars(cls)]


def test_algebraically_finite_structures_write_a_disjoint_pair():
    # engine.disjoint_pair has no fallback: the closed form is the pair
    classes = [type(get_structure(sid)) for sid in BUILTIN_IDS]
    assert len([cls for cls in classes if cls.algebraically_finite]) == 5
    assert not [cls for cls in classes if cls.algebraically_finite
                and "closed_form_disjoint_pair" not in vars(cls)]


class _EmptyCopy(engine.CopyHandle):
    def membership(self, x):
        return OUT


def test_properness_witness_scan_is_capped(dlo):
    with pytest.raises(SearchBudgetError) as err:
        _EmptyCopy(dlo).unranked_member(fs())
    assert err.value.scanned == 5000


def test_rado_forth_budget_error_counts_the_points_read(monkeypatch):
    # rado writes no candidate stream: the base class's keyed scan reads
    # the enumeration to its cap, yields no image for 8, and returns the
    # number of points it read
    from copyposet.structures import base

    monkeypatch.setattr(base, "_SCAN_CAP", 300)
    rado = get_structure("rado")
    c = engine.BackForthCopy(rado, fix=[2], avoid=[1])
    with pytest.raises(SearchBudgetError) as err:
        c.advance(10)
    assert str(err.value) == "no admissible image for 8 within 301 candidates"
    assert err.value.scanned == 301
    assert err.value.blocking == (c._map, 8)
    assert c._map[2] == 2 and 8 not in c._map


def test_undecided_membership_is_one_constant(dlo):
    c = engine.BackForthCopy(dlo, fix=[F(0)], avoid=[F(1)]).advance(2)
    undecided = [x for x in dlo.prefix(20) if c.membership(x).is_unknown]
    assert undecided and all(c.membership(x) is UNKNOWN for x in undecided)
    assert engine.UnionCopy(dlo, [c]).membership(undecided[0]) is UNKNOWN


def test_decide_window_decides_the_members_of_a_union(dlo):
    def member():
        return engine.BackForthCopy(dlo, avoid=[dlo.decode("1")])

    alone = engine.decide_window(member(), 8)
    want = [alone.membership(x) for x in dlo.prefix(8)]
    assert UNKNOWN not in want
    u = engine.decide_window(engine.union_chain([member()]), 8)
    assert [u.membership(x) for x in dlo.prefix(8)] == want
    # a cut copy inside the union decides it the same way
    cut = engine.decide_window(
        CutCopy(dlo, [dlo.decode("2")], engine.union_chain([member()])), 8)
    assert [cut.membership(x) for x in dlo.prefix(8)] == \
        [OUT if x == 2 else m for x, m in zip(dlo.prefix(8), want)]


def test_value_types_are_immutable_values():
    assert (repr(IN), repr(OUT), repr(UNKNOWN)) == ("In", "Out", "Unknown")
    assert Membership.__slots__ == ("kind", "is_in", "is_out", "is_unknown")
    assert FinitenessAnswer.__slots__ == ("kind", "members")
    assert Membership("in") == IN and hash(Membership("in")) == hash(IN)
    assert FinitenessAnswer("finite", (1,)) != FinitenessAnswer("finite")
    assert repr(FinitenessAnswer("infinite")) == \
        "FinitenessAnswer(kind='infinite', members=())"
    with pytest.raises(AttributeError):
        IN.kind = "out"
    with pytest.raises(AttributeError):
        del IN.kind
    # dict defaults are per instance
    a, b = certify.Certificate("k", "dlo"), certify.Certificate("k", "dlo")
    assert a == b and a.params == {} and a.params is not b.params
    r1, r2 = typesets.RankAnswer("at_most"), typesets.RankAnswer("at_most")
    assert r1.witness == {} and r1.witness is not r2.witness
    # witness and certificates stay out of equality and hashing
    assert typesets.RankAnswer("at_most", 1, witness={"x": 1}) == \
        typesets.RankAnswer("at_most", 1)
    c1 = closures.ClosureResult("dlo", "ac", (), (), True, ("cert",))
    c2 = closures.ClosureResult("dlo", "ac", (), (), True)
    assert c1 == c2 and hash(c1) == hash(c2)
    assert c1 != closures.ClosureResult("dlo", "ac", (), (), False)
