"""Types, continuations, bounded rank, orbit profiles."""

import hashlib
import json
from fractions import Fraction as F
from functools import partial
from itertools import combinations, islice, product

import pytest

from copyposet import (PreconditionError, SearchBudgetError, closures, core,
                       engine)
from copyposet.structures import BUILTIN_IDS, get_structure
from copyposet import typesets as ts

fs = frozenset


def test_make_type_rejects_rep_in_sockel(dlo):
    with pytest.raises(PreconditionError):
        ts.make_type(dlo, {F(0)}, F(0))


def test_typeset_members_examples():
    dlo = get_structure("dlo")
    t = ts.make_type(dlo, {F(0)}, F(1))
    assert ts.typeset_members(dlo, t, 3) == [F(1), F(1, 2), F(2)]
    z = get_structure("zorder")
    assert ts.typeset_members(z, ts.make_type(z, {0}, 5), 3) == [5]
    ps = get_structure("pureset")
    assert ts.typeset_members(ps, ts.make_type(ps, set(), 0), 2) == [0, 1]


def test_typeset_members_draws_exactly_n(monkeypatch):
    # a cold read draws exactly n members of the stream and keeps them on
    # the sockel's table; a warm read draws none while the kept members
    # reach n, and past them reopens the stream no further than member n
    dlo = type(get_structure("dlo"))()
    drawn = []
    stream = dlo.typeset_iter

    def counted(sockel, x):
        for y in stream(sockel, x):
            drawn.append(y)
            yield y

    monkeypatch.setattr(dlo, "typeset_iter", counted)
    want = [F(1), F(1, 2), F(2), F(3, 2), F(1, 3)]
    for n, draws in ((0, 0), (1, 1), (1, 0), (0, 0), (3, 3), (2, 0),
                     (3, 0), (5, 5), (4, 0)):
        drawn.clear()
        got = dlo.typeset_members(fs({F(0)}), F(1), n)
        assert got == want[:n]
        assert drawn == (got if draws else [])
        assert len(drawn) == draws
    # the stream is not started for n = 0, yet the rep is still checked
    drawn.clear()
    with pytest.raises(PreconditionError):
        dlo.typeset_members(fs({F(0)}), F(0), 0)
    assert drawn == []


@pytest.mark.parametrize("n", [-1, 2.5, "3", None])
def test_typeset_members_count_must_be_a_natural(dlo, n):
    t = ts.make_type(dlo, {F(0)}, F(1))
    dlo.typeset_members(fs({F(0)}), F(1), 3)  # a warm table
    with pytest.raises(PreconditionError, match="n must be an int >= 0"):
        dlo.typeset_members(fs({F(0)}), F(1), n)
    with pytest.raises(PreconditionError, match="n must be an int >= 0"):
        ts.typeset_members(dlo, t, n)
    with pytest.raises(PreconditionError, match="n must be an int >= 0"):
        get_structure("dlo").typeset_members(frozenset(), 0, -1)


_COUNTS = (0, 1, 3, 8, 12)


@pytest.mark.parametrize("sid", BUILTIN_IDS)
def test_typeset_members_equal_the_stream_cold_and_warm(sid):
    # sockels of size <= 2 from prefix(4), three reps off each from prefix(8)
    st = get_structure(sid)
    cases = [(f, rep) for size in range(3)
             for f in combinations(st.prefix(4), size)
             for rep in [p for p in st.prefix(8) if p not in f][:3]]
    # the reference streams, read before any table of the structure exists
    fresh = type(st)()
    want = {(f, rep): list(islice(fresh.typeset_iter(fs(f), rep),
                                  max(_COUNTS)))
            for f, rep in cases}

    def check(st, counts):
        for f, rep in cases:
            t = ts.make_type(st, f, rep)
            for n in counts:
                assert ts.typeset_members(st, t, n) == want[f, rep][:n]
                assert st.typeset_members(fs(f), rep, n) == \
                    want[f, rep][:n], (f, rep, n)

    # cold tables, each length read increasing then decreasing
    for counts in (_COUNTS, _COUNTS[::-1]):
        fresh = type(st)()
        check(fresh, counts)
        check(fresh, counts[::-1])
    # warm tables: after a Bernstein base, where the structure has one
    if st.stabilizer_orbits_all_infinite:
        fresh = type(st)()
        engine.bernstein_base(fresh, 10)
        check(fresh, _COUNTS)
        check(fresh, _COUNTS[::-1])
    # and after a longer read of each type
    fresh = type(st)()
    for f, rep in cases:
        ts.typeset_members(fresh, ts.make_type(fresh, f, rep), 20)
    check(fresh, _COUNTS[::-1])
    check(fresh, _COUNTS)


@pytest.mark.parametrize("sid", ["dlo", "rado"])
def test_warm_typeset_read_keys_only_its_rep(monkeypatch, sid):
    st = type(get_structure(sid))()
    sockel = st.prefix(4)[1:3]
    rep = next(p for p in st.prefix(8) if p not in sockel)
    t = ts.make_type(st, sockel, rep)
    engine.bernstein_base(st, 10)  # rado's closed form grows no table
    first = ts.typeset_members(st, t, 8)
    assert st.typeset_members(fs(sockel), rep, 8) == first
    calls = {name: _count_calls(monkeypatch, type(st), name)
             for name in ("type_key", "typeset_iter", "point_at")}
    for n in (8, 5, 0):
        for name in calls:
            calls[name].clear()
        got = ts.typeset_members(st, t, n)
        assert got == first[:n]
        assert len(calls["type_key"]) <= 1
        assert calls["typeset_iter"] == calls["point_at"] == []
        # the list handed out is the caller's own
        got.append(got[0] if got else rep)
        got.reverse()
        assert ts.typeset_members(st, t, n) == first[:n]
    assert st.typeset_members(fs(sockel), rep, 8) == first


def test_typeset_read_raises_the_stream_error_again(monkeypatch):
    from copyposet.structures import base

    monkeypatch.setattr(base, "_SCAN_CAP", 20)
    dlo = type(get_structure("dlo"))()
    t = ts.make_type(dlo, {F(0), F(1, 8)}, F(1, 16))
    for read in (lambda: ts.typeset_members(dlo, t, 8),
                 lambda: ts.typeset_members(dlo, t, 8),
                 lambda: dlo.typeset_members(fs({F(0), F(1, 8)}), F(1, 16),
                                             3)):
        with pytest.raises(SearchBudgetError) as err:
            read()
        assert str(err.value) == "typeset stream scan cap exceeded"
        assert err.value.blocking == ({F(0): F(0), F(1, 8): F(1, 8)},
                                      F(1, 16))
        assert err.value.scanned == 21
    # the table grown past the cap to the class by another caller: a read
    # reopens the stream, which yields nothing before the same error
    ftup = (F(0), F(1, 8))
    table = dlo.memo[core.TypeClasses, ftup]
    while dlo.type_key(ftup, F(1, 16)) not in table.keys:
        table.grow(dlo.point_at)
    for _ in range(2):
        with pytest.raises(SearchBudgetError) as err:
            ts.typeset_members(dlo, t, 8)
        assert err.value.blocking == ({F(0): F(0), F(1, 8): F(1, 8)},
                                      F(1, 16))
        assert err.value.scanned == 21


# -- continuation partitions ---------------------------------------------------

def test_continuation_partition_dlo_depths(dlo):
    t = ts.make_type(dlo, {F(0)}, F(1))
    reps8 = [h.rep for h in
             ts.continuation_partition(dlo, t, {F(0), F(2)}, 8)]
    assert reps8 == [F(1)]  # only the (0,2) class is visible at depth 8
    reps11 = [h.rep for h in
              ts.continuation_partition(dlo, t, {F(0), F(2)}, 11)]
    assert reps11 == [F(1), F(3)]  # the (2,inf) class appears with 3


def test_continuation_partition_examples():
    ps = get_structure("pureset")
    t = ts.make_type(ps, set(), 0)
    assert [h.rep for h in ts.continuation_partition(ps, t, {1}, 5)] == [0]
    rado = get_structure("rado")
    t = ts.make_type(rado, set(), 0)
    reps = [h.rep for h in ts.continuation_partition(rado, t, {1}, 8)]
    assert reps == [0, 4]  # adjacent to 1 / not adjacent to 1


def test_continuation_partition_requires_extension(dlo):
    t = ts.make_type(dlo, {F(0)}, F(1))
    with pytest.raises(PreconditionError):
        ts.continuation_partition(dlo, t, {F(2)}, 8)


def test_partition_law(structure):
    # continuation typesets are pairwise disjoint and, together with the
    # degenerate classes of extended-sockel points, cover the window part
    # of the typeset
    sockel = frozenset(structure.prefix(1))
    rep = next(p for p in structure.prefix(6) if p not in sockel)
    t = ts.make_type(structure, sockel, rep)
    ext = frozenset(structure.prefix(3))
    depth = 10
    handles = ts.continuation_partition(structure, t, ext, depth)
    window_members = [q for q in structure.prefix(depth)
                      if q not in sockel
                      and (q == rep or structure.same_type(sockel, rep, q))]
    covered = set()
    for h in handles:
        cls = {q for q in window_members
               if q not in ext
               and (q == h.rep or structure.same_type(ext, h.rep, q))}
        assert not (covered & cls), "continuation typesets overlap"
        covered |= cls
    leftovers = set(window_members) - covered
    assert all(q in ext for q in leftovers)


def test_rank_monotone_under_continuation():
    z2 = get_structure("zeta2")
    base = ts.rank_at_most(z2, ts.make_type(z2, set(), (0, 0)), 3, 8)
    assert base.is_at_most and base.bound == 2
    cont = ts.rank_at_most(
        z2, ts.make_type(z2, {(0, 0)}, (1, 0)), 3, 8)
    assert cont.is_at_most and cont.bound <= base.bound


def test_rank_invariant_under_group_elements():
    z2 = get_structure("zeta2")
    # translate the sockel and rep by g = (+1 outer, +2 inner everywhere)
    a = ts.rank_at_most(z2, ts.make_type(z2, {(0, 0)}, (3, 5)), 2, 8)
    b = ts.rank_at_most(z2, ts.make_type(z2, {(1, 2)}, (4, 7)), 2, 8)
    assert a.kind == b.kind and a.bound == b.bound


# -- rank values -----------------------------------------------------------------

def test_rank_values_zorder():
    z = get_structure("zorder")
    a = ts.rank_at_most(z, ts.make_type(z, set(), 0), 1, 4)
    assert a.is_at_most and a.bound == 1
    assert a.witness["extension"] == ["0"]
    a0 = ts.rank_at_most(z, ts.make_type(z, {0}, 5), 1, 4)
    assert a0.is_at_most and a0.bound == 0


def test_rank_values_zeta2():
    z2 = get_structure("zeta2")
    t = ts.make_type(z2, set(), (0, 0))
    assert ts.rank_at_most(z2, t, 1, 8).kind == ts.NOT_WITHIN
    a = ts.rank_at_most(z2, t, 2, 8)
    assert a.is_at_most and a.bound == 2


def test_rank_unranked_certified_dlo(dlo):
    for sockel in (set(), {F(0)}, {F(0), F(1)}):
        rep = F(7, 2) if F(7, 2) not in sockel else F(9, 2)
        a = ts.rank_at_most(dlo, ts.make_type(dlo, sockel, rep), 3, 10)
        assert a.kind == ts.UNRANKED and a.certified


def test_rank_preconditions(dlo):
    t = ts.make_type(dlo, set(), F(0))
    with pytest.raises(PreconditionError):
        ts.rank_at_most(dlo, t, -1, 8)


# sha256 of _rank_records(), one sorted-key JSON line each: the rank search
# may get cheaper, but its answers and witness chains must not move
PINNED_RANKS_SHA256 = (
    "abc815e5e959fdb15edeabefaa0d9548137141be6d77f417f2ab982a861ddafd")


def _rank_queries(get=get_structure):
    """rank_at_most over sockels of size <= 2 and reps in U_6, k in 0..2 and
    windows 4 and 8, then ranked_closure over U_0, U_1 and U_2, for every
    built-in structure, each given by ``get`` from its id: one thunk per
    record."""
    def rank(st, sockel, rep, k, window):
        a = ts.rank_at_most(st, ts.make_type(st, sockel, rep), k, window)
        return [st.structure_id, [st.encode(p) for p in sockel],
                st.encode(rep), k, window, a.kind, a.bound, a.certified,
                a.witness]

    def closure(st, n):
        rc = closures.ranked_closure(st, st.prefix(n),
                                     closures.DEFAULT_MAXRANK, 8)
        return [st.structure_id, n, [st.encode(p) for p in rc.members],
                rc.exact, list(rc.certificates)]

    for sid in BUILTIN_IDS:
        st = get(sid)
        pts = st.prefix(6)
        for size in range(3):
            for sockel in combinations(pts, size):
                for rep in pts:
                    if rep in sockel:
                        continue
                    for k in (0, 1, 2):
                        for window in (4, 8):
                            yield partial(rank, st, sockel, rep, k, window)
        for n in (0, 1, 2):
            yield partial(closure, st, n)


def _rank_records():
    return (query() for query in _rank_queries())


def test_rank_answers_are_pinned():
    digest = hashlib.sha256()
    for rec in _rank_records():
        digest.update(json.dumps(rec, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == PINNED_RANKS_SHA256


def test_shared_rank_memo_does_not_depend_on_call_history():
    # the shared search keys each answer by (sockel listing, rep, k), so
    # the sweep asked backwards gives every record it gives forwards
    # each sweep on fresh instances, so both start cold
    def fresh(sid):
        return type(get_structure(sid))()

    forward = [query() for query in _rank_queries(fresh)]
    backward = [query() for query in reversed(list(_rank_queries(fresh)))]
    backward.reverse()
    assert len(forward) == 5_184 + 27
    for a, b in zip(forward, backward):
        assert a == b


def test_rank_of_a_second_rep_keeps_its_own_witness():
    # (0,1) shares the class of (0,0) over nothing but is not its
    # canonical rep: its answer pins (0,1) itself, whatever came before
    z2 = type(get_structure("zeta2"))()
    first = ts.rank_at_most(z2, ts.make_type(z2, set(), (0, 0)), 2, 8)
    second = ts.rank_at_most(z2, ts.make_type(z2, set(), (0, 1)), 2, 8)
    assert first.witness["extension"] == ["(0,0)"]
    assert second.is_at_most and second.bound == 2
    assert second.witness["extension"] == ["(0,1)"]


@pytest.mark.parametrize("rep, k", [((0, 1), 2), ((0, 0), 2), ((0, 0), 0)])
def test_repeated_rank_query_reads_the_memo(monkeypatch, rep, k):
    # a second rep of a class, its enum-least rep and a leaf alike are
    # answered from the memo when asked again (each repeat made two
    # oracle calls when only enum-least reps were kept)
    z2 = type(get_structure("zeta2"))()
    t = ts.make_type(z2, set(), rep)
    first = ts.rank_at_most(z2, t, k, 8)
    counts = {name: _count_calls(monkeypatch, type(z2), name)
              for name in ("typeset_finite", "type_unranked")}
    again = ts.rank_at_most(z2, t, k, 8)
    assert again == first and again.witness == first.witness
    assert counts == {"typeset_finite": [], "type_unranked": []}


@pytest.mark.parametrize("made_on, asked_of, rep", [
    ("dlo", "zeta2", F(1, 2)), ("dlo", "pairs", F(1, 2)),
    ("pureset", "rado", 3)])
def test_type_of_another_structure_is_a_precondition_error(
        made_on, asked_of, rep):
    t = ts.make_type(get_structure(made_on), {rep - 1}, rep)
    st = get_structure(asked_of)
    with pytest.raises(PreconditionError, match="type asked of"):
        ts.rank_at_most(st, t, 1, 4)
    with pytest.raises(PreconditionError, match="type asked of"):
        ts.typeset_members(st, t, 3)
    with pytest.raises(PreconditionError, match="type asked of"):
        ts.continuation_partition(st, t, set(t.sockel) | {rep + 1}, 6)


# -- oligomorphic profiles ---------------------------------------------------------

def test_profile_examples():
    assert ts.oligomorphic_profile(get_structure("dlo"), 2, 6) == 3
    assert ts.oligomorphic_profile(get_structure("pureset"), 2, 6) == 2
    assert ts.oligomorphic_profile(get_structure("rado"), 2, 8) == 3


@pytest.mark.parametrize("sid, n, window, count", [
    ("pureset", 4, 6, 15), ("dlo", 3, 8, 13), ("dlo", 4, 5, 75),
    ("rado", 3, 8, 15), ("equiv", 3, 8, 12), ("pairs", 3, 8, 15),
    ("zorder", 3, 8, 169),
])
def test_profile_values(sid, n, window, count):
    assert ts.oligomorphic_profile(get_structure(sid), n, window) == count


def _count_calls(monkeypatch, cls, name):
    calls = []
    fn = getattr(cls, name)

    def counted(self, *args):
        calls.append(args)
        return fn(self, *args)
    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("sid", BUILTIN_IDS)
def test_profile_counts_every_tuple(sid):
    # the profile keys injective tuples only; it must count all of them
    st = get_structure(sid)
    for n in range(1, 5):
        for window in sorted({n, 5, 6, 8}):
            pts = st.prefix(window)
            brute = len({st.orbit_key(t) for t in product(pts, repeat=n)})
            assert ts.oligomorphic_profile(st, n, window) == brute


def test_profile_work_bound(monkeypatch):
    # each orbit on m-sets has its m! orderings keyed once, when a subset
    # of the window first meets it (2,721 orbit_key calls over these seven
    # profiles when every injective tuple was keyed); each profile is
    # counted cold
    calls = 0
    for sid, n, window in (("pureset", 4, 6), ("dlo", 3, 8), ("dlo", 4, 5),
                           ("rado", 3, 8), ("equiv", 3, 8), ("pairs", 3, 8),
                           ("zorder", 3, 8)):
        st = type(get_structure(sid))()
        orbit_key = _count_calls(monkeypatch, type(st), "orbit_key")
        ts.oligomorphic_profile(st, n, window)
        calls += len(orbit_key)
        monkeypatch.undo()
    assert calls <= 1_000


def test_orbit_work_bounds(monkeypatch):
    # class reps come from one keyed pass over the enumeration-ordered
    # window, with no sort (1,928 index_of calls when every sockel and
    # pool was sorted); a second base reads its classes and typeset
    # members from the shared tables and keys no point
    rado = type(get_structure("rado"))()
    index_of = _count_calls(monkeypatch, type(rado), "index_of")
    type_key = _count_calls(monkeypatch, type(rado), "type_key")
    engine.bernstein_base(rado, 14)
    assert index_of == []
    assert len(type_key) <= 3_000
    type_key.clear()
    engine.bernstein_base(rado, 14)
    assert type_key == []
    for sid, n, window in (("dlo", 3, 8), ("rado", 3, 8), ("pairs", 2, 6)):
        st = type(get_structure(sid))()
        extendable = _count_calls(monkeypatch, type(st), "extendable")
        ts.oligomorphic_profile(st, n, window)
        assert extendable == []


def test_rank_search_work_bound(monkeypatch):
    # the search sorts each point once, keys each continuation class once,
    # and at k = 1 retries the last refuting point before any class scan
    # (933 typeset_finite, 3,720 index_of and 1,882 type_key calls when
    # every candidate scanned its classes and every continuation re-sorted
    # its sockel)
    z2 = type(get_structure("zeta2"))()
    counts = {name: _count_calls(monkeypatch, type(z2), name)
              for name in ("typeset_finite", "index_of", "type_key")}
    a = ts.rank_at_most(z2, ts.make_type(z2, set(), (0, 0)), 1, 8)
    assert a.kind == ts.NOT_WITHIN
    assert len(counts["typeset_finite"]) <= 400
    assert len(counts["index_of"]) <= 20
    assert len(counts["type_key"]) <= 200


@pytest.mark.parametrize("sid", BUILTIN_IDS)
def test_profile_reads_the_census(monkeypatch, sid):
    # a repeated profile keys nothing, and a wider window keys only the
    # subsets that meet its new points
    st = type(get_structure(sid))()
    first = ts.oligomorphic_profile(st, 4, 8)
    orbit_key = _count_calls(monkeypatch, type(st), "orbit_key")
    assert ts.oligomorphic_profile(st, 4, 8) == first
    assert orbit_key == []
    ts.oligomorphic_profile(st, 4, 10)
    new = set(st.prefix(10)[8:])
    assert orbit_key and all(new & set(tup) for (tup,) in orbit_key)
    # a narrower window reads its own count from the grown census
    for n, w in ((1, 3), (2, 3), (3, 9)):
        pts = st.prefix(w)
        assert ts.oligomorphic_profile(st, n, w) == \
            len({st.orbit_key(t) for t in product(pts, repeat=n)})


def test_second_typeset_read_keys_only_the_rep(monkeypatch):
    # a first read keeps the members its stream read on the sockel's
    # shared type-class table: a second read of the same type keys the rep
    # and no enumeration point, and opens no stream
    dlo = type(get_structure("dlo"))()
    t = ts.make_type(dlo, {F(0), F(1, 2)}, F(1, 4))
    first = ts.typeset_members(dlo, t, 8)
    type_key = _count_calls(monkeypatch, type(dlo), "type_key")
    stream = _count_calls(monkeypatch, type(dlo), "typeset_iter")
    assert ts.typeset_members(dlo, t, 8) == first
    assert len(type_key) <= 1
    assert stream == []


def test_profile_stabilizes_for_oligomorphic():
    dlo = get_structure("dlo")
    assert ts.oligomorphic_profile(dlo, 2, 8) == \
        ts.oligomorphic_profile(dlo, 2, 10) == 3
    eq = get_structure("equiv")
    assert ts.oligomorphic_profile(eq, 2, 8) == \
        ts.oligomorphic_profile(eq, 2, 10)


def test_profile_grows_for_zorder():
    z = get_structure("zorder")
    assert ts.oligomorphic_profile(z, 2, 4) < \
        ts.oligomorphic_profile(z, 2, 8)


def test_profile_arity_bounds(dlo):
    with pytest.raises(PreconditionError):
        ts.oligomorphic_profile(dlo, 5, 8)
    with pytest.raises(PreconditionError):
        ts.oligomorphic_profile(dlo, 2, 1)
