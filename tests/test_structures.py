"""Action-oracle behaviour: enumerations, orbit calculus, finiteness."""

import ast
import operator
import pickle
import random
from decimal import Context
from fractions import Fraction as F
from itertools import combinations, count, islice, product, takewhile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from copyposet import IN, UNKNOWN, PreconditionError, certify, core, engine
from copyposet.core import CopyHandle, CutCopy
from copyposet.errors import SearchBudgetError, UnknownStructureError
from copyposet.structures import BUILTIN_IDS, Structure, get_structure
from copyposet.structures.dlo import Rational
from copyposet.structures.pairs import support
from copyposet.structures.rado import adjacent
from copyposet.structures.treetz import meet_level

fs = frozenset


def test_registry_rejects_unknown_id():
    with pytest.raises(UnknownStructureError):
        get_structure("nope")


def test_builtin_count():
    assert len(BUILTIN_IDS) == 9


def test_no_module_keeps_a_table_in_a_functools_cache():
    # each structure instance keeps its tables in its own memo, so a fresh
    # instance is cold; a module-level cache would outlive that
    cached = []
    for path in sorted(Path(core.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "functools":
                names = [node.attr]
            else:
                continue
            cached += [(path.name, node.lineno, name) for name in names
                       if name in ("lru_cache", "cache")]
    assert cached == []


@pytest.mark.parametrize("sid", ["pureset", "dlo", "rado", "equiv"])
def test_fresh_instance_is_cold_and_answers_as_the_shared_one(sid):
    # the shared instance warm from a check and a base, then a fresh one
    shared = get_structure(sid)

    def answers(st):
        copy = CutCopy(st, st.prefix(8)[1::2])
        return certify.check_copy(copy, 8, 2, 500), engine.bernstein_base(
            st, 10)

    warm = answers(shared)
    fresh = type(shared)()
    assert fresh.memo == {} and fresh.memo.structure is fresh
    cold = answers(fresh)
    assert cold == warm and cold[0].verdict == "pass"
    common = fresh.memo.keys() & shared.memo.keys()
    assert any(key[0] is core.TypeClasses for key in common)
    assert all(fresh.memo[key] is not shared.memo[key] for key in common)
    assert answers(fresh) == warm


# -- enumerations -------------------------------------------------------------

def test_enumeration_prefixes():
    assert get_structure("zorder").prefix(3) == [0, 1, -1]
    assert get_structure("pureset").prefix(2) == [0, 1]
    dlo = get_structure("dlo")
    assert [dlo.encode(p) for p in dlo.prefix(4)] == ["0", "1", "-1", "1/2"]
    pa = get_structure("pairs")
    assert [pa.encode(p) for p in pa.prefix(6)] == [
        "{0,1}", "{0,2}", "{1,2}", "{0,3}", "{1,3}", "{2,3}"]


def test_enumeration_is_bijective_prefix(structure):
    pts = structure.prefix(80)
    assert len(set(pts)) == 80
    for i, p in enumerate(pts):
        assert structure.index_of(p) == i


@pytest.mark.parametrize("sid, n", [("dlo", 150_000), ("zetaeta", 20_000),
                                    ("zeta2", 20_000), ("treetz", 20_000)])
def test_closed_form_index_matches_enumeration(sid, n):
    # 150,000 dlo points cover the Stern-Brocot rows up to 12 and most of 13
    structure = get_structure(sid)
    for i, p in enumerate(islice(structure._generate(), n)):
        assert structure.index_of(p) == i, (i, p)


@given(st.integers(min_value=-11, max_value=11),
       st.integers(min_value=1, max_value=11))
@settings(max_examples=60, deadline=None)
def test_dlo_index_round_trips_small_rationals(a, b):
    # every index here lies below 150,000
    dlo = get_structure("dlo")
    q = F(a, b)
    assert dlo.point_at(dlo.index_of(q)) == q


def test_closed_form_index_past_the_scan_cap():
    dlo = get_structure("dlo")
    assert dlo.index_of(F(1, 8)) == 1149
    assert dlo.index_of(F(1, 16)) == 327389
    assert get_structure("zetaeta").index_of((F(1, 8), 0)) == 661824
    # Stern-Brocot row 10**12 - 1: the index would have 10**12 bits
    with pytest.raises(SearchBudgetError):
        dlo.index_of(F(1, 10**12))
    tree = get_structure("treetz")
    for s, i in [("L24:[]", 494170), ("L-25:[]", 494171), ("L25:[]", 708257),
                 ("L3:[-5:2,3:1]", 8699)]:
        assert tree.index_of(tree.decode(s)) == i, s
    assert tree.index_of(tree.decode("L-256:[]")).bit_length() == 87
    # cost 257: the count table would pass 33,000 integers
    with pytest.raises(SearchBudgetError):
        tree.index_of(tree.decode("L200:[144:1]"))


@st.composite
def _cheap_treetz_nodes(draw):
    """A treetz node of cost at most 8, drawn through its encoding."""
    lvl = draw(st.integers(min_value=-8, max_value=8))
    budget, choices, depth = 8 - abs(lvl), [], 0
    while budget > depth and draw(st.booleans()):
        depth = draw(st.integers(min_value=depth, max_value=budget - 1))
        e = draw(st.integers(min_value=1, max_value=budget - depth))
        choices.append("%d:%d" % (lvl - depth, e))
        budget -= depth + e
        depth += 1
    return "L%d:[%s]" % (lvl, ",".join(reversed(choices)))


@given(_cheap_treetz_nodes())
@settings(max_examples=80, deadline=None)
def test_treetz_index_round_trips_cheap_nodes(s):
    # the nodes of cost at most 8 take the indices below 501
    tree = get_structure("treetz")
    p = tree.decode(s)
    i = tree.index_of(p)
    assert i < 501
    assert tree.point_at(i) == p


def test_index_of_is_closed_form_on_every_structure(structure):
    # every built-in, treetz included, inverts its enumeration in closed
    # form: the base class has no scan to fall back on
    assert type(structure).index_of is not Structure.index_of
    with pytest.raises(NotImplementedError):
        Structure.index_of(structure, structure.point_at(40))
    assert structure.index_of(structure.point_at(40)) == 40


def test_encoding_round_trip(structure):
    for p in structure.prefix(60):
        assert structure.decode(structure.encode(p)) == p


def test_dlo_enumeration_covers_unit_intervals():
    # interval copies need early witnesses for (s, s+1), s <= 9, and (-1, 0)
    dlo = get_structure("dlo")
    window = dlo.prefix(60)
    for s in range(10):
        assert any(s < q < s + 1 for q in window), s
    assert any(-1 < q < 0 for q in window)


def test_enumerate_rejects_negative(structure):
    with pytest.raises(PreconditionError):
        structure.prefix(-1)


# -- dlo points ----------------------------------------------------------------

def _dlo_points():
    """Rational points from every source that makes them: the dlo and
    zetaeta enumerations and decode."""
    dlo, ze = get_structure("dlo"), get_structure("zetaeta")
    pts = dlo.prefix(3000)
    pts += [q for q, _ in ze.prefix(300)]
    pts += [dlo.decode(s) for s in ("0", "-3", "1/2", "-7/3", " 4/6 ", "0.5",
                                    "-1.25", "1e3", "2E-2")]
    pts += [ze.decode(s)[0] for s in ("(-5/2|3)", "(0.75|0)")]
    return pts


def test_every_dlo_point_is_the_point_type():
    assert all(type(p) is Rational for p in _dlo_points())


def test_dlo_points_hash_and_equal_like_fraction_and_int():
    for p in _dlo_points():
        f = F(p.numerator, p.denominator)
        assert type(f) is F
        assert p == f and f == p and not p != f and not f != p
        assert hash(p) == hash(f) == hash(p)
        if p.denominator == 1:
            assert p == p.numerator and p.numerator == p
            assert hash(p) == hash(p.numerator)
        assert p != p + F(1, 7) and p + 1 != p


def test_dlo_point_order_matches_fraction():
    pts = _dlo_points()
    rng = random.Random(7)
    for _ in range(5000):
        p, q = rng.choice(pts), rng.choice(pts)
        fp, fq = F(p), F(q)
        assert (p < q) == (p < fq) == (fp < q) == (fp < fq)
        assert (p == q) == (fp == fq)
        assert (p > q) == (fp > fq) and (p <= q) == (fp <= fq)
        k = rng.randint(-4, 4)
        assert (p < k) == (fp < k) and (k < p) == (k < fp)
        assert (p >= k) == (fp >= k) and (k >= p) == (k >= fp)


def test_dlo_point_comparisons_agree_with_fraction():
    ops = (operator.lt, operator.le, operator.eq, operator.ne, operator.gt,
           operator.ge)
    values = [F(n, d) for n in range(-7, 8) for d in (1, 2, 3, 5)]
    points = [Rational(v) for v in values]
    others = points + values + list(range(-4, 5))
    for p in points:
        fp = F(p)
        for q in others:
            fq = F(q)
            for op in ops:
                want = op(fp, fq)
                assert op(p, q) is want, (op, p, q)
                assert op(q, p) is op(fq, fp), (op, q, p)


def test_dlo_point_repr_and_pickle():
    for p in _dlo_points():
        assert repr(p) == repr(F(p)) and str(p) == str(F(p))
        back = pickle.loads(pickle.dumps(p))
        assert type(back) is Rational
        assert back == p and hash(back) == hash(p)


def test_fraction_slot_layout():
    # Rational's comparisons read these two private slots directly
    assert F.__slots__ == ("_numerator", "_denominator")


# -- same_type ---------------------------------------------------------------

def test_same_type_examples_dlo(dlo):
    assert dlo.same_type(fs({F(0)}), F(1), F(2)) is True
    assert dlo.same_type(fs({F(0)}), F(1), F(-1)) is False


def test_same_type_reflexive_on_self(structure):
    x = structure.point_at(5)
    assert structure.same_type(frozenset(), x, x)


def test_same_type_rejects_sockel_member(dlo):
    with pytest.raises(PreconditionError):
        dlo.same_type(fs({F(0)}), F(0), F(1))


def test_same_type_is_equivalence_relation(structure):
    window = structure.prefix(8)
    sockel = frozenset(structure.prefix(2))
    pool = [p for p in window if p not in sockel]
    for x in pool:
        assert structure.same_type(sockel, x, x)
        for y in pool:
            assert structure.same_type(sockel, x, y) == \
                structure.same_type(sockel, y, x)
    for x in pool[:4]:
        for y in pool[:4]:
            for z in pool[:4]:
                if structure.same_type(sockel, x, y) and \
                        structure.same_type(sockel, y, z):
                    assert structure.same_type(sockel, x, z)


def test_same_type_matches_extendable_reduction(structure):
    # some g in G<F> maps x to y iff id_F plus x->y extends; extendable is
    # the orbit key, so this ties every hand-written type_key to the key
    window = structure.prefix(7)
    for size in (0, 1, 2):
        for ftup in combinations(structure.prefix(6), size):
            sockel = frozenset(ftup)
            pool = [p for p in window if p not in sockel]
            for x in pool:
                for y in pool:
                    pm = {a: a for a in sockel}
                    pm[x] = y
                    want = structure.extendable(pm)
                    assert structure.same_type(sockel, x, y) == want, \
                        (ftup, x, y)
                    assert (structure.type_key(ftup, x) ==
                            structure.type_key(ftup, y)) == want, (ftup, x, y)


def test_pairs_type_key_matches_the_orbit_key_on_a_wider_window():
    # sockels of two or three pairs of {0..6} sharing elements, with points
    # meeting none, one or both of a shared element's pairs
    pa = get_structure("pairs")
    window = pa.prefix(21)
    sockels = [ftup for size in (2, 3) for ftup in combinations(window, size)
               if len(support(ftup)) < 2 * size]
    assert len(sockels) > 1000
    for ftup in sockels:
        pool = [p for p in window if p not in ftup]
        orbit = [pa.orbit_key(ftup + (x,)) for x in pool]
        typed = [pa.type_key(ftup, x) for x in pool]
        for i in range(len(pool)):
            for j in range(i):
                assert (typed[i] == typed[j]) == (orbit[i] == orbit[j]), \
                    (ftup, pool[i], pool[j])


def test_pinned_and_free_zetaeta_points_do_not_share_a_key():
    # (1|1) sits in a pinned block; (0|0) is free, below both pinned
    # blocks.  Without the pinned/free tags, the key (1|1) of the pinned
    # point would equal the cut (True, True) of the free one, as
    # Rational(1) == True.
    ze = get_structure("zetaeta")
    sockel = fs({ze.decode("(1|0)"), ze.decode("(2|0)")})
    x, y = ze.decode("(1|1)"), ze.decode("(0|0)")
    assert ze.same_type(sockel, x, y) is False
    assert certify.brute_same_type(ze, sockel, x, y, 24) is False


def test_treetz_meet_level_matches_the_reference():
    pts = get_structure("treetz").prefix(300)
    assert [meet_level(x, y) for x in pts for y in pts] == \
        [certify._meet_level(x, y) for x in pts for y in pts]


# -- extendable ----------------------------------------------------------------

def test_extendable_examples():
    dlo = get_structure("dlo")
    z = get_structure("zorder")
    assert dlo.extendable({F(0): F(0), F(1): F(2)})
    assert not dlo.extendable({F(0): F(1), F(1): F(0)})
    assert not z.extendable({0: 3, 1: 5})
    assert z.extendable({0: 3, 1: 4})


def test_extendable_closed_under_restriction(structure):
    pts = structure.prefix(6)
    pm = None
    # build some extendable 3-point map by search
    for y0 in pts:
        for y1 in pts:
            for y2 in pts:
                cand = {pts[0]: y0, pts[1]: y1, pts[2]: y2}
                if structure.extendable(cand):
                    pm = cand
                    break
            if pm:
                break
        if pm:
            break
    assert pm is not None
    for drop in pm:
        rest = {k: v for k, v in pm.items() if k != drop}
        assert structure.extendable(rest)


def test_non_injective_maps_are_refused(structure):
    # a partial map that sends two points onto one extends to no
    # permutation: the orbit key and the raw oracle must both refuse it
    p0, p1, p2 = structure.prefix(3)
    for pm in ({p0: p1, p2: p1}, {p0: p0, p1: p0}, {p0: p2, p1: p1, p2: p2}):
        assert not structure.extendable(pm), pm
        assert not certify.brute_extendable(structure, pm, 7), pm


@given(st.integers(min_value=-30, max_value=30),
       st.integers(min_value=-30, max_value=30),
       st.integers(min_value=-30, max_value=30))
@settings(max_examples=60, deadline=None)
def test_zorder_extendable_iff_single_translation(a, b, d):
    z = get_structure("zorder")
    if a == b:
        return
    pm = {a: a + d, b: b + d}
    assert z.extendable(pm)
    if a + d != b + d + 1:
        pm2 = {a: a + d, b: b + d + 1}
        assert not z.extendable(pm2)


# -- extensions ----------------------------------------------------------------

def test_extensions_examples():
    dlo = get_structure("dlo")
    z = get_structure("zorder")
    ps = get_structure("pureset")
    got = list(dlo.extensions({F(0): F(0)}, F(1), 10))
    assert got[0] == F(1)
    assert got == [F(1), F(1, 2), F(2), F(3, 2), F(1, 3)]
    assert list(z.extensions({0: 4}, 1, 10)) == [5]
    assert list(ps.extensions({}, 0, 3)) == [0, 1, 2]


def test_extensions_precondition():
    dlo = get_structure("dlo")
    with pytest.raises(PreconditionError):
        list(dlo.extensions({F(0): F(1), F(1): F(0)}, F(2), 5))


# -- candidate streams ----------------------------------------------------------

def _seeded_maps(structure, seed, n=12):
    """n extendable maps of up to 5 pairs with sources in U_10, each with
    a fresh source in U_12; a target is the first point of a shuffled U_30
    that the raw oracle accepts (a source with none there is left out)."""
    rng = random.Random(seed)
    pts = structure.prefix(30)
    for _ in range(n):
        pm = {}
        for a in rng.sample(pts[:10], rng.randint(0, 5)):
            y = next((y for y in rng.sample(pts, len(pts))
                      if certify.brute_extendable(structure, {**pm, a: y},
                                                  30)), None)
            if y is not None:
                pm[a] = y
        source = rng.choice([x for x in pts[:12] if x not in pm])
        yield list(pm.items()), source


@pytest.mark.parametrize("sid", ["dlo", "equiv", "pureset", "zorder"])
def test_candidate_streams_are_exact(sid, monkeypatch):
    # every candidate is a target already (the search skips it) or extends
    # the map; every structure reads the keyed enumeration scan of the base
    # class, capped here because a pinned zorder translation leaves one
    # image
    from copyposet.structures import base

    monkeypatch.setattr(base, "_SCAN_CAP", 2000)
    structure = get_structure(sid)
    drawn = 0
    for items, source in _seeded_maps(structure, 5):
        targets = {t for _, t in items}
        pm = dict(items)
        for c in islice(structure.target_candidates(items, source), 50):
            assert c in targets or structure.extendable({**pm, source: c}), \
                (items, source, c)
            drawn += 1
    assert drawn


# -- typeset finiteness ---------------------------------------------------------

def test_typeset_finite_examples(pairs):
    z = get_structure("zorder")
    ans = z.typeset_finite(fs({0}), 5)
    assert ans.is_finite and ans.members == (5,)
    u, up = fs((0, 1)), fs((2, 3))
    ans = pairs.typeset_finite(fs({u, up}), fs((0, 2)))
    assert ans.is_finite
    assert set(ans.members) == {fs((0, 2)), fs((0, 3)), fs((1, 2)),
                                fs((1, 3))}
    dlo = get_structure("dlo")
    assert dlo.typeset_finite(frozenset(), F(0)).kind == "infinite"


def test_finite_typesets_are_closed_orbits(structure):
    # every member of a finite typeset is same_type with the rep, and no
    # other window point is
    window = structure.prefix(10)
    sockel = frozenset(structure.prefix(2))
    for x in window:
        if x in sockel:
            continue
        ans = structure.typeset_finite(sockel, x)
        if not ans.is_finite:
            continue
        members = set(ans.members)
        assert x in members
        for m in members:
            assert m == x or structure.same_type(sockel, x, m)
        for other in window:
            if other in sockel or other in members:
                continue
            assert not structure.same_type(sockel, x, other)


def test_infinite_typeset_stream_yields_distinct(structure):
    x = next(p for p in structure.prefix(10)
             if structure.typeset_finite(frozenset(), p).kind == "infinite")
    stream = structure.typeset_iter(frozenset(), x)
    got = [next(stream) for _ in range(8)]
    assert len(set(got)) == 8


def test_orbit_flag_matches_the_typesets(structure):
    # the flag claims every typeset infinite: check it against the streams
    # over small sockels, and that an unflagged structure has a finite one
    types = [(fs(f), x) for k in range(3)
             for f in combinations(structure.prefix(5), k)
             for x in structure.prefix(8) if x not in f]
    if structure.stabilizer_orbits_all_infinite:
        for f, x in types:
            got = set(islice(structure.typeset_iter(f, x), 8))
            assert len(got) == 8, (f, x)
    else:
        assert any(len(list(islice(structure.typeset_iter(f, x), 8))) < 8
                   for f, x in types)


def test_typeset_scan_caps_name_their_obligation(monkeypatch):
    from copyposet.structures import base, rado

    monkeypatch.setattr(base, "_SCAN_CAP", 20)
    dlo = get_structure("dlo")
    with pytest.raises(SearchBudgetError) as err:
        list(dlo.typeset_iter(fs({F(0), F(1, 8)}), F(1, 16)))
    assert err.value.blocking == ({F(0): F(0), F(1, 8): F(1, 8)}, F(1, 16))
    assert err.value.scanned == 21
    # the sockel's shared table grown by another caller past the cap, to
    # the first member of the class: the stream still reads no further
    # than the cap, so it yields nothing before the same error
    ftup = (F(0), F(1, 8))
    table = dlo.memo[core.TypeClasses, ftup]
    while dlo.type_key(ftup, F(1, 16)) not in table.keys:
        table.grow(dlo.point_at)
    assert len(table.ids) > 21
    got = []
    with pytest.raises(SearchBudgetError) as err:
        got.extend(dlo.typeset_iter(fs({F(0), F(1, 8)}), F(1, 16)))
    assert got == []
    assert err.value.blocking == ({F(0): F(0), F(1, 8): F(1, 8)}, F(1, 16))
    assert err.value.scanned == 21
    monkeypatch.setattr(rado, "_SCAN_CAP", 2)
    with pytest.raises(SearchBudgetError) as err:
        list(islice(get_structure("rado").typeset_iter(fs({1000}), 1), 8))
    assert err.value.blocking == ({1000: 1000}, 1)
    assert err.value.scanned == 3


class _UndecidedPast(CopyHandle):
    """Every point of ``inside`` in, every other undecided: a check of it
    settles no obligation, so it grows the table of each window sockel to
    its budget for every class it meets."""

    def __init__(self, structure, inside):
        super().__init__(structure)
        self.inside = frozenset(inside)

    def membership(self, x):
        return IN if x in self.inside else UNKNOWN


def _listed_two_ways(sockel):
    """The sockel as two sets, its points added in opposite orders."""
    ways = []
    for pts in (sockel, sockel[::-1]):
        s = set()
        for p in pts:
            s.add(p)
        ways.append(s)
    return ways


def test_typeset_stream_matches_the_enumeration_scan(structure):
    # the first 8 members of the stream, read from the type-class tables
    # in the memo, against typeset_in over the enumeration: on a fresh
    # instance with no table kept, on one whose tables check_copy and
    # bernstein_base grew first, and with the sockel given as sets built
    # in either order
    st = structure
    cases = [(f, x) for k in range(3) for f in combinations(st.prefix(6), k)
             for x in st.prefix(8) if x not in f]
    want = {}
    for f, x in cases:
        got = list(islice(st.typeset_iter(fs(f), x), 8))
        if len(got) < 8:
            assert st.typeset_finite(fs(f), x).members == tuple(got), (f, x)
        want[f, x] = list(islice(st.typeset_in(
            fs(f), x, map(st.point_at, count())), len(got)))

    def streams(st):
        return {(f, x): list(islice(st.typeset_iter(s, x), 8))
                for f, x in cases for s in _listed_two_ways(f)}

    assert streams(type(st)()) == want
    st = type(st)()
    certify.check_copy(_UndecidedPast(st, st.prefix(6)), 8, 2, 200)
    if st.stabilizer_orbits_all_infinite:
        engine.bernstein_base(st, 8)
    assert sum(k[0] is core.TypeClasses for k in st.memo) >= 22
    assert streams(st) == want


def test_type_class_firsts_are_each_class_first_index(structure):
    # firsts[c] is the first index of class c, kept as the table grows
    # through each of grow, find, indices and among
    st = structure

    def check(table):
        ids, firsts = table.ids, table.firsts
        assert len(firsts) == len(table.keys)
        assert all(firsts[c] == ids.index(c) for c in range(len(firsts)))

    for k in range(3):
        for ftup in combinations(st.prefix(5), k):
            table = core.TypeClasses(st, ftup)
            check(table)
            x = st.point_at(12)
            assert table.find(st.type_key(ftup, x), 16, st.point_at) \
                is not None
            assert len(table.ids) > 0
            check(table)
            for _ in range(6):
                table.grow(st.point_at)
                check(table)
            assert list(table.indices(table.ids[-1], 24, st.point_at))
            assert len(table.ids) == 24
            check(table)
            assert table.among(st.type_key(ftup, x), st.prefix(32))
            assert len(table.ids) == 32
            check(table)


def test_typeset_stream_over_a_sockel_point_past_the_scan_cap():
    # L25:[] lies past the enumeration scan cap, at index 708,257: its
    # closed-form index lists the sockel in enumeration order all the same
    st = get_structure("treetz")
    far, root = st.decode("L25:[]"), st.decode("L0:[]")
    x = st.decode("L1:[1:1]")
    want = list(st.typeset_in(fs({far, root}), x, st.prefix(51)))
    assert len(want) >= 3
    for sockel in _listed_two_ways([far, root]):
        assert list(islice(st.typeset_iter(sockel, x), len(want))) == want


# -- unranked witnesses ----------------------------------------------------------

def test_unranked_witness_examples():
    dlo = get_structure("dlo")
    q = dlo.unranked_witness(fs({F(0)}), F(1), fs({F(0), F(1), F(2)}))
    assert q == F(1, 2)  # first enumerated positive rational off the sockel
    z = get_structure("zorder")
    assert z.unranked_witness(frozenset(), 0, fs({0})) is None
    ps = get_structure("pureset")
    assert ps.unranked_witness(frozenset(), 0, fs({0, 1})) == 2


def test_unranked_witness_contract(structure):
    sockel = frozenset(structure.prefix(1))
    ext = frozenset(structure.prefix(3))
    x = structure.point_at(4)
    if x in sockel:
        return
    q = structure.unranked_witness(sockel, x, ext)
    if q is None:
        assert structure.type_unranked(sockel, x) is False
    else:
        assert q not in ext
        assert q == x or structure.same_type(sockel, x, q)
        assert structure.type_unranked(ext, q) is True


def test_rado_bit_adjacency():
    assert adjacent(0, 1)      # bit 0 of 1
    assert adjacent(1, 2)      # bit 1 of 2
    assert not adjacent(0, 2)  # bit 0 of 2
    assert not adjacent(3, 3)


def test_rado_vertices_past_the_digit_limit_round_trip():
    # 2**20000 has 6021 digits, past the interpreter's int/str limit of 4300
    rado = get_structure("rado")
    context = Context(prec=10_000)
    for p, exact in [
            (2 ** 20000, context.power(2, 20000)),
            (2 ** 20000 + 12345, context.add(context.power(2, 20000), 12345)),
            (10 ** 6020 - 1, context.subtract(context.power(10, 6020), 1)),
            (10 ** 4300, context.power(10, 4300))]:
        text = rado.encode(p)
        assert text == format(exact, "f")
        assert rado.decode(text) == p


@pytest.mark.parametrize("sid", ["zorder", "pureset"])
def test_integer_points_past_the_digit_limit_round_trip(sid):
    # 10**6020 has 6021 digits, past the interpreter's int/str limit of 4300
    st = get_structure(sid)
    context = Context(prec=10_000)
    ten = context.power(10, 6020)
    cases = [(10 ** 6020, ten), (10 ** 6020 - 1, context.subtract(ten, 1)),
             (10 ** 6020 + 12345, context.add(ten, 12345)),
             (10 ** 4300, context.power(10, 4300))]
    if sid == "zorder":
        cases += [(-p, context.minus(exact)) for p, exact in cases]
    for p, exact in cases:
        text = st.encode(p)
        assert text == format(exact, "f")
        assert st.decode(text) == p
        if p > 0:
            assert st.decode(" +%s " % text) == p  # as int() reads it
    for bad in ("--" + "1" * 5000, "+-" + "1" * 5000):
        with pytest.raises(ValueError):
            st.decode(bad)


def test_rado_typeset_stream_matches_scan():
    # the base-class enumeration scan is the reference for the closed form
    rado = get_structure("rado")
    rng = random.Random(6)
    cases = [(fs(), 0), (fs(), 9)]
    for _ in range(40):
        sockel = fs(rng.sample(range(16), rng.randint(1, 3)))
        x = rng.choice([p for p in range(40) if p not in sockel])
        cases.append((sockel, x))
    for sockel, x in cases:
        want = list(islice(Structure.typeset_iter(rado, sockel, x), 60))
        assert list(islice(rado.typeset_iter(sockel, x), 60)) == want
    # sockel points in the hundreds and thousands: members past max F can
    # sit beyond the scan cap, so the scan is cut at a bound past max F
    for _ in range(24):
        deep = [rng.randrange(100, 5000) for _ in range(rng.randint(1, 2))]
        sockel = fs(rng.sample(range(16), rng.randint(0, 2)) + deep)
        x = rng.choice([p for p in range(64) if p not in sockel])
        bound = max(sockel) + 256
        want = [y for y in range(bound) if y not in sockel
                and (y == x or rado.same_type(sockel, x, y))]
        got = list(takewhile(lambda y: y < bound,
                             rado.typeset_iter(sockel, x)))
        assert got == want, (sockel, x)


def _reference_same_orbit(structure, xs, ys):
    # tuple orbit equality through a partial map and the raw oracle
    if len(xs) != len(ys):
        return False
    pm = {}
    for a, b in zip(xs, ys):
        if pm.get(a, b) != b:
            return False
        pm[a] = b
    return certify.brute_extendable(structure, pm, 7)


def test_orbit_keys_match_extendability(structure):
    pts = structure.prefix(7)
    tuples = [(a,) for a in pts] + list(product(pts, repeat=2))
    rng = random.Random(3)
    triples = rng.sample(list(product(pts, repeat=3)), 70)
    pairs = [(s, t) for s in tuples for t in tuples]
    pairs += [(s, t) for s in triples for t in triples]
    agree = [structure.orbit_key(s) == structure.orbit_key(t) for s, t in pairs]
    want = [_reference_same_orbit(structure, s, t) for s, t in pairs]
    assert agree == want
    assert any(w for (s, t), w in zip(pairs, want) if s != t and len(s) == 3)
