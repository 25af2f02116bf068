"""The bounded verifier and the raw ground-truth oracle."""

import ast
import hashlib
import json
import random
from collections import Counter
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from copyposet.core import IN, OUT, UNKNOWN, CutCopy
from copyposet.errors import PreconditionError
from copyposet import certify, core, engine
from copyposet.structures import BUILTIN_IDS, all_structures, get_structure
from copyposet.structures.rado import TaggedCopyRado

fs = frozenset


def to_json(cert):
    """A certificate's canonical byte form: its record as sorted, compact
    JSON."""
    return json.dumps(cert.to_record(), sort_keys=True, separators=(",", ":"))


class PlantedNonCopy(engine.CopyHandle):
    """{-1} plus the positive rationals: misses the typeset below -1."""

    def membership(self, x):
        return IN if (x == -1 or x > 0) else OUT


# -- check_copy ---------------------------------------------------------------

def test_check_copy_interval_pass(dlo):
    c = certify.check_copy(
        engine.powerset_embedding_dlo(dlo, members=(0, 2)), 10, 2, 500)
    assert c.verdict == "pass"


def test_check_copy_identity_pass(structure):
    c = certify.check_copy(engine.copy_identity(structure), 8, 2, 300)
    assert c.verdict == "pass"


def test_check_copy_planted_noncopy_fails(dlo):
    cert = certify.check_copy(PlantedNonCopy(dlo), 8, 1, 200)
    assert cert.verdict == "fail"
    assert cert.counterexample["sockel"] == ["-1"]
    assert cert.counterexample["point"] == "-2"


def test_check_copy_pass_monotone_in_budget(dlo):
    h = engine.powerset_embedding_dlo(dlo, members=(0,))
    low = certify.check_copy(h, 8, 2, 300)
    high = certify.check_copy(h, 8, 2, 600)
    assert low.verdict == "pass" and high.verdict == "pass"


def test_check_copy_unknown_on_fresh_backforth(dlo):
    c = engine.BackForthCopy(dlo, avoid={F(0)})
    cert = certify.check_copy(c, 8, 1, 50)
    assert cert.verdict == "unknown"
    assert cert.unresolved


def test_check_copy_replay(dlo):
    cert1 = certify.check_copy(PlantedNonCopy(dlo), 8, 1, 200)
    cert2 = certify.check_copy(PlantedNonCopy(dlo), 8, 1, 200)
    assert to_json(cert1) == to_json(cert2)
    bigger = certify.check_copy(PlantedNonCopy(dlo), 8, 1, 500)
    assert bigger.verdict == "fail"
    assert bigger.counterexample["sockel"] == cert1.counterexample["sockel"]
    assert bigger.counterexample["point"] == cert1.counterexample["point"]


def test_pass_witnesses_revalidate(dlo):
    h = engine.powerset_embedding_dlo(dlo, members=(0, 2))
    cert = certify.check_copy(h, 8, 2, 500)
    assert cert.verdict == "pass" and cert.witnesses
    for blob in cert.witnesses:
        rec = json.loads(blob)
        sockel = frozenset(dlo.decode(s) for s in rec["sockel"])
        x = dlo.decode(rec["point"])
        w = dlo.decode(rec["witness"])
        assert h.membership(w).is_in
        assert w == x or dlo.same_type(sockel, x, w)


@pytest.mark.parametrize("make, sockel_cap, budget", [
    (PlantedNonCopy, -1, 200),
    (lambda st: engine.powerset_embedding_dlo(st, members=(0, 2)), 2, 0),
], ids=["negative-sockel-cap", "zero-budget"])
def test_check_copy_rejects_meaningless_bounds(dlo, make, sockel_cap, budget):
    with pytest.raises(PreconditionError):
        certify.check_copy(make(dlo), 8, sockel_cap, budget)


class CountingCopy(engine.CopyHandle):
    """Another handle's membership, counting the questions per point."""

    def __init__(self, inner):
        super().__init__(inner.structure)
        self.inner = inner
        self.asked = Counter()

    def membership(self, x):
        self.asked[x] += 1
        return self.inner.membership(x)


def test_check_copy_asks_each_scanned_point_once(dlo):
    h = CountingCopy(engine.powerset_embedding_dlo(dlo, members=(0, 2)))
    assert certify.check_copy(h, 8, 2, 500).verdict == "pass"
    window = set(dlo.prefix(8))
    repeated = {x: n for x, n in h.asked.items()
                if x not in window and n > 1}
    assert not repeated


def _key_counting(sid):
    """A fresh instance of the structure ``sid`` that counts its type keys
    per (listed sockel, point)."""
    class KeyCounting(type(get_structure(sid))):
        def __init__(self):
            super().__init__()
            self.keyed = Counter()

        def type_key(self, ftup, x):
            self.keyed[ftup, x] += 1
            return super().type_key(ftup, x)
    return KeyCounting()


def test_check_copy_keys_each_scanned_point_once_per_sockel():
    # each handle on a fresh instance, so its first check is cold
    handles = [engine.powerset_embedding_dlo(_key_counting("dlo"), members=m)
               for m in ((), (0,), (1, 3), (0, 2, 5))]
    ze = _key_counting("zetaeta")
    handles.append(engine.decide_window(engine.copy_through(
        ze, fs(), engine.copy_identity(ze), proper=True, seed=0), 8))
    for h in handles:
        st = h.structure
        st.keyed.clear()
        assert certify.check_copy(h, 8, 2, 500).verdict == "pass"
        scanned = {y for y in map(st.point_at, range(500))
                   if not h.membership(y).is_out}
        twice = {k: n for k, n in st.keyed.items()
                 if k[1] in scanned and n > 1}
        assert not twice, h.describe()
        assert any(k[1] in scanned for k in st.keyed)
        st.keyed.clear()
        assert certify.check_copy(h, 8, 2, 500).verdict == "pass"
        assert not st.keyed, h.describe()


class PointCountingDLO(type(get_structure("dlo"))):
    """A fresh dlo that counts its point_at reads per index."""

    def __init__(self):
        super().__init__()
        self.read = Counter()

    def point_at(self, i):
        self.read[i] += 1
        return super().point_at(i)


def test_cold_check_reads_each_index_once():
    for members in ((), (0,), (1, 3), (0, 2, 5)):
        dlo = PointCountingDLO()
        h = engine.powerset_embedding_dlo(dlo, members=members)
        assert certify.check_copy(h, 8, 2, 500).verdict == "pass"
        assert dlo.read and max(dlo.read.values()) == 1, members


class RuleCopy(engine.CopyHandle):
    """Membership given by a rule on points."""

    def __init__(self, structure, rule):
        super().__init__(structure)
        self.rule = rule

    def membership(self, x):
        return self.rule(x)


def _reference_check_copy(handle, depth, sockel_cap, budget):
    """check_copy as one enumeration scan per (F, x) obligation: the
    direct reading of the characterization, kept to compare against."""
    st = handle.structure
    window = st.prefix(depth)
    inside = [p for p in window if handle.membership(p).is_in]
    unresolved, witnesses = [], []
    params = {"depth": depth, "sockel_cap": sockel_cap, "budget": budget,
              "copy": handle.describe()}

    def fail(counterexample):
        return certify.Certificate("copy-check", st.structure_id, params,
                                   "fail", counterexample=counterexample)
    for size in range(sockel_cap + 1):
        for ftup in combinations(inside, size):
            fset = frozenset(ftup)
            ob = {"sockel": [st.encode(p) for p in ftup]}
            for x in window:
                if x in fset or handle.membership(x).is_in:
                    continue
                ob["point"] = st.encode(x)
                found, saw_unknown = None, False
                for i in range(budget):
                    y = st.point_at(i)
                    if y in fset or (y != x and not st.same_type(fset, x, y)):
                        continue
                    m = handle.membership(y)
                    if m.is_in:
                        found = y
                        break
                    saw_unknown = saw_unknown or m.is_unknown
                fin = st.typeset_finite(fset, x)
                if found is None and fin.is_finite:
                    members = st.sort_points(fin.members)
                    found = next((m for m in members
                                  if handle.membership(m).is_in), None)
                    if found is None and all(handle.membership(m).is_out
                                             for m in members):
                        return fail(dict(ob, typeset=[st.encode(m)
                                                      for m in members]))
                    saw_unknown = found is None
                if found is not None:
                    witnesses.append(dict(ob, witness=st.encode(found)))
                elif saw_unknown:
                    unresolved.append(dict(ob))
                else:
                    return fail(dict(ob, scanned=budget))
    if unresolved:
        return certify.Certificate(
            "copy-check", st.structure_id, params, "unknown",
            unresolved=tuple(json.dumps(u, sort_keys=True)
                             for u in unresolved))
    return certify.Certificate(
        "copy-check", st.structure_id, params, "pass",
        witnesses=tuple(json.dumps(w, sort_keys=True)
                        for w in witnesses[:64]))


def _differential_cases():
    """(name, handle factory, depth, sockel_cap, budget) covering every
    verdict and both the scanned and the finite-typeset searches."""
    cases = [("identity %s" % sid,
              lambda sid=sid: engine.copy_identity(get_structure(sid)),
              8, 2, 300) for sid in BUILTIN_IDS]
    for sid in BUILTIN_IDS:
        if not get_structure(sid).single_copy:
            def through(st=get_structure(sid)):
                return engine.decide_window(engine.copy_through(
                    st, frozenset(), engine.copy_identity(st), proper=True,
                    seed=0), 8)
            cases.append(("through-proper %s" % sid, through, 8, 2, 500))
    dlo = get_structure("dlo")
    for members in ((), (0,), (0, 2)):
        cases.append(("interval %s" % (members,),
                      lambda m=members: engine.powerset_embedding_dlo(
                          dlo, members=m), 8, 2, 500))
    cases.append(("planted non-copy", lambda: PlantedNonCopy(dlo), 8, 1, 200))
    cases.append(("fresh back-and-forth",
                  lambda: engine.BackForthCopy(dlo, avoid={F(0)}), 8, 1, 50))
    zorder, pairs = get_structure("zorder"), get_structure("pairs")
    cases.append(("zorder finite typeset out",
                  lambda: RuleCopy(zorder, lambda x: IN if x >= 0 else (
                      UNKNOWN if x == -1 else OUT)), 8, 1, 50))
    cases.append(("zorder finite typeset unknown",
                  lambda: RuleCopy(zorder, lambda x: IN if x >= 0
                                   else UNKNOWN), 8, 1, 50))
    open_pairs = {fs((0, 2)), fs((1, 2))}
    cases.append(("pairs finite typeset witness",
                  lambda: RuleCopy(pairs, lambda x: UNKNOWN
                                   if x in open_pairs else IN), 8, 2, 3))

    def cold_interval(members=(0,)):
        # a fresh dlo: its enumeration prefix starts empty
        return engine.powerset_embedding_dlo(PointCountingDLO(), members)

    def after_depth_8(members=(0, 2)):
        h = cold_interval(members)
        certify.check_copy(h, 8, 2, 500)
        return h
    cases += [("depth 0 cold", cold_interval, 0, 2, 500),
              ("depth 1 cold", cold_interval, 1, 2, 500),
              ("depth 1 pairs through-proper",
               lambda: engine.decide_window(engine.copy_through(
                   pairs, fs(), engine.copy_identity(pairs), proper=True,
                   seed=0), 8), 1, 2, 500),
              ("sockel cap 0", lambda: cold_interval((0, 2)), 8, 0, 500),
              # fails when the budget runs out, not on a proof: none of
              # the first 3 points is inside, and over [] all are of 0's type
              ("budget below depth", after_depth_8, 12, 2, 3),
              ("depth 12 after depth 8", after_depth_8, 12, 2, 500)]
    return cases


@pytest.mark.parametrize("make, depth, sockel_cap, budget", [
    pytest.param(*case[1:], id=case[0]) for case in _differential_cases()])
def test_check_copy_matches_per_obligation_scan(make, depth, sockel_cap,
                                                budget):
    got = certify.check_copy(make(), depth, sockel_cap, budget)
    want = _reference_check_copy(make(), depth, sockel_cap, budget)
    assert to_json(got) == to_json(want)


# -- brute_same_type -----------------------------------------------------------

def test_brute_examples():
    z = get_structure("zorder")
    assert certify.brute_same_type(z, fs(), 0, 7, 16) is True
    assert certify.brute_same_type(z, fs({0}), 3, 4, 12) is False
    rado = get_structure("rado")
    # 1 is adjacent to 0, 4 is not
    assert certify.brute_same_type(rado, fs({0}), 1, 4, 12) is False
    dlo = get_structure("dlo")
    assert certify.brute_same_type(dlo, fs({F(0)}), F(1), F(2), 12) is True
    assert certify.brute_same_type(dlo, fs({F(0)}), F(1), F(-1), 12) is False
    pairs = get_structure("pairs")
    # {0,2} -> {1,2} swaps the sockel pair {0,1} and fixes 2
    assert certify.brute_same_type(
        pairs, fs({fs((0, 1))}), fs((0, 2)), fs((1, 2)), 12) is True
    # {0,2} meets the sockel pair and {2,3} does not
    assert certify.brute_same_type(
        pairs, fs({fs((0, 1))}), fs((0, 2)), fs((2, 3)), 12) is False


@lru_cache(maxsize=None)
def _permutations_of(elems):
    return [dict(zip(elems, perm)) for perm in permutations(elems)]


def _reference_brute_pairs(constraints):
    # every permutation of the combined support, with no cut
    elems = tuple(sorted(set().union(*[s | t for s, t in constraints])))
    ends = [(tuple(s), t) for s, t in constraints]
    return any(all({img[a], img[b]} == t for (a, b), t in ends)
               for img in _permutations_of(elems))


def _pairs_oracle_cases():
    pairs = get_structure("pairs")
    win = pairs.prefix(8)
    for size in (0, 1, 2):
        for ftup in combinations(win, size):
            pool = [p for p in win if p not in ftup]
            for x in pool:
                for y in pool:
                    yield fs(ftup), x, y
    rng = random.Random(7)
    win = pairs.prefix(12)
    for _ in range(60):
        picked = rng.sample(win, 5)
        yield fs(picked[:3]), picked[3], rng.choice(picked[3:])


def test_brute_pairs_matches_full_enumeration():
    for fset, x, y in _pairs_oracle_cases():
        constraints = [(x, y)] + [(u, u) for u in fset]
        assert certify._brute_pairs(constraints) == \
            _reference_brute_pairs(constraints), (fset, x, y)


def test_brute_pairs_extendable_matches_full_enumeration():
    # every partial injection of 1-3 pairs of the first 8 points; its
    # targets may use support elements no source pair holds
    pairs = get_structure("pairs")
    win = pairs.prefix(8)
    for k in (1, 2, 3):
        for dom in combinations(win, k):
            for img in permutations(win, k):
                pm = dict(zip(dom, img))
                assert certify.brute_extendable(pairs, pm, 12) \
                    == _reference_brute_pairs(list(pm.items())), pm


_PAIRS_12 = get_structure("pairs").prefix(12)


@given(st.lists(st.tuples(st.sampled_from(_PAIRS_12),
                          st.sampled_from(_PAIRS_12)), max_size=4))
@settings(max_examples=200, deadline=None)
def test_brute_pairs_matches_full_enumeration_on_any_constraints(
        constraints):
    assert certify._brute_pairs(constraints) == \
        _reference_brute_pairs(constraints)


def test_brute_oracle_imports_no_pairs_module():
    # the raw oracles read point encodings, never a structure module: the
    # pairs oracle stays a derivation from the raw 2-subsets, and the rado
    # and treetz oracles compute adjacency and meet levels themselves
    tree = ast.parse(Path(certify.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update("%s.%s" % (node.module, alias.name)
                            for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not [m for m in imported if "structures" in m.split(".")]


def test_brute_ground_window_precondition(dlo):
    with pytest.raises(PreconditionError):
        certify.brute_same_type(dlo, fs(), F(1), F(1000000), 12)
    with pytest.raises(PreconditionError):
        certify.brute_extendable(
            dlo, {F(0): F(0), F(1): F(1000000)}, 12)


def test_brute_extendable_examples():
    assert certify.brute_extendable(get_structure("treetz"), {}, 8)
    dlo = get_structure("dlo")
    assert certify.brute_extendable(dlo, {F(0): F(1)}, 12)
    assert not certify.brute_extendable(
        dlo, {F(0): F(1), F(1): F(0)}, 12)
    z = get_structure("zorder")
    assert certify.brute_extendable(z, {0: 3, 1: 4}, 12)
    assert not certify.brute_extendable(z, {0: 3, 1: 5}, 12)
    pairs = get_structure("pairs")
    # {0,1} -> {0,2} and {0,2} -> {0,1} swap 1 and 2; {1,2} cannot follow
    swap = {fs((0, 1)): fs((0, 2)), fs((0, 2)): fs((0, 1))}
    assert certify.brute_extendable(pairs, swap, 12)
    swap[fs((1, 2))] = fs((0, 3))
    assert not certify.brute_extendable(pairs, swap, 12)


def test_differential_small_window():
    for st in all_structures():
        win = st.prefix(8)
        for size in (0, 1, 2):
            for ftup in combinations(win, size):
                fset = frozenset(ftup)
                pool = [p for p in win if p not in fset]
                for x in pool:
                    for y in pool:
                        assert st.same_type(fset, x, y) == \
                            certify.brute_same_type(st, fset, x, y, 8), (
                                st.structure_id, ftup, x, y)


# -- check_inclusion ------------------------------------------------------------

def test_inclusion_examples(dlo):
    s0 = engine.powerset_embedding_dlo(dlo, members=(0,))
    s01 = engine.powerset_embedding_dlo(dlo, members=(0, 1))
    s1 = engine.powerset_embedding_dlo(dlo, members=(1,))
    assert certify.check_inclusion(s0, s01, 10).verdict == "pass"
    bad = certify.check_inclusion(s0, s1, 10)
    assert bad.verdict == "fail"
    assert bad.counterexample == {"point": "1/2"}
    assert certify.check_inclusion(s0, s0, 10).verdict == "pass"


def test_inclusion_unknown_against_partial(dlo):
    partial = engine.BackForthCopy(dlo, avoid={F(5)}).advance(2)
    cert = certify.check_inclusion(engine.copy_identity(dlo), partial, 8)
    assert cert.verdict == "unknown"


# -- disjointness -----------------------------------------------------------------

def test_disjointness_certificate(dlo):
    left, right = engine.disjoint_pair(dlo, set())
    cert = certify.check_disjointness(left, right, 12)
    assert cert.verdict == "pass"
    cert2 = certify.check_disjointness(left, left, 12)
    assert cert2.verdict == "fail"


# -- meet-irreducibility heuristic ---------------------------------------------------

def test_meet_irreducible_maximized_not_refuted(dlo):
    c = engine.max_avoiding_copy(dlo, {F(0)}, 8)
    cert = certify.check_meet_irreducible_candidate(c, F(0), 8)
    assert cert.verdict == "pass"


def test_meet_irreducible_shrunk_refuted(dlo):
    inner = engine.copy_through(
        dlo, set(), engine.powerset_embedding_dlo(dlo, members=()),
        proper=False)
    cert = certify.check_meet_irreducible_candidate(inner, F(0), 8)
    assert cert.verdict == "fail"
    assert cert.counterexample["added"]


def test_meet_irreducible_precondition(dlo):
    c = engine.copy_identity(dlo)
    with pytest.raises(PreconditionError):
        certify.check_meet_irreducible_candidate(c, F(0), 8)


# -- certificate serialization ---------------------------------------------------------

def test_certificate_jsonl_round_trip(dlo, tmp_path):
    certs = [
        certify.check_copy(engine.powerset_embedding_dlo(dlo, members=(0,)),
                           8, 1, 200),
        certify.check_inclusion(
            engine.powerset_embedding_dlo(dlo, members=(0,)),
            engine.powerset_embedding_dlo(dlo, members=(0, 1)), 10),
    ]
    path = tmp_path / "certs.jsonl"
    path.write_text("".join(to_json(c) + "\n" for c in certs))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    for line, cert in zip(lines, certs):
        rec = json.loads(line)
        assert rec["schema"] == certify.SCHEMA_VERSION
        assert rec["verdict"] == cert.verdict
        assert rec["kind"] == cert.kind
    # canonical form: dumping again is byte-identical
    assert lines[0] == to_json(certs[0])


# sha256 of the check_copy(h, 8, 2, 500) certificates of _pinned_copies(),
# one to_json() line each: the bytes must not move with the point type.
# Re-pinned when the dlo copies became cofinite: their four certificates
# changed, every other certificate kept its bytes.  Re-pinned when the
# zetaeta copies became block cuts: their four certificates changed, every
# other certificate kept its bytes.  Re-pinned when the dlo pair sides
# became one interval-union value: their four certificates changed only in
# the copy description
PINNED_CERTIFICATES_SHA256 = (
    "4344030709851b1143ab4bf66758c3e8f2117adb03f5001b2da14300ec1bbfef")


def _pinned_copies():
    """The 1,024 interval copies, the decided through-proper and avoiding
    copies of dlo and zetaeta at d = 8 and 12, and both sides of the dlo
    disjoint pairs over {} and {0, 1/2}."""
    dlo, ze = get_structure("dlo"), get_structure("zetaeta")
    handles = [engine.powerset_embedding_dlo(dlo, members=c)
               for k in range(11) for c in combinations(range(10), k)]
    for st in (dlo, ze):
        for d in (8, 12):
            handles.append(engine.decide_window(engine.copy_through(
                st, fs(), engine.copy_identity(st), proper=True, seed=0), d))
            avoid = next(x for x in st.prefix(d)
                         if st.type_unranked(fs(), x) is True)
            handles.append(engine.decide_window(engine.copy_avoiding(
                st, fs(), {avoid}, seed=0), d))
    for fix in ((), ("0", "1/2")):
        handles.extend(engine.disjoint_pair(dlo, fs(map(dlo.decode, fix))))
    return handles


def test_certificate_bytes_are_pinned():
    digest = hashlib.sha256()
    for h in _pinned_copies():
        cert = certify.check_copy(h, 8, 2, 500)
        digest.update(to_json(cert).encode() + b"\n")
    assert digest.hexdigest() == PINNED_CERTIFICATES_SHA256


# sha256 of the certificates of _nine_structure_checks(), one to_json() line
# each.  Re-pinned when the pureset, equiv and pairs disjoint pairs became
# closed forms: their eight side certificates changed, every other
# certificate kept its bytes.  Re-pinned when the pureset, dlo and equiv
# copies became cofinite: their thirteen certificates changed, the five dlo
# ones from unknown to pass, and every other certificate kept its bytes.
# Re-pinned when the zetaeta and pairs copies became cut copies: their
# eight certificates changed, the two zetaeta ones at d = 12 from unknown
# to pass, and every other certificate kept its bytes.  Re-pinned when the
# rado through-proper and avoiding copies became cofinite: their four
# certificates changed, and every other certificate kept its bytes.
# Re-pinned when the dlo pair sides became one interval-union value and the
# rado sides over {} tagged classes: those four certificates changed only
# in the copy description
PINNED_NINE_STRUCTURE_SHA256 = (
    "03c6dc6bf57a4c72912127def992a2b3b612d7c700f2f42ca1aad51487c786fc")


def _fresh(sid):
    """A fresh instance of the structure ``sid``: all its tables cold."""
    return type(get_structure(sid))()


def _nine_structure_checks(get=get_structure):
    """(handle, depth, sockel_cap, budget) for the identity copy of every
    structure; the decided through-proper and avoiding copies at d = 8 and
    12 and both sides of the disjoint pairs of every structure that has
    them; the dlo max_avoiding_copy; and the planted non-copy.  The
    planted one fails and every other passes.  ``get`` gives the
    structure of an id."""
    for sid in BUILTIN_IDS:
        st = get(sid)
        yield engine.copy_identity(st), 8, 2, 500
        if st.single_copy:
            continue
        avoid = next(x for x in st.prefix(8)
                     if st.type_unranked(fs(), x) is True)
        for d in (8, 12):
            yield engine.decide_window(engine.copy_through(
                st, fs(), engine.copy_identity(st), proper=True, seed=0),
                d), d, 2, 500
            yield engine.decide_window(engine.copy_avoiding(
                st, fs(), {avoid}, seed=0), d), d, 2, 500
        if not st.algebraically_finite:
            continue
        fixes = [fs()]
        if sid == "pairs":
            fixes.append(fs({fs((0, 1)), fs((2, 3))}))
        for fix in fixes:
            for side in engine.disjoint_pair(st, fix, seed=0):
                yield side, 8, 2, 500
    dlo = get("dlo")
    yield engine.max_avoiding_copy(dlo, [F(0)], 8), 8, 2, 500
    yield PlantedNonCopy(dlo), 8, 1, 500


def _nine_structure_certificates():
    return [certify.check_copy(*case) for case in _nine_structure_checks()]


def test_nine_structure_certificate_bytes_are_pinned():
    certs = _nine_structure_certificates()
    verdicts = Counter(c.verdict for c in certs)
    assert verdicts["unknown"] == 0 and verdicts["fail"] == 1
    digest = hashlib.sha256()
    for cert in certs:
        digest.update(to_json(cert).encode() + b"\n")
    assert digest.hexdigest() == PINNED_NINE_STRUCTURE_SHA256


def test_certificate_records_are_canonical_json():
    # no built-in constructor leaves a copy unknown: a fresh back-and-forth
    # copy gives the unresolved records
    certs = _nine_structure_certificates() + [certify.check_copy(
        engine.BackForthCopy(get_structure("dlo"), avoid={F(0)}), 8, 1, 50)]
    strings = [s for c in certs for s in c.witnesses + c.unresolved]
    assert any(c.witnesses for c in certs)
    assert any(c.unresolved for c in certs)
    for s in strings:
        assert s == json.dumps(json.loads(s), sort_keys=True)


def _interval_and_nine_structure_checks(get=get_structure):
    dlo = get("dlo")
    cases = [(engine.powerset_embedding_dlo(dlo, members=c), 8, 2, 500)
             for k in range(11) for c in combinations(range(10), k)]
    return cases + list(_nine_structure_checks(get))


def test_certificates_do_not_depend_on_the_class_tables_kept():
    # cold: each case on fresh instances, its handle built on them
    cold = [to_json(certify.check_copy(*case))
            for case in _interval_and_nine_structure_checks(_fresh)]
    warm = [to_json(certify.check_copy(*case))
            for case in _interval_and_nine_structure_checks()]
    backwards = [to_json(certify.check_copy(*case))
                 for case in _interval_and_nine_structure_checks()[::-1]]
    assert cold == warm == backwards[::-1]


def test_more_sockels_than_tables_kept_leave_certificates_unchanged(
        forgetful):
    want = _nine_structure_certificates()
    memos = forgetful(core.TypeClasses, 2)
    got = _nine_structure_certificates()
    assert sum(m.misses for m in memos) > 2
    assert [to_json(c) for c in got] == [to_json(c) for c in want]


def _mixed_window_certificates(shuffle=True, get=get_structure):
    """The nine-structure checks, each also at (12, 1), (4, 0) and (0, 2)
    for (depth, sockel_cap), run in a seeded shuffle or in order."""
    cases = [(h, d, cap, b) for h, depth, sockel_cap, b
             in _nine_structure_checks(get)
             for d, cap in ((depth, sockel_cap), (12, 1), (4, 0), (0, 2))]
    order = list(range(len(cases)))
    if shuffle:
        random.Random(0).shuffle(order)
    got = {i: to_json(certify.check_copy(*cases[i])) for i in order}
    return [got[i] for i in range(len(cases))]


def test_certificates_do_not_depend_on_the_prefixes_kept(forgetful):
    cold = _mixed_window_certificates(get=_fresh)
    warm = _mixed_window_certificates()
    in_order = _mixed_window_certificates(shuffle=False)
    memos = forgetful(certify._Prefix, 0)
    small = _mixed_window_certificates()
    assert sum(m.misses for m in memos) > 2
    assert cold == warm == in_order == small


def test_warm_check_of_a_new_copy_reads_no_point():
    dlo = PointCountingDLO()
    for members in ((0,), (1, 3), (0, 2, 5)):
        h = engine.powerset_embedding_dlo(dlo, members=members)
        dlo.read.clear()
        assert certify.check_copy(h, 8, 2, 500).verdict == "pass"
        assert bool(dlo.read) == (members == (0,)), members


# -- cofinite copies ------------------------------------------------------------

def _swept_copies(st):
    """(seed, d, copy): through-proper copies, and copies avoiding the
    first or the second unranked window point, at seeds 0-5 and depths
    6-12, each with its window decided."""
    for seed in range(6):
        for d in (6, 8, 10, 12):
            free = [x for x in st.prefix(d)
                    if st.type_unranked(fs(), x) is True]
            handles = [engine.copy_through(st, fs(), engine.copy_identity(st),
                                           proper=True, seed=seed)]
            handles += [engine.copy_avoiding(st, fs(), {a}, seed=seed)
                        for a in free[:2]]
            for h in handles:
                yield seed, d, engine.decide_window(h, d)


@pytest.mark.parametrize("sid", ["pureset", "dlo", "equiv"])
def test_cofinite_copies_pass_after_decide_window(sid):
    for seed, d, h in _swept_copies(get_structure(sid)):
        assert isinstance(h, CutCopy)
        cert = certify.check_copy(h, d)
        assert cert.verdict == "pass", (seed, d, h.describe())


@pytest.mark.parametrize("sid", [sid for sid in BUILTIN_IDS
                                 if not get_structure(sid).single_copy])
def test_constructed_copies_pass_at_budget_60(sid):
    # 72 checks on each of the seven structures with proper copies: a
    # small budget leaves the witness to the copy's own proposal
    checked = 0
    for seed, d, h in _swept_copies(get_structure(sid)):
        cert = certify.check_copy(h, d, 2, 60)
        assert cert.verdict == "pass", (seed, d, h.describe(), cert)
        checked += 1
    assert checked == 72


@pytest.mark.parametrize("sid", ["pureset", "dlo", "rado", "equiv"])
def test_max_avoiding_copy_is_the_cofinite_copy(sid):
    st = get_structure(sid)
    for d in (8, 12):
        for seed in range(6):
            for k in (1, 3):
                avoid = random.Random(seed).sample(st.prefix(d), k)
                h = engine.max_avoiding_copy(st, avoid, d)
                assert isinstance(h, CutCopy)
                assert [x for x in st.prefix(d) if h.membership(x).is_out] \
                    == st.sort_points(avoid)
                cert = certify.check_copy(h, d)
                assert cert.verdict == "pass", (seed, d, h.describe())


def test_rado_cofinite_copy_passes_through_its_witness():
    # over the sockel {3, 9}, the type of 0 (adjacent to both) has no
    # member among the 500 points scanned but 0, which is avoided: every
    # other member has bits 3 and 9 set.  The copy proposes 520
    rado = get_structure("rado")
    h = engine.max_avoiding_copy(rado, [0], 12)
    cert = certify.check_copy(h, 12, 2, 500)
    assert cert.verdict == "pass"
    records = [json.loads(w) for w in cert.witnesses]
    assert {"point": "0", "sockel": ["3", "9"], "witness": "520"} in records


# -- witness proposals ---------------------------------------------------------

def test_rado_copy_avoiding_600_passes_with_proposed_witnesses():
    # the tagged class with one-tag 10 and zero-tag 11 avoids 600: every
    # member lies at 1024 or above, past the 200-point scan
    rado = get_structure("rado")
    h = TaggedCopyRado(rado, ones=(10,), zeros=(11,))
    cert = certify.check_copy(h, 8, 2, 200)
    assert cert.verdict == "pass"
    assert {json.loads(w)["witness"] for w in cert.witnesses} == {"1024"}


def test_rado_proposals_are_members_of_the_right_type():
    rado = get_structure("rado")
    # (fix, ones, zeros): tagged classes avoiding 600, 0, 600 over {1, 2},
    # 7 over {3, 5, 40} and 2^70 over {9}, each below its least one-tag
    # bit; and two through {2}, inside the third and inside the class
    # 2 (mod 4)
    copies = [TaggedCopyRado(rado, *params) for params in (
        ((), (10,), (11,)), ((), (2,), (3,)),
        ((1, 2), (10,), (11,)), ((3, 5, 40), (6,), (8,)),
        ((9,), (71,), (72,)), ((2,), (10, 12), (11, 13)),
        ((2,), (1, 3), (0, 4)))]
    for fix in ((), (0, 5), (3,)):
        copies.extend(engine.disjoint_pair(rado, fix))
    assert all(isinstance(h, TaggedCopyRado) for h in copies)
    for h in copies:
        members = sorted(h.fix) + [y for y in range(4096) if y not in h.fix
                                   and h.membership(y).is_in][:6]
        for size in range(3):
            for ftup in combinations(members, size):
                for x in range(40):
                    if x in ftup:
                        continue
                    w = h.witness(ftup, x)
                    assert w not in ftup and h.membership(w).is_in
                    assert rado.type_key(ftup, w) == rado.type_key(ftup, x)


class _ProposingCopy(engine.CopyHandle):
    """The rado tagged class over fix {1, 2} with one-tag 10, so nothing
    else at or below 600 is inside, with a chosen proposal rule; no member of a typeset over a nonempty sockel lies in
    the first 200 points."""

    def __init__(self, propose):
        rado = get_structure("rado")
        super().__init__(rado)
        self.inner = TaggedCopyRado(rado, {1, 2}, (10,), (11,))
        self.propose = propose

    def membership(self, x):
        return self.inner.membership(x)

    def witness(self, ftup, x):
        return self.propose(self.inner, ftup, x)

    def describe(self):
        return self.inner.describe()


@pytest.mark.parametrize("propose", [
    lambda h, ftup, x: 600,  # below the one-tag bit: outside the copy
    lambda h, ftup, x: h.witness(ftup, x) | 1 << h.zeros[0],  # outside
    lambda h, ftup, x: h.witness(ftup, x) ^ (1 << ftup[0] if ftup else 0),
    lambda h, ftup, x: ftup[0] if ftup else None,  # in the sockel
], ids=["at-floor", "zero-tag-set", "wrong-type", "in-sockel"])
def test_unconfirmed_proposals_keep_the_verdict(propose):
    silent = certify.check_copy(_ProposingCopy(lambda h, f, x: None),
                                8, 2, 200)
    assert silent.verdict == "fail"
    assert silent.counterexample["scanned"] == 200
    lying = certify.check_copy(_ProposingCopy(propose), 8, 2, 200)
    assert to_json(lying) == to_json(silent)
    honest = certify.check_copy(_ProposingCopy(
        lambda h, ftup, x: h.witness(ftup, x)), 8, 2, 200)
    assert honest.verdict == "pass"
