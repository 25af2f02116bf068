"""Bounded verification and the independent ground-truth oracle.

check_copy drives the membership characterization at a finite window: every
small sockel inside the copy, paired with every window point, must have an
orbit witness landing in the copy.  Verdicts are three-valued; unknown
carries the unresolved obligations instead of silently passing.  One check
reads its enumeration scan once, and each sockel walks that scan once,
keying each point at most once; every typeset class of the sockel is
answered from the walk.

brute_same_type and brute_extendable re-derive orbit equality from each
structure's raw data (order comparisons, adjacency bits, class labels,
differences, meets, support permutations) without touching the structures'
orbit keys or decision procedures: they read the raw point encodings and
import no structure module.  The differential tests pit the two against
each other.  Each raw oracle decides whether a list of (source,
target) pairs extends to some g in G.  For pairs it searches the injections
of the source support that send each source pair's elements into its
target; such an injection extends to a permutation of the whole support.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations
from json.encoder import encode_basestring_ascii as _quote

from .core import Frozen
from .errors import CopyPosetError, PreconditionError

SCHEMA_VERSION = 1

_WITNESSES_KEPT = 64


class Certificate(Frozen):
    __slots__ = ("kind", "structure_id", "params", "verdict",
                 "counterexample", "witnesses", "unresolved")

    def __init__(self, kind, structure_id, params=None, verdict="pass",
                 counterexample=None, witnesses=(), unresolved=()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "structure_id", structure_id)
        object.__setattr__(self, "params", {} if params is None else params)
        object.__setattr__(self, "verdict", verdict)  # pass | fail | unknown
        object.__setattr__(self, "counterexample", counterexample)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "unresolved", unresolved)

    def to_record(self):
        rec = {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "structure": self.structure_id,
            "params": self.params,
            "verdict": self.verdict,
        }
        if self.counterexample is not None:
            rec["counterexample"] = self.counterexample
        if self.witnesses:
            rec["witnesses"] = list(self.witnesses)
        if self.unresolved:
            rec["unresolved"] = list(self.unresolved)
        return rec

    def to_json(self):
        return json.dumps(self.to_record(), sort_keys=True,
                          separators=(",", ":"))


class _Scan:
    """The first ``budget`` enumeration points that the copy does not
    decide out, each with its membership.  Points are read lazily and at
    most once, and every sockel's walk of one check iterates the same
    list."""

    def __init__(self, handle, budget):
        self.handle = handle
        self.budget = budget
        self.kept = []  # (y, membership) in enumeration order
        self._read = 0

    def __iter__(self):
        i = 0
        while i < len(self.kept) or self._keep_next():
            yield self.kept[i]
            i += 1

    def _keep_next(self):
        st = self.handle.structure
        while self._read < self.budget:
            y = st.point_at(self._read)
            self._read += 1
            m = self.handle.membership(y)
            if not m.is_out:
                self.kept.append((y, m))
                return True
        return False


class _Walk:
    """One sockel's lazy pass over the shared scan.  Per type key over the
    sockel it remembers the first member inside the copy and whether a
    member of unknown membership was passed.  Each point is keyed at most
    once: a member inside the copy as the walk passes it, a point of
    unknown membership (a scanned member or a window point) through
    ``key``."""

    def __init__(self, scan, ftup):
        self.scan = scan
        self.ftup = ftup
        self.fset = frozenset(ftup)
        self.first_in = {}  # type key -> first scanned member in the copy
        self.unknown = set()  # type keys with a scanned member undecided
        self._keys = {}  # point -> type key, for undecided points
        self._type_key = scan.handle.structure.type_key
        self._points = iter(scan)

    def key(self, p):
        """The type key over the sockel of p, a point of unknown
        membership, computed once per walk."""
        k = self._keys.get(p)
        if k is None:
            k = self._keys[p] = self._type_key(self.ftup, p)
        return k

    def find(self, key):
        """The first scanned member of class ``key`` inside the copy, or
        None when the whole scan holds none."""
        y = self.first_in.get(key)
        if y is not None:
            return y
        ftup, fset, first_in = self.ftup, self.fset, self.first_in
        type_key = self._type_key
        for y, m in self._points:
            if y in fset:
                continue
            if not m.is_in:
                self.unknown.add(self.key(y))
                continue
            k = type_key(ftup, y)
            first_in.setdefault(k, y)
            if k == key:
                return y
        return None


def _obligation(walk, x, key):
    """Settle <F |> x> against the copy, for the sockel F of ``walk`` and
    x's type ``key`` over it: returns (witness, None), or (None,
    counterexample fields) when the typeset provably misses the copy, or
    (None, None) when unknown memberships leave it open.  When the scan
    finds no member of an infinite typeset, the handle's own proposal is
    taken once it is confirmed a member of the typeset inside the copy."""
    y = walk.find(key)
    if y is not None:
        return y, None
    handle = walk.scan.handle
    st, ftup, fset = handle.structure, walk.ftup, walk.fset
    fin = st.typeset_finite(fset, x)
    if fin.is_finite:
        # the whole typeset is known: consult it directly
        members = st.sort_points(fin.members)
        member_unknown = False
        for y in members:
            m = handle.membership(y)
            if m.is_in:
                return y, None
            member_unknown = member_unknown or m.is_unknown
        if member_unknown:
            return None, None
        return None, {"typeset": [st.encode(y) for y in members]}
    w = handle.witness(ftup, x)
    if w is not None and w not in fset and st.type_key(ftup, w) == key \
            and handle.membership(w).is_in:
        return w, None
    if key in walk.unknown:
        return None, None
    # every scanned typeset member is decided out
    return None, {"scanned": walk.scan.budget}


@lru_cache(maxsize=32)
def _window(structure, depth):
    """The first ``depth`` points, each paired with its quoted encoding.
    Read by position: a dict keyed by dlo points would pay for the hash
    that Rational(-1) and Rational(-2) share on every lookup of -2."""
    return tuple([(p, _quote(structure.encode(p)))
                  for p in structure.prefix(depth)])


def check_copy(handle, depth, sockel_cap=2, budget=500):
    """Certificate for the copy characterization on a window.

    For every sockel F inside the decided part of the copy (|F| bounded)
    and every window point x, searches the typeset of <F |> x> in
    enumeration order for a member decided inside the copy.  fail carries
    the first (F, x) whose typeset provably misses the copy; obligations
    blocked by unknown memberships make the verdict unknown.

    The first ``budget`` enumeration points are read once per call, and
    points decided out are dropped before any obligation sees them.  Each
    sockel walks that scan once, lazily, and keys each point at most
    once: the walk stops at the first member of the class asked for, and
    on its way notes the first member inside the copy of every class it
    passes.  A witness depends only on the orbit of x under the
    stabilizer of F, so each typeset class is settled once per sockel: a
    later point of the class reuses the outcome of the first.  When the
    scan misses an infinite typeset, the handle's ``witness`` proposal is
    consulted and taken only once confirmed.

    Records are the canonical JSON of json.dumps(..., sort_keys=True),
    assembled from fragments encoded once each: a window point's quoted
    encoding per structure and depth, a sockel's list per sockel, and a
    witness per typeset class."""
    if sockel_cap < 0 or budget < 1:
        raise PreconditionError("need sockel_cap >= 0 and budget >= 1")
    st = handle.structure
    type_key = st.type_key
    inside, rest = [], []
    for p, qp in _window(st, depth):
        m = handle.membership(p)
        if m.is_in:
            inside.append((p, qp))
        else:
            # a point inside the copy is its own witness (g = identity); an
            # undecided one is also a scan point, keyed through the walk
            rest.append((p, qp, m.is_unknown))
    scan = _Scan(handle, budget)
    unresolved = []
    witnesses = []  # only the first _WITNESSES_KEPT are emitted
    params = {"depth": depth, "sockel_cap": sockel_cap, "budget": budget,
              "copy": handle.describe()}
    for size in range(0, sockel_cap + 1):
        for fpairs in combinations(inside, size):
            ftup = tuple([p for p, _ in fpairs])
            sockel = "[%s]" % ", ".join([qp for _, qp in fpairs])
            walk = _Walk(scan, ftup)
            searched = {}  # type key -> quoted witness, per class met
            for x, qx, undecided in rest:
                key = walk.key(x) if undecided else type_key(ftup, x)
                if key in searched:
                    found = searched[key]
                else:
                    found, counterexample = _obligation(walk, x, key)
                    if counterexample is not None:
                        return Certificate(
                            "copy-check", st.structure_id, params, "fail",
                            counterexample={
                                "sockel": [st.encode(p) for p in ftup],
                                "point": st.encode(x),
                                **counterexample})
                    if found is not None:
                        found = _quote(st.encode(found))
                    searched[key] = found
                if found is None:
                    unresolved.append('{"point": %s, "sockel": %s}'
                                      % (qx, sockel))
                elif len(witnesses) < _WITNESSES_KEPT:
                    witnesses.append(
                        '{"point": %s, "sockel": %s, "witness": %s}'
                        % (qx, sockel, found))
    if unresolved:
        return Certificate("copy-check", st.structure_id, params, "unknown",
                           unresolved=tuple(unresolved))
    return Certificate("copy-check", st.structure_id, params, "pass",
                       witnesses=tuple(witnesses))


# -- ground truth, structure by structure ------------------------------------


def _brute_dlo(pairs):
    pairs = sorted(pairs)
    return all(s1 < s2 and t1 < t2
               for (s1, t1), (s2, t2) in zip(pairs, pairs[1:]))


def _brute_pureset(pairs):
    del pairs
    return True  # a finite injection extends to a permutation


def _brute_zorder(pairs):
    # the map preserves differences iff a single translation fits
    return len({t - s for s, t in pairs}) <= 1


def _bit_adjacent(i, j):
    # Rado's BIT presentation: for i < j, i ~ j iff bit i of j is set
    if i > j:
        i, j = j, i
    return i != j and (j >> i) & 1 == 1


def _brute_rado(pairs):
    for i, (s1, t1) in enumerate(pairs):
        for s2, t2 in pairs[i + 1:]:
            if _bit_adjacent(s1, s2) != _bit_adjacent(t1, t2):
                return False
    return True


def _brute_equiv(pairs):
    for i, (s1, t1) in enumerate(pairs):
        for s2, t2 in pairs[i + 1:]:
            if (s1[0] == s2[0]) != (t1[0] == t2[0]):
                return False
    return True


def _brute_zeta2(pairs):
    outer = {t[0] - s[0] for s, t in pairs}
    if len(outer) > 1:
        return False
    inner = {}
    for s, t in pairs:
        d = t[1] - s[1]
        if inner.setdefault(s[0], d) != d:
            return False
    return True


def _brute_zetaeta(pairs):
    inner = {}
    for s, t in pairs:
        d = t[1] - s[1]
        if inner.setdefault(s[0], d) != d:
            return False
    for i, (s1, t1) in enumerate(pairs):
        for s2, t2 in pairs[i + 1:]:
            if (s1[0] == s2[0]) != (t1[0] == t2[0]):
                return False
            if s1[0] != s2[0] and (s1[0] < s2[0]) != (t1[0] < t2[0]):
                return False
    return True


def _meet_level(x, y):
    # a tree node (L, ((i, e), ...)) sits at level L with nonzero choice
    # entries e at levels i; two downward chains part one level below the
    # first level where their entries differ, and no higher than either node
    cx, cy = dict(x[1]), dict(y[1])
    lvl = min(x[0], y[0])
    for i in cx.keys() | cy.keys():
        if cx.get(i, 0) != cy.get(i, 0):
            lvl = min(lvl, i - 1)
    return lvl


def _brute_treetz(pairs):
    deltas = {t[0] - s[0] for s, t in pairs}
    if len(deltas) > 1:
        return False
    d = deltas.pop() if deltas else 0
    for i, (s1, t1) in enumerate(pairs):
        for s2, t2 in pairs[i + 1:]:
            if _meet_level(t1, t2) - _meet_level(s1, s2) != d:
                return False
    return True


def _brute_pairs(pairs):
    # a permutation sends a source pair s onto its target t iff it sends
    # each element of s into t, so a source element's image lies in the
    # intersection of the targets of the constraints whose source holds it:
    # at most two values.  Search the injections of the source support into
    # those domains.  Target-only elements get no image: an injection of
    # part of a finite support extends to a permutation of all of it.
    dom = {}
    for s, t in pairs:
        for e in s:
            dom[e] = dom[e] & t if e in dom else t
    doms = sorted(dom.values(), key=len)
    used = set()

    def extend(k):
        if k == len(doms):
            return True
        for v in doms[k]:
            if v not in used:
                used.add(v)
                if extend(k + 1):
                    return True
                used.discard(v)
        return False

    return extend(0)


_BRUTE = {
    "dlo": _brute_dlo,
    "pureset": _brute_pureset,
    "zorder": _brute_zorder,
    "rado": _brute_rado,
    "equiv": _brute_equiv,
    "zeta2": _brute_zeta2,
    "zetaeta": _brute_zetaeta,
    "treetz": _brute_treetz,
    "pairs": _brute_pairs,
}


@lru_cache(maxsize=16)
def _ground_window(structure, ground_depth):
    return frozenset(structure.prefix(ground_depth))


def _raw_oracle(structure):
    try:
        return _BRUTE[structure.structure_id]
    except KeyError:
        raise PreconditionError(
            "no raw oracle for %s" % structure.structure_id) from None


def brute_same_type(structure, sockel, x, y, ground_depth):
    """Ground-truth orbit equality from raw relational data, independent of
    the structure's orbit key and decision procedure."""
    fset = frozenset(sockel)
    window = _ground_window(structure, ground_depth)
    if not fset <= window or x not in window or y not in window:
        raise PreconditionError("inputs must lie inside the ground window")
    if x in fset or y in fset:
        raise PreconditionError("representative lies in the sockel")
    if x == y:
        return True
    return _raw_oracle(structure)([(x, y)] + [(a, a) for a in fset])


def brute_extendable(structure, pm, ground_depth):
    """Ground-truth extendability of the finite partial map ``pm`` from raw
    relational data, independent of the structure's orbit key.  A map that
    is not injective extends to no permutation."""
    window = _ground_window(structure, ground_depth)
    if not all(s in window and t in window for s, t in pm.items()):
        raise PreconditionError("inputs must lie inside the ground window")
    if len(set(pm.values())) != len(pm):
        return False
    return _raw_oracle(structure)(list(pm.items()))


def check_inclusion(lower, upper, depth):
    """Certificate that the first copy sits inside the second on a window."""
    st = lower.structure
    params = {"depth": depth, "lower": lower.describe(),
              "upper": upper.describe()}
    unresolved = []
    for x in st.prefix(depth):
        ml = lower.membership(x)
        if not ml.is_in:
            continue
        mu = upper.membership(x)
        if mu.is_out:
            return Certificate("inclusion", st.structure_id, params, "fail",
                               counterexample={"point": st.encode(x)})
        if mu.is_unknown:
            unresolved.append(st.encode(x))
    if unresolved:
        return Certificate("inclusion", st.structure_id, params, "unknown",
                           unresolved=tuple(unresolved))
    return Certificate("inclusion", st.structure_id, params, "pass")


def check_disjointness(left, right, depth, core=()):
    """Certificate that two copies meet exactly in ``core`` on a window."""
    st = left.structure
    coreset = frozenset(core)
    params = {"depth": depth,
              "core": [st.encode(p) for p in st.sort_points(coreset)],
              "left": left.describe(), "right": right.describe()}
    unresolved = []
    for x in st.prefix(depth):
        ml, mr = left.membership(x), right.membership(x)
        if x in coreset:
            if not (ml.is_in and mr.is_in):
                return Certificate(
                    "disjointness", st.structure_id, params, "fail",
                    counterexample={"point": st.encode(x),
                                    "reason": "core point not in both"})
            continue
        if ml.is_in and mr.is_in:
            return Certificate(
                "disjointness", st.structure_id, params, "fail",
                counterexample={"point": st.encode(x),
                                "reason": "common point off the core"})
        if not (ml.is_out or mr.is_out):
            unresolved.append(st.encode(x))
    if unresolved:
        return Certificate("disjointness", st.structure_id, params,
                           "unknown", unresolved=tuple(unresolved))
    return Certificate("disjointness", st.structure_id, params, "pass")


def check_meet_irreducible_candidate(handle, x, depth, samples=6, seed=0):
    """Heuristic refutation search for maximality among copies avoiding x.

    Tries to build a copy strictly containing the decided window part of
    the handle and still excluding x; pass means "not refuted", never a
    proof."""
    from . import engine

    st = handle.structure
    if not handle.membership(x).is_out:
        raise PreconditionError("the avoided point must be decided out")
    params = {"depth": depth, "samples": samples, "point": st.encode(x),
              "copy": handle.describe()}
    base = frozenset(handle.decided_in(depth))
    extras = [z for z in st.prefix(depth)
              if z != x and z not in base
              and not handle.membership(z).is_in]
    for z in extras[:samples]:
        try:
            bigger = engine.copy_avoiding(st, base | {z}, {x}, seed=seed)
            bigger.advance(max(2 * depth, 12))
        except CopyPosetError:
            continue
        if all(bigger.membership(p).is_in for p in base | {z}) and \
                bigger.membership(x).is_out:
            return Certificate(
                "meet-irreducible", st.structure_id, params, "fail",
                counterexample={"added": st.encode(z),
                                "refuting": bigger.describe()})
    return Certificate("meet-irreducible", st.structure_id, params, "pass",
                       witnesses=("not refuted within %d samples" % samples,))
