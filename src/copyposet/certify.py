"""Bounded verification and the independent ground-truth oracle.

check_copy drives the membership characterization at a finite window: every
small sockel inside the copy, paired with every window point, must have an
orbit witness landing in the copy.  Verdicts are three-valued; unknown
carries the unresolved obligations instead of silently passing.  A
typeset depends on the structure, the sockel and the point, never on the
copy, so each sockel's type classes are a table in the structure's memo
(``core.TypeClasses``) that every check on the structure shares, and that
``bernstein_base``, the default typeset stream and the rank search read
too; an obligation asks only the members of its class.  The enumeration
points, their encodings and the window sockels are kept in the memo too.

brute_same_type and brute_extendable re-derive orbit equality from each
structure's raw data (order comparisons, adjacency bits, class labels,
differences, meets, support permutations) without touching the structures'
orbit keys or decision procedures: they read the raw point encodings and
import no structure module.  The differential tests pit the two against
each other.  Each raw oracle decides whether a list of (source,
target) pairs extends to some g in G.  For pairs it searches the injections
of the source support that send each source pair's elements into its
target; such an injection extends to a permutation of the whole support.
Each ground window's memo entry holds the window and the structure's raw
oracle, so a call reads both with one lookup.
"""

from __future__ import annotations

from itertools import combinations
from json.encoder import encode_basestring_ascii as _quote

from . import core
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


class _Prefix:
    """A structure's enumeration as far as any check has read it, kept in
    its memo: each point and its quoted encoding read once, and each window
    sockel's listing and quoted list made once.  Keyed by index: a dict
    keyed by dlo points would pay for the hash that Rational(-1) and
    Rational(-2) share on every lookup of -2."""

    __slots__ = ("structure", "points", "quotes", "sockels")

    def __init__(self, structure):
        self.structure = structure
        self.points = []
        self.quotes = {}  # index -> quoted encoding
        self.sockels = {}  # tuple of indices -> (listing, quoted list)

    def point(self, i):
        points = self.points
        while len(points) <= i:
            points.append(self.structure.point_at(len(points)))
        return points[i]

    def quoted(self, i):
        q = self.quotes.get(i)
        if q is None:
            q = self.quotes[i] = _quote(self.structure.encode(self.point(i)))
        return q

    def sockel(self, idx):
        s = self.sockels[idx] = (
            tuple([self.point(i) for i in idx]),
            "[%s]" % ", ".join([self.quoted(i) for i in idx]))
        return s


class _Check:
    """What one check_copy call reads: each point's membership at most
    once, asked by its enumeration index."""

    __slots__ = ("handle", "budget", "prefix", "asked")

    def __init__(self, handle, budget, prefix):
        self.handle = handle
        self.budget = budget
        self.prefix = prefix
        self.asked = {}  # index -> membership

    def membership(self, i):
        m = self.asked.get(i)
        if m is None:
            m = self.asked[i] = self.handle.membership(self.prefix.point(i))
        return m

    def settle(self, table, c, x):
        """Settle <F |> x> against the copy, for the sockel F of ``table``
        and x's class ``c`` over it: returns (quoted witness, None), or
        (None, counterexample fields) when the typeset provably misses the
        copy, or (None, None) when unknown memberships leave it open.  The
        members of the class among the first ``budget`` points are asked
        in enumeration order.  When none is inside the copy and the
        typeset is infinite, the handle's own proposal is taken once it
        is confirmed a member of the typeset inside the copy."""
        budget, asked, ids = self.budget, self.asked, table.ids
        prefix = self.prefix
        unknown = False
        j = 0
        while True:
            try:
                j = ids.index(c, j, budget)
            except ValueError:
                # no member in [j, len(ids)): read on
                j = table.grow_to(c, budget, prefix.point)
                if j is None:
                    break
            m = asked.get(j) or self.membership(j)
            if m.is_in:
                return prefix.quoted(j), None
            unknown = unknown or m.is_unknown
            j += 1
        handle = self.handle
        st, ftup = handle.structure, table.ftup
        fin = st.typeset_finite(frozenset(ftup), x)
        if fin.is_finite:
            # the whole typeset is known: consult it directly
            members = st.sort_points(fin.members)
            member_unknown = False
            for y in members:
                m = handle.membership(y)
                if m.is_in:
                    return _quote(st.encode(y)), None
                member_unknown = member_unknown or m.is_unknown
            if member_unknown:
                return None, None
            return None, {"typeset": [st.encode(y) for y in members]}
        w = handle.witness(ftup, x)
        # x's key is in the table as class c, so w is of x's type exactly
        # when its key maps to c
        if w is not None and w not in ftup \
                and table.keys.get(st.type_key(ftup, w)) == c \
                and handle.membership(w).is_in:
            return _quote(st.encode(w)), None
        if unknown:
            return None, None
        # every scanned typeset member is decided out
        return None, {"scanned": budget}


def check_copy(handle, depth, sockel_cap=2, budget=500):
    """Certificate for the copy characterization on a window.

    For every sockel F inside the decided part of the copy (|F| bounded)
    and every window point x, searches the typeset of <F |> x> among the
    first ``budget`` enumeration points, in enumeration order, for a
    member decided inside the copy.  fail carries the first (F, x) whose
    typeset provably misses the copy; obligations blocked by unknown
    memberships make the verdict unknown.

    The typeset of x over F is x's orbit under the stabilizer of F, so it
    depends on the structure, F and x, never on the copy.  Each sockel's
    type classes are a table kept across calls in the structure's memo
    (``core.TypeClasses``, shared with ``engine.bernstein_base``, the
    default typeset stream and the rank search): the class of each
    enumeration index, computed with one type key per index the first
    time any caller reads that far.  An obligation asks only the members
    of x's class, and each class is settled once per sockel: a later
    point of the class reuses the outcome of the first.  Each enumeration
    point is read once per structure instance, into the prefix in its
    memo (``_Prefix``), and within one call each point's membership is
    asked at most once (``_Check``).  When no scanned member of an
    infinite typeset is inside the copy, the handle's ``witness`` proposal
    is consulted and taken only once confirmed.

    Records are the canonical JSON of json.dumps(..., sort_keys=True),
    assembled from fragments encoded once each: per structure instance an
    enumeration point's quoted encoding and a window sockel's list, and
    per call a witness per typeset class."""
    if sockel_cap < 0 or budget < 1:
        raise PreconditionError("need sockel_cap >= 0 and budget >= 1")
    st = handle.structure
    prefix = st.memo[_Prefix,]
    sockels = prefix.sockels
    check = _Check(handle, budget, prefix)
    inside, rest = [], []
    for i in range(depth):
        if check.membership(i).is_in:
            inside.append(i)
        else:
            # a point inside the copy is its own witness (g = identity)
            rest.append((i, prefix.points[i], prefix.quoted(i)))
    unresolved = []
    witnesses = []  # only the first _WITNESSES_KEPT are emitted
    params = {"depth": depth, "sockel_cap": sockel_cap, "budget": budget,
              "copy": handle.describe()}
    for size in range(0, sockel_cap + 1):
        for fidx in combinations(inside, size):
            ftup, sockel = sockels.get(fidx) or prefix.sockel(fidx)
            table = st.memo[core.TypeClasses, ftup]
            ids = table.ids
            searched = {}  # class id -> quoted witness, per class met
            for i, x, qx in rest:
                while len(ids) <= i:
                    table.grow(prefix.point)
                c = ids[i]
                if c in searched:
                    found = searched[c]
                else:
                    found, counterexample = check.settle(table, c, x)
                    if counterexample is not None:
                        return Certificate(
                            "copy-check", st.structure_id, params, "fail",
                            counterexample={
                                "sockel": [st.encode(p) for p in ftup],
                                "point": st.encode(x),
                                **counterexample})
                    searched[c] = found
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
    # every two pairs agree in order both ways
    for i, (s1, t1) in enumerate(pairs):
        for s2, t2 in pairs[i + 1:]:
            if (s1 < s2) != (t1 < t2) or (s2 < s1) != (t2 < t1):
                return False
    return True


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
    return _inject(sorted(dom.values(), key=len), 0, set())


def _inject(doms, k, used):
    # whether doms[k:] take distinct values, each in its domain, none used
    if k == len(doms):
        return True
    for v in doms[k]:
        if v not in used:
            used.add(v)
            if _inject(doms, k + 1, used):
                return True
            used.discard(v)
    return False


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


def _window(structure, ground_depth):
    # a ground window's memo entry: the window and the structure's raw oracle
    return frozenset(structure.prefix(ground_depth)), _raw_oracle(structure)


def _raw_oracle(structure):
    # a structure with none is refused only when an answer needs the oracle
    oracle = _BRUTE.get(structure.structure_id)
    if oracle is None:
        def oracle(pairs):
            raise PreconditionError(
                "no raw oracle for %s" % structure.structure_id)
    return oracle


def brute_same_type(structure, sockel, x, y, ground_depth):
    """Ground-truth orbit equality from raw relational data, independent of
    the structure's orbit key and decision procedure."""
    fset = frozenset(sockel)
    window, oracle = structure.memo[_window, ground_depth]
    if not fset <= window or x not in window or y not in window:
        raise PreconditionError("inputs must lie inside the ground window")
    if x in fset or y in fset:
        raise PreconditionError("representative lies in the sockel")
    if x == y:
        return True
    return oracle([(x, y), *zip(fset, fset)])


def brute_extendable(structure, pm, ground_depth):
    """Ground-truth extendability of the finite partial map ``pm`` from raw
    relational data, independent of the structure's orbit key.  A map that
    is not injective extends to no permutation."""
    window, oracle = structure.memo[_window, ground_depth]
    if not all(s in window and t in window for s, t in pm.items()):
        raise PreconditionError("inputs must lie inside the ground window")
    if len(set(pm.values())) != len(pm):
        return False
    return oracle(list(pm.items()))


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
    the handle and still excluding x; pass means "not refuted".  On the
    copy ``max_avoiding_copy`` builds for x alone a pass is a proof, since
    no copy avoiding x strictly contains that copy: U minus {x} where
    every stabilizer orbit off a finite set is infinite, U minus x's block
    on zetaeta, U minus x's up-set on treetz, and [N minus {min x}]^2 on
    pairs, whose copies [S]^2 avoid x only when S misses an element of
    x."""
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
            engine.decide_window(bigger, depth, max(2 * depth, 12))
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
