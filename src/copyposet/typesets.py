"""Types over a finite sockel, continuations, bounded rank, orbit profiles.

The rank search realizes the ordinal recursion at desk scale: candidate
sockel extensions come from a finite window, continuation representatives
from a strictly larger probe window (so a candidate extension cannot look
good merely because the window hides the continuations it fails on), and
"unranked" is only ever concluded from a structure-supplied certificate,
never from search failure.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations
from math import comb, factorial

from . import core
from .core import Frozen
from .errors import PreconditionError

AT_MOST = "at_most"
NOT_WITHIN = "not_within"
UNRANKED = "unranked"

DEFAULT_SOCKEL_EXTENSION_CAP = 6


class TypeHandle(Frozen):
    """A type: finite sockel plus a representative point outside it."""

    __slots__ = ("structure_id", "sockel", "rep")

    def __init__(self, structure_id, sockel, rep):
        object.__setattr__(self, "structure_id", structure_id)
        object.__setattr__(self, "sockel", sockel)
        object.__setattr__(self, "rep", rep)

    def sockel_of(self, structure):
        """The sockel as a set, for the structure the type was made on."""
        if structure.structure_id != self.structure_id:
            raise PreconditionError("a %s type asked of %s" % (
                self.structure_id, structure.structure_id))
        return frozenset(self.sockel)


def make_type(structure, sockel, rep):
    sockel = frozenset(sockel)
    if rep in sockel:
        raise PreconditionError("representative lies in the sockel")
    return TypeHandle(structure.structure_id,
                      tuple(structure.sort_points(sockel)), rep)


class RankAnswer(Frozen):
    """Outcome of a bounded rank computation.

    at_most: ``bound`` is an upper bound for the rank, with a witness chain
    of sockel extensions down to rank-0 finiteness certificates.
    not_within: exhaustive search over window-bounded extensions failed; not
    evidence of a rank lower bound.
    unranked: certified by the structure's property-(p) witness method."""

    __slots__ = ("kind", "bound", "window", "certified", "witness")
    _uncompared = ("witness",)

    def __init__(self, kind, bound=-1, window=0, certified=False,
                 witness=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "certified", certified)
        object.__setattr__(self, "witness", {} if witness is None
                           else witness)

    @property
    def is_at_most(self):
        return self.kind == AT_MOST


def typeset_members(structure, t, n):
    """The first n members of the typeset of t, in enumeration order, as a
    fresh list; n is an int >= 0.  The read is one lookup of the rep's
    class on the type-class table of t's sockel
    (``core.TypeClasses.first_members``), keyed by the type's own listing,
    which ``make_type`` puts in enumeration order: a warm read keys only
    the rep and slices the class's kept members."""
    if not isinstance(n, int) or n < 0:
        raise PreconditionError("n must be an int >= 0")
    structure.check_same_type_pre(t.sockel_of(structure), t.rep, t.rep)
    return core.type_classes(structure, t.sockel).first_members(t.rep, n)


def continuation_partition(structure, t, ext_sockel, depth):
    """Representatives of the distinct continuations of t with the given
    larger sockel, drawn from the typeset members within U_depth.

    Members of the typeset that lie in the extended sockel itself have
    degenerate singleton continuations and carry no representative."""
    ext = frozenset(ext_sockel)
    if not t.sockel_of(structure) <= ext:
        raise PreconditionError("extended sockel must contain the sockel")
    members = core.type_classes(structure, t.sockel).among(
        structure.type_key(t.sockel, t.rep), structure.prefix(depth))
    pool = [q for q in members if q not in ext]
    return [make_type(structure, ext, rep)
            for _, rep in _class_reps(structure, tuple(ext), pool)]


def _class_reps(structure, ftup, pool):
    """Stream (type key, enum-least representative) for each typeset class
    over the sockel listed in ``ftup`` met in ``pool``, a list of points
    outside the sockel in enumeration order; stopping early skips the rest
    of the pool."""
    seen = set()
    for p in pool:
        key = structure.type_key(ftup, p)
        if key not in seen:
            seen.add(key)
            yield key, p


class _RankSearch:
    """Sockels travel as tuples in enumeration order, and a class is named
    by its type key over that listing.  A class's members in the probe
    window are read from the sockel's shared type-class table
    (``core.type_classes``), so a later search on the structure keys no
    probe point again.

    An answer is a function of (sockel listing, rep, k), the memo's key,
    so it is what a fresh search gives, whatever was asked before.  A
    sub-search passes each continuation class's enum-least member in the
    probe window (``_class_reps``), so the searches that meet a class
    share its answer."""

    def __init__(self, structure, window):
        self.structure = structure
        self.window = window
        self.probe = max(2 * window, window + 8)
        self._memo = {}
        self._index = {}

    def _index_of(self, p):
        i = self._index.get(p)
        if i is None:
            i = self._index[p] = self.structure.index_of(p)
        return i

    def _listed(self, pts):
        return tuple(sorted(pts, key=self._index_of))

    def bound(self, sockel, rep, k):
        """The answer for rep's type over ``sockel``."""
        ftup = self._listed(frozenset(sockel))
        return self._bound(ftup, self.structure.type_key(ftup, rep), rep, k)

    def _bound(self, ftup, key, rep, k):
        """The memoized answer for rep, whose type key over ftup is key."""
        memo_key = (ftup, rep, k)
        answer = self._memo.get(memo_key)
        if answer is None:
            answer = self._leaf(ftup, rep, k)
            if answer is None:
                answer = self._search(ftup, key, rep, k)
            self._memo[memo_key] = answer
        return answer

    def _leaf(self, ftup, rep, k):
        """The answer that needs no search: rank 0 for a finite typeset,
        certified unranked, or not within k = 0; None otherwise."""
        st = self.structure
        sockel = frozenset(ftup)
        fin = st.typeset_finite(sockel, rep)
        if fin.is_finite:
            return RankAnswer(
                AT_MOST, bound=0, window=self.window, certified=True,
                witness={"leaf": [st.encode(m) for m in fin.members]})
        status = st.type_unranked(sockel, rep)
        if status is True:
            return RankAnswer(UNRANKED, window=self.window, certified=True)
        if k <= 0:
            return RankAnswer(NOT_WITHIN, bound=k, window=self.window)
        return None

    def _search(self, ftup, key, rep, k):
        st = self.structure
        sockel = frozenset(ftup)
        # candidate extensions come from the window plus the representative
        # itself (the F' = F + {p} pattern; its block may lie past the
        # window).  The rep-pinning extension goes first: it is the move the
        # recursion bottoms out on and it keeps the reported bounds tight.
        cand = set(st.prefix(self.window)) | {rep}
        window_pts = [p for p in self._listed(cand) if p not in sockel]
        candidates = chain([(rep,)], (
            added for size in range(1, DEFAULT_SOCKEL_EXTENSION_CAP + 1)
            for added in combinations(window_pts, size) if added != (rep,)))
        # the probe-window typeset is read once per call; each candidate
        # streams its continuation classes only up to the first failing one
        members = core.type_classes(st, ftup).among(key, st.prefix(self.probe))
        # Refute first at k = 1: a continuation has rank 0 exactly when its
        # typeset is finite, a property of its class.  The point that
        # refuted the last candidate is a member here; if it lies off the
        # next extension with an infinite typeset over it, its class fails
        # the full scan below as well, so one finiteness test rejects the
        # candidate with the same outcome.
        killer = None
        for added in candidates:
            ext = sockel.union(added)
            if k == 1 and killer is not None and killer not in ext \
                    and not st.typeset_finite(ext, killer).is_finite:
                continue
            etup = self._listed(ftup + added)
            reps = _class_reps(st, etup, [q for q in members if q not in ext])
            subs = []
            for key, crep in reps:
                sub = self._bound(etup, key, crep, k - 1)
                if not sub.is_at_most:
                    killer = crep
                    subs = None
                    break
                subs.append((crep, sub))
            if subs is None:
                continue
            bound = 1 + max((s.bound for _, s in subs), default=0)
            witness = {
                "extension": [st.encode(p) for p in etup],
                "continuations": [
                    {"rep": st.encode(r), "answer": s.witness,
                     "bound": s.bound}
                    for r, s in subs],
            }
            return RankAnswer(AT_MOST, bound=bound, window=self.window,
                              certified=True, witness=witness)
        return RankAnswer(NOT_WITHIN, bound=k, window=self.window)


def rank_at_most(structure, t, k, window):
    """Bounded rank of a type: AtMost with a witness chain, NotWithin after
    exhaustive window search, or certified Unranked."""
    if k < 0 or window < len(t.sockel):
        raise PreconditionError("need k >= 0 and window >= |sockel|")
    search = rank_search(structure, window)
    return search.bound(t.sockel_of(structure), t.rep, k)


@lru_cache(maxsize=32)
def rank_search(structure, window):
    """The rank engine of one (structure, window), shared by every caller;
    its memo is keyed by (sockel listing, rep, k), so a repeated query is
    searched once.  Answers are shared: read a witness, never change it."""
    return _RankSearch(structure, window)


def _stirling2(n, m):
    """The number of partitions of n labelled positions into m blocks."""
    return sum((-1) ** j * comb(m, j) * (m - j) ** n
               for j in range(m + 1)) // factorial(m)


def oligomorphic_profile(structure, n, window):
    """Number of orbit classes of n-tuples with entries in U_window.

    An n-tuple is its equality pattern, a partition of its n positions
    into m blocks, plus the injective m-tuple of its distinct entries in
    order of first occurrence; every g keeps the pattern and moves the
    m-tuple.  So two n-tuples share an orbit iff they share the pattern
    and their m-tuples share an orbit, and the count is the sum over m of
    S(n, m), the Stirling number of the second kind, times the number of
    orbit classes of injective m-tuples.  Those are read from the
    structure's orbit census for arity m (``core.orbit_census``), which
    counts them from the orbits on m-sets and grows with the window, so a
    repeated profile keys nothing and a wider one keys only the subsets
    that meet the new points.

    Stabilizes as the window grows exactly for the oligomorphic built-ins."""
    if not 1 <= n <= 4:
        raise PreconditionError("profile arity is limited to 1..4")
    if window < n:
        raise PreconditionError("window must be >= n")
    return sum(_stirling2(n, m) * core.orbit_census(structure, m).count(window)
               for m in range(1, n + 1))
