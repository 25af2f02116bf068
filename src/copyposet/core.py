"""Shared value types: finiteness answers, memberships, and the copy-handle
interface whose memberships they are, with the cut copy (the identity is
the cut copy with no roots); and the per-structure tables its callers
share: the type classes over a sockel, and the orbit census on m-tuples."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, islice, permutations

from .errors import SearchBudgetError

_WITNESS_SCAN_CAP = 5000


class Frozen:
    """Base of the immutable value types.

    A subclass names its fields in ``__slots__`` and sets each once in its
    ``__init__`` through ``object.__setattr__``.  Equality and hashing read
    the fields not listed in ``_uncompared``; the repr shows them all."""

    __slots__ = ()
    _uncompared = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def _key(self):
        return tuple(getattr(self, f) for f in self.__slots__
                     if f not in self._uncompared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self.__slots__))


FINITE = "finite"
INFINITE = "infinite"


class FinitenessAnswer(Frozen):
    """Answer to "is this typeset finite?".

    ``members`` lists the entire typeset when kind == "finite".  For
    "infinite" the witness stream is ``Structure.typeset_iter``."""

    __slots__ = ("kind", "members")

    def __init__(self, kind, members=()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "members", members)

    @property
    def is_finite(self):
        return self.kind == FINITE


def finite_answer(members):
    return FinitenessAnswer(FINITE, tuple(members))


def infinite_answer():
    return _INFINITE_ANSWER


_INFINITE_ANSWER = FinitenessAnswer(INFINITE)


class Membership(Frozen):
    """Three-valued membership in a progressively constructed copy.

    In/Out answers are permanent across stages; an undecided point is
    UNKNOWN."""

    __slots__ = ("kind", "is_in", "is_out", "is_unknown")
    _uncompared = ("is_in", "is_out", "is_unknown")  # follow from kind

    def __init__(self, kind):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "is_in", kind == "in")
        object.__setattr__(self, "is_out", kind == "out")
        object.__setattr__(self, "is_unknown", kind == "unknown")

    def __repr__(self):
        return self.kind.capitalize()


IN = Membership("in")
OUT = Membership("out")
UNKNOWN = Membership("unknown")


class CopyHandle:
    """Base interface of a copy.  Only ``engine.BackForthCopy`` stages: any
    other handle is a plain value whose memberships never change."""

    def __init__(self, structure):
        self.structure = structure

    def membership(self, x):
        raise NotImplementedError

    def try_decide(self, y, budget=None):
        """Attempt to decide y; returns the possibly unknown membership."""
        return self.membership(y)

    def witness(self, ftup, x):
        """A proposed member of the copy in the typeset of x over the
        sockel listed in ``ftup``, or None.  Callers confirm a proposal
        before taking it; a proposal may read a typeset stream."""
        return None

    def unranked_member(self, fix):
        """The enum-least point off ``fix`` with a certified-unranked type
        over ``fix`` that this copy decides in: avoiding it makes a copy
        through ``fix`` inside this one proper."""
        st = self.structure
        for i in range(_WITNESS_SCAN_CAP):
            x = st.point_at(i)
            if x not in fix and st.type_unranked(fix, x) is True \
                    and self.try_decide(x).is_in:
                return x
        raise SearchBudgetError("no properness witness found",
                                scanned=_WITNESS_SCAN_CAP)

    def decided_in(self, depth):
        return [x for x in self.structure.prefix(depth)
                if self.membership(x).is_in]

    def describe(self):
        return self.__class__.__name__


class RuleCopy(CopyHandle):
    """A closed-form copy: the fixed set together with every point a
    membership rule admits; total membership."""

    def __init__(self, structure, fix, rule, label):
        super().__init__(structure)
        self.fix = frozenset(fix)
        self.rule = rule
        self.label = label

    def membership(self, x):
        return IN if x in self.fix or self.rule(x) else OUT

    def describe(self):
        st = self.structure
        return "%s fix={%s}" % (self.label, ",".join(
            st.encode(a) for a in st.sort_points(self.fix)))


class CutCopy(CopyHandle):
    """The ``parent`` copy, U when None, minus the cuts of finitely many
    ``roots``; with no roots, the identity.  The structure says what a root
    cuts (``Structure.cuts``) and how the cut reads (``describe_cut``, then
    `` inside <parent>``).  By default a root cuts itself: without
    algebraicity a copy minus a finite set is a copy, and U minus the roots
    is the maximum copy avoiding them."""

    def __init__(self, structure, roots, parent=None):
        super().__init__(structure)
        if isinstance(parent, CutCopy):  # one cut over the parent's parent
            roots, parent = parent.roots.union(roots), parent.parent
        self.roots = frozenset(roots)
        self.parent = parent

    def membership(self, x):
        if self.structure.cuts(self.roots, x):
            return OUT
        return IN if self.parent is None else self.parent.membership(x)

    def witness(self, ftup, x):
        stream = self.structure.typeset_iter(frozenset(ftup), x)
        for y in islice(stream, _WITNESS_SCAN_CAP):
            if self.membership(y).is_in:
                return y

    def describe(self):
        if not self.roots:
            return "identity"
        cut = self.structure.describe_cut(self.roots)
        if self.parent is None:
            return cut
        return "%s inside %s" % (cut, self.parent.describe())


class TypeClasses:
    """The type classes over one listed sockel ``ftup``, shared by every
    caller on the structure: ``check_copy``, ``bernstein_base``, the
    typeset reads (``first_members``), the default
    ``Structure.typeset_iter`` stream, and the rank search's probe
    typesets and ``continuation_partition``.  ``ids[i]`` is the class of
    enumeration index i, or -1 for a point of the sockel.  Classes are
    numbered in the order the enumeration meets them, so no id depends on
    hashing or on the listing, and each class's first index is its rep:
    ``firsts[c]``, an increasing list, so the classes met below index n
    are ``range(bisect_left(firsts, n))``.  The table grows one type key
    per index, and only as far as a caller reads it.  ``drawn`` maps a
    class asked for by ``members`` or ``first_members`` to the members of
    its typeset read so far, a plain list that the Bernstein bases and the
    typeset reads read in place: a class's typeset is the orbit of its rep
    under the stabilizer of the sockel, so it depends on nothing but the
    structure and the sockel."""

    __slots__ = ("structure", "ftup", "ids", "keys", "firsts", "drawn")

    def __init__(self, structure, ftup):
        self.structure = structure
        self.ftup = ftup
        self.ids = []
        self.keys = {}  # type key -> class id
        self.firsts = []  # class id -> its first index
        self.drawn = {}  # class id -> typeset members read so far

    def grow(self, point):
        """Class the next index; ``point`` reads a point by its index."""
        ids = self.ids
        y = point(len(ids))
        if y in self.ftup:
            c = -1
        else:
            keys = self.keys
            key = self.structure.type_key(self.ftup, y)
            c = keys.get(key)
            if c is None:
                c = keys[key] = len(keys)
                self.firsts.append(len(ids))
        ids.append(c)
        return c

    def grow_to(self, c, budget, point):
        """Grow the table to its next index of class c below ``budget``;
        returns that index, or None when the table reaches ``budget``
        first."""
        ids = self.ids
        while len(ids) < budget:
            if self.grow(point) == c:
                return len(ids) - 1
        return None

    def find(self, key, budget, point):
        """The class whose type key over ``ftup`` is ``key``, growing the
        table below ``budget`` until it meets the class; None when it
        reaches ``budget`` first."""
        keys = self.keys
        c = keys.get(key)
        while c is None and len(self.ids) < budget:
            self.grow(point)
            c = keys.get(key)
        return c

    def indices(self, c, budget, point):
        """Stream the indices of class c below ``budget``, in order: those
        in the table, then those it grows to past what any caller read."""
        ids = self.ids
        j = 0
        while True:
            try:
                j = ids.index(c, j, budget)
            except ValueError:
                # no index of c in [j, len(ids)): read on
                j = self.grow_to(c, budget, point)
                if j is None:
                    return
            yield j
            j += 1

    def among(self, key, points):
        """The members of the class whose type key is ``key`` among
        ``points``, the first len(points) enumeration points, in order."""
        ids = self.ids
        while len(ids) < len(points):
            self.grow(points.__getitem__)
        c = self.keys.get(key)
        return [y for y, d in zip(points, ids) if d == c]

    def first_members(self, x, n):
        """The first n members of x's typeset, in enumeration order, as a
        fresh list; n is an int >= 0.  The read keys x: when the table
        has met x's class, it is a slice of the class's kept members if
        there are n of them, else ``members`` reopened past them.  Before
        it has, the read is the plain ``typeset_iter`` stream, which grows
        the table no further than the stream itself does; when the stream
        has met x's class (the default stream does), what it read is kept
        as the class's first members, so a second read keys only x."""
        keys = self.keys
        key = self.structure.type_key(self.ftup, x)
        c = keys.get(key)
        if c is None:
            stream = self.structure.typeset_iter(frozenset(self.ftup), x)
            got = list(islice(stream, n))
            c = keys.get(key)
            if c is not None:
                self.drawn.setdefault(c, got[:])
            return got
        kept = self.drawn.get(c)
        if kept is not None and len(kept) >= n:
            return kept[:n]
        return list(islice(self.members(c, x), n))

    def members(self, c, rep):
        """The members of class c's typeset, ``rep`` one of them, in
        enumeration order: those read before, then those of a
        ``typeset_iter`` stream reopened past them, each kept once it is
        read.  An error the stream raises is raised again by every later
        read that gets as far."""
        drawn = self.drawn.setdefault(c, [])
        yield from drawn
        stream = self.structure.typeset_iter(frozenset(self.ftup), rep)
        for m in islice(stream, len(drawn), None):
            drawn.append(m)
            yield m


# one copy-certify round of the benchmark touches 432 tables, 3 of them
# read by the rank searches of its closures; one orbit-scan round touches
# 277: 274 for its Bernstein bases (106 on rado at depth 14, 56 on each of
# dlo, equiv and pureset at depth 10), whose dlo and rado tables its
# typeset reads read too, and 3 for its rank searches.  A rank search
# keeps its answers in the search shared per (structure, window)
# (``typesets.rank_search``), so a warm round's rank queries read no
# table: a warm orbit-scan round reads 274 tables in 340 lookups (one per
# typeset read), and a warm copy-certify round reads 429
type_classes = lru_cache(maxsize=512)(TypeClasses)


class OrbitCensus:
    """The orbits of G on injective m-tuples met in the windows U_w of one
    structure.  ``counts[w]`` is the number met in U_w, and ``keys`` holds
    the orbit keys met so far.  The census grows one point at a time: for
    a new last point u_j it walks the (m-1)-subsets of U_j in
    ``combinations`` order, each with u_j appended, so every subset of U_w
    comes before any other.  Only a subset whose listed key is new has its
    m! orderings keyed: a subset with a known key is g.(s.A) for an
    ordering s of a subset A keyed before, so each of its orderings t is
    g.((t s).A), already keyed (F*_m <= m! f_m, Cameron, Oligomorphic
    Permutation Groups).  This needs only that ``orbit_key`` is a complete
    orbit invariant."""

    __slots__ = ("structure", "m", "keys", "counts")

    def __init__(self, structure, m):
        self.structure = structure
        self.m = m
        self.keys = set()
        self.counts = [0]

    def count(self, w):
        """The number of orbits on injective m-tuples from U_w."""
        counts = self.counts
        if w >= len(counts):
            st, keys = self.structure, self.keys
            orbit_key = st.orbit_key
            pts = st.prefix(w)
            for j in range(len(counts) - 1, w):
                last = (pts[j],)
                for sub in combinations(pts[:j], self.m - 1):
                    sub += last
                    if orbit_key(sub) not in keys:
                        keys.update(map(orbit_key, permutations(sub)))
                counts.append(len(keys))
        return counts[w]


# one census per (structure, arity): the profiles of arity up to 4 on the
# nine built-ins need 36, so none of them is evicted (an orbit-scan round
# of the benchmark reads 20)
orbit_census = lru_cache(maxsize=64)(OrbitCensus)
