"""Shared value types: finiteness answers, memberships, and the copy-handle
interface whose memberships they are."""

from __future__ import annotations

from .errors import PreconditionError, SearchBudgetError

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
    return FinitenessAnswer(INFINITE)


class Membership(Frozen):
    """Three-valued membership in a progressively constructed copy.

    In/Out answers are permanent across stages; an undecided point is
    UNKNOWN."""

    __slots__ = ("kind",)

    def __init__(self, kind):
        object.__setattr__(self, "kind", kind)

    @property
    def is_in(self):
        return self.kind == "in"

    @property
    def is_out(self):
        return self.kind == "out"

    @property
    def is_unknown(self):
        return self.kind == "unknown"

    def __repr__(self):
        return self.kind.capitalize()


IN = Membership("in")
OUT = Membership("out")
UNKNOWN = Membership("unknown")


class CopyHandle:
    """Base interface: staged, single-writer, monotone decisions.  A handle
    with total membership ignores claims."""

    def __init__(self, structure):
        self.structure = structure
        self._stage = 0

    @property
    def stage(self):
        return self._stage

    def membership(self, x):
        raise NotImplementedError

    def schedule_claims(self, points):
        """Queue window points to pull into the image."""

    def try_decide(self, y, budget=None):
        """Attempt to decide y; returns the possibly unknown membership."""
        return self.membership(y)

    def witness(self, ftup, x):
        """A proposed member of the copy in the typeset of x over the
        sockel listed in ``ftup``, or None.  Callers confirm a proposal
        before taking it; a proposal may read a typeset stream."""
        return None

    def advance(self, stages):
        if stages < 0:
            raise PreconditionError("stages must be >= 0")
        for _ in range(stages):
            self._round()
        return self

    def _round(self):
        self._stage += 1

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

    def decided_out(self, depth):
        return [x for x in self.structure.prefix(depth)
                if self.membership(x).is_out]

    def describe(self):
        return self.__class__.__name__


class IdentityCopy(CopyHandle):
    """The copy U itself; membership is total."""

    def membership(self, x):
        return IN

    def describe(self):
        return "identity"


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


class CofiniteCopy(CopyHandle):
    """U minus a finite ``avoid``; total membership.  Without algebraicity
    it keeps the extension property: the maximum copy avoiding ``avoid``."""

    def __init__(self, structure, avoid):
        super().__init__(structure)
        self.avoid = frozenset(avoid)

    def membership(self, x):
        return OUT if x in self.avoid else IN

    def witness(self, ftup, x):
        for y in self.structure.typeset_iter(frozenset(ftup), x):
            if y not in self.avoid:
                return y

    def describe(self):
        st = self.structure
        return "cofinite avoid={%s}" % ",".join(
            st.encode(a) for a in st.sort_points(self.avoid))
