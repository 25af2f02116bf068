"""The dense linear order (Q, <).

Canonical enumeration: 0 first, then rounds k = 1, 2, ... each emitting
k, -k, k - 1/2, -(k - 1/2) and one filler value from the signed
Stern-Brocot breadth-first stream (positives of a tree row in ascending
order, then their negatives), skipping anything already emitted.  The
rounds front-load every unit interval (s, s+1) so small windows carry
witnesses for them; the filler makes the enumeration onto Q.

``index_of`` inverts the enumeration in closed form.  A positive a/b with
continued fraction [a0; a1, ..., an] sits at the end of the Stern-Brocot
path R^a0 L^a1 R^a2 ... (last run one shorter), so its row is the path
length and its place in the ascending row is the path read in binary
(R = 1, L = 0); that fixes its place in the signed stream.  The filler
skips the integers and half-integers, which the rounds emit first: +-1 in
row 0 and, in each row j >= 1, +-(2j-1)/2 and +-(j+1) at the ends of the
two halves.  The one exception is 2, the filler of round 1.

Every point is a ``Rational``: a slotted ``Fraction`` subclass with one
extra slot that caches its hash.  The cached value is ``Fraction``'s own,
so sets of points iterate in the same order as sets of ``Fraction``s and
certificate bytes do not depend on the point type.  Two ``Rational``s
compare by integer arithmetic on their fields; any other operand (an
``int``, a plain ``Fraction``) takes ``Fraction``'s comparison, so points
stay equal to, hash like and order against both.  Arithmetic returns a
plain ``Fraction``, so code that derives a point by arithmetic wraps the
result in ``Rational``.

Closed-form copies are interval unions with total membership: the unions
indexed by sets of naturals (the powerset embedding, ``IntervalCopyDLO``)
and finite unions of intervals with open or closed ends
(``IntervalsCopyDLO``), which pinch a finite set from either side (the
disjoint pair).
"""

from fractions import Fraction

from ..core import IN, OUT, CopyHandle
from ..errors import (
    PreconditionError,
    SearchBudgetError,
    UnsupportedConstructionError,
)
from .base import _SCAN_CAP, Structure, decode_field


class Rational(Fraction):
    """A rational point: a ``Fraction`` that caches its hash and compares
    with another ``Rational`` by integer arithmetic.

    The fast paths read ``Fraction``'s private slots: the public
    ``numerator`` and ``denominator`` properties cost a call each, which
    is most of a comparison's time."""

    __slots__ = ("_hash",)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = Fraction.__hash__(self)
            return h

    def __eq__(self, other):
        if type(other) is Rational:
            return (self._numerator == other._numerator
                    and self._denominator == other._denominator)
        return Fraction.__eq__(self, other)

    def __lt__(self, other):
        if type(other) is Rational:
            return (self._numerator * other._denominator
                    < other._numerator * self._denominator)
        return Fraction.__lt__(self, other)

    def __gt__(self, other):
        if type(other) is Rational:
            return (self._numerator * other._denominator
                    > other._numerator * self._denominator)
        return Fraction.__gt__(self, other)

    def __le__(self, other):
        if type(other) is Rational:
            return (self._numerator * other._denominator
                    <= other._numerator * self._denominator)
        return Fraction.__le__(self, other)

    def __ge__(self, other):
        if type(other) is Rational:
            return (self._numerator * other._denominator
                    >= other._numerator * self._denominator)
        return Fraction.__ge__(self, other)

    def __repr__(self):
        return "Fraction(%s, %s)" % (self._numerator, self._denominator)


ZERO = Rational(0)


def _stern_brocot_rows():
    """Rows of the positive Stern-Brocot tree, each in ascending order."""
    row = [((0, 1), (1, 1), (1, 0))]  # (left bound, value, right bound)
    while True:
        yield [Rational(v[0], v[1]) for (_, v, _) in row]
        nxt = []
        for left, val, right in row:
            lmed = (left[0] + val[0], left[1] + val[1])
            rmed = (val[0] + right[0], val[1] + right[1])
            nxt.append((left, lmed, val))
            nxt.append((val, rmed, right))
        row = nxt


def _stern_brocot_place(a, b):
    """(row, position) of a/b > 0 in the positive Stern-Brocot tree, each
    row in ascending order: the path R^a0 L^a1 R^a2 ... read off the
    continued fraction [a0; a1, ..., an], its last run one shorter."""
    runs = []
    while b:
        q, (a, b) = a // b, (b, a % b)
        runs.append(q)
    runs[-1] -= 1
    row = sum(runs)
    if row > _SCAN_CAP:  # the position alone would have that many bits
        raise SearchBudgetError(
            "Stern-Brocot row %d is past the index cap %d" % (row, _SCAN_CAP))
    pos = 0
    for j, q in enumerate(runs):
        pos = ((pos + 1) << q) - 1 if j % 2 == 0 else pos << q
    return row, pos


def _signed_sb_stream():
    for row in _stern_brocot_rows():
        for v in row:
            yield v
        for v in row:
            yield Rational(-v.numerator, v.denominator)


def order_pattern(values):
    """For each entry, its rank among the distinct entries."""
    rank = {v: i for i, v in enumerate(sorted(set(values)))}
    return tuple([rank[v] for v in values])


class DLO(Structure):
    structure_id = "dlo"
    description = "rationals with the dense linear order"

    oligomorphic = True
    algebraically_finite = True
    stabilizer_orbits_all_infinite = True
    single_copy = False

    def _generate(self):
        emitted = {ZERO}
        yield ZERO
        filler = _signed_sb_stream()
        k = 1
        while True:
            for v in (Rational(k), Rational(-k), Rational(2 * k - 1, 2),
                      Rational(1 - 2 * k, 2)):
                if v not in emitted:
                    emitted.add(v)
                    yield v
            while True:
                v = next(filler)
                if v not in emitted:
                    emitted.add(v)
                    yield v
                    break
            k += 1

    def index_of(self, p):
        a, b = abs(p.numerator), p.denominator
        neg = p < 0
        if b <= 2:  # emitted by the rounds, 2 as the filler of round 1
            if a == 0:
                return 0
            k = (a + 1) // 2 if b == 2 else a
            return 5 * k - 5 + (k == 1) + 2 * (b == 2) + neg
        row, pos = _stern_brocot_place(a, b)
        s = (1 << (row + 1)) - 2 + pos + (neg << row)  # signed-stream place
        # the filler of round k >= 2 sits at 5k - 1, where k is s + 1 less
        # the 4 * row - 3 integers and half-integers skipped before this
        # row, and less two more in it when p is negative
        return 5 * (s - 4 * row + 4 - 2 * neg) - 1

    def encode(self, p):
        if p.denominator == 1:
            return str(p.numerator)
        return "%d/%d" % (p.numerator, p.denominator)

    def decode(self, s):
        try:
            return decode_field(s, s, "a rational p/q", Rational)
        except ZeroDivisionError:
            raise PreconditionError(
                "zero denominator in rational %r" % s) from None

    def type_key(self, ftup, x):
        # the position relative to every sockel point
        return tuple([x < a for a in ftup])

    def orbit_key(self, tup):
        return order_pattern(tup)

    def closed_form_disjoint_pair(self, fix):
        # interval unions pinching the fixed points from opposite sides;
        # total membership keeps every window obligation checkable
        pts = sorted(fix)
        if not pts:
            return (IntervalsCopyDLO(self, [(None, False, ZERO, False)]),
                    IntervalsCopyDLO(self, [(ZERO, False, None, False)]))
        gaps = [b - a for a, b in zip(pts, pts[1:])]
        delta = min(gaps + [Fraction(2)]) / 2
        left = [(Rational(a - delta), False, a, True) for a in pts]
        left.append((Rational(pts[-1] + delta), False, None, False))
        right = [(None, False, Rational(pts[0] - delta), False)]
        right.extend((a, True, Rational(a + delta), False) for a in pts)
        return IntervalsCopyDLO(self, left), IntervalsCopyDLO(self, right)


def powerset_embedding_dlo(structure, members=(), cofinite_complement=None):
    """The closed-form interval copy for a finite or cofinite set of
    naturals; total membership."""
    if not isinstance(structure, DLO):
        raise UnsupportedConstructionError(
            "the interval embedding is defined on the dense linear order")
    return IntervalCopyDLO(structure, members=members,
                           cofinite_complement=cofinite_complement)


def _naturals(entries):
    """The distinct entries in increasing order, as a tuple: the sets are
    small, and a frozenset of five to ten entries takes 728 bytes where
    the tuple takes at most 120, which counts for a program that keeps
    thousands of interval copies."""
    s = tuple(sorted({int(e) for e in entries}))
    if s and s[0] < 0:
        raise PreconditionError(
            "interval copies are indexed by naturals, got %d" % s[0])
    return s


class IntervalCopyDLO(CopyHandle):
    """A closed-form rational copy: the interval union
    ((-1,0) plus (s,s+1) for s in S) for a finite or cofinite S of naturals.

    Membership is total; integers are never members.  Distinct sets give
    distinct copies only on the naturals, so a negative entry is refused."""

    def __init__(self, structure, members=(), cofinite_complement=None):
        super().__init__(structure)
        if cofinite_complement is None:
            self.finite_part = _naturals(members)
            self.cofinite = None
        else:
            self.finite_part = None
            self.cofinite = _naturals(cofinite_complement)

    def membership(self, x):
        if type(x) is Rational:  # the slots, as in Rational.__lt__
            n, d = x._numerator, x._denominator
        else:
            n, d = x.numerator, x.denominator
        if n < 0:
            return IN if -d < n else OUT
        if d == 1:
            return OUT
        if self.cofinite is not None:
            return OUT if n // d in self.cofinite else IN
        return IN if n // d in self.finite_part else OUT

    def describe(self):
        if self.cofinite is not None:
            return "interval-copy S=co{%s}" % ",".join(
                str(s) for s in self.cofinite)
        return "interval-copy S={%s}" % ",".join(
            str(s) for s in self.finite_part)


class IntervalsCopyDLO(CopyHandle):
    """A closed-form rational copy: a finite union of intervals, each piece
    ``(lo, lo_closed, hi, hi_closed)`` with None for an unbounded end."""

    def __init__(self, structure, pieces):
        super().__init__(structure)
        self.pieces = tuple(pieces)

    def membership(self, x):
        for lo, lo_closed, hi, hi_closed in self.pieces:
            if (lo is None or (x >= lo if lo_closed else x > lo)) and \
                    (hi is None or (x <= hi if hi_closed else x < hi)):
                return IN
        return OUT

    def describe(self):
        enc = self.structure.encode
        return "dlo intervals " + " ".join(
            "%s%s,%s%s" % ("[" if lo_closed else "(",
                           "-inf" if lo is None else enc(lo),
                           "+inf" if hi is None else enc(hi),
                           "]" if hi_closed else ")")
            for lo, lo_closed, hi, hi_closed in self.pieces)
