"""The Rado graph on N presented by the BIT predicate.

BIT adjacency positions are vertex values, so scan-budgeted witness search
wedges on this presentation.  Copies therefore come as closed-form handles
realizing the same objects: tagged bit-classes for avoiding copies and
chains, and a residue split for the disjoint pair over nothing.
"""

from ..core import IN, OUT, CopyHandle, IdentityCopy
from ..errors import PreconditionError, SearchBudgetError
from .base import (_SCAN_CAP, Structure, _decimal, _from_decimal,
                   equality_pattern)


def adjacent(i, j):
    """i ~ j iff, with i < j, bit i of j is set."""
    if i == j:
        return False
    if i > j:
        i, j = j, i
    return (j >> i) & 1 == 1


_LADDER_BASE = 300  # above every small-scan witness, so bit bands stay apart


def _pattern_witnesses(pattern):
    """Vertices realizing a BIT-adjacency pattern to the given vertices:
    small ones by scanning, then "ladder" constructions.

    The enum-least witness for a pattern over a vertex near 2^k sits near
    2^(2^k), far past any scan budget, so beyond the small scan witnesses
    are built at reserved bit positions: a ladder witness has its top bit at
    a fresh position >= _LADDER_BASE, carries one ladder bit per required
    big neighbour and one low bit per required small neighbour.  All the
    adjacencies a construction will ever query are then decided by bits at
    positions that grow by one per witness, keeping values polynomial in
    length."""
    for y in range(256):
        if all(adjacent(y, t) == adj for t, adj in pattern):
            yield y
    bits = 0
    top = _LADDER_BASE
    big = []
    for t, adj in pattern:
        if t >= 256:
            big.append(t)
        if t >= (1 << _LADDER_BASE):
            a = t.bit_length() - 1
            top = max(top, a + 1)
            if adj:
                bits += 1 << a
        elif adj:
            bits += 1 << t
    # from-below witnesses: set-bit positions of the big constrained
    # vertices decide adjacency to them
    seen = set(range(256))
    for t in big:
        pos = 0
        v = t
        while v:
            if v & 1 and pos not in seen:
                seen.add(pos)
                if all(adjacent(pos, u) == adj for u, adj in pattern):
                    yield pos
            v >>= 1
            pos += 1
    anchor = top
    while True:
        yield bits + (1 << anchor)
        anchor += 1


class RadoGraph(Structure):
    structure_id = "rado"
    description = "Rado graph via the BIT adjacency predicate"

    oligomorphic = True
    algebraically_finite = True
    stabilizer_orbits_all_infinite = True
    single_copy = False

    def _generate(self):
        i = 0
        while True:
            yield i
            i += 1

    def index_of(self, p):
        return p

    def encode(self, p):
        return _decimal(p)

    def decode(self, s):
        p = _from_decimal(s)
        if p < 0:
            raise ValueError("rado vertices are naturals")
        return p

    def type_key(self, ftup, x):
        # the adjacency pattern to the sockel (homogeneity)
        return tuple([adjacent(x, a) for a in ftup])

    def orbit_key(self, tup):
        return equality_pattern(tup), tuple([
            adjacent(a, b) for i, a in enumerate(tup) for b in tup[i + 1:]])

    def typeset_iter(self, sockel, x):
        # Let L be the bit length of max F.  From L up to max F no vertex is
        # adjacent to a sockel point a >= L, and its adjacency to a < L is
        # bit a; above max F its adjacency to every sockel point a is bit a.
        # Past the vertices below L, the members are therefore the numbers
        # whose sockel bits match x's adjacency pattern, stepped through in
        # increasing order.
        self.check_same_type_pre(sockel, x, x)
        top = max(sockel, default=-1)
        low = max(top, 0).bit_length()
        yield from self.typeset_in(sockel, x, range(min(low, _SCAN_CAP + 1)))
        if low > _SCAN_CAP + 1:
            raise SearchBudgetError(
                "typeset stream scan cap exceeded",
                blocking=({a: a for a in sockel}, x), scanned=_SCAN_CAP + 1)
        mask = sum(1 << a for a in sockel)
        pattern = sum(1 << a for a in sockel if adjacent(x, a))
        # when x is adjacent to a sockel point a >= L, pattern >= 2**a >
        # max F and [L, max F] holds no member; otherwise its members are
        # matched on the bits below L alone
        low_mask = mask & ((1 << low) - 1)
        y = pattern
        while y <= top:
            if y >= low and y not in sockel:
                yield y
            step = (((y | low_mask) + 1) & ~low_mask) | pattern
            if step > top:
                break
            y = step
        while True:
            if y > top:
                yield y
            y = (((y | mask) + 1) & ~mask) | pattern

    def target_candidates(self, items, source):
        pattern = [(t, adjacent(source, s)) for s, t in items]
        yield from _pattern_witnesses(pattern)

    def closed_form_avoiding(self, fix, avoid, parent):
        if isinstance(parent, TaggedCopyRado):
            return _rado_avoiding(self, fix, avoid, parent.ones,
                                  parent.zeros, parent.floor)
        if isinstance(parent, IdentityCopy):
            return _rado_avoiding(self, fix, avoid)
        return None

    def closed_form_disjoint_pair(self, fix):
        # the interleaved greedy forces iterated-exponential witnesses, so
        # the pair over nothing is an explicit split
        if fix:
            return None
        return ResidueCopyRado(self, 2), ResidueCopyRado(self, 3)


class TaggedCopyRado(CopyHandle):
    """A closed-form Rado copy: the fixed set together with every vertex
    above ``floor`` whose bits are 1 at the ``ones`` positions and 0 at the
    ``zeros`` positions.

    Tag positions are chosen outside the fixed set, so the class realizes
    every adjacency pattern over finite subsets (append the required bits
    plus the one-tags plus a fresh high bit); total membership."""

    def __init__(self, structure, fix=(), floor=-1, ones=(), zeros=()):
        super().__init__(structure)
        self.fix = frozenset(fix)
        self.floor = floor
        self.ones = tuple(sorted(ones))
        self.zeros = tuple(sorted(zeros))

    def membership(self, x):
        if x in self.fix:
            return IN
        if x <= self.floor:
            return OUT
        if all((x >> p) & 1 for p in self.ones) and \
                not any((x >> p) & 1 for p in self.zeros):
            return IN
        return OUT

    def witness(self, ftup, x):
        # above every sockel point a, adjacency to a is bit a: set the bits
        # of the sockel points x is adjacent to, plus the one-tags
        w = sum(1 << a for a in ftup if adjacent(x, a))
        w |= sum(1 << p for p in self.ones)
        bound = max((self.floor,) + tuple(ftup))
        if w <= bound:
            # a fresh high bit, off the sockel and the zero-tags
            top = bound.bit_length()
            while top in ftup or top in self.zeros:
                top += 1
            w |= 1 << top
        return w

    def describe(self):
        return "rado tagged-class floor=%s ones=%s zeros=%s fix={%s}" % (
            _decimal(self.floor), list(self.ones), list(self.zeros),
            ",".join(_decimal(v) for v in sorted(self.fix)))


def _rado_avoiding(structure, fixset, avoidset, ones=(), zeros=(), floor=-1):
    values = fixset | avoidset
    maxbit = max((v.bit_length() for v in values), default=0)
    above = max([maxbit, 2] + [p + 1 for p in list(ones) + list(zeros)])
    p1 = above
    while p1 in values:
        p1 += 1
    all_ones = tuple(ones) + (p1,)
    # the zero-tag's own vertex must miss some one-tag bit, else that
    # vertex would be a class member with its adjacency pinned to zero
    p2 = p1 + 1
    while p2 in values or any((p2 >> o) & 1 for o in all_ones):
        p2 += 1
    return TaggedCopyRado(structure, fix=fixset,
                          floor=max([floor] + list(avoidset)),
                          ones=all_ones, zeros=tuple(zeros) + (p2,))


class ResidueCopyRado(CopyHandle):
    """The BIT graph induced on {n : n = residue (mod 4)}, residue in {2,3}.

    The congruence pins bits 0 and 1, neither of which is a class member,
    so witnesses for any adjacency pattern within the class exist and the
    class induces the extension property.  Total membership."""

    def __init__(self, structure, residue):
        super().__init__(structure)
        if residue not in (2, 3):
            raise PreconditionError("residue must be 2 or 3")
        self.residue = residue

    def membership(self, x):
        return IN if x % 4 == self.residue else OUT

    def describe(self):
        return "rado residue-class %d (mod 4)" % self.residue
