"""The Rado graph on N presented by the BIT predicate.

BIT adjacency positions are vertex values, so the enum-least witness for
an adjacency pattern sits far out in the enumeration.  The graph has no
algebraicity, so U minus a finite set A is a copy, the maximum one
avoiding A: through, avoiding and chain copies are the base class's
cofinite cut copies.  Disjoint pairs are tagged bit-classes (Rado 1964):
the fixed set together with every vertex whose bits match chosen tag
positions.  Over nothing the pair is the split 2, 3 (mod 4), the tags
ones={1}, zeros={0} and ones={0, 1}.
"""

from ..core import IN, OUT, CopyHandle
from ..errors import SearchBudgetError
from .base import (_SCAN_CAP, Structure, _decimal, decode_field,
                   equality_pattern)


def adjacent(i, j):
    """i ~ j iff, with i < j, bit i of j is set."""
    if i == j:
        return False
    if i > j:
        i, j = j, i
    return (j >> i) & 1 == 1


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
        p = decode_field(s, s, "a natural")
        if p < 0:
            raise ValueError("expected a natural, got %r" % s)
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

    def closed_form_disjoint_pair(self, fix):
        # over nothing, the classes 2 and 3 (mod 4); over a nonempty F, the
        # tagged class with one-tag p1 and zero-tag p2, both off F, and its
        # twin with the tags swapped.  Neither tag vertex is in either
        # class, so both are copies; off F they disagree on both tag bits,
        # so they meet exactly in F, which is ac(F)
        if not fix:
            return (TaggedCopyRado(self, ones=(1,), zeros=(0,)),
                    TaggedCopyRado(self, ones=(0, 1)))
        p1 = max([2] + [v.bit_length() for v in fix])
        while p1 in fix:
            p1 += 1
        # the zero-tag's own vertex must miss the one-tag bit, else that
        # vertex would be a class member with its adjacency pinned to zero
        p2 = p1 + 1
        while p2 in fix or (p2 >> p1) & 1:
            p2 += 1
        return (TaggedCopyRado(self, fix, ones=(p1,), zeros=(p2,)),
                TaggedCopyRado(self, fix, ones=(p2,), zeros=(p1,)))


class TaggedCopyRado(CopyHandle):
    """A closed-form Rado copy: the fixed set together with every vertex
    whose bits are 1 at the ``ones`` positions and 0 at the ``zeros``
    positions.

    Tag positions are chosen outside the fixed set, so the class realizes
    every adjacency pattern over finite subsets (append the required bits
    plus the one-tags plus a fresh high bit); total membership."""

    def __init__(self, structure, fix=(), ones=(), zeros=()):
        super().__init__(structure)
        self.fix = frozenset(fix)
        self.ones = tuple(sorted(ones))
        self.zeros = tuple(sorted(zeros))

    def membership(self, x):
        if x in self.fix:
            return IN
        if all((x >> p) & 1 for p in self.ones) and \
                not any((x >> p) & 1 for p in self.zeros):
            return IN
        return OUT

    def witness(self, ftup, x):
        # above every sockel point a, adjacency to a is bit a: set the bits
        # of the sockel points x is adjacent to, plus the one-tags
        w = sum(1 << a for a in ftup if adjacent(x, a))
        w |= sum(1 << p for p in self.ones)
        bound = max(ftup, default=-1)
        if w <= bound:
            # a fresh high bit, off the sockel and the zero-tags
            top = bound.bit_length()
            while top in ftup or top in self.zeros:
                top += 1
            w |= 1 << top
        return w

    def describe(self):
        return "rado tagged-class ones=%s zeros=%s fix={%s}" % (
            list(self.ones), list(self.zeros),
            ",".join(_decimal(v) for v in sorted(self.fix)))
