"""The linear order of type zeta^2: Z x Z ordered lexicographically.

Automorphisms are block-respecting maps: a single outer translation of the
block index together with an independent inner translation inside each
block, so (a, b) |-> (a + t, b + s_a).
"""

from ..core import infinite_answer
from .base import Structure, decode_field, equality_pattern
from .zorder import zigzag, zigzag_index


class Zeta2(Structure):
    structure_id = "zeta2"
    description = "Z x Z lexicographically (order type zeta squared)"

    oligomorphic = False
    algebraically_finite = False
    stabilizer_orbits_all_infinite = False
    single_copy = True

    def _generate(self):
        d = 0
        while True:
            for i in range(d + 1):
                yield (zigzag(i), zigzag(d - i))
            d += 1

    def index_of(self, p):
        i = zigzag_index(p[0])
        d = i + zigzag_index(p[1])
        return d * (d + 1) // 2 + i

    def encode(self, p):
        return "(%d,%d)" % p

    def decode(self, s):
        s = s.strip()
        parts = s[1:-1].split(",")
        if not (s.startswith("(") and s.endswith(")")) or len(parts) != 2:
            raise ValueError("expected (a,b), got %r" % s)
        a, b = parts
        return (decode_field(a, s, "(a,b)"), decode_field(b, s, "(a,b)"))

    def type_key(self, ftup, x):
        a = x[0]
        for b, _ in ftup:
            if a == b:
                return True, x  # pinned block: the block is fixed pointwise
        # free block: the inner translation is arbitrary
        return (False, a) if ftup else None

    def orbit_key(self, tup):
        first = equality_pattern([a for a, _ in tup])
        return (tuple([a - tup[0][0] for a, _ in tup]),
                tuple([b - tup[j][1] for (_, b), j in zip(tup, first)]))

    def typeset_finite(self, sockel, x):
        if not sockel:
            return infinite_answer()
        blocks = {a for (a, _) in sockel}
        if x[0] in blocks:
            return self.singleton_answer(x)
        return infinite_answer()  # the free block {a} x Z

    def type_unranked(self, sockel, x):
        # orbits have order type 1, zeta or zeta^2: all ranked
        return False
