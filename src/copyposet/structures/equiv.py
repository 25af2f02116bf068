"""The homogeneous equivalence relation: infinitely many infinite classes.

Points are pairs (class, index); all classes have the same (infinite) size,
so the only invariant of a point over a sockel is its class-membership
pattern.
"""

from ..core import RuleCopy
from .base import Structure, decode_field, equality_pattern


class EquivInf(Structure):
    structure_id = "equiv"
    description = "equivalence relation with infinitely many infinite classes"

    oligomorphic = True
    algebraically_finite = True
    stabilizer_orbits_all_infinite = True
    single_copy = False

    def _generate(self):
        d = 0
        while True:
            for c in range(d + 1):
                yield (c, d - c)
            d += 1

    def index_of(self, p):
        c, i = p
        d = c + i
        return d * (d + 1) // 2 + c

    def encode(self, p):
        return "%d.%d" % p

    def decode(self, s):
        parts = s.split(".")
        if len(parts) != 2:
            raise ValueError("expected class.index, got %r" % s)
        c, i = (decode_field(t, s, "class.index") for t in parts)
        if c < 0 or i < 0:
            raise ValueError("expected class.index of naturals, got %r" % s)
        return (c, i)

    def type_key(self, ftup, x):
        # the class-equality pattern to the sockel
        return tuple([x[0] == a[0] for a in ftup])

    def orbit_key(self, tup):
        return equality_pattern(tup), equality_pattern([c for c, _ in tup])

    def closed_form_disjoint_pair(self, fix):
        # a set meeting infinitely many classes, each in infinitely many
        # points, is a copy: F with the points off F of one index parity,
        # for each parity; the two sides meet in F = ac(F)
        return tuple(RuleCopy(self, fix, lambda x, r=r: x[1] % 2 == r,
                              "equiv index-parity-%d" % r) for r in (0, 1))
