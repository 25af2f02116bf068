"""The pure countable set: U = N with the full symmetric group."""

from ..core import RuleCopy
from .base import Structure, _decimal, decode_field, equality_pattern


class PureSet(Structure):
    structure_id = "pureset"
    description = "naturals acted on by the full symmetric group"

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
        return None

    def orbit_key(self, tup):
        return equality_pattern(tup)

    def closed_form_disjoint_pair(self, fix):
        # any infinite subset of N is a copy: F with the points off F of
        # one parity, for each parity; the two sides meet in F = ac(F)
        return tuple(RuleCopy(self, fix, lambda x, r=r: x % 2 == r,
                              "pureset parity-%d" % r) for r in (0, 1))
