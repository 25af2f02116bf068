"""The integers as a linear order; automorphisms are the translations."""

from ..core import infinite_answer
from .base import Structure, _decimal, decode_field


def zigzag(i):
    """0, 1, -1, 2, -2, ..."""
    n = (i + 1) // 2
    return n if i % 2 == 1 else -n


def zigzag_index(n):
    if n == 0:
        return 0
    return 2 * n - 1 if n > 0 else -2 * n


class ZOrder(Structure):
    structure_id = "zorder"
    description = "integers with the natural order (translations only)"

    oligomorphic = False
    algebraically_finite = False
    stabilizer_orbits_all_infinite = False
    single_copy = True

    def _generate(self):
        i = 0
        while True:
            yield zigzag(i)
            i += 1

    def index_of(self, p):
        return zigzag_index(p)

    def encode(self, p):
        return _decimal(p)

    def decode(self, s):
        return decode_field(s, s, "an integer")

    def type_key(self, ftup, x):
        # translations act transitively; any fixed point pins the translation
        return x if ftup else None

    def orbit_key(self, tup):
        # a translation is fixed by where it sends the first entry
        return tuple([t - tup[0] for t in tup])

    def typeset_finite(self, sockel, x):
        if not sockel:
            return infinite_answer()
        return self.singleton_answer(x)

    def type_unranked(self, sockel, x):
        # every point orbit is ranked: rank 0 over a nonempty sockel,
        # rank 1 for the full orbit of the translation group
        return False
