"""The linear order of type zeta * eta: rationally many copies of Z.

Points are (block, offset) with block a rational and offset an integer,
ordered lexicographically.  Automorphisms combine any order-automorphism of
the block line with an independent translation inside each block.  A limit
of them maps each block onto a whole block and the block line into itself
by an order embedding, so the copies are B x Z for B a copy of (Q, <), and
the cut copies take finitely many whole blocks out.
"""

from ..core import infinite_answer
from .base import Structure, decode_field, equality_pattern
from .dlo import DLO, order_pattern
from .zorder import zigzag, zigzag_index

_dlo = DLO()


class ZetaEta(Structure):
    structure_id = "zetaeta"
    description = "eta-indexed copies of Z (order type zeta times eta)"

    oligomorphic = False
    algebraically_finite = False
    stabilizer_orbits_all_infinite = False
    single_copy = False

    def _generate(self):
        d = 0
        while True:
            for i in range(d + 1):
                yield (_dlo.point_at(i), zigzag(d - i))
            d += 1

    def index_of(self, p):
        i = _dlo.index_of(p[0])
        d = i + zigzag_index(p[1])
        return d * (d + 1) // 2 + i

    def encode(self, p):
        return "(%s|%d)" % (_dlo.encode(p[0]), p[1])

    def decode(self, s):
        s = s.strip()
        parts = s[1:-1].split("|")
        if not (s.startswith("(") and s.endswith(")")) or len(parts) != 2:
            raise ValueError("expected (q|n), got %r" % s)
        q, n = parts
        return (decode_field(q, s, "(q|n)", _dlo.decode),
                decode_field(n, s, "(q|n)"))

    def type_key(self, ftup, x):
        # the tags keep a pinned (1|1) apart from the free cut (True, True),
        # which it equals as a tuple
        q = x[0]
        cut = []
        for b, _ in ftup:
            if q == b:
                return True, x  # a pinned block is fixed pointwise
            cut.append(q < b)
        return False, tuple(cut)  # a free block: its cut among the pinned

    def orbit_key(self, tup):
        blocks = [q for q, _ in tup]
        first = equality_pattern(blocks)
        return (order_pattern(blocks),
                tuple([n - tup[j][1] for (_, n), j in zip(tup, first)]))

    def typeset_finite(self, sockel, x):
        blocks = {q for (q, _) in sockel}
        if x[0] in blocks:
            return self.singleton_answer(x)
        return infinite_answer()

    def type_unranked(self, sockel, x):
        blocks = {q for (q, _) in sockel}
        # free-block orbits have order type zeta*eta: unranked
        return x[0] not in blocks

    def cut_root(self, fix, x):
        return x[0]  # every copy is B x Z: avoiding x avoids its block

    def cuts(self, roots, x):
        return x[0] in roots

    def describe_cut(self, roots):
        return "zetaeta minus blocks {%s}" % ",".join(
            map(_dlo.encode, _dlo.sort_points(roots)))
