"""The induced action of the symmetric group on 2-subsets of N.

Points are unordered pairs {i, j}; a permutation of N acts by taking images
elementwise.  The orbit of a tuple is given by its Venn regions: which of
its pairs each support element lies in.  A limit of permutations is
induced by an injection of N, so the copies are [S]^2 for infinite S, and
the cut copies take finitely many elements out of S.
"""

from itertools import combinations

from ..core import RuleCopy, finite_answer, infinite_answer
from .base import Structure, decode_field


def support(pairs):
    s = set()
    for p in pairs:
        s |= p
    return s


class PairsAction(Structure):
    structure_id = "pairs"
    description = "2-subsets of N under the symmetric group of N"

    oligomorphic = True
    algebraically_finite = True
    stabilizer_orbits_all_infinite = False
    single_copy = False

    def _generate(self):
        j = 1
        while True:
            for i in range(j):
                yield frozenset((i, j))
            j += 1

    def index_of(self, p):
        i, j = sorted(p)
        return j * (j - 1) // 2 + i

    def encode(self, p):
        return "{%d,%d}" % tuple(sorted(p))

    def decode(self, s):
        s = s.strip()
        parts = s[1:-1].split(",")
        if not (s.startswith("{") and s.endswith("}")) or len(parts) != 2:
            raise ValueError("expected {i,j}, got %r" % s)
        i, j = (decode_field(t, s, "{i,j}") for t in parts)
        if i < 0 or j < 0 or i == j:
            raise ValueError("expected {i,j} of distinct naturals, got %r" % s)
        return frozenset((i, j))

    def orbit_key(self, tup):
        # which entries each support element lies in, as a bitmask over the
        # positions; a bijection of the supports matching these Venn regions
        # induces the tuple map
        regions = {}
        for i, p in enumerate(tup):
            for e in p:
                regions[e] = regions.get(e, 0) | 1 << i
        return tuple(sorted(regions.values()))

    def type_key(self, ftup, x):
        # the Venn regions of x's two elements among the entries: ftup
        # fixes the other regions of the orbit key of ftup + (x,)
        a, b = x
        ra = rb = 0
        for i, p in enumerate(ftup):
            ra |= (a in p) << i
            rb |= (b in p) << i
        return (ra, rb) if ra <= rb else (rb, ra)

    def typeset_finite(self, sockel, x):
        supp = support(sockel)
        if not x <= supp:
            return infinite_answer()  # a free element can move arbitrarily far
        members = self.typeset_in(
            sockel, x, map(frozenset, combinations(sorted(supp), 2)))
        return finite_answer(self.sort_points(members))

    def type_unranked(self, sockel, x):
        # oligomorphic: unranked iff the typeset is infinite
        return not x <= support(sockel)

    def cut_root(self, fix, x):
        # every copy is [S]^2 for an infinite S: avoiding x takes an element
        # of x out of S, here the least one off the fixed pairs' support
        return min(x - support(fix))

    def cuts(self, roots, x):
        return not roots.isdisjoint(x)

    def describe_cut(self, roots):
        return "pairs [N minus {%s}]^2" % ",".join(map(str, sorted(roots)))

    def ac_members_exact(self, sockel):
        supp = sorted(support(sockel))
        return frozenset(frozenset(c) for c in combinations(supp, 2))

    def closed_form_disjoint_pair(self, fix):
        # [A]^2 is a copy for every infinite A: with S = supp F, the side
        # of parity r is [S + {n off S : n = r (mod 2)}]^2, which holds F;
        # the two sides meet in [S]^2 = ac(F)
        supp = support(fix)
        return tuple(RuleCopy(
            self, fix, lambda x, r=r: all(e in supp or e % 2 == r for e in x),
            "pairs element-parity-%d" % r) for r in (0, 1))
