"""The induced action of the symmetric group on 2-subsets of N.

Points are unordered pairs {i, j}; a permutation of N acts by taking images
elementwise.  The orbit of a tuple is given by its Venn regions: which of
its pairs each support element lies in.  Candidate images are exact: the
enumeration points whose elements sit in the Venn regions of the targets
that the source's elements occupy among the sources.
"""

from itertools import combinations

from ..core import RuleCopy, finite_answer, infinite_answer
from .base import _SCAN_CAP, Structure


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
        if not (s.startswith("{") and s.endswith("}")):
            raise ValueError("expected {i,j}")
        i, j = (int(t) for t in s[1:-1].split(","))
        if i < 0 or j < 0 or i == j:
            raise ValueError("expected a 2-subset of the naturals")
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

    def target_candidates(self, items, source):
        # c = {x, y} extends the map plus source -> c exactly when x and y
        # lie in the same Venn regions of the targets as the source's
        # elements do in those of the sources: adding c or source sets the
        # new bit on just those two regions of the orbit key
        regions, held = {}, {}
        for i, (s, t) in enumerate(items):
            bit = 1 << i
            for e in s:
                held[e] = held.get(e, 0) | bit
            for e in t:
                regions[e] = regions.get(e, 0) | bit
        a, b = source
        ra, rb = held.get(a, 0), held.get(b, 0)
        stop = _SCAN_CAP + 1
        if ra and rb:
            # both source elements lie among the sources, so both image
            # elements lie in the targets' support [0..top], and the last
            # pair of [0..top]^2, {top-1, top}, has index top(top+1)/2 - 1
            top = max(regions)
            stop = min(stop, top * (top + 1) // 2)
        for i in range(stop):
            c = self.point_at(i)
            x, y = c
            rx, ry = regions.get(x, 0), regions.get(y, 0)
            if (rx == ra and ry == rb) or (rx == rb and ry == ra):
                yield c

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
