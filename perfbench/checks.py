"""Values the benchmark checks the library against, computed without it.

Everything here is derived from first principles (counting formulas, raw
relations of the structures' presentations) and imports nothing from
``copyposet``, so a checker cannot inherit a fault of the code it checks.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial


def stirling2(n, k):
    """Stirling numbers of the second kind, S(n, k)."""
    row = [1] + [0] * k  # S(0, j)
    for m in range(1, n + 1):
        new = [0] * (k + 1)
        for j in range(1, k + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


def bell(n):
    """Set partitions of an n-set: orbits of n-tuples of a pure set."""
    return sum(stirling2(n, k) for k in range(n + 1))


def ordered_bell(n):
    """Weak orders on an n-set: orbits of n-tuples of the rationals."""
    return sum(factorial(k) * stirling2(n, k) for k in range(n + 1))


def rado_orbits(n):
    """Orbits of n-tuples of the Rado graph: an equality pattern with k
    classes and any graph on the k distinct entries (homogeneity)."""
    return sum(stirling2(n, k) * 2 ** comb(k, 2) for k in range(n + 1))


def equiv_orbits(n):
    """Orbits of n-tuples under the equivalence relation with infinitely
    many infinite classes: a point partition refined by a class partition."""
    return sum(stirling2(n, k) * bell(k) for k in range(n + 1))


def profile_formula(structure_id, n):
    """Number of orbits of n-tuples for the oligomorphic built-ins, or None
    where the count is a property of the window, not a closed formula."""
    return {"pureset": bell, "dlo": ordered_bell, "rado": rado_orbits,
            "equiv": equiv_orbits}.get(structure_id, lambda _: None)(n)


def pair_tuple_classes(window, n):
    """Orbits of n-tuples of 2-subsets drawn from ``window`` under the
    symmetric group of the naturals.

    Two tuples of finite sets lie in one orbit exactly when every Venn
    region (the support elements lying in exactly the sets at a given set
    of positions) has the same size in both, so the multiset of membership
    vectors is a canonical form."""
    forms = set()
    for tup in product(window, repeat=n):
        support = set().union(*tup)
        forms.add(frozenset(Counter(
            tuple(e in p for p in tup) for e in support).items()))
    return len(forms)


def zorder_difference_vectors(window, n):
    """Orbits of n-tuples of integers under translation: distinct vectors
    of differences to the first entry."""
    return len({tuple(b - tup[0] for b in tup[1:])
                for tup in product(window, repeat=n)})


def differential_comparisons(w, k):
    """Comparisons made by the differential over a window of w points with
    sockels of size at most k: every ordered pair (x, y) off the sockel."""
    return sum(comb(w, s) * (w - s) ** 2 for s in range(k + 1))


def bit_adjacent(i, j):
    """Rado adjacency from the BIT predicate: i < j adjacent iff bit i of j
    is set."""
    if i == j:
        return False
    if i > j:
        i, j = j, i
    return (j >> i) & 1 == 1


def rado_typeset_prefix(sockel, rep, n):
    """The first n vertices (the naturals in order) outside ``sockel`` with
    the adjacency pattern of ``rep`` to every sockel vertex."""
    pattern = [(a, bit_adjacent(rep, a)) for a in sockel]
    out = []
    j = 0
    while len(out) < n:
        if j not in sockel and all(bit_adjacent(j, a) == adj
                                   for a, adj in pattern):
            out.append(j)
        j += 1
    return out


def dlo_same_cut(sockel, x, y):
    """x and y sit at the same place relative to every sockel rational."""
    return all((x < a) == (y < a) for a in sockel)


def interval_copy_member(index_set, x):
    """Membership in the interval copy of a set S of naturals:
    (-1, 0) together with the open intervals (s, s + 1) for s in S."""
    x = Fraction(x)
    if -1 < x < 0:
        return True
    if x.denominator == 1:
        return False
    return x.numerator // x.denominator in index_set


def two_subsets(elements):
    """All 2-subsets of a finite set."""
    elems = sorted(elements)
    return {frozenset((a, b)) for i, a in enumerate(elems)
            for b in elems[i + 1:]}
