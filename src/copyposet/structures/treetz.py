"""A Z-levelled tree: unique predecessor, countably many successors.

Model: a node at level L is a choice sequence with finitely many nonzero
entries, one entry per level i <= L recording which child the node's
ancestor at level i is of its parent (0 = the distinguished spine child).
Encoded as (L, ((i, e), ...)) with the nonzero entries sorted by level.
Downward chains are unique, so meets exist and the poset is a tree whose
intervals are finite.

Automorphisms shift levels uniformly and permute sibling subtrees, so a
finite partial injection extends to an automorphism exactly when it shifts
all levels by one constant and preserves the levels of pairwise meets.

A copy that avoids a node avoids its up-set, since a node's ancestor
chain is fixed, so the cut copies are the complements of the up-sets of
finitely many nodes (the images of iterated child-shift embeddings).

The enumeration walks cost shells: node (L, choices) costs |L| plus
L - i + e for each entry (i, e), and each shell is sorted by (level,
choices).  Writing an entry at depth d = L - i, the choice sets of cost
r are the sets of (depth, choice) pairs with distinct depths and cost
sum(d + e) = r.  Let C(r, k) count those whose depths all lie below k:
C(0, k) = 1, C(r, 0) = 0 for r > 0, and a set with its deepest entry
(k - 1, e) leaves cost r - (k - 1) - e to depths below k - 1.  So
``index_of`` adds the nodes of cheaper shells, the nodes of its shell at
lower levels, and, entry by entry from the deepest, the choice sets that
agree with its own so far and then sort first: a deeper entry next (a
difference of two C values), or the same depth with a smaller choice.
The counts are kept as running sums over the cost, so each is one or
two table reads, and the table grows with the largest cost asked for.
Past cost ``_COST_CAP`` it would hold over 33,000 integers, so
``index_of`` raises ``SearchBudgetError`` there, as dlo does past its
Stern-Brocot row cap; such an index is over 2**86.
"""

from ..core import infinite_answer
from ..errors import SearchBudgetError
from .base import Structure, decode_field

_COST_CAP = 256

# _SUMS[n][k]: the choice sets of cost at most n whose depths all lie
# below k, for k <= n (no depth reaches the cost, so k = n counts them
# all); _BEFORE[c]: the nodes of cost below c
_SUMS, _BEFORE = [[1]], [0, 1]


def trunc(x, lvl):
    if lvl > x[0]:
        raise ValueError("cannot truncate upward")
    return (lvl, tuple((i, e) for (i, e) in x[1] if i <= lvl))


def tree_le(x, y):
    return x[0] <= y[0] and trunc(y, x[0]) == x


def meet_level(x, y):
    """The level of the meet of two nodes: one below the first level where
    their sorted choice entries differ, and no higher than either node."""
    lvl = x[0] if x[0] < y[0] else y[0]
    cx, cy = x[1], y[1]
    if cx == cy:
        return lvl
    for a, b in zip(cx, cy):
        if a != b:
            break
    else:  # one is a prefix of the other: the longer one's next entry
        a = b = (cx[len(cy):] or cy[len(cx):])[0]
    # (level, choice) entries sort by level first
    d = (a if a < b else b)[0] - 1
    return lvl if lvl < d else d


def _cost_sets(rem, min_d):
    """Tuples of (depth, choice) with distinct ascending depths >= min_d,
    choices >= 1, total cost sum(depth + choice) == rem."""
    if rem == 0:
        yield ()
        return
    for d in range(min_d, rem):
        for e in range(1, rem - d + 1):
            for rest in _cost_sets(rem - d - e, d + 1):
                yield ((d, e),) + rest


def _sums(n, k):
    return _SUMS[n][min(k, n)] if n >= 0 else 0


def _sets(r, k):
    """C(r, k): the choice sets of cost r whose depths all lie below k."""
    return _sums(r, k) - _sums(r - 1, k)


def _grow_counts(cost):
    while len(_SUMS) <= cost:
        r = len(_SUMS)
        row, sets = [1], 0  # only the empty set has no depth
        for k in range(1, r + 1):
            sets += _sums(r - k, k - 1)  # C(r, k) - C(r, k - 1)
            row.append(_sums(r - 1, k) + sets)
        _SUMS.append(row)
        # the shell of cost r: C(r - |L|, r - |L|) sets at each level L
        _BEFORE.append(_BEFORE[-1] + 2 * row[r] - sets)


class TreeTZ(Structure):
    structure_id = "treetz"
    description = "Z-levelled tree, unique predecessor, infinitely many successors"

    oligomorphic = False
    algebraically_finite = False
    stabilizer_orbits_all_infinite = False
    single_copy = False

    def _generate(self):
        cost = 0
        while True:
            batch = []
            for lvl in range(-cost, cost + 1):
                rem = cost - abs(lvl)
                for cs in _cost_sets(rem, 0):
                    choices = tuple((lvl - d, e) for (d, e) in reversed(cs))
                    batch.append((lvl, choices))
            for node in sorted(batch):
                yield node
            cost += 1

    def index_of(self, p):
        lvl, choices = p
        r = sum(lvl - i + e for i, e in choices)
        cost = abs(lvl) + r
        if cost > _COST_CAP:
            raise SearchBudgetError(
                "treetz cost %d is past the index cap %d" % (cost, _COST_CAP))
        _grow_counts(cost)
        # level l of the shell holds the C(m, m) choice sets of cost
        # m = cost - |l|; the levels below lvl give m = 0 .. r - 1 when
        # lvl <= 0, else m = 0 .. cost - 1 and then m = cost .. r + 1
        n = _BEFORE[cost] + (_sums(r - 1, r - 1) if lvl <= 0 else _sums(
            cost - 1, cost - 1) + _sums(cost, cost) - _sums(r, r))
        top = r  # no depth reaches the cost
        for i, e in choices:
            d = lvl - i
            n += _sets(r, top) - _sets(r, d + 1)  # deeper entries first
            n += _sums(r - d - 1, d) - _sums(r - d - e, d)  # smaller choices
            r -= d + e
            top = d
        return n

    def encode(self, p):
        entries = ",".join("%d:%d" % (i, e) for (i, e) in p[1])
        return "L%d:[%s]" % (p[0], entries)

    def decode(self, s):
        s = s.strip()
        form = "L<level>:[i:e,...]"
        if not s.startswith("L") or ":[" not in s or not s.endswith("]"):
            raise ValueError("expected %s, got %r" % (form, s))
        head, body = s[1:-1].split(":[", 1)
        lvl = decode_field(head, s, form)
        choices = []
        if body:
            for item in body.split(","):
                pair = item.split(":")
                if len(pair) != 2:
                    raise ValueError("expected %s, got %r" % (form, s))
                choices.append(tuple(decode_field(t, s, form) for t in pair))
        choices.sort()
        if any(e < 1 or i > lvl for (i, e) in choices) or \
                len({i for (i, _) in choices}) < len(choices):
            raise ValueError("expected %s with choices e >= 1 at distinct "
                             "levels i <= level, got %r" % (form, s))
        return (lvl, tuple(choices))

    def type_key(self, ftup, x):
        if not ftup:
            return None  # level shifts act transitively
        return x[0], tuple([meet_level(x, a) for a in ftup])

    def orbit_key(self, tup):
        # a node meets itself at its own level, so the diagonal carries
        # the levels themselves
        return tuple([meet_level(a, b) - tup[0][0]
                      for i, a in enumerate(tup) for b in tup[i:]])

    def typeset_finite(self, sockel, x):
        if any(tree_le(x, a) for a in sockel):
            return self.singleton_answer(x)  # ancestor chains are fixed
        return infinite_answer()

    def type_unranked(self, sockel, x):
        return not any(tree_le(x, a) for a in sockel)

    def cut_root(self, fix, x):
        return x  # the copy loses x's up-set

    def cuts(self, roots, x):
        return any(tree_le(r, x) for r in roots)

    def describe_cut(self, roots):
        # the minimal roots: a root above another cuts nothing more
        return "tree minus up-sets of {%s}" % ",".join(
            self.encode(r) for r in self.sort_points(roots)
            if not self.cuts(roots - {r}, r))
