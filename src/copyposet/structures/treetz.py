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
"""

from ..core import infinite_answer
from .base import Structure, decode_field


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
        if any(e < 1 or i > lvl for (i, e) in choices):
            raise ValueError("invalid choice entries")
        if len({i for (i, _) in choices}) < len(choices):
            raise ValueError("repeated level in choice entries")
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
