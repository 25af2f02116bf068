"""Base interface for countable group actions (U, G).

A Structure presents one countable set U with a fixed canonical enumeration
u_0, u_1, ... and a decidable calculus for the pointwise stabilizers of its
automorphism group.  Each structure writes ``index_of``, the inverse of
its enumeration in closed form, and ``orbit_key``, a canonical
invariant of the G-orbit of a tuple, and may write ``type_key``, the key
of a point's type over a finite sockel (by default the orbit key of the
sockel followed by the point).  Orbit equality over a sockel
(``same_type``) compares two type keys, callers group points by type key,
and extendability of finite partial injections (``extendable``) compares
orbit keys.  Structures also decide exact finiteness of typesets and
certify unrankedness.  Where every stabilizer orbit off a finite set is
infinite (``stabilizer_orbits_all_infinite``), the base class gives those
answers: every typeset is infinite, so no type reaches rank 0 and every
type is unranked, and a finite set is its own algebraic closure.  A
structure's copies are cut copies, U minus the cuts of finitely many
roots, which the engine builds from ``cut_root``, ``cuts`` and
``describe_cut``; by default, with the flag set, a root cuts itself.  All
operations are pure.  An instance keeps its enumeration and its ``memo``
(``core.Memo``) of shared tables, append-only, as long as it lives: a
fresh instance is cold, and any instance is safe to share.
"""

from __future__ import annotations

from .. import core
from ..core import finite_answer, infinite_answer
from ..errors import PreconditionError, SearchBudgetError

# Safety cap for searches that are mathematically guaranteed to terminate on
# the built-ins; hitting it means a broken oracle, not a tight budget.
_SCAN_CAP = 200_000


# Orbit keys are built as tuple([...]): tuple(genexpr) allocates 10 slots and
# resizes, and the freed keys pile up on the tuple freelists (peak memory).
def equality_pattern(values):
    """For each entry, the position of its first occurrence."""
    first = {}
    return tuple([first.setdefault(v, i) for i, v in enumerate(values)])


def _decimal(p):
    """str(p), split at a power of ten when p has more digits than the
    interpreter converts at once."""
    try:
        return str(p)
    except ValueError:
        if p < 0:
            return "-" + _decimal(-p)  # divmod would round toward -inf
        k = int(p.bit_length() * 0.30103) // 2  # about half the digits
        hi, lo = divmod(p, 10 ** k)
        return _decimal(hi) + _decimal(lo).zfill(k)


def _from_decimal(s):
    """int(s), split in halves when s has more digits than the interpreter
    converts at once."""
    try:
        return int(s)
    except ValueError:
        digits = s.strip()
        sign = digits[:1]
        digits = digits[1:] if sign in ("+", "-") else digits
        if not (digits.isascii() and digits.isdigit()):
            raise
        k = len(digits) // 2
        p = _from_decimal(digits[:-k]) * 10 ** k + _from_decimal(digits[-k:])
        return -p if sign == "-" else p


def decode_field(field, s, form, parse=_from_decimal):
    """``parse(field)``, or a ValueError naming the point ``s`` and form."""
    try:
        return parse(field)
    except ValueError:
        raise ValueError("expected %s, got %r" % (form, s)) from None


class Structure:
    structure_id = "?"
    description = ""

    # capability flags reported by the CLI and consulted by constructions
    oligomorphic = False
    algebraically_finite = False
    stabilizer_orbits_all_infinite = False
    single_copy = False

    def __init__(self):
        self._enum_cache = []
        self.memo = core.Memo(self)

    # -- enumeration ------------------------------------------------------

    def _generate(self):
        """Yield the canonical enumeration u_0, u_1, ... (never exhausts)."""
        raise NotImplementedError

    def _grow(self, n):
        if len(self._enum_cache) >= n:
            return
        if not hasattr(self, "_gen"):
            self._gen = self._generate()
        while len(self._enum_cache) < n:
            self._enum_cache.append(next(self._gen))

    def point_at(self, i):
        if i < 0:
            raise PreconditionError("negative enumeration index")
        self._grow(i + 1)
        return self._enum_cache[i]

    def prefix(self, n):
        """The first n points of the canonical enumeration."""
        if n < 0:
            raise PreconditionError("n must be >= 0")
        self._grow(n)
        return list(self._enum_cache[:n])

    def index_of(self, p):
        """Position of p in the canonical enumeration (total, by
        bijectivity).  Each structure writes it in closed form, equal to
        the enumeration on every point, so no caller scans for a point."""
        raise NotImplementedError

    def sort_points(self, pts):
        return sorted(pts, key=self.index_of)

    # -- text encodings (bit-exact, used by CLI and certificates) ---------

    def encode(self, p):
        raise NotImplementedError

    def decode(self, s):
        raise NotImplementedError

    # -- orbit calculus ----------------------------------------------------

    def same_type(self, sockel, x, y):
        """True iff some g in G fixes ``sockel`` pointwise and maps x to y,
        that is, iff x and y share a type key over the sockel.

        Pre: x and y are not in sockel."""
        self.check_same_type_pre(sockel, x, y)
        if x == y:
            return True
        f = tuple(sockel)
        return self.type_key(f, x) == self.type_key(f, y)

    def type_key(self, ftup, x):
        """A hashable key of the type <F |> x> for the sockel F listed in
        the tuple ``ftup``: for x and y outside F, the keys over one
        listing are equal iff some g in G fixes F pointwise and maps x to
        y.  Default: the orbit key of ``ftup`` followed by x.  An override
        must agree with it."""
        return self.orbit_key(ftup + (x,))

    def extendable(self, pm):
        """True iff some g in G extends the finite partial map ``pm`` (a
        dict), that is, iff its source and target tuples share an orbit
        key.  The key is a complete invariant, so a map that is not
        injective answers False.  An override must agree with the key."""
        if not pm:
            return True
        sources, targets = zip(*pm.items())
        return self.orbit_key(sources) == self.orbit_key(targets)

    def orbit_key(self, tup):
        """A hashable invariant of the G-orbit of the tuple ``tup``: two
        tuples of equal length lie in one orbit iff their keys are equal."""
        raise NotImplementedError

    def typeset_finite(self, sockel, x):
        """Exact finiteness of the typeset of <sockel |> x>."""
        if self.stabilizer_orbits_all_infinite:
            return infinite_answer()
        raise NotImplementedError

    def type_unranked(self, sockel, x):
        """Certified rank status of the type <sockel |> x>.

        True: certified unranked.  False: certified ranked.  None: the
        structure cannot certify (reserved for user-supplied oracles)."""
        if self.stabilizer_orbits_all_infinite:
            return True
        raise NotImplementedError

    # -- generic derived operations ----------------------------------------

    def check_same_type_pre(self, sockel, x, y):
        if x in sockel or y in sockel:
            raise PreconditionError("representative lies in the sockel")

    def extensions(self, pm, x, budget):
        """Yield, in enumeration order, the y with ``pm + {x -> y}``
        extendable, scanning the first ``budget`` enumeration positions."""
        if not self.extendable(pm):
            raise PreconditionError("base map is not extendable")
        if x in pm:
            raise PreconditionError("x already in the sources of the map")
        used = set(pm.values())
        for i in range(budget):
            y = self.point_at(i)
            if y not in used and self.extendable({**pm, x: y}):
                yield y

    def typeset_iter(self, sockel, x):
        """Members of the typeset of <sockel |> x> in enumeration order.

        For finite typesets the stream is exact and exhausts; for infinite
        ones it is the on-demand witness stream.  This default reads x's
        class from the sockel's type-class table in the memo
        (``core.TypeClasses``, the sockel listed in enumeration order by
        ``index_of``), so it keys only x and the enumeration points past
        what any caller of the table has read; a structure may override it
        with a closed form, which must yield the same members in the same
        enumeration order."""
        self.check_same_type_pre(sockel, x, x)
        fin = self.typeset_finite(sockel, x)
        if fin.is_finite:
            for y in self.sort_points(fin.members):
                yield y
            return
        ftup = self._listed(sockel)
        table = self.memo[core.TypeClasses, ftup]
        point_at, cap = self.point_at, _SCAN_CAP + 1
        c = table.find(self.type_key(ftup, x), cap, point_at)
        if c is not None:
            yield from map(point_at, table.indices(c, cap, point_at))
        raise SearchBudgetError(
            "typeset stream scan cap exceeded",
            blocking=({a: a for a in sockel}, x), scanned=_SCAN_CAP + 1)

    def typeset_in(self, sockel, x, points):
        """The members of the typeset of <sockel |> x> among ``points``,
        streamed in their order."""
        self.check_same_type_pre(sockel, x, x)
        f = tuple(sockel)
        type_key = self.type_key
        key = type_key(f, x)
        return (y for y in points
                if y not in sockel and type_key(f, y) == key)

    def typeset_members(self, sockel, x, n):
        """``typesets.typeset_members`` of the type <sockel |> x>."""
        from ..typesets import TypeHandle, typeset_members
        return typeset_members(
            self, TypeHandle(self.structure_id, self._listed(sockel), x), n)

    def _listed(self, sockel):
        """The sockel as a tuple in enumeration order."""
        return tuple(sockel) if len(sockel) < 2 else \
            tuple(self.sort_points(sockel))

    def unranked_witness(self, sockel, x, sockel_ext):
        """A continuation witness for property (p), or None if the type
        <sockel |> x> is certified ranked.

        Returns q in the typeset of <sockel |> x>, q not in ``sockel_ext``,
        with <sockel_ext |> q> certified unranked."""
        sockel = frozenset(sockel)
        ext = frozenset(sockel_ext)
        if not sockel <= ext:
            raise PreconditionError("sockel_ext must contain the sockel")
        status = self.type_unranked(sockel, x)
        if status is False:
            return None
        if status is None:
            return None
        for q in self.typeset_iter(sockel, x):
            if q in ext:
                continue
            if self.type_unranked(ext, q) is True:
                return q
        raise SearchBudgetError("no unranked continuation found (oracle bug?)")

    # -- construction move policies -----------------------------------------

    def target_candidates(self, items, source):
        """Candidate images for a fresh ``source`` given the mapped pairs
        ``items`` of an extendable map, most preferred first; may be
        infinite (the engine caps the scan).  The stream is exact: each
        image c it yields is a target of ``items`` already or extends the
        map plus source -> c to some g, so its consumer tests no orbit.

        Default: the enumeration points whose orbit key over the targets
        matches the sources', up to the enumeration scan cap.  It is the
        only candidate generator a structure writes: back steps read it
        over the inverse map.  This scan returns the number of points it
        read when it ends, so a search that finds no image reports them."""
        orbit_key = self.orbit_key
        want = orbit_key(tuple([s for s, _ in items]) + (source,))
        targets = tuple([t for _, t in items])
        for i in range(_SCAN_CAP + 1):
            c = self.point_at(i)
            if orbit_key(targets + (c,)) == want:
                yield c
        return _SCAN_CAP + 1

    def source_candidates(self, items, target):
        """Candidate fresh sources for claiming ``target`` into an image:
        the images of ``target`` under the inverse map, since a finite map
        extends to some g exactly when its inverse extends to g^-1."""
        return self.target_candidates([(t, s) for s, t in items], target)

    def orbit_reps(self, sockel, pool):
        """Partition ``pool`` into typeset classes.

        Pre: ``pool`` lists points outside sockel in enumeration order; it
        is not sorted here.  Returns [(rep, members)] with enum-least reps,
        in rep order."""
        f = tuple(sockel)
        classes = {}
        for p in pool:
            classes.setdefault(self.type_key(f, p), (p, []))[1].append(p)
        return list(classes.values())

    def tuples_same_orbit(self, xs, ys):
        """Orbit equality of two tuples under G."""
        return len(xs) == len(ys) and self.orbit_key(xs) == self.orbit_key(ys)

    # -- cut copies: U minus the cuts of finitely many roots ----------------

    def cut_root(self, fix, x):
        """The root whose cut takes the avoided point x out of a copy
        containing ``fix``, or None where the structure defines no cut (the
        engine then builds a ``BackForthCopy``).  Default, with the flag
        set: x itself."""
        return x if self.stabilizer_orbits_all_infinite else None

    def cuts(self, roots, x):
        """Whether the cuts of ``roots`` take x out.  Default: x is one."""
        return x in roots

    def describe_cut(self, roots):
        """The description of U minus the cuts of ``roots``."""
        return "cofinite avoid={%s}" % ",".join(
            self.encode(a) for a in self.sort_points(roots))

    # -- closed-form disjoint pairs ------------------------------------------

    def closed_form_disjoint_pair(self, fix):
        """Two closed-form copies meeting exactly in ac(``fix``), or None.
        Every algebraically finite built-in writes one; it is the only
        disjoint-pair construction."""
        return None

    # -- algebraic-closure helpers ----------------------------------------

    def ac_members_exact(self, sockel):
        """The full algebraic closure of a finite set, for algebraically
        finite structures only (exact, closed form)."""
        if self.stabilizer_orbits_all_infinite:
            return frozenset(sockel)
        raise PreconditionError(
            "%s is not certified algebraically finite" % self.structure_id)

    def ac_is_exact(self, sockel):
        """Whether the window computation of ac(sockel) captures all of it."""
        return self.algebraically_finite

    def singleton_answer(self, x):
        return finite_answer((x,))

    def __repr__(self):
        return "<structure %s>" % self.structure_id
