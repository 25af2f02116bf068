"""Construction of copies: cut copies in closed form, and a constrained
back-and-forth search where no cut applies.

Constructors build cut copies, a parent minus the cuts of finitely many
roots (``CutCopy``), from the structure's ``cut_root`` and ``cuts``; the
identity is the cut copy with no roots, and disjoint pairs are closed form
only (``closed_form_disjoint_pair``).  One function (``_copy``) chooses
between a cut copy, which nests inside any closed-form parent, and the
search (``BackForthCopy``): the engine for a structure with algebraicity
that defines no cut, or inside a parent that is itself a back-and-forth
copy.

A back-and-forth copy, the one handle that stages, is the image of a
staged finite partial injection, every stage of which agrees with some
group element.  It fixes a finite set pointwise, keeps a finite set out
forever (rejecting any image extension under which an avoided point would
acquire a ranked type over the image) and stays inside its parent.  Its
membership is honestly three-valued: points enter `in` when claimed into
the image, `out` by an avoidance constraint or the parent's exclusions,
and stay `unknown` otherwise.

Bernstein bases (``bernstein_base``) read each sockel's type classes, and
the typeset members drawn for them, from the tables ``check_copy`` keeps
in the structure's memo (``core.TypeClasses``).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from itertools import combinations, islice

from . import core

# CopyHandle and powerset_embedding_dlo are re-exported
from .core import IN, OUT, UNKNOWN, CopyHandle, CutCopy, Frozen
from .errors import (
    ImpossibleConstructionError,
    InclusionContractError,
    PreconditionError,
    SearchBudgetError,
    UnsupportedConstructionError,
)


class UnionCopy(CopyHandle):
    """Union of an up-directed chain of copies: in if in some member, out if
    out of every member."""

    def __init__(self, structure, members):
        super().__init__(structure)
        self.members = tuple(members)

    def membership(self, x):
        seen = {c.membership(x) for c in self.members}
        if IN in seen:
            return IN
        return UNKNOWN if UNKNOWN in seen else OUT

    def describe(self):
        return "union[%s]" % ", ".join(c.describe() for c in self.members)


class BackForthCopy(CopyHandle):
    """A copy built by staged back-and-forth under constraints."""

    def __init__(self, structure, fix=(), avoid=(), parent=None, seed=0):
        super().__init__(structure)
        self._stage = 0
        fixset = frozenset(fix)
        avoidset = frozenset(avoid)
        if fixset & avoidset:
            raise ImpossibleConstructionError(
                "fixed points cannot be avoided: %r" % (fixset & avoidset,))
        self.fix = tuple(structure.sort_points(fixset))
        self.parent = parent
        self.seed = seed
        self._map = {a: a for a in self.fix}
        self._range = set(self.fix)
        self._outs = set(avoidset)
        self._avoid_constraints = tuple(structure.sort_points(avoidset))
        self._cursor = 0
        self._claims = deque()
        self._claims_seen = set()
        self.trace = []
        if parent is not None:
            for a in self.fix:
                if not parent.try_decide(a).is_in:
                    raise PreconditionError(
                        "fixed point %r is not decided inside the parent"
                        % (a,))

    # -- membership ---------------------------------------------------------

    def membership(self, x):
        if x in self._range:
            return IN
        if x in self._outs:
            return OUT
        if self.parent is not None and self.parent.membership(x).is_out:
            return OUT
        return UNKNOWN

    # -- construction -------------------------------------------------------

    def _budget(self):
        return 100 + 10 * self._stage

    def _guards_pass(self, y):
        """Whether every avoided point keeps a certified-unranked type over
        the image with y added."""
        if self._avoid_constraints:
            sockel = frozenset(self._range | {y})
            for e in self._avoid_constraints:
                if self.structure.type_unranked(sockel, e) is not True:
                    return False
        return True

    def _next_source(self):
        while True:
            u = self.structure.point_at(self._cursor)
            if u not in self._map:
                return u
            self._cursor += 1

    def _search(self, items, point, skip, budget, admit=None):
        """(c, scanned) for the first of ``budget`` candidate images c of
        ``point`` over the pairs ``items`` that is not skipped and is
        admitted; (None, scanned) when none is.  ``scanned`` counts the
        candidates read, or, when the stream ends and returns the number
        of enumeration points it read, those points.

        The candidate stream is exact: each image it yields is a target of
        ``items`` already, which ``skip`` drops, or extends the map plus
        point -> c to some g.  So the search tests no orbit."""
        stream = self.structure.target_candidates(items, point)
        scanned = 0
        while scanned < budget:
            try:
                c = next(stream)
            except StopIteration as end:
                return None, max(scanned, end.value or 0)
            scanned += 1
            if not skip(c) and (admit is None or admit(c)):
                return c, scanned
        return None, scanned

    def _forth(self, u, budget):
        parent = self.parent
        y, scanned = self._search(
            list(self._map.items()), u,
            lambda c: c in self._range or c in self._outs or (
                parent is not None and not parent.try_decide(c).is_in),
            budget, self._guards_pass)
        if y is None:
            raise SearchBudgetError(
                "no admissible image for %s within %d candidates"
                % (self.structure.encode(u), scanned),
                blocking=(dict(self._map), u), scanned=scanned)
        self._set(u, y, "forth", scanned)

    def _set(self, src, tgt, move, scanned):
        self._map[src] = tgt
        self._range.add(tgt)
        self.trace.append({
            "round": self._stage,
            "move": move,
            "source": self.structure.encode(src),
            "target": self.structure.encode(tgt),
            "scanned": scanned,
            "checks": len(self._avoid_constraints),
        })

    def schedule_claims(self, points):
        """Queue window points the construction should try to pull into the
        image (the surjectivity-onto-a-controlled-set back steps)."""
        fresh = [p for p in points if p not in self._claims_seen]
        for p in fresh:
            self._claims_seen.add(p)
            self._claims.append(p)
        if fresh and self.seed:
            self._claims.rotate(-(self.seed % len(self._claims)))

    def try_decide(self, y, budget=None):
        """Attempt to decide y by claiming it into the image; returns the
        (possibly still unknown) membership."""
        m = self.membership(y)
        if not m.is_unknown:
            return m
        if budget is None:
            budget = self._budget()
        if self.parent is not None and not self.parent.try_decide(y).is_in:
            return self.membership(y)
        if not self._guards_pass(y):
            # the image only grows, and the ranked closure grows with the
            # set it is taken over: y can never enter
            self._outs.add(y)
            return OUT
        # a back step is a forth step of the inverse map
        s, scanned = self._search([(t, u) for u, t in self._map.items()], y,
                                  self._map.__contains__, budget)
        if s is None:
            return self.membership(y)
        self._set(s, y, "back", scanned)
        return IN

    def _process_one_claim(self, budget):
        while self._claims:
            c = self._claims.popleft()
            if self.membership(c).is_unknown:
                self.try_decide(c, budget)
                return

    def advance(self, stages):
        if stages < 0:
            raise PreconditionError("stages must be >= 0")
        for _ in range(stages):
            budget = self._budget()
            claims_first = (self._stage + self.seed) % 3 == 0
            if claims_first:
                self._process_one_claim(budget)
            self._forth(self._next_source(), budget)
            if not claims_first:
                self._process_one_claim(budget)
            self._stage += 1
        return self

    def describe(self):
        bits = ["back-and-forth"]
        if self.fix:
            bits.append("fix={%s}" % ",".join(
                self.structure.encode(a) for a in self.fix))
        if self._avoid_constraints:
            bits.append("avoid={%s}" % ",".join(
                self.structure.encode(a) for a in self._avoid_constraints))
        if self.parent is not None:
            bits.append("parent=%s" % self.parent.describe())
        return " ".join(bits)


# -- constructors ------------------------------------------------------------


def _copy(structure, fix, avoid, parent, seed):
    """The copy containing ``fix``, avoiding ``avoid``, inside ``parent``:
    the one place that chooses a cut copy or the back-and-forth search.
    Inside any parent but a ``BackForthCopy`` it cuts the ``cut_root`` of
    each avoided point the parent holds and no new root cuts yet, and is
    the parent itself when there is none.  A new root the others make
    redundant is dropped (on pairs one root can cut several avoided
    pairs), so from the identity with no fixed point the copy is maximal
    among the copies avoiding ``avoid``.  A ``BackForthCopy`` parent, or a
    structure whose ``cut_root`` is None, gets a ``BackForthCopy``."""
    if not isinstance(parent, BackForthCopy):
        held = [a for a in structure.sort_points(avoid)
                if not parent.membership(a).is_out]
        new = []
        for a in held:
            if not structure.cuts(frozenset(new), a):
                r = structure.cut_root(fix, a)
                if r is None:
                    break
                new.append(r)
        else:
            for r in new[::-1]:
                rest = frozenset(q for q in new if q != r)
                if all(structure.cuts(rest, a) for a in held):
                    new.remove(r)
            return CutCopy(structure, new, parent) if new else parent
    return BackForthCopy(structure, fix=fix, avoid=avoid, parent=parent,
                         seed=seed)


def copy_identity(structure):
    """The copy U itself: the cut copy with no roots."""
    return CutCopy(structure, ())


def decide_window(handle, depth, stages=None):
    """Advance a back-and-forth copy until the window is as decided as its
    claims allow (the usual preparation before check_copy); a union decides
    each member and a cut copy its parent.  Any other handle never changes,
    and every handle is returned as it is."""
    if isinstance(handle, BackForthCopy):
        handle.schedule_claims([x for x in handle.structure.prefix(depth)
                                if handle.membership(x).is_unknown])
        handle.advance(stages if stages is not None else max(3 * depth, 24))
    elif isinstance(handle, UnionCopy):
        for member in handle.members:
            decide_window(member, depth, stages)
    elif isinstance(handle, CutCopy) and handle.parent is not None:
        decide_window(handle.parent, depth, stages)
    return handle


def copy_through(structure, fix, parent, proper, seed=0):
    """A copy fixing ``fix`` pointwise with image inside ``parent``; when
    proper, one point of the parent is scheduled out as a strictness
    witness, and otherwise a closed-form parent, the identity included,
    is returned itself."""
    fixset = frozenset(fix)
    for a in fixset:
        if not parent.try_decide(a).is_in:
            raise PreconditionError(
                "fixed point %s not inside the parent"
                % structure.encode(a))
    avoid = set()
    if proper:
        if structure.single_copy:
            raise UnsupportedConstructionError(
                "%s has only the copy U: no proper copy exists"
                % structure.structure_id)
        avoid.add(parent.unranked_member(fixset))
    return _copy(structure, fixset, avoid, parent, seed)


def copy_avoiding(structure, fix, avoid, seed=0):
    """A copy containing ``fix`` with every point of ``avoid`` permanently
    out; requires certified-unranked types over ``fix`` for all of them."""
    fixset = frozenset(fix)
    avoidset = frozenset(avoid)
    if fixset & avoidset:
        raise ImpossibleConstructionError(
            "avoided point lies in the fixed set",
            certificate={"kind": "membership", "points": sorted(
                structure.encode(p) for p in fixset & avoidset)})
    for e in avoidset:
        status = structure.type_unranked(fixset, e)
        if status is False:
            fin = structure.typeset_finite(fixset, e)
            cert = {
                "kind": "rank",
                "point": structure.encode(e),
                "status": "ranked-certified",
                "typeset_finite": fin.kind,
            }
            if fin.is_finite:
                cert["typeset"] = [structure.encode(m) for m in
                                   structure.sort_points(fin.members)]
            raise ImpossibleConstructionError(
                "%s lies in the ranked closure of the fixed set"
                % structure.encode(e), certificate=cert)
        if status is None:
            raise UnsupportedConstructionError(
                "structure cannot certify unrankedness of %s"
                % structure.encode(e))
    return _copy(structure, fixset, avoidset, copy_identity(structure), seed)


def max_avoiding_copy(structure, avoid, depth, seed=0):
    """A copy avoiding ``avoid``, decided on the window at ``depth``.  It
    is the maximum copy avoiding ``avoid`` where every stabilizer orbit
    off a finite set is infinite (U minus ``avoid``), on zetaeta (U minus
    the avoided blocks) and on treetz (U minus the avoided up-sets), and
    *a* maximal one on pairs ([N minus H]^2 for a minimal H meeting every
    avoided pair; there are several when the avoided pairs share
    elements, so no maximum)."""
    return decide_window(copy_avoiding(structure, (), avoid, seed=seed), depth)


def descending_chain(structure, fix, c0, k, seed=0, depth=10):
    """c0 together with k strictly nested copies below it, all containing
    ``fix``; the certified-unranked window points over ``fix`` are shared
    out among the levels so the decided intersection shrinks to the ranked
    closure at the window."""
    fixset = frozenset(fix)
    killable = [x for x in structure.prefix(depth)
                if x not in fixset
                and structure.type_unranked(fixset, x) is True]
    if not killable:
        if structure.single_copy:
            raise UnsupportedConstructionError(
                "no certified-unranked types over the fixed set: single copy")
        # the structure has proper copies: a point to take out may lie
        # past the window
        raise SearchBudgetError(
            "no certified-unranked point over the fixed set in the window "
            "U_%d" % depth, scanned=depth)
    for a in fixset:
        if not c0.try_decide(a).is_in:
            raise PreconditionError("fixed point %s not inside the top copy"
                                    % structure.encode(a))
    chain = [c0]
    for i in range(k):
        parent = chain[-1]
        avoid = set(killable[i::k])
        if not any(parent.try_decide(x).is_in for x in avoid):
            # the batch takes nothing more out: avoid the parent's
            # enum-least unranked member too, so the chain stays strict
            avoid.add(parent.unranked_member(fixset))
        c = _copy(structure, fixset, avoid, parent, seed + i)
        chain.append(decide_window(c, depth, max(2 * depth, 16)))
    return chain


def chain_intersection(structure, chain, depth):
    """Window points not decided out of any chain member."""
    out = set()
    for c in chain:
        out |= {x for x in structure.prefix(depth) if c.membership(x).is_out}
    return [x for x in structure.prefix(depth) if x not in out]


def disjoint_pair(structure, fix, seed=0):
    """The structure's closed-form pair of copies meeting exactly in the
    algebraic closure of ``fix``; available on algebraically finite
    structures.  ``seed`` is unused, since the closed forms are
    deterministic; it stays for the callers that pass it, the benchmark's
    workloads among them."""
    if not structure.algebraically_finite:
        raise UnsupportedConstructionError(
            "%s is not certified algebraically finite"
            % structure.structure_id)
    pair = structure.closed_form_disjoint_pair(frozenset(fix))
    if pair is None:
        raise UnsupportedConstructionError(
            "%s has no closed-form disjoint pair" % structure.structure_id)
    return pair


def union_chain(handles):
    """The union of an ascending chain of copies; verifies the claimed
    inclusions on decided points before combining."""
    handles = list(handles)
    if not handles:
        raise PreconditionError("union of an empty chain")
    structure = handles[0].structure
    probe = structure.prefix(16)  # the inclusions are checked on U_16
    for lower, upper in zip(handles, handles[1:]):
        for x in probe:
            if lower.membership(x).is_in and upper.membership(x).is_out:
                raise InclusionContractError(
                    "chain inclusion violated at %s" % structure.encode(x))
    return UnionCopy(structure, handles)


class BernsteinResult(Frozen):
    __slots__ = ("side_a", "side_b", "served", "unserved")

    def __init__(self, side_a, side_b, served, unserved):
        object.__setattr__(self, "side_a", side_a)
        object.__setattr__(self, "side_b", side_b)
        object.__setattr__(self, "served", served)
        object.__setattr__(self, "unserved", unserved)


def _read_sides(members, side_of, have, fresh):
    """The sides seen, as bits (A = 1, B = 2) added to ``have``, reading
    ``members`` in order until both sides are seen or a second unassigned
    member is kept in ``fresh``."""
    for m in members:
        side = side_of(m)
        if side:
            have |= side
            if have == 3:
                break
        else:
            fresh.append(m)
            if len(fresh) == 2:
                break
    return have


def bernstein_base(structure, depth, sockel_cap=2):
    """A two-colouring prefix of U_depth in which every enumerated typeset
    with a small sockel meets both sides; the base of the everything-above-
    it-is-a-copy construction.  Needs all stabilizer orbits infinite.

    Each sockel's window classes, their reps and their typeset members are
    read from the type-class tables in the structure's memo that
    ``check_copy`` shares (``core.TypeClasses``).  A warm base reads the
    members kept in place and reopens a typeset stream only past them,
    when they run out before the class has both sides, so a later base on
    the structure keys no point and rereads no stream."""
    if sockel_cap < 0:
        raise PreconditionError("need sockel_cap >= 0")
    if not structure.stabilizer_orbits_all_infinite:
        raise UnsupportedConstructionError(
            "%s has finite stabilizer orbits off some finite set"
            % structure.structure_id)
    window = structure.prefix(depth)
    assigned = {}  # point -> its side, A = 1 or B = 2
    side_of = assigned.get
    served, unserved = [], []
    reach = 64 * (depth + 1) + 1  # a class reads its members 0..reach-1
    for size in range(0, sockel_cap + 1):
        # the window is in enumeration order, so each sockel listing is
        # too, as check_copy lists its sockels
        for ftup in combinations(window, size):
            table = structure.memo[core.TypeClasses, ftup]
            ids = table.ids
            while len(ids) < depth:
                table.grow(window.__getitem__)
            firsts, drawn = table.firsts, table.drawn
            for c in range(bisect_left(firsts, depth)):
                rep = window[firsts[c]]
                kept = drawn.get(c, ())
                fresh = []
                have = _read_sides(kept if len(kept) <= reach
                                   else islice(kept, reach),
                                   side_of, 0, fresh)
                if have != 3 and len(fresh) < 2 and len(kept) < reach:
                    # fresh members may come from past the window: the
                    # orbits are infinite, only the returned prefix is
                    # windowed
                    have = _read_sides(
                        islice(table.members(c, rep), len(kept), reach),
                        side_of, have, fresh)
                for m in fresh:
                    if have == 3:
                        break
                    side = 2 if have & 1 else 1
                    assigned[m] = side
                    have |= side
                (served if have == 3 else unserved).append((ftup, rep))
    flip = False
    for x in window:
        if x not in assigned:
            assigned[x] = 2 if flip else 1
            flip = not flip
    return BernsteinResult(
        tuple(x for x in window if assigned[x] == 1),
        tuple(x for x in window if assigned[x] == 2),
        tuple(served), tuple(unserved))


def __getattr__(name):
    # the re-export loads dlo (and fractions) only when it is asked for
    if name == "powerset_embedding_dlo":
        from .structures.dlo import powerset_embedding_dlo
        return powerset_embedding_dlo
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
