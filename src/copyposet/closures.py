"""Closure operators: algebraic, ranked (lower approximation), and the
intersection closure sampled from constructed copies (upper approximation).

At a window the three nest: ac <= rc <= ic_upper, and rc meets ic_upper
whenever rc is exact, which at desk scale realizes the identity between the
ranked closure and the intersection of all copies over a finite base.
"""

from __future__ import annotations

from . import typesets
from .core import Frozen
from .errors import PreconditionError

DEFAULT_MAXRANK = 3


class ClosureResult(Frozen):
    __slots__ = ("structure_id", "kind", "base", "members", "exact",
                 "certificates")
    _uncompared = ("certificates",)

    def __init__(self, structure_id, kind, base, members, exact,
                 certificates=()):
        object.__setattr__(self, "structure_id", structure_id)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "certificates", certificates)

    def member_set(self):
        return frozenset(self.members)


def algebraic_closure(structure, base, depth):
    """base plus the union of all finite typesets over base that meet
    U_depth.  Exact when the structure certifies nothing lies beyond."""
    base = frozenset(base)
    if depth < len(base):
        raise PreconditionError("depth must be at least |base|")
    members = set(base)
    certs = []
    for x in structure.prefix(depth):
        if x in members:
            continue
        fin = structure.typeset_finite(base, x)
        if fin.is_finite:
            members.update(fin.members)
            certs.append({
                "kind": "finite-typeset",
                "rep": structure.encode(x),
                "members": [structure.encode(m) for m in
                            structure.sort_points(fin.members)],
            })
    exact = structure.ac_is_exact(base)
    if exact:
        full = structure.ac_members_exact(base) | base
        exact = full <= members
        members.update(full)
    return ClosureResult(
        structure.structure_id, "ac",
        tuple(structure.sort_points(base)),
        tuple(structure.sort_points(members)),
        exact, tuple(certs))


def ranked_closure(structure, base, maxrank, depth):
    """base plus the typesets over base whose bounded rank search succeeds
    with bound maxrank; a lower approximation of the ranked closure.

    Exact when every excluded window point carries a certified-unranked
    type, so nothing ranked was missed."""
    base = frozenset(base)
    if depth < len(base):
        raise PreconditionError("depth must be at least |base|")
    search = typesets.rank_search(structure, depth)
    members = set(base)
    certs = []
    exact = True
    pool = [x for x in structure.prefix(depth) if x not in base]
    for rep, cls in structure.orbit_reps(base, pool):
        answer = search.bound(base, rep, maxrank)
        if answer.is_at_most:
            fin = structure.typeset_finite(base, rep)
            if fin.is_finite:
                members.update(fin.members)
            else:
                members.update(cls)
            certs.append({"kind": "ranked", "rep": structure.encode(rep),
                          "bound": answer.bound})
        elif answer.kind == typesets.UNRANKED:
            certs.append({"kind": "unranked-certified",
                          "rep": structure.encode(rep)})
        else:
            exact = False
            certs.append({"kind": "rank-unresolved",
                          "rep": structure.encode(rep),
                          "within": answer.bound})
    return ClosureResult(
        structure.structure_id, "rc",
        tuple(structure.sort_points(base)),
        tuple(structure.sort_points(members)),
        exact, tuple(certs))


def intersection_closure_upper(structure, base, samples, depth, seed=0):
    """Intersection of sampled constructed copies containing base,
    restricted to U_depth: an upper approximation of the intersection
    closure.

    Sampling strategy: the identity copy, one copy avoiding every window
    point whose type over base is certified unranked, and seed-varied
    proper copies through the identity while the sample budget lasts.  On
    a structure with cuts the seed changes nothing: every sampled proper
    copy is the same cut copy."""
    from . import engine  # local, so that closure ac and rc never load it

    base = frozenset(base)
    if samples < 1:
        raise PreconditionError("need at least one sample")
    survivors = set(structure.prefix(depth))
    survivors |= base
    rc = ranked_closure(structure, base, DEFAULT_MAXRANK, depth)
    rc_members = rc.member_set()
    avoidable = [x for x in structure.prefix(depth)
                 if x not in rc_members
                 and structure.type_unranked(base, x) is True]
    copies = [engine.copy_identity(structure)]
    if avoidable:
        copies.append(engine.copy_avoiding(structure, base, avoidable,
                                           seed=seed))
    extra = samples - len(copies)
    if not structure.single_copy:
        for i in range(max(0, extra)):
            copies.append(engine.copy_through(
                structure, base, engine.copy_identity(structure),
                proper=True, seed=seed + 1 + i))
    for c in copies[1:]:
        engine.decide_window(c, depth, max(2 * depth, 12))
    for c in copies:
        survivors -= {x for x in survivors if c.membership(x).is_out}
    return frozenset(survivors)
