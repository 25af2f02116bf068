"""Per-structure verification battery behind the `verify` command.

Each row exercises one family of guarantees at desk scale and yields
certificates; rows that do not apply to a structure (no proper copies, not
algebraically finite, ...) report the expected unsupported/impossible
errors as their passing condition.
"""

from __future__ import annotations

from itertools import combinations

from . import certify, closures, engine, typesets
from .errors import (
    ImpossibleConstructionError,
    SearchBudgetError,
    UnsupportedConstructionError,
)

PASS, FAIL, UNKNOWN = "pass", "fail", "unknown"


def _constructed_copies(st, depth, seed):
    out = []
    ident = engine.copy_identity(st)
    out.append(("identity", ident))
    if not st.single_copy:
        c = engine.copy_through(st, frozenset(), engine.copy_identity(st),
                                proper=True, seed=seed)
        engine.decide_window(c, depth)
        out.append(("through-proper", c))
        avoidable = [x for x in st.prefix(depth)
                     if st.type_unranked(frozenset(), x) is True]
        if avoidable:
            c = engine.copy_avoiding(st, frozenset(), avoidable[:1],
                                     seed=seed)
            engine.decide_window(c, depth)
            out.append(("avoiding", c))
    if st.algebraically_finite:
        # closed forms: total membership, nothing to decide
        out.extend(zip(("disjoint-left", "disjoint-right"),
                       engine.disjoint_pair(st, frozenset())))
    if st.structure_id == "dlo":
        out.append(("interval-copy", engine.powerset_embedding_dlo(
            st, members=(0, 2))))
        fam = [engine.powerset_embedding_dlo(st, members=tuple(range(k)))
               for k in range(1, 4)]
        out.append(("union-chain", engine.union_chain(fam)))
    return out


def run_battery(st, depth=10, budget=500, sockel_cap=2, seed=0):
    """Returns (rows, certificates): rows are (name, verdict, note)."""
    rows = []
    certs = []

    def add(name, verdict, note=""):
        rows.append((name, verdict, note))

    # characterization: every constructed copy passes check_copy
    verdict, note = PASS, ""
    for name, handle in _constructed_copies(st, depth, seed):
        cert = certify.check_copy(handle, min(depth, 8), sockel_cap, budget)
        certs.append(cert)
        if cert.verdict != PASS:
            verdict = cert.verdict
            note = "%s: %s" % (name, cert.verdict)
            break
    add("characterization", verdict, note)

    if st.structure_id == "dlo":
        from .structures.dlo import ZERO, IntervalsCopyDLO, Rational

        # {-1} together with the positive rationals: fails the
        # characterization at sockel {-1} (nothing below -1 is inside)
        m1 = Rational(-1)
        planted = IntervalsCopyDLO(
            st, [(m1, True, m1, True), (ZERO, False, None, False)])
        cert = certify.check_copy(planted, 8, 1, budget)
        certs.append(cert)
        ok = cert.verdict == FAIL and cert.counterexample and \
            cert.counterexample.get("sockel") == ["-1"]
        add("planted-non-copy-refuted", PASS if ok else FAIL,
            str(cert.counterexample))

    # differential: decision procedure against the raw oracle
    mism = 0
    window = st.prefix(8)
    for size in range(0, 3):
        for ftup in combinations(window, size):
            fset = frozenset(ftup)
            pool = [p for p in window if p not in fset]
            for x in pool:
                for y in pool:
                    if st.same_type(fset, x, y) != \
                            certify.brute_same_type(st, fset, x, y, 8):
                        mism += 1
    add("differential-orbits", PASS if mism == 0 else FAIL,
        "%d mismatches" % mism)

    # closure sandwich at the window
    verdict, note = PASS, ""
    depth_w = depth
    windowset = set(st.prefix(depth_w))
    # the bases {}, {u0} and {u0, u1}, as far as they fit in the window
    bases = [frozenset(st.prefix(n)) for n in range(min(depth_w, 2) + 1)]
    for base in bases:
        ac = closures.algebraic_closure(st, base, depth_w)
        rc = closures.ranked_closure(st, base, closures.DEFAULT_MAXRANK,
                                     depth_w)
        ic = closures.intersection_closure_upper(
            st, base, samples=4, depth=depth_w, seed=seed)
        acw = ac.member_set() & windowset
        rcw = rc.member_set() & windowset
        icw = ic & windowset
        if not (acw <= rcw <= icw):
            verdict, note = FAIL, "nesting violated for base %r" % (
                sorted(st.encode(p) for p in base),)
            break
        if rc.exact and rcw != icw:
            verdict, note = FAIL, "rc exact but differs from ic"
            break
    add("closure-sandwich", verdict, note)

    # rank spot checks
    if st.structure_id == "zorder":
        a = typesets.rank_at_most(st, typesets.make_type(st, set(), 0), 1, 4)
        add("rank-zeta", PASS if (a.is_at_most and a.bound == 1) else FAIL,
            a.kind)
    if st.structure_id == "zeta2":
        a1 = typesets.rank_at_most(
            st, typesets.make_type(st, set(), (0, 0)), 1, 8)
        a2 = typesets.rank_at_most(
            st, typesets.make_type(st, set(), (0, 0)), 2, 8)
        ok = a1.kind == typesets.NOT_WITHIN and a2.is_at_most and \
            a2.bound == 2
        add("rank-zeta-squared", PASS if ok else FAIL,
            "%s/%s" % (a1.kind, a2.kind))
    if st.structure_id == "dlo":
        a = typesets.rank_at_most(st, typesets.make_type(
            st, set(), st.point_at(0)), 3, depth)
        add("rank-unranked-certified",
            PASS if (a.kind == typesets.UNRANKED and a.certified) else FAIL,
            a.kind)

    # single-copy detection
    if st.single_copy:
        try:
            engine.copy_through(st, frozenset(), engine.copy_identity(st),
                                proper=True)
            add("single-copy-errors", FAIL, "proper copy not refused")
        except UnsupportedConstructionError:
            try:
                engine.copy_avoiding(st, frozenset(), {st.point_at(0)})
                add("single-copy-errors", FAIL, "avoidance not refused")
            except ImpossibleConstructionError:
                add("single-copy-errors", PASS)
        rc = closures.ranked_closure(st, frozenset(),
                                     closures.DEFAULT_MAXRANK, depth)
        full = rc.exact and set(st.prefix(depth)) <= rc.member_set()
        add("single-copy-ranked-closure", PASS if full else FAIL)

    # exchange failure on the pairs action
    if st.structure_id == "pairs":
        u, up, v = (frozenset((0, 1)), frozenset((2, 3)), frozenset((0, 2)))
        ac1 = closures.algebraic_closure(st, {u, up}, 12)
        ac2 = closures.algebraic_closure(st, {u, v}, 12)
        ok = (v in ac1.member_set() and up not in ac2.member_set()
              and len(ac1.members) == 6 and ac1.exact)
        add("exchange-failure", PASS if ok else FAIL,
            "|ac(u,u')|=%d" % len(ac1.members))

    # disjoint pair
    if st.algebraically_finite:
        left, right = engine.disjoint_pair(st, frozenset())
        cert = certify.check_disjointness(left, right, 12)
        certs.append(cert)
        add("disjoint-pair", cert.verdict)

    # descending chain
    if not st.single_copy:
        base = frozenset(st.prefix(1))
        try:
            chain = engine.descending_chain(
                st, base, engine.copy_identity(st), 3, seed=seed,
                depth=depth)
            inter = set(engine.chain_intersection(st, chain, depth))
            rc = closures.ranked_closure(st, base, closures.DEFAULT_MAXRANK,
                                         depth)
            want = rc.member_set() & set(st.prefix(depth))
            for lower, upper in zip(chain[1:], chain):
                cert = certify.check_inclusion(lower, upper, 8)
                certs.append(cert)
            ok = inter == want if rc.exact else want <= inter
            add("descending-chain", PASS if ok else FAIL,
                "intersection %d points" % len(inter))
        except SearchBudgetError as e:
            add("descending-chain", UNKNOWN, str(e))
        except UnsupportedConstructionError:
            add("descending-chain", FAIL, "unexpectedly unsupported")

    if st.structure_id == "dlo":
        subsets = [(), (0,), (1,), (0, 1)]
        handles = {s: engine.powerset_embedding_dlo(st, members=s)
                   for s in subsets}
        ok = True
        for a in subsets:
            for b in subsets:
                cert = certify.check_inclusion(handles[a], handles[b], 30)
                expected = PASS if set(a) <= set(b) else FAIL
                if cert.verdict != expected:
                    ok = False
        add("powerset-embedding", PASS if ok else FAIL)

    if st.stabilizer_orbits_all_infinite:
        result = engine.bernstein_base(st, depth)
        # the guarantee is for small sockels from a short prefix; window
        # typesets with fewer than two window members are unservable
        small = set(st.prefix(4))
        bad = [entry for entry in result.unserved
               if set(entry[0]) <= small]
        add("bernstein-base", PASS if not bad else FAIL,
            "%d served, %d unserved small" % (len(result.served), len(bad)))

    return rows, certs
