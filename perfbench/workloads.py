"""The operation lists of the benchmark's workloads.

A library workload is a fixed list of operations built once per run from
the workload seed; every round runs the whole list, so each run attempts
whole rounds of the same operations.  An operation is a call into the
library plus a check of its output:

* ``check(result)`` returns True when the operation succeeded, False when
  the library gave no usable answer (an exception, an ``unknown`` verdict,
  a ``fail`` on a copy), and raises ``Incorrect`` when the answer is wrong.

Known faults stay in the lists and count as failed until they are fixed.
Their inputs never depend on the seed, so they fail in every round:

* F1  check_copy on the rado copy avoiding 600 reports ``fail``;
* F2  decide_window then check_copy stays ``unknown`` for dlo through-proper
      and avoiding copies at d = 8 and 12, and for zetaeta at d = 12; the
      same holds for the dlo copy of max_avoiding_copy at window 8;
* F3  (cli-cold) typeset on dlo 1/16 and zetaeta (1/8|0) exhausts the
      enumeration scan cap;
* F4  (cli-cold) typeset on rado over {300, 700} exhausts the stream cap;
* F5  max_avoiding_copy on rado and treetz raises AttributeError.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import checks


class Incorrect(Exception):
    """The library answered, and the answer is wrong."""


class Op:
    __slots__ = ("name", "fn", "check")

    def __init__(self, name, fn, check):
        self.name, self.fn, self.check = name, fn, check


def expect(cond, message):
    if not cond:
        raise Incorrect(message)


def passed(cert):
    """A certificate that must pass: any other verdict is a failure of the
    library to certify, not a wrong answer the benchmark can prove."""
    return cert.verdict == "pass"


# -- orbit-scan --------------------------------------------------------------

# (structure, arity, window); every window is past the point where the
# profile has stabilised for the formula checks
PROFILES = (("pureset", 4, 6), ("dlo", 3, 8), ("dlo", 4, 5), ("rado", 3, 8),
            ("equiv", 3, 8), ("pairs", 3, 8), ("zorder", 3, 8))
BERNSTEIN = (("rado", 14), ("dlo", 10), ("equiv", 10), ("pureset", 10))
TYPESET_STRUCTURES = ("dlo", "rado")
TYPESET_COUNT = 8


def orbit_scan(cp, seed):
    """Warm-cache exploration: orbit profiles, Bernstein bases, bounded rank
    and typeset streams.  Takes no seeded input."""
    del seed
    typesets, engine, get = cp.typesets, cp.engine, cp.get_structure
    ops = []
    for sid, n, w in PROFILES:
        st = get(sid)
        want = checks.profile_formula(sid, n)
        if sid == "pairs":
            want = checks.pair_tuple_classes(st.prefix(w), n)
        elif sid == "zorder":
            want = checks.zorder_difference_vectors(st.prefix(w), n)

        def check(got, want=want, label="%s n=%d w=%d" % (sid, n, w)):
            expect(got == want, "profile %s: %r, expected %r"
                   % (label, got, want))
            return True
        ops.append(Op("oligomorphic_profile %s" % sid,
                      lambda st=st, n=n, w=w:
                      typesets.oligomorphic_profile(st, n, w), check))

    for sid, depth in BERNSTEIN:
        st = get(sid)

        def check(res, st=st, depth=depth):
            window = st.prefix(depth)
            a, b = set(res.side_a), set(res.side_b)
            expect(not a & b and a | b == set(window)
                   and len(res.side_a) + len(res.side_b) == depth,
                   "bernstein %s: sides do not partition the window"
                   % st.structure_id)
            small = set(st.prefix(4))
            left = [e for e in res.unserved if set(e[0]) <= small]
            expect(not left, "bernstein %s: %d small typesets unserved"
                   % (st.structure_id, len(left)))
            return True
        ops.append(Op("bernstein_base %s" % sid,
                      lambda st=st, depth=depth:
                      engine.bernstein_base(st, depth), check))

    def rank_op(sid, rep, k, window, want_kind, want_bound=None):
        st = get(sid)

        def check(ans):
            expect(ans.kind == want_kind and ans.certified ==
                   (want_kind != typesets.NOT_WITHIN),
                   "rank %s k=%d: %s" % (sid, k, ans.kind))
            if want_bound is not None:
                expect(ans.bound == want_bound,
                       "rank %s k=%d: bound %d" % (sid, k, ans.bound))
            return True
        return Op("rank_at_most %s k=%d" % (sid, k),
                  lambda: typesets.rank_at_most(
                      st, typesets.make_type(st, set(), rep), k, window),
                  check)
    ops.append(rank_op("zorder", 0, 1, 4, typesets.AT_MOST, 1))
    ops.append(rank_op("zeta2", (0, 0), 1, 8, typesets.NOT_WITHIN))
    ops.append(rank_op("zeta2", (0, 0), 2, 8, typesets.AT_MOST, 2))
    ops.append(rank_op("dlo", Fraction(0), 3, 10, typesets.UNRANKED))

    for sid in TYPESET_STRUCTURES:
        st = get(sid)
        small = st.prefix(4)
        for size in range(3):
            for sockel in combinations(small, size):
                reps = [p for p in st.prefix(8) if p not in sockel][:3]
                for rep in reps:
                    ops.append(_typeset_op(typesets, st, sockel, rep))
    return ops


def _typeset_op(typesets, st, sockel, rep):
    t = typesets.make_type(st, sockel, rep)
    if st.structure_id == "rado":
        want = checks.rado_typeset_prefix(set(sockel), rep, TYPESET_COUNT)

        def check(members):
            expect(members == want, "rado typeset %r |> %r: %r, expected %r"
                   % (sockel, rep, members, want))
            return True
    else:
        def check(members):
            expect(len(set(members)) == TYPESET_COUNT
                   and not set(members) & set(sockel)
                   and all(checks.dlo_same_cut(sockel, m, rep)
                           for m in members),
                   "dlo typeset %r |> %r: %r" % (sockel, rep, members))
            return True
    return Op("typeset_members %s" % st.structure_id,
              lambda: typesets.typeset_members(st, t, TYPESET_COUNT), check)


# -- copy-certify ------------------------------------------------------------

COPY_DEPTHS = (8, 12)
CHECK_DEPTH = 8
BUDGET = 500
INCLUSION_SAMPLE = 200
INCLUSION_DEPTH = 60
SANDWICH_BASES = 2


def copy_certify(cp, seed):
    """Constructors and certificates; the seed picks the copy seeds of the
    chains, disjoint pairs and sampled closures, the closure bases and the
    inclusion sample."""
    certify, closures, engine, get = (cp.certify, cp.closures, cp.engine,
                                      cp.get_structure)
    rng = random.Random(seed)
    ops = []
    proper = [sid for sid in cp.BUILTIN_IDS if not get(sid).single_copy]

    def certified(make, depth=CHECK_DEPTH):
        return lambda: certify.check_copy(make(), depth, 2, BUDGET)

    for sid in proper:
        st = get(sid)
        for d in COPY_DEPTHS:
            def through(st=st, d=d):
                c = engine.copy_through(st, frozenset(),
                                        engine.copy_identity(st),
                                        proper=True, seed=0)
                return engine.decide_window(c, d)

            def avoiding(st=st, d=d):
                avoid = next(x for x in st.prefix(d)
                             if st.type_unranked(frozenset(), x) is True)
                c = engine.copy_avoiding(st, frozenset(), {avoid}, seed=0)
                return engine.decide_window(c, d)
            ops.append(Op("through-proper %s d=%d" % (sid, d),
                          certified(through, d), passed))
            ops.append(Op("avoiding %s d=%d" % (sid, d),
                          certified(avoiding, d), passed))

        def max_avoiding(st=st):
            avoid = next(x for x in st.prefix(CHECK_DEPTH)
                         if st.type_unranked(frozenset(), x) is True)
            return engine.max_avoiding_copy(st, [avoid], CHECK_DEPTH)
        ops.append(Op("max_avoiding_copy %s" % sid, certified(max_avoiding),
                      passed))
        ops.append(_chain_op(cp, st, rng.randrange(1000)))

    for sid in proper:
        st = get(sid)
        if st.algebraically_finite:
            ops.append(_disjoint_op(cp, st, frozenset(), rng.randrange(1000)))
    pa = get("pairs")
    ops.append(_disjoint_op(cp, pa, frozenset(
        {frozenset((0, 1)), frozenset((2, 3))}), rng.randrange(1000)))
    ops.append(_dlo_chain_op(cp, rng.randrange(1000)))

    rado = get("rado")
    ops.append(Op("F1 check_copy rado avoiding 600",
                  lambda: certify.check_copy(
                      engine.copy_avoiding(rado, set(), {600}), 8, 2, 200),
                  passed))

    class PlantedNonCopyDLO(engine.CopyHandle):
        """{-1} together with the positive rationals: not a copy, refuted at
        the sockel {-1} (no member lies below -1)."""

        def membership(self, x):
            return cp.IN if (x == -1 or x > 0) else cp.OUT

    def planted_check(cert):
        if cert.verdict == "unknown":
            return False
        expect(cert.verdict == "fail"
               and cert.counterexample.get("sockel") == ["-1"]
               and cert.counterexample.get("point") == "-2",
               "planted non-copy: %s %r" % (cert.verdict,
                                            cert.counterexample))
        return True
    ops.append(Op("planted non-copy dlo",
                  lambda: certify.check_copy(
                      PlantedNonCopyDLO(get("dlo")), 8, 1, BUDGET),
                  planted_check))

    ops.extend(_interval_ops(cp, rng))

    for st in cp.all_structures():
        for _ in range(SANDWICH_BASES):
            base = frozenset(rng.sample(st.prefix(8), rng.randint(0, 3)))
            ops.append(_sandwich_op(closures, st, base, rng.randrange(1000)))
    return ops


def _chain_op(cp, st, seed):
    certify, engine = cp.certify, cp.engine

    def run():
        chain = engine.descending_chain(
            st, frozenset(st.prefix(1)), engine.copy_identity(st), 2,
            seed=seed, depth=10)
        certs = []
        for lower, upper in zip(chain[1:], chain):
            engine.decide_window(lower, CHECK_DEPTH)
            certs.append(certify.check_copy(lower, CHECK_DEPTH, 2, BUDGET))
            certs.append(certify.check_inclusion(lower, upper, CHECK_DEPTH))
        return certs
    return Op("descending_chain %s" % st.structure_id, run,
              lambda certs: all(c.verdict == "pass" for c in certs))


def _disjoint_op(cp, st, fix, seed):
    certify, engine = cp.certify, cp.engine
    support = set().union(*fix) if st.structure_id == "pairs" else set()
    want_core = checks.two_subsets(support) if st.structure_id == "pairs" \
        else set(fix)

    def run():
        left, right = engine.disjoint_pair(st, fix, seed=seed)
        core = st.ac_members_exact(fix) | fix
        certs = []
        for side in (left, right):
            engine.decide_window(side, CHECK_DEPTH, stages=CHECK_DEPTH)
            certs.append(certify.check_copy(side, CHECK_DEPTH, 2, BUDGET))
        certs.append(certify.check_disjointness(left, right, 12, core))
        return core, certs

    def check(result):
        core, certs = result
        expect(set(core) == want_core, "disjoint %s: core %r, expected %r"
               % (st.structure_id, sorted(map(sorted, core)) if fix
                  else sorted(core), want_core))
        return all(c.verdict == "pass" for c in certs)
    return Op("disjoint_pair %s |fix|=%d" % (st.structure_id, len(fix)),
              run, check)


def _dlo_chain_op(cp, seed):
    certify, engine = cp.certify, cp.engine
    dlo = cp.get_structure("dlo")
    zero = Fraction(0)

    def run():
        chain = engine.descending_chain(dlo, {zero}, engine.copy_identity(dlo),
                                        5, seed=seed, depth=10)
        certs = [certify.check_inclusion(lower, upper, CHECK_DEPTH)
                 for lower, upper in zip(chain[1:], chain)]
        return engine.chain_intersection(dlo, chain, 10), certs, chain

    def check(result):
        meet, certs, chain = result
        if not all(c.verdict == "pass" for c in certs):
            return False
        expect(len(chain) == 6 and meet == [zero],
               "dlo chain over {0}: %d links meeting in %r"
               % (len(chain), meet))
        return True
    return Op("descending_chain dlo k=5", run, check)


def _interval_ops(cp, rng):
    """The 2^10 interval copies of the rationals, each through check_copy,
    their window masks, and a seeded sample of inclusion certificates."""
    certify, engine, dlo = cp.certify, cp.engine, cp.get_structure("dlo")
    subsets = [frozenset(c) for k in range(11)
               for c in combinations(range(10), k)]
    ops = []
    for s in subsets:
        ops.append(Op("interval copy check_copy",
                      lambda s=s: certify.check_copy(
                          engine.powerset_embedding_dlo(
                              dlo, members=tuple(sorted(s))),
                          CHECK_DEPTH, 2, BUDGET), passed))

    window = dlo.prefix(INCLUSION_DEPTH)
    handles = [engine.powerset_embedding_dlo(dlo, members=tuple(sorted(s)))
               for s in subsets]

    def masks():
        return [sum(1 << i for i, x in enumerate(window)
                    if h.membership(x).is_in) for h in handles]
    want = [sum(1 << i for i, x in enumerate(window)
                if checks.interval_copy_member(s, x)) for s in subsets]

    def check_masks(got):
        expect(len(set(got)) == len(subsets),
               "interval copies are not distinct on the window")
        expect(got == want, "interval copy memberships differ from the "
               "interval union")
        return True
    ops.append(Op("interval copy masks", masks, check_masks))

    # half the sample are subset pairs, so both verdicts are exercised
    for i in range(INCLUSION_SAMPLE):
        b = rng.randrange(len(subsets))
        if i % 2:
            a = rng.randrange(len(subsets))
        else:
            sub = frozenset(e for e in subsets[b] if rng.random() < 0.5)
            a = subsets.index(sub)

        def check(cert, a=a, b=b):
            want = "pass" if subsets[a] <= subsets[b] else "fail"
            if cert.verdict == "unknown":
                return False
            expect(cert.verdict == want, "inclusion %s <= %s: %s"
                   % (sorted(subsets[a]), sorted(subsets[b]), cert.verdict))
            return True
        ops.append(Op("check_inclusion interval copies",
                      lambda a=a, b=b: certify.check_inclusion(
                          handles[a], handles[b], INCLUSION_DEPTH), check))
    return ops


def _sandwich_op(closures, st, base, seed):
    def run():
        ac = closures.algebraic_closure(st, base, 10)
        rc = closures.ranked_closure(st, base, closures.DEFAULT_MAXRANK, 10)
        ic = closures.intersection_closure_upper(st, base, samples=4,
                                                 depth=10, seed=seed)
        return ac, rc, ic

    def check(result):
        ac, rc, ic = result
        w = set(st.prefix(10))
        acw, rcw, icw = ac.member_set() & w, rc.member_set() & w, ic & w
        label = "%s base %r" % (st.structure_id,
                                sorted(st.encode(p) for p in base))
        expect(acw <= rcw <= icw, "closures do not nest: " + label)
        expect(not rc.exact or rcw == icw, "rc exact but not ic: " + label)
        return True
    return Op("closure sandwich %s" % st.structure_id, run, check)


# -- oracle-differential -----------------------------------------------------

DIFF_WINDOW = 12
DIFF_SOCKEL = 2


def oracle_differential(cp, seed):
    """Every same_type answer on sockels of size <= K over a window of W
    points against the brute-force oracle, on all nine structures.  Takes
    no seeded input."""
    del seed
    certify = cp.certify
    ops = []
    for st in cp.all_structures():
        for size in range(DIFF_SOCKEL + 1):
            for ftup in combinations(st.prefix(DIFF_WINDOW), size):
                fset = frozenset(ftup)

                def run(st=st, fset=fset):
                    # the op draws its points from the enumeration itself
                    pool = [p for p in map(st.point_at, range(DIFF_WINDOW))
                            if p not in fset]
                    mismatches = 0
                    for x in pool:
                        for y in pool:
                            if st.same_type(fset, x, y) != \
                                    certify.brute_same_type(
                                        st, fset, x, y, DIFF_WINDOW):
                                mismatches += 1
                    return mismatches, len(pool) ** 2
                ops.append(Op("differential %s" % st.structure_id, run,
                              _no_mismatch))
    return ops


def _no_mismatch(result):
    mismatches, _ = result
    expect(mismatches == 0, "%d same_type answers differ from the brute-"
           "force oracle" % mismatches)
    return True


def differential_round(results):
    """The comparisons of a whole round number sum_k C(W,k) (W-k)^2 per
    structure."""
    total = sum(r[1] for r in results if r is not None)
    want = len(results) // sum(
        comb(DIFF_WINDOW, k) for k in range(DIFF_SOCKEL + 1)) * \
        checks.differential_comparisons(DIFF_WINDOW, DIFF_SOCKEL)
    expect(total == want, "differential made %d comparisons, expected %d"
           % (total, want))


# workload -> (function making the operation list, check of a whole round)
LIBRARY = {
    "orbit-scan": (orbit_scan, None),
    "copy-certify": (copy_certify, None),
    "oracle-differential": (oracle_differential, differential_round),
}

# enumeration prefixes each library workload reads, built during set-up
PREFIXES = {
    "orbit-scan": {"pureset": 16, "dlo": 1200, "rado": 1024, "equiv": 200,
                   "pairs": 16, "zorder": 16, "zeta2": 32},
    "copy-certify": {sid: 600 for sid in (
        "pureset", "zorder", "dlo", "rado", "equiv", "zeta2", "zetaeta",
        "treetz", "pairs")},
    "oracle-differential": {sid: DIFF_WINDOW for sid in (
        "pureset", "zorder", "dlo", "rado", "equiv", "zeta2", "zetaeta",
        "treetz", "pairs")},
}
