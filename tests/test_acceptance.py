"""Acceptance battery: every exit criterion at its stated scale.

Each criterion prints one pass/fail line; the stated wall-clock budgets are
asserted.  Heavy pairwise comparisons use cached membership masks built
from the same membership calls the checked operations make; a seeded
sample is re-verified through the full certificate path.
"""

import random
import time
from fractions import Fraction as F
from itertools import combinations

import pytest

from copyposet import certify, cli, closures, engine, typesets
from copyposet.core import IN, OUT
from copyposet.errors import (
    ImpossibleConstructionError,
    UnsupportedConstructionError,
)
from copyposet.structures import all_structures, get_structure

fs = frozenset


def decided_out(handle, depth):
    """The window points ``handle`` decides out, in enumeration order."""
    return [x for x in handle.structure.prefix(depth)
            if handle.membership(x).is_out]


AMALGAMATION_IDS = ("dlo", "rado", "pureset", "equiv", "pairs")


def report(num, started, note=""):
    print("[criterion %2d] PASS %.1fs %s" % (num, time.time() - started,
                                             note))


class PlantedNonCopy(engine.CopyHandle):
    def membership(self, x):
        return IN if (x == -1 or x > 0) else OUT


def constructed_copies(st, seed=0, depth=10):
    """One copy per supported constructor, windows decided for checking."""
    out = [("identity", engine.copy_identity(st))]
    through = engine.copy_through(st, frozenset(),
                                  engine.copy_identity(st), proper=True,
                                  seed=seed)
    engine.decide_window(through, depth)
    out.append(("through-proper", through))
    avoidable = [x for x in st.prefix(depth)
                 if st.type_unranked(frozenset(), x) is True]
    avoiding = engine.copy_avoiding(st, frozenset(), avoidable[:1],
                                    seed=seed)
    engine.decide_window(avoiding, depth)
    out.append(("avoiding", avoiding))
    base = frozenset(st.prefix(1))
    chain = engine.descending_chain(st, base, engine.copy_identity(st), 2,
                                    seed=seed, depth=depth)
    for i, link in enumerate(chain[1:], 1):
        engine.decide_window(link, depth)
        out.append(("chain-%d" % i, link))
    # closed forms: total membership, nothing to decide
    out.extend(zip(("disjoint-left", "disjoint-right"),
                   engine.disjoint_pair(st, frozenset(), seed=seed)))
    if st.structure_id == "dlo":
        out.append(("interval", engine.powerset_embedding_dlo(
            st, members=(0, 2))))
        fam = [engine.powerset_embedding_dlo(st, members=tuple(range(k)))
               for k in (1, 2, 3)]
        out.append(("union", engine.union_chain(fam)))
    return out


def test_criterion_01_characterization_soundness():
    started = time.time()
    checked = 0
    for sid in AMALGAMATION_IDS:
        st = get_structure(sid)
        for name, handle in constructed_copies(st):
            cert = certify.check_copy(handle, 8, 2, 500)
            assert cert.verdict == "pass", (sid, name, cert.verdict,
                                            cert.counterexample,
                                            cert.unresolved[:3])
            checked += 1
    planted = certify.check_copy(PlantedNonCopy(get_structure("dlo")),
                                 8, 1, 500)
    assert planted.verdict == "fail"
    assert planted.counterexample["sockel"] == ["-1"]
    assert planted.counterexample["point"] == "-2"
    elapsed = time.time() - started
    assert elapsed < 30
    report(1, started, "%d copies checked + planted refuted" % checked)


def test_criterion_02_differential_orbit_agreement():
    started = time.time()
    total = 0
    for st in all_structures():
        window = st.prefix(12)
        for size in range(0, 4):
            for ftup in combinations(window, size):
                fset = frozenset(ftup)
                pool = [p for p in window if p not in fset]
                for x in pool:
                    for y in pool:
                        fast = st.same_type(fset, x, y)
                        slow = certify.brute_same_type(st, fset, x, y, 12)
                        assert fast == slow, (st.structure_id, ftup, x, y)
                        total += 1
    elapsed = time.time() - started
    assert elapsed < 120
    report(2, started, "%d comparisons, zero mismatches" % total)


def test_criterion_03_closure_sandwich():
    started = time.time()
    rng = random.Random(20260808)
    cases = 0
    for st in all_structures():
        window = st.prefix(8)
        wset = set(st.prefix(10))
        for trial in range(20):
            base = frozenset(rng.sample(window, rng.randint(0, 3)))
            ac = closures.algebraic_closure(st, base, 10).member_set()
            rc_res = closures.ranked_closure(st, base, 3, 10)
            rc = rc_res.member_set()
            ic = closures.intersection_closure_upper(
                st, base, samples=4, depth=10, seed=trial)
            assert (ac & wset) <= (rc & wset) <= (ic & wset), (
                st.structure_id, sorted(st.encode(p) for p in base))
            if rc_res.exact:
                assert (rc & wset) == (ic & wset), (
                    st.structure_id, sorted(st.encode(p) for p in base))
            cases += 1
    elapsed = time.time() - started
    assert elapsed < 60
    report(3, started, "%d sampled bases across 9 structures" % cases)


def test_criterion_04_exchange_failure_on_pairs():
    started = time.time()
    pa = get_structure("pairs")
    u, up, v = fs((0, 1)), fs((2, 3)), fs((0, 2))
    ac_uu = closures.algebraic_closure(pa, {u, up}, 12)
    ac_uv = closures.algebraic_closure(pa, {u, v}, 12)
    assert v in ac_uu.member_set()
    assert up not in ac_uv.member_set()
    assert len(ac_uu.members) == 6 and ac_uu.exact
    report(4, started, "|ac({u,u'})| = 6, exchange fails")


def test_criterion_05_rank_values():
    started = time.time()
    z = get_structure("zorder")
    a = typesets.rank_at_most(z, typesets.make_type(z, set(), 0), 1, 4)
    assert a.is_at_most and a.bound == 1
    assert a.witness["extension"] == ["0"]
    z2 = get_structure("zeta2")
    t = typesets.make_type(z2, set(), (0, 0))
    assert typesets.rank_at_most(z2, t, 1, 8).kind == typesets.NOT_WITHIN
    a2 = typesets.rank_at_most(z2, t, 2, 8)
    assert a2.is_at_most and a2.bound == 2
    dlo = get_structure("dlo")
    for sockel in (set(), {F(0)}, {F(0), F(1)}, {F(-1), F(1, 2)}):
        rep = next(p for p in dlo.prefix(12) if p not in sockel)
        ans = typesets.rank_at_most(
            dlo, typesets.make_type(dlo, sockel, rep), 3, 10)
        assert ans.kind == typesets.UNRANKED and ans.certified
    report(5, started, "zeta: 1, zeta^2: 2 (not within 1), dlo: unranked")


def test_criterion_06_single_copy_detection():
    started = time.time()
    for sid in ("zorder", "zeta2"):
        st = get_structure(sid)
        with pytest.raises(ImpossibleConstructionError):
            engine.copy_avoiding(st, frozenset(), {st.point_at(0)})
        with pytest.raises(UnsupportedConstructionError):
            engine.copy_through(st, frozenset(), engine.copy_identity(st),
                                proper=True)
        rc = closures.ranked_closure(st, frozenset(), 2, 8)
        assert rc.exact
        assert set(st.prefix(8)) <= rc.member_set()
    report(6, started, "zorder and zeta2 refuse proper/avoiding copies")


def test_criterion_07_powerset_embedding():
    started = time.time()
    dlo = get_structure("dlo")
    subsets = [frozenset(c) for k in range(11)
               for c in combinations(range(10), k)]
    assert len(subsets) == 1024
    handles = {s: engine.powerset_embedding_dlo(dlo, members=tuple(sorted(s)))
               for s in subsets}
    window = dlo.prefix(60)
    # window membership masks: exactly the data check_inclusion compares
    masks = {}
    for s, h in handles.items():
        m = 0
        for i, x in enumerate(window):
            if h.membership(x).is_in:
                m |= 1 << i
        masks[s] = m
    assert len(set(masks.values())) == 1024, "copies must be distinct"
    for a in subsets:
        for b in subsets:
            window_inclusion = (masks[a] & ~masks[b]) == 0
            assert window_inclusion == (a <= b), (sorted(a), sorted(b))
    # tie the mask comparison to the certificate path on a seeded sample
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.choice(subsets), rng.choice(subsets)
        cert = certify.check_inclusion(handles[a], handles[b], 60)
        assert (cert.verdict == "pass") == (a <= b)
    for s in subsets:
        cert = certify.check_copy(handles[s], 8, 2, 500)
        assert cert.verdict == "pass", sorted(s)
    elapsed = time.time() - started
    assert elapsed < 120
    report(7, started, "2^10 copies, inclusion order is subset order")


def test_criterion_08_disjoint_pairs():
    started = time.time()
    for sid in ("dlo", "rado"):
        st = get_structure(sid)
        left, right = engine.disjoint_pair(st, frozenset())
        for x in st.prefix(12):
            assert not (left.membership(x).is_in and
                        right.membership(x).is_in)
            assert left.membership(x).is_out or right.membership(x).is_out
    pa = get_structure("pairs")
    base = fs({fs((0, 1)), fs((2, 3))})
    left, right = engine.disjoint_pair(pa, base)
    core = pa.ac_members_exact(base)
    assert len(core) == 6
    for x in pa.prefix(12):
        inside = left.membership(x).is_in and right.membership(x).is_in
        if x in core:
            assert inside
        else:
            assert not inside
            assert left.membership(x).is_out or right.membership(x).is_out
    report(8, started, "dlo/rado meet in nothing, pairs in the 6-point ac")


def test_criterion_09_descending_chain():
    started = time.time()
    dlo = get_structure("dlo")
    chain = engine.descending_chain(
        dlo, {F(0)}, engine.copy_identity(dlo), 5, depth=10)
    assert len(chain) == 6
    for lower, upper in zip(chain[1:], chain):
        cert = certify.check_inclusion(lower, upper, 8)
        assert cert.verdict == "pass"
        strict = any(upper.membership(x).is_in and
                     lower.membership(x).is_out
                     for x in dlo.prefix(20))
        assert strict
        assert lower.membership(F(0)).is_in
    assert engine.chain_intersection(dlo, chain, 10) == [F(0)]
    report(9, started, "5-chain strictly nested, window meet = {0}")


def test_criterion_10_no_isolated_point_proxy():
    started = time.time()
    dlo = get_structure("dlo")
    for seed in range(10):
        c = engine.copy_through(dlo, {F(0)}, engine.copy_identity(dlo),
                                proper=True, seed=seed)
        engine.decide_window(c, 8)
        inside = c.decided_in(8)[:2]
        outside = decided_out(c, 8)[:2]
        witness = next(x for x in c.decided_in(8) if x not in inside)
        second = engine.copy_avoiding(dlo, set(inside),
                                      set(outside) | {witness}, seed=seed)
        assert all(second.membership(x).is_in for x in inside)
        assert all(second.membership(x).is_out for x in outside)
        assert c.membership(witness).is_in
        assert second.membership(witness).is_out
    report(10, started, "10 neighbourhoods, a second copy every time")


def test_criterion_11_up_directed_union():
    started = time.time()
    dlo = get_structure("dlo")
    fam = [engine.powerset_embedding_dlo(dlo, members=tuple(range(k)))
           for k in (1, 2, 3)]
    union = engine.union_chain(fam)
    cert = certify.check_copy(union, 8, 2, 500)
    assert cert.verdict == "pass"
    report(11, started, "union of the nested interval family is a copy")


def test_criterion_12_determinism(tmp_path):
    started = time.time()
    outputs = []
    for run in range(2):
        path = tmp_path / ("run%d.jsonl" % run)
        code = cli.main(["verify", "--structure", "zorder",
                         "--format", "jsonl", "--seed", "3",
                         "--out", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    outputs = []
    for run in range(2):
        path = tmp_path / ("p%d.jsonl" % run)
        code = cli.main(["verify", "--structure", "pairs",
                         "--format", "jsonl", "--seed", "3",
                         "--out", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    report(12, started, "verify-suite bytes identical across runs")
