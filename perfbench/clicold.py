"""The cli-cold workload: CLI commands, each in a fresh interpreter.

Every command runs as ``python -m copyposet.cli ... --format jsonl`` and
succeeds with exit code 0; any other exit code counts as a failed
operation.  The checks read the JSONL records and compare them with values
the benchmark computes itself.  The command list takes no seeded input.
"""

from __future__ import annotations

import json
from fractions import Fraction

import checks
from workloads import expect

IDS = ("pureset", "zorder", "dlo", "rado", "equiv", "zeta2", "zetaeta",
       "treetz", "pairs")


def records(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _verify_rows(stdout):
    rows = [r for r in records(stdout) if r.get("op") == "verify-row"]
    bad = [(r["row"], r["verdict"]) for r in rows if r["verdict"] != "pass"]
    expect(rows and not bad, "verify rows not passing: %r" % bad)
    return True


def _typeset(relation):
    """Check a typeset record: six distinct members off the sockel, each
    related to the sockel as the representative is."""
    def check(stdout):
        rec = records(stdout)[-1]
        members, sockel = rec["members"], rec["sockel"]
        expect(len(set(members)) == len(members) == 6
               and not set(members) & set(sockel)
               and all(relation(sockel, m, rec["rep"]) for m in members),
               "typeset %r |> %s: %r" % (sockel, rec["rep"], members))
        return True
    return check


def _dlo_relation(sockel, m, rep):
    return checks.dlo_same_cut([Fraction(a) for a in sockel], Fraction(m),
                               Fraction(rep))


def _pair(text):
    return frozenset(int(t) for t in text.strip("{}").split(","))


def _pairs_relation(sockel, m, rep):
    return all(len(_pair(m) & _pair(s)) == len(_pair(rep) & _pair(s))
               for s in sockel)


def _zetaeta_block(text):
    return Fraction(text.strip("()").split("|")[0])


def _zetaeta_relation(sockel, m, rep):
    # off the pinned blocks, a point's orbit is its cut among them
    pinned = [_zetaeta_block(s) for s in sockel]
    return _zetaeta_block(m) not in pinned and checks.dlo_same_cut(
        pinned, _zetaeta_block(m), _zetaeta_block(rep))


def _rado_relation(sockel, m, rep):
    return all(checks.bit_adjacent(int(m), int(a)) ==
               checks.bit_adjacent(int(rep), int(a)) for a in sockel)


def _zorder_singleton(stdout):
    rec = records(stdout)[-1]
    expect(rec["finiteness"] == "finite" and rec["members"] == [rec["rep"]],
           "zorder typeset over a point is not the singleton: %r" % rec)
    return True


def _certificate_passes(stdout):
    certs = [r for r in records(stdout) if "verdict" in r]
    expect(certs and all(c["verdict"] == "pass" for c in certs),
           "certificates not passing: %r" % [c["verdict"] for c in certs])
    return True


def _closure_pairs(stdout):
    rec = records(stdout)[-1]
    want = sorted("{%d,%d}" % tuple(sorted(p))
                  for p in checks.two_subsets({0, 1, 2, 3}))
    expect(sorted(rec["members"]) == want and rec["exact"],
           "ac of {0,1},{2,3}: %r" % rec["members"])
    return True


def _chain_dlo(stdout):
    rec = records(stdout)[-1]
    expect(rec["intersection"] == ["0"], "dlo chain meets in %r"
           % rec["intersection"])
    return _certificate_passes(stdout)


def _embed_dlo(stdout):
    rec = next(r for r in records(stdout) if r.get("op") == "embed-powerset")
    bad = [x for x, kind in rec["membership"].items()
           if (kind == "in") != checks.interval_copy_member({0, 2}, x)]
    expect(not bad, "interval copy {0,2} disagrees at %r" % bad)
    return _certificate_passes(stdout)


def _bernstein_rado(stdout):
    rec = records(stdout)[-1]
    a, b = set(rec["a"]), set(rec["b"])
    expect(not a & b and a | b == {str(i) for i in range(12)},
           "bernstein sides do not partition 0..11")
    return True


def _jsonl(*argv):
    return list(argv) + ["--format", "jsonl"]


# (name, argv, check of the standard output of a successful run)
COMMANDS = [("verify %s" % sid, _jsonl("verify", "--structure", sid),
             _verify_rows) for sid in IDS] + [
    ("typeset dlo 1/8", _jsonl("typeset", "--structure", "dlo", "--sockel",
                               "1/8", "--rep", "0"), _typeset(_dlo_relation)),
    ("typeset pairs {40,41}", _jsonl("typeset", "--structure", "pairs",
                                     "--sockel", "{40,41}", "--rep", "{0,1}"),
     _typeset(_pairs_relation)),
    ("typeset zorder 500", _jsonl("typeset", "--structure", "zorder",
                                  "--sockel", "500", "--rep", "3"),
     _zorder_singleton),
    # F3: the enumeration scan cap is hit before index_of finds the point
    ("F3 typeset dlo 1/16", _jsonl("typeset", "--structure", "dlo",
                                   "--sockel", "1/16", "--rep", "0"),
     _typeset(_dlo_relation)),
    ("F3 typeset zetaeta (1/8|0)", _jsonl(
        "typeset", "--structure", "zetaeta", "--sockel", "(1/8|0)", "--rep",
        "(0|0)"), _typeset(_zetaeta_relation)),
    # F4: the members past the third lie beyond 2^300
    ("F4 typeset rado 300,700", _jsonl("typeset", "--structure", "rado",
                                       "--sockel", "300,700", "--rep", "3"),
     _typeset(_rado_relation)),
    # F1: a valid copy reported as a counterexample
    ("F1 copy rado avoiding 600", _jsonl(
        "copy", "--structure", "rado", "--kind", "avoiding", "--avoid", "600",
        "--certify", "--depth", "8"), _certificate_passes),
    ("closure ac pairs", _jsonl("closure", "ac", "--structure", "pairs",
                                "--base", "{0,1},{2,3}", "--depth", "12"),
     _closure_pairs),
    ("chain dlo", _jsonl("chain", "--structure", "dlo", "--fix", "0", "--k",
                         "5"), _chain_dlo),
    ("disjoint pairs", _jsonl("disjoint", "--structure", "pairs", "--fix",
                              "{0,1},{2,3}"), _certificate_passes),
    ("embed-powerset dlo", _jsonl("embed-powerset", "--structure", "dlo",
                                  "--set", "0,2", "--certify"), _embed_dlo),
    ("bernstein rado", _jsonl("bernstein", "--structure", "rado", "--depth",
                              "12"), _bernstein_rado),
    ("verify zorder seed 3", _jsonl("verify", "--structure", "zorder",
                                    "--seed", "3"), _verify_rows),
    ("verify zorder seed 3 again", _jsonl("verify", "--structure", "zorder",
                                          "--seed", "3"), _verify_rows),
]


def round_check(outputs):
    """Checks across the commands of one round: the two identical verify
    runs print identical bytes."""
    first = outputs.get("verify zorder seed 3")
    second = outputs.get("verify zorder seed 3 again")
    if first is not None and second is not None:
        expect(first == second, "verify --seed 3 output is not "
               "byte-identical across runs")
