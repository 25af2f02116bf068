"""Command-line surface: parsing, exit codes, deterministic output."""

import json
import os
import subprocess
import sys
from decimal import Context
from fractions import Fraction as F
from itertools import islice

import pytest

import copyposet
from copyposet import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_split_points_respects_nesting():
    assert cli.split_points("0,1") == ["0", "1"]
    assert cli.split_points("{0,1},{2,3}") == ["{0,1}", "{2,3}"]
    assert cli.split_points("(0|1),(1/2|-3)") == ["(0|1)", "(1/2|-3)"]
    assert cli.split_points("L2:[1:1,2:1],L0:[]") == ["L2:[1:1,2:1]",
                                                      "L0:[]"]
    assert cli.split_points("") == []
    assert cli.split_points(None) == []


def test_structures_lists_nine(capsys):
    code, out, _ = run(capsys, "structures")
    assert code == 0
    names = [line.split()[0] for line in out.splitlines()
             if line and not line.startswith(" ")]
    assert len(names) == 9
    assert "dlo" in names and "rado" in names and "zorder" in names


def test_structures_capability_flags(capsys):
    code, out, _ = run(capsys, "structures", "--format", "jsonl")
    rows = [json.loads(line) for line in out.splitlines()]
    caps = {r["structure"]: r["capabilities"] for r in rows}
    assert caps["zorder"]["single-copy"] is True
    assert caps["dlo"]["algebraically-finite"] is True
    assert caps["dlo"]["disjoint-amalgamation"] is True
    assert caps["pairs"]["disjoint-amalgamation"] is False
    assert set(caps["dlo"]) == {"algebraically-finite",
                                "disjoint-amalgamation", "single-copy",
                                "oligomorphic"}


@pytest.mark.parametrize("name, value, option, argv", [
    ("DEPTH", "abc", "--depth", ["bernstein", "--structure", "dlo"]),
    ("FORMAT", "xml", "--format", ["structures"]),
], ids=["depth", "format"])
def test_bad_environment_value_is_a_usage_error(monkeypatch, capsys, name,
                                                value, option, argv):
    with pytest.raises(SystemExit) as flag:
        cli.main(argv + [option, value])
    flag_err = capsys.readouterr().err
    monkeypatch.setenv("COPYPOSET_" + name, value)
    with pytest.raises(SystemExit) as env:
        cli.main(argv)
    assert env.value.code == flag.value.code == 2
    assert capsys.readouterr().err == flag_err


_POWERSET = ["embed-powerset", "--structure", "dlo", "--set", "0",
             "--certify"]


@pytest.mark.parametrize("argv", [
    _POWERSET + ["--sockel-cap", "-5"],
    _POWERSET + ["--depth", "0"],
    _POWERSET + ["--budget", "3"],
    ["chain", "--structure", "dlo", "--k", "0"],
    ["closure", "rc", "--structure", "dlo", "--maxrank", "-1"],
    ["certify", "meet", "--structure", "dlo"],
    ["typeset", "--structure", "dlo", "--rep", "1", "-n", "-1"],
], ids=["sockel-cap", "depth", "budget-below-depth", "k", "maxrank",
        "meet-without-avoid", "n"])
def test_out_of_range_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err


def test_environment_value_is_the_default(monkeypatch):
    monkeypatch.setenv("COPYPOSET_DEPTH", "7")
    argv = ["bernstein", "--structure", "dlo"]
    assert cli.build_parser().parse_args(argv).depth == 7
    assert cli.build_parser().parse_args(argv + ["--depth", "5"]).depth == 5


# a call of each command, and the options it takes besides --format and --out
_TAKES = [
    (["structures"], ""),
    (["typeset", "--structure", "dlo", "--rep", "1"],
     "--structure --sockel --rep -n --count"),
    (["closure", "ac", "--structure", "dlo"],
     "--structure --base --depth --maxrank --seed"),
    (["copy", "--structure", "dlo"],
     "--structure --kind --fix --avoid --proper --seed --certify --depth "
     "--budget --sockel-cap"),
    (["chain", "--structure", "dlo"], "--structure --fix --k --depth --seed"),
    (["disjoint", "--structure", "dlo"], "--structure --fix --depth"),
    (["embed-powerset", "--structure", "dlo"],
     "--structure --set --cofinite --certify --depth --budget --sockel-cap"),
    (["bernstein", "--structure", "dlo"],
     "--structure --depth --sockel-cap"),
    (["certify", "copy", "--structure", "dlo"],
     "--structure --kind --fix --avoid --proper --seed --set --set2 --depth "
     "--budget --sockel-cap"),
    (["verify", "--structure", "dlo"],
     "--structure --depth --budget --sockel-cap --seed"),
]


@pytest.mark.parametrize("argv, takes", _TAKES,
                         ids=[argv[0] for argv, _ in _TAKES])
def test_each_command_takes_only_the_options_it_reads(capsys, argv, takes):
    commands = cli.build_parser()._subparsers._group_actions[0].choices

    def flags(parser):
        return {f for action in parser._actions
                for f in action.option_strings} - {"-h", "--help"}

    assert flags(commands[argv[0]]) == \
        set(takes.split()) | {"--format", "--out"}
    # a run-size flag that a command does not read is refused, not ignored
    for flag in sorted({"--depth", "--budget", "--sockel-cap", "--seed"}
                       - flags(commands[argv[0]])):
        with pytest.raises(SystemExit) as err:
            cli.main(argv + [flag, "1"])
        assert err.value.code == 2
        assert "unrecognized arguments: %s 1" % flag \
            in capsys.readouterr().err


@pytest.mark.parametrize("argv, last", [
    (["chain", "--structure", "dlo", "--depth", "300"],
     "chain of 4 copies; window intersection {}"),
    (["closure", "ac", "--structure", "dlo", "--base", "0", "--depth", "300"],
     "{0} (exact)"),
], ids=["chain", "closure"])
def test_a_command_without_a_budget_takes_any_depth(capsys, argv, last):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == last


@pytest.mark.parametrize("name, value", [("DEPTH", "300"), ("BUDGET", "3")])
def test_budget_environment_leaves_a_command_without_one_alone(
        monkeypatch, capsys, name, value):
    for argv in (["typeset", "--structure", "dlo", "--rep", "1"],
                 ["structures"]):
        want = run(capsys, *argv)
        assert want[0] == 0
        monkeypatch.setenv("COPYPOSET_" + name, value)
        assert run(capsys, *argv) == want
        monkeypatch.delenv("COPYPOSET_" + name)


def test_typeset_command(capsys):
    code, out, _ = run(capsys, "typeset", "--structure", "dlo",
                       "--sockel", "0", "--rep", "1", "-n", "3")
    assert code == 0
    assert "1 1/2 2" in out


def test_rado_typeset_over_a_deep_sockel(capsys):
    # past 300 and 700 the members sit near 2**700, beyond any scan
    code, out, _ = run(capsys, "typeset", "--structure", "rado",
                       "--sockel", "300,700", "--rep", "3",
                       "--format", "jsonl")
    assert code == 0
    members = [int(m) for m in json.loads(out)["members"]]

    def adj(i, j):
        i, j = min(i, j), max(i, j)
        return (j >> i) & 1

    assert len(set(members)) == 6 and not {300, 700} & set(members)
    for j in members:
        assert [adj(300, j), adj(700, j)] == [adj(300, 3), adj(700, 3)]


def _dlo_cut(m):
    return F(m) < F(1, 16)


def _zetaeta_block_cut(m):
    q, _ = m[1:-1].split("|")
    return F(q) < F(1, 8)


def _zeta2_block(m):
    a, _ = m[1:-1].split(",")
    return int(a) == 0


@pytest.mark.parametrize("sid, sockel, rep, relation", [
    ("dlo", "1/16", "0", _dlo_cut),
    ("zetaeta", "(1/8|0)", "(0|0)", _zetaeta_block_cut),
    ("zeta2", "(700,0)", "(0,0)", _zeta2_block),
], ids=["dlo", "zetaeta", "zeta2"])
def test_typeset_over_a_sockel_past_the_scan_cap(capsys, sid, sockel, rep,
                                                 relation):
    # each sockel lies past the first 200,000 points of the enumeration
    code, out, _ = run(capsys, "typeset", "--structure", sid,
                       "--sockel", sockel, "--rep", rep, "--format", "jsonl")
    assert code == 0
    members = json.loads(out)["members"]
    assert len(set(members)) == 6 and sockel not in members
    assert relation(rep)
    assert all(relation(m) for m in members)


@pytest.mark.parametrize("rep, count", [("0", 12), ("5", 9)])
def test_rado_typeset_below_a_sockel_past_the_scan_cap(capsys, rep, count):
    # from 19, the bit length of 300000, up to 300000 no vertex is adjacent
    # to 300000; 5 is, so its ninth member is 2**300000
    code, out, _ = run(capsys, "typeset", "--structure", "rado",
                       "--sockel", "300000", "--rep", rep, "-n", str(count),
                       "--format", "jsonl")
    assert code == 0

    # below 300000, adjacency to 300000 is bit y of 300000
    pattern = (300000 >> int(rep)) & 1
    below = list(islice((str(y) for y in range(300000)
                         if (300000 >> y) & 1 == pattern), count))
    if len(below) < count:
        below.append(format(Context(prec=100_000).power(2, 300000), "f"))
    assert json.loads(out)["members"] == below


def test_rado_typeset_member_past_the_digit_limit(capsys):
    # the sixth member is 2**20000, with 6021 decimal digits
    code, out, _ = run(capsys, "typeset", "--structure", "rado",
                       "--sockel", "20000", "--rep", "5", "-n", "6",
                       "--format", "jsonl")
    assert code == 0
    members = json.loads(out)["members"]
    assert members[:5] == ["5", "9", "10", "11", "14"]
    assert members[5] == format(Context(prec=10_000).power(2, 20000), "f")


def test_rado_copy_avoiding_a_vertex_past_the_digit_limit(capsys):
    big = format(Context(prec=10_000).power(2, 20000), "f")
    code, out, _ = run(capsys, "copy", "--structure", "rado", "--kind",
                       "avoiding", "--avoid", big, "--format", "jsonl")
    assert code == 0
    copy = json.loads(out.splitlines()[0])["copy"]
    assert copy == "cofinite avoid={%s}" % big


@pytest.mark.parametrize("sid, members", [("zorder", None),
                                          ("pureset", ["1", "2", "3"])])
def test_integer_typeset_at_a_point_past_the_digit_limit(capsys, sid,
                                                         members):
    big = "1" + "0" * 5000
    code, out, _ = run(capsys, "typeset", "--structure", sid, "--sockel",
                       "0", "--rep", big, "-n", "3", "--format", "jsonl")
    assert code == 0
    rec = json.loads(out)
    assert rec["rep"] == big
    assert rec["members"] == (members or [big])


def test_closure_command_ac(capsys):
    code, out, _ = run(capsys, "closure", "ac", "--structure", "dlo",
                       "--base", "0,1", "--depth", "10")
    assert code == 0
    assert "{0, 1} (exact)" in out


def test_closure_command_pairs(capsys):
    code, out, _ = run(capsys, "closure", "ac", "--structure", "pairs",
                       "--base", "{0,1},{2,3}", "--depth", "12")
    assert code == 0
    assert out.count("{") >= 6 and "(exact)" in out


def test_embed_powerset_certified(capsys):
    code, out, _ = run(capsys, "embed-powerset", "--structure", "dlo",
                       "--set", "0,2", "--depth", "10", "--certify")
    assert code == 0
    assert out.splitlines()[-1] == "copy-check: pass"


def test_rado_copy_avoiding_600_certifies(capsys):
    code, out, _ = run(capsys, "copy", "--structure", "rado", "--kind",
                       "avoiding", "--avoid", "600", "--certify",
                       "--depth", "8", "--format", "jsonl")
    assert code == 0
    cert = json.loads(out.splitlines()[-1])
    assert cert["verdict"] == "pass"
    assert cert["params"]["copy"] == "cofinite avoid={600}"
    # every window point is in the copy, so no member comes from a proposal
    assert "witnesses" not in cert


def test_copy_certify_prints_the_verdict(capsys):
    code, out, _ = run(capsys, "copy", "--structure", "rado", "--kind",
                       "avoiding", "--avoid", "600", "--certify",
                       "--depth", "8")
    assert code == 0
    assert out.splitlines()[-1] == "copy-check: pass"


def test_disjoint_unsupported_exit_3(capsys):
    code, _, err = run(capsys, "disjoint", "--structure", "zorder",
                       "--depth", "8")
    assert code == 3
    assert "unsupported" in err


def test_copy_avoiding_impossible_exit_3(capsys):
    code, _, err = run(capsys, "copy", "--structure", "zorder",
                       "--kind", "avoiding", "--avoid", "0")
    assert code == 3


def test_certify_inclusion_fail_exit_1(capsys):
    code, out, _ = run(capsys, "certify", "inclusion", "--structure", "dlo",
                       "--set", "0", "--set2", "1", "--depth", "10")
    assert code == 1


def test_certify_copy_unknown_exit_2(capsys, monkeypatch):
    # without its cut root zetaeta falls back on a back-and-forth copy,
    # which the CLI leaves unadvanced and so undecided
    monkeypatch.setattr(type(cli.get_structure("zetaeta")), "cut_root",
                        lambda *args: None)
    code, out, _ = run(capsys, "certify", "copy", "--structure", "zetaeta",
                       "--kind", "avoiding", "--avoid", "(0|0)",
                       "--budget", "40")
    assert code == 2


def test_budget_error_names_its_blocking_obligation(monkeypatch, capsys):
    from copyposet.errors import SearchBudgetError

    def exhausted(args, out):
        st = cli.get_structure(args.structure)
        raise SearchBudgetError(
            "no admissible image for 2 within 40 candidates",
            blocking=({st.decode("1/2"): st.decode("-3"),
                       st.decode("0"): st.decode("1")}, st.decode("2")),
            scanned=40)

    monkeypatch.setattr(cli, "cmd_copy", exhausted)
    code, out, err = run(capsys, "copy", "--structure", "dlo",
                         "--format", "jsonl")
    assert code == 2
    assert "budget exhausted" in err
    assert out == (
        '{"blocking":{"map":[["0","1"],["1/2","-3"]],"point":"2"},'
        '"error":"budget","message":"no admissible image for 2 within 40 '
        'candidates","scanned":40}\n')


def test_scan_cap_budget_error_names_the_point_it_looked_for(capsys,
                                                           monkeypatch):
    # no point in (0, 1/8) lies among the first 21: the typeset stream
    # names its sockel, fixed pointwise, and its representative
    from copyposet.structures import base

    monkeypatch.setattr(base, "_SCAN_CAP", 20)
    code, out, _ = run(capsys, "typeset", "--structure", "dlo",
                       "--sockel", "0,1/8", "--rep", "1/16",
                       "--format", "jsonl")
    assert code == 2
    assert out == ('{"blocking":{"map":[["0","0"],["1/8","1/8"]],'
                   '"point":"1/16"},"error":"budget","message":"typeset '
                   'stream scan cap exceeded","scanned":21}\n')


def test_treetz_typeset_over_a_far_sockel_point(capsys):
    # L25:[] sits at enumeration index 708,257, past the scan cap
    code, out, _ = run(capsys, "typeset", "--structure", "treetz",
                       "--sockel", "L25:[]", "--rep", "L24:[]",
                       "--format", "jsonl")
    assert code == 0
    assert out == ('{"finiteness":"finite","members":["L24:[]"],'
                   '"op":"typeset","rep":"L24:[]","sockel":["L25:[]"],'
                   '"structure":"treetz"}\n')


def test_certify_meet_not_refuted(capsys):
    code, out, _ = run(capsys, "certify", "meet", "--structure", "dlo",
                       "--avoid", "0", "--depth", "8")
    assert code == 0
    assert "meet-irreducible: pass" in out


@pytest.mark.parametrize("sid, avoid", [
    ("pureset", "0"), ("dlo", "0"), ("rado", "0"), ("equiv", "0.0")])
def test_certify_meet_passes_on_the_maximum_avoiding_copy(capsys, sid, avoid):
    # U minus {u_0}: no copy avoiding u_0 strictly contains it
    code, out, _ = run(capsys, "certify", "meet", "--structure", sid,
                       "--avoid", avoid, "--format", "jsonl")
    assert code == 0
    rec = json.loads(out)
    assert rec["verdict"] == "pass"
    assert rec["params"]["copy"] == "cofinite avoid={%s}" % avoid


def test_rado_certify_meet_bytes_are_pinned(capsys):
    # the copy U minus {0} holds every other window point, so the refuting
    # search has no point to add
    code, out, _ = run(capsys, "certify", "meet", "--structure", "rado",
                       "--avoid", "0", "--format", "jsonl")
    assert code == 0
    assert out == ('{"kind":"meet-irreducible","params":{"copy":"cofinite '
                   'avoid={0}","depth":8,"point":"0","samples":6},"schema":1,'
                   '"structure":"rado","verdict":"pass","witnesses":["not '
                   'refuted within 6 samples"]}\n')


def test_chain_command(capsys):
    code, out, _ = run(capsys, "chain", "--structure", "dlo",
                       "--fix", "0", "--k", "2", "--depth", "8")
    assert code == 0
    assert "chain of 3 copies" in out


def test_bernstein_command(capsys):
    code, out, _ = run(capsys, "bernstein", "--structure", "pureset",
                       "--depth", "6")
    assert code == 0
    assert "A = {" in out


def test_verify_zorder(capsys):
    code, out, _ = run(capsys, "verify", "--structure", "zorder")
    assert code == 0
    assert "single-copy-errors" in out


def _verify_rows(capsys, sid, *flags):
    code, out, err = run(capsys, "verify", "--structure", sid,
                         "--format", "jsonl", *flags)
    rows = [rec for rec in map(json.loads, out.splitlines())
            if rec.get("op") == "verify-row"]
    return code, err, rows


_NO_CHAIN_POINT = ("no certified-unranked point over the fixed set in the "
                   "window U_%d")


@pytest.mark.parametrize("sid", cli.BUILTIN_IDS)
def test_verify_at_depth_one_prints_every_row(capsys, sid):
    code, err, rows = _verify_rows(capsys, sid, "--depth", "1")
    assert err == ""
    assert [r["row"] for r in rows] == \
        [r["row"] for r in _verify_rows(capsys, sid)[2]]
    chain = [r for r in rows if r["row"] == "descending-chain"]
    assert [r["verdict"] for r in rows if r not in chain] == \
        ["pass"] * (len(rows) - len(chain))
    # a chain needs an unranked point in its window: at depth 1 the one
    # window point is the chain's fixed point, so the search runs out
    assert [(r["verdict"], r["note"]) for r in chain] == \
        [("unknown", _NO_CHAIN_POINT % 1)] * \
        (not cli.get_structure(sid).single_copy)
    assert code == (2 if chain else 0)


@pytest.mark.parametrize("sid", ["zetaeta", "treetz"])
def test_verify_chain_without_an_unranked_window_point_is_unknown(capsys,
                                                                  sid):
    code, err, rows = _verify_rows(capsys, sid, "--depth", "2")
    assert code == 2 and err == ""
    assert [(r["verdict"], r["note"]) for r in rows
            if r["verdict"] != "pass"] == \
        [("unknown", _NO_CHAIN_POINT % 2)]


def test_chain_without_an_unranked_window_point_is_a_budget_error(capsys):
    code, out, err = run(capsys, "chain", "--structure", "dlo", "--fix", "0",
                         "--depth", "1", "--format", "jsonl")
    assert code == 2
    assert err == "budget exhausted: %s\n" % (_NO_CHAIN_POINT % 1)
    assert json.loads(out) == {"error": "budget",
                               "message": _NO_CHAIN_POINT % 1, "scanned": 1}


def test_verify_jsonl_deterministic(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for path in (a, b):
        code, _, _ = run(capsys, "verify", "--structure", "zorder",
                         "--format", "jsonl", "--out", str(path),
                         "--seed", "7")
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_out_path_that_cannot_be_opened_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "missing" / "x.jsonl"
    code, out, err = run(capsys, "structures", "--format", "jsonl",
                         "--out", str(path))
    assert code == 1
    assert len(out.splitlines()) == 9  # the records printed before the write
    assert err == "error: cannot write %s: No such file or directory\n" % path


def test_unknown_structure_exit_3(capsys):
    with pytest.raises(SystemExit):
        run(capsys, "typeset", "--structure", "nope", "--rep", "0")


@pytest.mark.parametrize("structure, rep", [
    ("dlo", "1/0"),
    ("zetaeta", "(1/0|0)"),
], ids=["dlo", "zetaeta"])
def test_zero_denominator_is_a_precondition_error(capsys, structure, rep):
    code, out, err = run(capsys, "typeset", "--structure", structure,
                         "--rep", rep, "--format", "jsonl")
    assert code == 1
    assert json.loads(out)["error"] == "precondition"
    assert err.startswith("error: zero denominator")


@pytest.mark.parametrize("rep", ["3", "1.2.3"])
def test_equiv_point_needs_class_dot_index(capsys, rep):
    code, out, err = run(capsys, "typeset", "--structure", "equiv",
                         "--sockel", "0.0", "--rep", rep, "--format", "jsonl")
    assert code == 1
    message = "expected class.index, got '%s'" % rep
    assert json.loads(out) == {"error": "precondition", "message": message}
    assert err == "error: %s\n" % message


_TREETZ_RANGE = ("L<level>:[i:e,...] with choices e >= 1 at distinct levels "
                 "i <= level")


@pytest.mark.parametrize("structure, rep, form", [
    ("zeta2", "(1,2,3)", "(a,b)"),
    ("pairs", "{1,2,3}", "{i,j}"),
    ("zetaeta", "(1|2|3)", "(q|n)"),
    ("treetz", "L2:[1]", "L<level>:[i:e,...]"),
    # a field that is not a number
    ("zeta2", "(a,1)", "(a,b)"),
    ("equiv", "x.1", "class.index"),
    ("pairs", "{a,1}", "{i,j}"),
    ("treetz", "Lx:[]", "L<level>:[i:e,...]"),
    ("rado", "abc", "a natural"),
    ("pureset", "x", "a natural"),
    ("zorder", "x", "an integer"),
    ("dlo", "1/x", "a rational p/q"),
    ("zetaeta", "(a|1)", "(q|n)"),
    # a number out of range
    ("rado", "-3", "a natural"),
    ("pureset", "-1", "a natural"),
    ("equiv", "-1.0", "class.index of naturals"),
    ("equiv", "0.-1", "class.index of naturals"),
    ("pairs", "{1,1}", "{i,j} of distinct naturals"),
    ("pairs", "{-1,2}", "{i,j} of distinct naturals"),
    ("treetz", "L3:[1:0]", _TREETZ_RANGE),
    ("treetz", "L3:[4:1]", _TREETZ_RANGE),
    ("treetz", "L3:[1:1,1:2]", _TREETZ_RANGE),
], ids=["zeta2", "pairs", "zetaeta", "treetz"] + [
    "%s-field" % sid for sid in ("zeta2", "equiv", "pairs", "treetz", "rado",
                                 "pureset", "zorder", "dlo", "zetaeta")] + [
    "rado-range", "pureset-range", "equiv-class-range", "equiv-index-range",
    "pairs-equal-range", "pairs-negative-range", "treetz-choice-range",
    "treetz-level-range", "treetz-repeated-range"])
def test_malformed_point_names_the_point_and_its_form(capsys, structure, rep,
                                                      form):
    code, out, err = run(capsys, "typeset", "--structure", structure,
                         "--rep", rep, "--format", "jsonl")
    assert code == 1
    message = "expected %s, got '%s'" % (form, rep)
    assert json.loads(out) == {"error": "precondition", "message": message}
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("command", ["copy", "certify"])
def test_avoiding_copy_without_avoid_is_a_precondition_error(capsys,
                                                             command):
    argv = [command] + (["copy"] if command == "certify" else [])
    code, out, err = run(capsys, *argv, "--structure", "pairs", "--kind",
                         "avoiding", "--format", "jsonl")
    assert code == 1
    message = "an avoiding copy needs --avoid"
    assert json.loads(out) == {"error": "precondition", "message": message}
    assert err == "error: %s\n" % message


def test_treetz_points_with_commas_in_point_lists(capsys):
    # a treetz point holds commas inside its [...] choice list
    code, out, _ = run(capsys, "typeset", "--structure", "treetz",
                       "--sockel", "L2:[1:1,2:1]", "--rep", "L0:[]",
                       "--format", "jsonl")
    assert code == 0
    rec = json.loads(out)
    assert rec["sockel"] == ["L2:[1:1,2:1]"]
    assert rec["members"] == ["L0:[]"]
    code, out, _ = run(capsys, "closure", "ac", "--structure", "treetz",
                       "--base", "L2:[1:1,2:1],L0:[]", "--format", "jsonl")
    assert code == 0
    rec = json.loads(out)
    assert rec["base"] == ["L0:[]", "L2:[1:1,2:1]"]
    assert "L1:[1:1]" in rec["members"]


@pytest.mark.parametrize("rep", ["L3:[1:1,1:2]", "L3:[2:1,1:1,2:3]"])
def test_treetz_repeated_level_is_a_precondition_error(capsys, rep):
    # a node has one choice entry per level
    code, out, err = run(capsys, "typeset", "--structure", "treetz",
                         "--sockel", "L3:[1:1]", "--rep", rep,
                         "--format", "jsonl")
    assert code == 1
    assert json.loads(out)["error"] == "precondition"
    assert err == "error: expected %s, got '%s'\n" % (_TREETZ_RANGE, rep)


@pytest.mark.parametrize("argv", [
    ["embed-powerset", "--structure", "dlo", "--set=-1"],
    ["embed-powerset", "--structure", "dlo", "--set=2,-1", "--cofinite"],
    ["certify", "inclusion", "--structure", "dlo", "--set=-1", "--set2="],
], ids=["members", "cofinite-complement", "inclusion"])
def test_negative_interval_index_is_a_precondition_error(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "jsonl")
    assert code == 1
    assert json.loads(out.splitlines()[-1])["error"] == "precondition"


@pytest.mark.parametrize("argv, flag, value", [
    (["disjoint", "--structure", "dlo"], "--fix", "-3,0,1/2,7"),
    (["typeset", "--structure", "dlo", "--rep", "1/4"], "--sockel",
     "-1/2,1"),
    (["typeset", "--structure", "dlo", "--sockel", "0"], "--rep", "-2/3"),
    (["copy", "--structure", "dlo", "--kind", "avoiding", "--certify",
      "--depth", "8"], "--avoid", "-1,-1/2"),
    (["closure", "ac", "--structure", "zorder"], "--base", "-3,0"),
    (["embed-powerset", "--structure", "dlo"], "--set", "-1,2"),
    (["certify", "inclusion", "--structure", "dlo", "--set", "0"],
     "--set2", "-1,2"),
], ids=["fix", "sockel", "rep", "avoid", "base", "set", "set2"])
def test_point_list_may_start_with_a_negative_entry(capsys, argv, flag,
                                                    value):
    # argparse would read "-3,0,..." as a flag; the value is attached to
    # its flag instead, so both spellings give the same bytes
    apart = run(capsys, *argv, flag, value, "--format", "jsonl")
    attached = run(capsys, *argv, "%s=%s" % (flag, value), "--format",
                   "jsonl")
    assert apart == attached
    code, out, err = apart
    if flag.startswith("--set"):
        message = "interval copies are indexed by naturals, got -1"
        assert code == 1
        assert err == "error: %s\n" % message
        assert json.loads(out.splitlines()[-1]) == {
            "error": "precondition", "message": message}
    else:
        assert code == 0, err
        assert value.split(",")[0] in out


@pytest.mark.parametrize("argv, abbrev, flag, value", [
    (["disjoint", "--structure", "dlo"], "--fi", "--fix", "-3,0"),
    (["typeset", "--structure", "dlo", "--sockel", "0"], "--r", "--rep",
     "-2/3"),
    (["closure", "ac", "--structure", "zorder"], "--ba", "--base", "-3,0"),
    (["copy", "--structure", "dlo", "--kind", "avoiding", "--depth", "8"],
     "--av", "--avoid", "-1,-1/2"),
], ids=["fix", "rep", "base", "avoid"])
def test_abbreviated_point_flag_takes_a_negative_entry(capsys, argv, abbrev,
                                                       flag, value):
    # argparse accepts a prefix of exactly one long flag of the command;
    # the value goes with the flag it abbreviates, as with the full name
    apart = run(capsys, *argv, abbrev, value, "--format", "jsonl")
    assert apart == run(capsys, *argv, "%s=%s" % (flag, value), "--format",
                        "jsonl")
    assert apart[0] == 0, apart[2]


def test_ambiguous_point_flag_keeps_the_argparse_error(capsys):
    # --se abbreviates --seed, --set and --set2
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["certify", "inclusion", "--structure", "dlo", "--se",
                  "-1"])
    assert exit_info.value.code == 2
    assert "ambiguous option: --se could match" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--structure", "dlo"], "--sockel"),
    (["bernstein", "--structure", "dlo"], "--sockel"),
    (["copy", "--structure", "dlo"], "--sockel"),
    (["embed-powerset", "--structure", "dlo"], "--sockel"),
    (["certify", "copy", "--structure", "dlo"], "--sockel"),
    (["copy", "--structure", "dlo"], "--k"),
    (["certify", "copy", "--structure", "dlo"], "--k"),
    (["typeset", "--structure", "dlo", "--rep", "1"], "--budget"),
    (["chain", "--structure", "dlo"], "--kind"),
])
@pytest.mark.parametrize("joined", [False, True], ids=["apart", "joined"])
def test_flag_of_another_command_is_unrecognized(capsys, argv, flag, joined):
    # argparse alone would read --sockel as an abbreviation of
    # --sockel-cap and --k as one of --kind
    value = "through" if flag.startswith("--k") else "1"
    given = ["%s=%s" % (flag, value)] if joined else [flag, value]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv + given)
    assert exit_info.value.code == 2
    assert "unrecognized arguments: %s" % given[0] in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["embed-powerset", "--structure", "dlo", "--set", "0,a"],
    ["certify", "inclusion", "--structure", "dlo", "--set", "0,a"],
    ["certify", "inclusion", "--structure", "dlo", "--set2", "0,a"],
], ids=["set", "inclusion-set", "inclusion-set2"])
def test_bad_interval_index_is_named(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "jsonl")
    assert code == 1
    assert err == "error: expected a natural, got 'a'\n"
    assert json.loads(out.splitlines()[-1]) == {
        "error": "precondition", "message": "expected a natural, got 'a'"}


def test_verify_refutes_the_planted_interval_union(capsys):
    code, out, _ = run(capsys, "verify", "--structure", "dlo",
                       "--format", "jsonl")
    assert code == 0
    planted = [rec for rec in map(json.loads, out.splitlines())
               if rec.get("verdict") == "fail"]
    assert [rec["params"]["copy"] for rec in planted] == \
        ["dlo intervals [-1,-1] (0,+inf)"]
    assert planted[0]["counterexample"]["sockel"] == ["-1"]


def _fresh_modules(code):
    """The copyposet, structure, dataclasses and fractions modules loaded
    after running ``code`` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(copyposet.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = code + "\nimport sys\nprint(' '.join(sorted(m for m in " \
        "sys.modules if m.startswith('copyposet') or m in " \
        "('dataclasses', 'fractions'))))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def test_cli_import_loads_no_command_module():
    loaded = _fresh_modules("import copyposet.cli")
    assert "dataclasses" not in loaded
    assert not loaded & {"copyposet." + m for m in (
        "engine", "certify", "battery", "closures", "typesets")}
    assert not [m for m in loaded if m.startswith("copyposet.structures.")]


def test_typeset_command_loads_only_its_structure():
    loaded = _fresh_modules(
        "from copyposet import cli\n"
        "cli.main(['typeset', '--structure', 'zorder', '--sockel', '0',"
        " '--rep', '1'])")
    assert {m for m in loaded if m.startswith("copyposet.structures.")} \
        == {"copyposet.structures.base", "copyposet.structures.zorder"}


def test_bernstein_command_loads_no_certificate_module():
    # the base reads the type-class tables from core, which it loads anyway
    loaded = _fresh_modules(
        "from copyposet import cli\n"
        "cli.main(['bernstein', '--structure', 'rado', '--depth', '10'])")
    assert "copyposet.certify" not in loaded
    assert loaded == {"copyposet", "copyposet.cli", "copyposet.core",
                      "copyposet.engine", "copyposet.errors",
                      "copyposet.structures", "copyposet.structures.base",
                      "copyposet.structures.rado"}


def test_lazy_re_exports_bind_on_first_use(monkeypatch):
    loaded = _fresh_modules("import copyposet.engine")
    assert not loaded & {"copyposet.structures.dlo", "fractions"}
    from copyposet import engine, structures
    from copyposet.structures import dlo
    monkeypatch.delitem(vars(engine), "powerset_embedding_dlo", raising=False)
    monkeypatch.delitem(vars(structures), "DLO", raising=False)
    assert engine.powerset_embedding_dlo is dlo.powerset_embedding_dlo
    assert structures.DLO is dlo.DLO
    # bound into the module, so a later access skips __getattr__
    assert vars(engine)["powerset_embedding_dlo"] is \
        dlo.powerset_embedding_dlo
    assert vars(structures)["DLO"] is dlo.DLO


def test_closed_stdout_exits_quietly():
    """A reader that closes the pipe early, as `| head -c 100` does, cuts
    the command short: no traceback, and the closed-pipe exit code."""
    src = os.path.dirname(os.path.dirname(copyposet.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "copyposet.cli", "bernstein",
             "--structure", "rado", "--depth", "22", "--format", "jsonl"],
            stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == cli.EXIT_CLOSED_PIPE
