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


@pytest.mark.parametrize("name, value, option", [
    ("DEPTH", "abc", "--depth"),
    ("FORMAT", "xml", "--format"),
], ids=["depth", "format"])
def test_bad_environment_value_is_a_usage_error(monkeypatch, capsys, name,
                                                value, option):
    with pytest.raises(SystemExit) as flag:
        cli.main(["structures", option, value])
    flag_err = capsys.readouterr().err
    monkeypatch.setenv("COPYPOSET_" + name, value)
    with pytest.raises(SystemExit) as env:
        cli.main(["structures"])
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
    ["closure", "ic", "--structure", "dlo", "--samples", "0"],
    ["copy", "--structure", "dlo", "--stages", "-1"],
], ids=["sockel-cap", "depth", "budget-below-depth", "k", "maxrank",
        "meet-without-avoid", "n", "samples", "stages"])
def test_out_of_range_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err


def test_environment_value_is_the_default(monkeypatch):
    monkeypatch.setenv("COPYPOSET_DEPTH", "7")
    assert cli.build_parser().parse_args(["structures"]).depth == 7
    assert cli.build_parser().parse_args(
        ["structures", "--depth", "5"]).depth == 5


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
    assert "floor=%s " % big in json.loads(out.splitlines()[0])["copy"]


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


def test_rado_copy_avoiding_600_certifies(capsys):
    code, out, _ = run(capsys, "copy", "--structure", "rado", "--kind",
                       "avoiding", "--avoid", "600", "--certify",
                       "--depth", "8", "--format", "jsonl")
    assert code == 0
    cert = json.loads(out.splitlines()[-1])
    assert cert["verdict"] == "pass"
    assert json.loads(cert["witnesses"][0])["witness"] == "1024"


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


def test_certify_copy_unknown_exit_2(capsys):
    code, out, _ = run(capsys, "certify", "copy", "--structure", "dlo",
                       "--kind", "avoiding", "--avoid", "0",
                       "--stages", "1", "--budget", "40")
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


def test_scan_cap_budget_error_names_the_point_it_looked_for(capsys):
    code, out, _ = run(capsys, "typeset", "--structure", "treetz",
                       "--sockel", "L25:[]", "--rep", "L24:[]",
                       "--format", "jsonl")
    assert code == 2
    assert out == ('{"blocking":{"map":[],"point":"L25:[]"},"error":"budget",'
                   '"message":"point (25, ()) not found within enumeration '
                   'scan cap","scanned":200001}\n')


def test_certify_meet_not_refuted(capsys):
    code, out, _ = run(capsys, "certify", "meet", "--structure", "dlo",
                       "--avoid", "0", "--depth", "8")
    assert code == 0
    assert "meet-irreducible: pass" in out


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


def test_verify_jsonl_deterministic(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for path in (a, b):
        code, _, _ = run(capsys, "verify", "--structure", "zorder",
                         "--format", "jsonl", "--out", str(path),
                         "--seed", "7")
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


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


@pytest.mark.parametrize("argv", [
    ["embed-powerset", "--structure", "dlo", "--set=-1"],
    ["embed-powerset", "--structure", "dlo", "--set=2,-1", "--cofinite"],
    ["certify", "inclusion", "--structure", "dlo", "--set=-1", "--set2="],
], ids=["members", "cofinite-complement", "inclusion"])
def test_negative_interval_index_is_a_precondition_error(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "jsonl")
    assert code == 1
    assert json.loads(out.splitlines()[-1])["error"] == "precondition"


def _fresh_modules(code):
    """The copyposet, structure and dataclasses modules loaded after
    running ``code`` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(copyposet.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = code + "\nimport sys\nprint(' '.join(sorted(m for m in " \
        "sys.modules if m.startswith('copyposet') or m == 'dataclasses')))"
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
