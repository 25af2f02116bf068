"""Command-line front end: constructions, closures, checks, certificates.

Exit codes: 0 pass/success, 1 fail/counterexample, 2 unknown or budget
exhausted, 3 unsupported or impossible construction, 141 standard output
closed by its reader (128 + SIGPIPE, as a shell reports a piped command cut
short).

Each command takes only the options some invocation of it reads, each
declared once in ``_OPTIONS``, and imports the library modules it calls
when it runs, so a command pays the import of only those.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    CopyPosetError,
    ImpossibleConstructionError,
    PreconditionError,
    SearchBudgetError,
    UnknownStructureError,
    UnsupportedConstructionError,
)
from .structures import BUILTIN_IDS, get_structure

EXIT_PASS, EXIT_FAIL, EXIT_UNKNOWN, EXIT_UNSUPPORTED = 0, 1, 2, 3
EXIT_CLOSED_PIPE = 141


def split_points(text):
    """Split a comma-separated point list, respecting {}, () and []
    nesting."""
    if text is None or text.strip() == "":
        return []
    items, buf, depth = [], [], 0
    for ch in text:
        if ch in "{([":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        if ch == "," and depth == 0:
            items.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    items.append("".join(buf).strip())
    return [s for s in items if s]


# the flags whose value is a point or a point list
_POINT_FLAGS = frozenset(("--sockel", "--rep", "--base", "--fix", "--avoid",
                          "--set", "--set2"))


def attach_point_values(argv, parser):
    """``argv`` with each point flag's value that starts with a minus sign
    and a digit or a point attached to its flag, as in ``--fix=-3,0``:
    argparse takes a separate such token for a flag unless it reads as one
    negative number.  The flag may be abbreviated as argparse allows, to a
    prefix of no other long flag of its command; an ambiguous prefix is
    left for argparse to reject.  The full flag of an option the command
    does not take is refused as an unrecognized argument where argparse
    would read it as an abbreviation of one the command takes
    (``--sockel`` of ``--sockel-cap``, ``--k`` of ``--kind``)."""
    # argparse keeps the commands' parsers and their flags only in
    # private fields
    commands = parser._subparsers._group_actions[0].choices
    flags = foreign = ()
    out = []
    for tok in argv:
        if out and tok[:1] == "-" and (tok[1:2].isdigit() or tok[1:2] == ".") \
                and _point_flag(out[-1], flags):
            out[-1] += "=" + tok
            continue
        if tok.split("=", 1)[0] in foreign:
            parser.error("unrecognized arguments: %s" % tok)
        if not flags and tok in commands:
            flags = [f for f in commands[tok]._option_string_actions
                     if f.startswith("--")]
            foreign = {f for names, _, _ in _OPTIONS.values()
                       for f in names if f not in flags
                       and any(g.startswith(f) for g in flags)}
        out.append(tok)
    return out


def _point_flag(tok, flags):
    """True iff argparse reads ``tok`` as a point flag among the long
    ``flags``: the flag itself, or a prefix of it and of no other flag."""
    if tok not in flags:
        matches = [f for f in flags if f.startswith(tok)]
        if len(matches) != 1:
            return False
        tok = matches[0]
    return tok in _POINT_FLAGS


def parse_points(st, text):
    return [st.decode(tok) for tok in split_points(text)]


def parse_naturals(text):
    """The entries of a set of naturals, a bad entry named."""
    from .structures.base import decode_field

    return tuple(decode_field(tok, tok, "a natural", int)
                 for tok in split_points(text))


class _Out:
    def __init__(self, args):
        self.fmt = args.format
        self.path = args.out
        self.lines = []

    def human(self, text):
        if self.fmt == "human":
            print(text)

    def record(self, obj):
        line = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        self.lines.append(line)
        if self.fmt == "jsonl":
            print(line)

    def cert(self, c):
        self.record(c.to_record())

    def flush(self):
        if self.path:
            with open(self.path, "w", encoding="utf-8") as fh:
                for line in self.lines:
                    fh.write(line + "\n")


def _verdict_exit(verdict):
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL,
            "unknown": EXIT_UNKNOWN}.get(verdict, EXIT_UNKNOWN)


def _report(out, cert):
    out.cert(cert)
    out.human("%s: %s" % (cert.kind, cert.verdict))
    return _verdict_exit(cert.verdict)


def _certify_copy(args, out, handle):
    from . import certify

    return _report(out, certify.check_copy(
        handle, min(args.depth, 8), args.sockel_cap, args.budget))


def cmd_structures(args, out):
    for sid in BUILTIN_IDS:
        st = get_structure(sid)
        caps = {
            "algebraically-finite": st.algebraically_finite,
            "disjoint-amalgamation": st.stabilizer_orbits_all_infinite,
            "single-copy": st.single_copy,
            "oligomorphic": st.oligomorphic,
        }
        flags = " ".join("%s:%s" % (k, "yes" if v else "no")
                         for k, v in caps.items())
        out.human("%-8s %s" % (sid, st.description))
        out.human("         %s" % flags)
        out.record({"structure": sid, "description": st.description,
                    "capabilities": caps})
    return EXIT_PASS


def cmd_typeset(args, out):
    from . import typesets

    st = get_structure(args.structure)
    sockel = frozenset(parse_points(st, args.sockel))
    rep = st.decode(args.rep)
    t = typesets.make_type(st, sockel, rep)
    members = typesets.typeset_members(st, t, args.count)
    fin = st.typeset_finite(sockel, rep)
    out.human("typeset <%s |> %s>: %s (%s)" % (
        ",".join(st.encode(p) for p in t.sockel), st.encode(rep),
        " ".join(st.encode(m) for m in members), fin.kind))
    out.record({"op": "typeset", "structure": args.structure,
                "sockel": [st.encode(p) for p in t.sockel],
                "rep": st.encode(rep), "finiteness": fin.kind,
                "members": [st.encode(m) for m in members]})
    return EXIT_PASS


def cmd_closure(args, out):
    from . import closures

    st = get_structure(args.structure)
    base = frozenset(parse_points(st, args.base))
    if args.kind == "ac":
        res = closures.algebraic_closure(st, base, args.depth)
    elif args.kind == "rc":
        maxrank = closures.DEFAULT_MAXRANK if args.maxrank is None \
            else args.maxrank
        res = closures.ranked_closure(st, base, maxrank, args.depth)
    else:
        members = closures.intersection_closure_upper(
            st, base, samples=4, depth=args.depth, seed=args.seed)
        res = closures.ClosureResult(
            st.structure_id, "ic",
            tuple(st.sort_points(base)), tuple(st.sort_points(members)),
            False)
    enc = [st.encode(p) for p in res.members]
    out.human("{%s}%s" % (", ".join(enc),
                          " (exact)" if res.exact else ""))
    out.record({"op": "closure", "kind": args.kind,
                "structure": args.structure,
                "base": [st.encode(p) for p in res.base],
                "members": enc, "exact": res.exact})
    return EXIT_PASS


def _build_copy(args, st):
    from . import engine

    fix = frozenset(parse_points(st, args.fix))
    avoid = frozenset(parse_points(st, args.avoid))
    if args.kind == "identity":
        return engine.copy_identity(st)
    if args.kind == "through":
        return engine.copy_through(st, fix, engine.copy_identity(st),
                                   proper=args.proper, seed=args.seed)
    if args.kind == "avoiding":
        if not avoid:
            raise PreconditionError("an avoiding copy needs --avoid")
        return engine.copy_avoiding(st, fix, avoid, seed=args.seed)
    raise PreconditionError("unknown copy kind %r" % args.kind)


def cmd_copy(args, out):
    st = get_structure(args.structure)
    c = _build_copy(args, st)
    table = {}
    for x in st.prefix(args.depth):
        m = c.membership(x)
        table[st.encode(x)] = m.kind
    out.human("copy %s" % c.describe())
    for k, v in table.items():
        out.human("  %-12s %s" % (k, v))
    out.record({"op": "copy", "structure": args.structure,
                "copy": c.describe(), "membership": table})
    if args.certify:
        return _certify_copy(args, out, c)
    return EXIT_PASS


def cmd_chain(args, out):
    from . import certify, engine

    st = get_structure(args.structure)
    fix = frozenset(parse_points(st, args.fix))
    chain = engine.descending_chain(
        st, fix, engine.copy_identity(st), args.k, seed=args.seed,
        depth=args.depth)
    inter = engine.chain_intersection(st, chain, args.depth)
    worst = EXIT_PASS
    for lower, upper in zip(chain[1:], chain):
        cert = certify.check_inclusion(lower, upper, min(args.depth, 8))
        out.cert(cert)
        worst = max(worst, _verdict_exit(cert.verdict))
    out.human("chain of %d copies; window intersection {%s}" % (
        len(chain), ", ".join(st.encode(p) for p in inter)))
    out.record({"op": "chain", "structure": args.structure, "k": args.k,
                "intersection": [st.encode(p) for p in inter]})
    return worst


def cmd_disjoint(args, out):
    from . import certify, engine

    st = get_structure(args.structure)
    fix = frozenset(parse_points(st, args.fix))
    left, right = engine.disjoint_pair(st, fix)
    core = st.ac_members_exact(fix) | fix
    cert = certify.check_disjointness(left, right, args.depth, core)
    out.cert(cert)
    out.human("disjoint pair: %s" % cert.verdict)
    return _verdict_exit(cert.verdict)


def cmd_embed_powerset(args, out):
    from .structures.dlo import powerset_embedding_dlo

    st = get_structure(args.structure)
    members = parse_naturals(args.set)
    if args.cofinite:
        handle = powerset_embedding_dlo(st, cofinite_complement=members)
    else:
        handle = powerset_embedding_dlo(st, members=members)
    table = {st.encode(x): handle.membership(x).kind
             for x in st.prefix(args.depth)}
    out.human("copy %s" % handle.describe())
    out.record({"op": "embed-powerset", "structure": args.structure,
                "set": sorted(members), "cofinite": bool(args.cofinite),
                "membership": table})
    if args.certify:
        return _certify_copy(args, out, handle)
    return EXIT_PASS


def cmd_bernstein(args, out):
    from . import engine

    st = get_structure(args.structure)
    res = engine.bernstein_base(st, args.depth, sockel_cap=args.sockel_cap)
    out.human("A = {%s}" % ", ".join(st.encode(p) for p in res.side_a))
    out.human("B = {%s}" % ", ".join(st.encode(p) for p in res.side_b))
    out.human("typesets served: %d, unserved: %d"
              % (len(res.served), len(res.unserved)))
    out.record({"op": "bernstein", "structure": args.structure,
                "a": [st.encode(p) for p in res.side_a],
                "b": [st.encode(p) for p in res.side_b],
                "served": len(res.served), "unserved": len(res.unserved)})
    return EXIT_PASS if not res.unserved else EXIT_UNKNOWN


def cmd_certify(args, out):
    from . import certify

    st = get_structure(args.structure)
    if args.what == "copy":
        return _certify_copy(args, out, _build_copy(args, st))
    if args.what == "inclusion":
        from .structures.dlo import powerset_embedding_dlo

        lower = powerset_embedding_dlo(st, members=parse_naturals(args.set))
        upper = powerset_embedding_dlo(st, members=parse_naturals(args.set2))
        cert = certify.check_inclusion(lower, upper, args.depth)
    elif args.what == "meet":
        from . import engine

        avoid = parse_points(st, args.avoid)
        c = engine.max_avoiding_copy(st, avoid, args.depth, seed=args.seed)
        cert = certify.check_meet_irreducible_candidate(
            c, avoid[0], min(args.depth, 8), seed=args.seed)
    else:
        raise PreconditionError("unknown certify target %r" % args.what)
    return _report(out, cert)


def cmd_verify(args, out):
    from . import battery

    st = get_structure(args.structure)
    rows, certs = battery.run_battery(
        st, depth=args.depth, budget=args.budget,
        sockel_cap=args.sockel_cap, seed=args.seed)
    worst = EXIT_PASS
    for name, verdict, note in rows:
        out.human("%-28s %-8s %s" % (name, verdict, note))
        out.record({"op": "verify-row", "structure": args.structure,
                    "row": name, "verdict": verdict, "note": note})
        if verdict == battery.FAIL:
            worst = EXIT_FAIL
        elif verdict == battery.UNKNOWN and worst == EXIT_PASS:
            worst = EXIT_UNKNOWN
    for cert in certs:
        out.cert(cert)
    return worst


def _at_least(low):
    """An argparse type: an int of at least ``low``."""
    def natural(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                "must be at least %d, got %d" % (low, value))
        return value
    natural.__name__ = "int"  # argparse says "invalid int value" on a non-int
    return natural


_FORMATS = ("human", "jsonl")


def _output_format(text):
    # argparse checks choices only on the command line, but converts a
    # string default through the type: COPYPOSET_FORMAT is checked here
    if text not in _FORMATS:
        raise argparse.ArgumentTypeError(
            "invalid choice: %r (choose from %s)"
            % (text, ", ".join(map(repr, _FORMATS))))
    return text


def _option(*flags, env=None, **keywords):
    return flags, env, keywords


# Every option, declared once under its dest, in the order a command adds
# them; COPYPOSET_<env>, when set, is the default, converted as a flag is.
_OPTIONS = {
    "structure": _option("--structure", required=True, choices=BUILTIN_IDS),
    "depth": _option("--depth", type=_at_least(1), default=10, env="DEPTH"),
    "budget": _option("--budget", type=_at_least(1), default=200,
                      env="BUDGET"),
    "sockel_cap": _option("--sockel-cap", type=_at_least(0), default=2,
                          env="SOCKEL_CAP"),
    "seed": _option("--seed", type=int, default=0, env="SEED"),
    "format": _option("--format", type=_output_format, choices=_FORMATS,
                      default="human", env="FORMAT"),
    "out": _option("--out", default=None, env="OUT"),
    "sockel": _option("--sockel", default=""),
    "rep": _option("--rep", required=True),
    "count": _option("-n", "--count", type=_at_least(0), default=6),
    "base": _option("--base", default=""),
    # None stands for closures.DEFAULT_MAXRANK, read when rc runs
    "maxrank": _option("--maxrank", type=_at_least(0), default=None),
    "kind": _option("--kind", choices=("identity", "through", "avoiding"),
                    default="through"),
    "fix": _option("--fix", default=""),
    "k": _option("--k", type=_at_least(1), default=3),
    "avoid": _option("--avoid", default=""),
    "proper": _option("--proper", action="store_true"),
    "set": _option("--set", default=""),
    "set2": _option("--set2", default=""),
    "cofinite": _option("--cofinite", action="store_true"),
    "certify": _option("--certify", action="store_true"),
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="copyposet",
        description="constructions and certificates for copies of countable "
                    "group actions")
    # each command: its function, its help line, its mode and the mode's
    # choices if it has one, and the options besides --format and --out
    # that some invocation of it reads
    commands = {
        "structures": (cmd_structures, "list built-in structures", None, ""),
        "typeset": (cmd_typeset, "members of a typeset", None,
                    "structure sockel rep count"),
        "closure": (cmd_closure, "closure operators",
                    ("kind", ("ac", "rc", "ic")),
                    "structure base depth maxrank seed"),
        "copy": (cmd_copy, "construct a copy", None,
                 "structure kind fix avoid proper seed certify "
                 "depth budget sockel_cap"),
        "chain": (cmd_chain, "strictly descending chain of copies", None,
                  "structure fix k depth seed"),
        "disjoint": (cmd_disjoint, "disjoint pair of copies", None,
                     "structure fix depth"),
        "embed-powerset": (cmd_embed_powerset,
                           "interval copy for a set of naturals (dlo)", None,
                           "structure set cofinite certify "
                           "depth budget sockel_cap"),
        "bernstein": (cmd_bernstein, "two-colouring meeting all typesets",
                      None, "structure depth sockel_cap"),
        "certify": (cmd_certify, "run one certificate check",
                    ("what", ("copy", "inclusion", "meet")),
                    "structure kind fix avoid proper seed set set2 "
                    "depth budget sockel_cap"),
        "verify": (cmd_verify, "run the verification battery", None,
                   "structure depth budget sockel_cap seed"),
    }
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, help_line, mode, takes) in commands.items():
        p = sub.add_parser(name, help=help_line)
        if mode:
            p.add_argument(mode[0], choices=mode[1])
        for dest, (flags, env, keywords) in _OPTIONS.items():
            if dest in takes.split() + ["format", "out"]:
                if env:
                    keywords = dict(keywords, default=os.environ.get(
                        "COPYPOSET_" + env, keywords["default"]))
                p.add_argument(*flags, **keywords)
        p.set_defaults(fn=fn)
    return ap


def _budget_record(args, e):
    """The error record of a SearchBudgetError, with the scan count and the
    blocking (map, point) obligation when the error carries them."""
    rec = {"error": "budget", "message": str(e)}
    if e.scanned:
        rec["scanned"] = e.scanned
    if e.blocking is not None:
        st = get_structure(args.structure)
        pm, point = e.blocking
        rec["blocking"] = {
            "map": sorted([st.encode(s), st.encode(t)]
                          for s, t in pm.items()),
            "point": st.encode(point)}
    return rec


def _run(args, out):
    try:
        code = args.fn(args, out)
    except (UnsupportedConstructionError, ImpossibleConstructionError) as e:
        print("unsupported: %s" % e, file=sys.stderr)
        out.record({"error": "unsupported", "message": str(e)})
        code = EXIT_UNSUPPORTED
    except SearchBudgetError as e:
        print("budget exhausted: %s" % e, file=sys.stderr)
        out.record(_budget_record(args, e))
        code = EXIT_UNKNOWN
    except (PreconditionError, UnknownStructureError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        code = EXIT_UNSUPPORTED if isinstance(e, UnknownStructureError) \
            else EXIT_FAIL
        out.record({"error": "precondition", "message": str(e)})
    except CopyPosetError as e:
        print("error: %s" % e, file=sys.stderr)
        out.record({"error": "library", "message": str(e)})
        code = EXIT_FAIL
    try:
        out.flush()
    except OSError as e:
        print("error: cannot write %s: %s" % (out.path, e.strerror or e),
              file=sys.stderr)
        code = EXIT_FAIL
    return code


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(attach_point_values(
        sys.argv[1:] if argv is None else argv, parser))
    if "budget" in args and args.budget < args.depth:
        parser.error("need budget >= depth")
    if args.command == "certify" and args.what == "meet" \
            and not split_points(args.avoid):
        parser.error("certify meet needs --avoid")
    out = _Out(args)
    try:
        code = _run(args, out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (say, `| head`): send what is left,
        # the interpreter's final flush included, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
