"""Command-line front end: constructions, closures, checks, certificates.

Exit codes: 0 pass/success, 1 fail/counterexample, 2 unknown or budget
exhausted, 3 unsupported or impossible construction, 141 standard output
closed by its reader (128 + SIGPIPE, as a shell reports a piped command cut
short).

Each command imports the library modules it calls when it runs, so a
command pays the import of only those.
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
    """Split a comma-separated point list, respecting {} and () nesting."""
    if text is None or text.strip() == "":
        return []
    items, buf, depth = [], [], 0
    for ch in text:
        if ch in "{(":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if ch == "," and depth == 0:
            items.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    items.append("".join(buf).strip())
    return [s for s in items if s]


def parse_points(st, text):
    return [st.decode(tok) for tok in split_points(text)]


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
            st, base, samples=args.samples, depth=args.depth, seed=args.seed)
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
        c = engine.copy_through(st, fix, engine.copy_identity(st),
                                proper=args.proper, seed=args.seed)
    elif args.kind == "avoiding":
        c = engine.copy_avoiding(st, fix, avoid, seed=args.seed)
    else:
        raise PreconditionError("unknown copy kind %r" % args.kind)
    c.advance(args.stages)
    return c


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
        from . import certify

        cert = certify.check_copy(c, min(args.depth, 8), args.sockel_cap,
                                  args.budget)
        out.cert(cert)
        return _verdict_exit(cert.verdict)
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
    left, right = engine.disjoint_pair(st, fix, seed=args.seed)
    core = st.ac_members_exact(fix) | fix
    cert = certify.check_disjointness(left, right, args.depth, core)
    out.cert(cert)
    out.human("disjoint pair: %s" % cert.verdict)
    return _verdict_exit(cert.verdict)


def cmd_embed_powerset(args, out):
    from .structures.dlo import powerset_embedding_dlo

    st = get_structure(args.structure)
    members = tuple(int(tok) for tok in split_points(args.set))
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
        from . import certify

        cert = certify.check_copy(handle, min(args.depth, 8),
                                  args.sockel_cap, args.budget)
        out.cert(cert)
        return _verdict_exit(cert.verdict)
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
        c = _build_copy(args, st)
        cert = certify.check_copy(c, min(args.depth, 8), args.sockel_cap,
                                  args.budget)
    elif args.what == "inclusion":
        from .structures.dlo import powerset_embedding_dlo

        lower = powerset_embedding_dlo(
            st, members=tuple(int(t) for t in split_points(args.set)))
        upper = powerset_embedding_dlo(
            st, members=tuple(int(t) for t in split_points(args.set2)))
        cert = certify.check_inclusion(lower, upper, args.depth)
    elif args.what == "meet":
        from . import engine

        avoid = parse_points(st, args.avoid)
        c = engine.max_avoiding_copy(st, avoid, args.depth, seed=args.seed)
        cert = certify.check_meet_irreducible_candidate(
            c, avoid[0], min(args.depth, 8), seed=args.seed)
    else:
        raise PreconditionError("unknown certify target %r" % args.what)
    out.cert(cert)
    out.human("%s: %s" % (cert.kind, cert.verdict))
    return _verdict_exit(cert.verdict)


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


def build_parser():
    ap = argparse.ArgumentParser(
        prog="copyposet",
        description="constructions and certificates for copies of countable "
                    "group actions")
    sub = ap.add_subparsers(dest="command", required=True)

    def env(name, fallback):
        # environment overrides mirror the flags; explicit flags still win,
        # and argparse converts a string default as it converts the flag
        return os.environ.get("COPYPOSET_" + name, fallback)

    formats = ("human", "jsonl")

    def output_format(text):
        # argparse checks choices only on the command line, but converts a
        # string default through the type: COPYPOSET_FORMAT is checked here
        if text not in formats:
            raise argparse.ArgumentTypeError(
                "invalid choice: %r (choose from %s)"
                % (text, ", ".join(map(repr, formats))))
        return text

    def common(p, structure=True):
        if structure:
            p.add_argument("--structure", required=True, choices=BUILTIN_IDS)
        p.add_argument("--depth", type=int, default=env("DEPTH", 10))
        p.add_argument("--budget", type=int, default=env("BUDGET", 200))
        p.add_argument("--sockel-cap", dest="sockel_cap", type=int,
                       default=env("SOCKEL_CAP", 2))
        p.add_argument("--seed", type=int, default=env("SEED", 0))
        p.add_argument("--format", type=output_format, choices=formats,
                       default=env("FORMAT", "human"))
        p.add_argument("--out", default=env("OUT", None))

    p = sub.add_parser("structures", help="list built-in structures")
    common(p, structure=False)
    p.set_defaults(fn=cmd_structures)

    p = sub.add_parser("typeset", help="members of a typeset")
    common(p)
    p.add_argument("--sockel", default="")
    p.add_argument("--rep", required=True)
    p.add_argument("-n", "--count", type=int, default=6)
    p.set_defaults(fn=cmd_typeset)

    p = sub.add_parser("closure", help="closure operators")
    p.add_argument("kind", choices=("ac", "rc", "ic"))
    common(p)
    p.add_argument("--base", default="")
    # None stands for closures.DEFAULT_MAXRANK, read when rc runs
    p.add_argument("--maxrank", type=int, default=None)
    p.add_argument("--samples", type=int, default=6)
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("copy", help="construct a copy")
    common(p)
    p.add_argument("--kind", choices=("identity", "through", "avoiding"),
                   default="through")
    p.add_argument("--fix", default="")
    p.add_argument("--avoid", default="")
    p.add_argument("--proper", action="store_true")
    p.add_argument("--stages", type=int, default=24)
    p.add_argument("--certify", action="store_true")
    p.set_defaults(fn=cmd_copy)

    p = sub.add_parser("chain", help="strictly descending chain of copies")
    common(p)
    p.add_argument("--fix", default="")
    p.add_argument("--k", type=int, default=3)
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("disjoint", help="disjoint pair of copies")
    common(p)
    p.add_argument("--fix", default="")
    p.set_defaults(fn=cmd_disjoint)

    p = sub.add_parser("embed-powerset",
                       help="interval copy for a set of naturals (dlo)")
    common(p)
    p.add_argument("--set", default="")
    p.add_argument("--cofinite", action="store_true")
    p.add_argument("--certify", action="store_true")
    p.set_defaults(fn=cmd_embed_powerset)

    p = sub.add_parser("bernstein", help="two-colouring meeting all typesets")
    common(p)
    p.set_defaults(fn=cmd_bernstein)

    p = sub.add_parser("certify", help="run one certificate check")
    p.add_argument("what", choices=("copy", "inclusion", "meet"))
    common(p)
    p.add_argument("--kind", choices=("identity", "through", "avoiding"),
                   default="through")
    p.add_argument("--fix", default="")
    p.add_argument("--avoid", default="")
    p.add_argument("--proper", action="store_true")
    p.add_argument("--stages", type=int, default=24)
    p.add_argument("--set", default="")
    p.add_argument("--set2", default="")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("verify", help="run the verification battery")
    common(p)
    p.set_defaults(fn=cmd_verify)

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
    out.flush()
    return code


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.depth < 1 or args.budget < args.depth:
        parser.error("need depth >= 1 and budget >= depth")
    if args.sockel_cap < 0:
        parser.error("need sockel-cap >= 0")
    if getattr(args, "k", 1) < 1:
        parser.error("need k >= 1")
    if (getattr(args, "maxrank", None) or 0) < 0:
        parser.error("need maxrank >= 0")
    if getattr(args, "count", 0) < 0:
        parser.error("need n >= 0")
    if getattr(args, "samples", 1) < 1:
        parser.error("need samples >= 1")
    if getattr(args, "stages", 0) < 0:
        parser.error("need stages >= 0")
    if getattr(args, "what", None) == "meet" and not split_points(args.avoid):
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
