"""Benchmark of the copyposet library and CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout; the library is imported from ``src/``.
Workloads: orbit-scan, copy-certify, oracle-differential, cli-cold (see
perfbench/README.md).  A run sets up, runs one untimed warm-up round of a
library workload, then times whole rounds of the workload's operations
until S seconds have passed.  With ``--trace 0`` a further counted round
gives the exact oracle work; with ``--trace 1`` a traced round gives the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the same object and any spans are written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import clicold
import instrument
import workloads

WORKLOADS = ("orbit-scan", "copy-certify", "oracle-differential", "cli-cold")
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 120
OUT_DIR = ".perfbench_out"
HERE = os.path.dirname(os.path.abspath(__file__))


class Run:
    """State of one benchmark run: the checkout, and what went wrong."""

    def __init__(self, root, seed, seconds, trace):
        self.root, self.seed, self.seconds, self.trace = (
            root, seed, seconds, trace)
        self.src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [self.src, HERE] + [p for p in [os.environ.get("PYTHONPATH")]
                                if p]))
        self.incorrect = []
        self.failures = {}

    def child(self, argv):
        return subprocess.run([sys.executable] + argv, cwd=self.root,
                              env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)

    def judge(self, name, check, result):
        """True if the operation succeeded; records a wrong answer."""
        try:
            return bool(check(result))
        except workloads.Incorrect as e:
            self.incorrect.append("%s: %s" % (name, e))
            return True

    def note_failure(self, name, detail):
        self.failures.setdefault(name, detail)


# -- timing ------------------------------------------------------------------

# The speed of this kind of shared machine drifts by 15-40 % within seconds
# (measured: the same round of operations took 0.81-1.46 s, and CPU time
# drifted with wall time, so the cause is a slower core, not preemption).
# Times are therefore rescaled to a reference speed: a fixed stdlib loop is
# timed around every chunk of operations, and each operation's wall time is
# divided by the loop's time next to it over REFERENCE_S, the loop's time on
# the 2-core VM where the bounds were set.  A change to the library cannot
# move the loop, so it cannot move the scale.
REFERENCE_S = 0.05
CHUNK_S = 0.25


def reference_loop():
    """Seconds for a fixed mix of the interpreter work the library does:
    dict updates, Fraction comparisons, frozenset hashing and lookup."""
    t0 = perf_counter()
    counts, hits = {}, 0
    for i in range(20000):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + 1
        if Fraction(i % 13, 7) < Fraction(1, 2):
            hits += 1
    pairs = {frozenset((i, i + 1)) for i in range(2000)}
    hits += sum(1 for i in range(2000) if frozenset((i + 1, i)) in pairs)
    return perf_counter() - t0


class Clock:
    """Times operations in wall-clock seconds and rescales each to the
    reference speed measured around its chunk of operations."""

    def __init__(self):
        self.ref = reference_loop()
        self.refs = [self.ref]
        self.mark = perf_counter()
        self.pending, self.raw, self.scaled = [], [], []

    def time(self, fn):
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self.pending.append(perf_counter() - t0)
            if perf_counter() - self.mark >= CHUNK_S:
                self._rescale()

    def _rescale(self):
        ref = reference_loop()
        factor = (self.ref + ref) / 2 / REFERENCE_S
        self.scaled.extend(t / factor for t in self.pending)
        self.raw.extend(self.pending)
        self.pending = []
        self.ref = ref
        self.refs.append(ref)
        self.mark = perf_counter()

    def take(self):
        """(raw, rescaled) times of the operations since the last take."""
        self._rescale()
        out = self.raw, self.scaled
        self.raw, self.scaled = [], []
        return out


def timed_rounds(run, one_round):
    """Whole rounds until the run's seconds have passed.  Returns the
    (raw, rescaled) operation times of each round and the operations
    attempted and failed."""
    rounds, attempted, failed = [], 0, 0
    started = perf_counter()
    while True:
        times, f = one_round()
        rounds.append(times)
        attempted += len(times[0])
        failed += f
        if perf_counter() - started >= run.seconds:
            return rounds, attempted, failed


def rate(rounds, which):
    """Median over rounds of operations per second (which: 0 raw wall
    clock, 1 rescaled)."""
    return statistics.median(len(r[which]) / sum(r[which]) for r in rounds)


def p50_ms(rounds):
    """Median over operations of each operation's median rescaled time."""
    per_op = zip(*(r[1] for r in rounds))
    return 1000 * statistics.median(statistics.median(t) for t in per_op)


def trace_extras(rounds, traced, clock):
    return {
        "trace.overhead_pct": {"value": 100 * (
            sum(traced[1]) / statistics.median(sum(r[1]) for r in rounds)
            - 1), "unit": "%"},
        "run.wall_ops_per_s": {"value": rate(rounds, 0), "unit": "1/s"},
        "run.reference_loop_s": {"value": statistics.median(clock.refs),
                                 "unit": "s"},
    }


def setup_samples(run, sample):
    """SETUP_SAMPLES set-up times, each rescaled by the reference loop
    timed just before and after it."""
    out = []
    for _ in range(SETUP_SAMPLES):
        before = reference_loop()
        seconds = sample()
        factor = (before + reference_loop()) / 2 / REFERENCE_S
        out.append(seconds / factor)
    return statistics.median(out)


# -- library workloads -------------------------------------------------------


def run_round(run, ops, round_check, clock):
    """Run every operation once; returns ((raw, rescaled) seconds of each
    operation, failed operations)."""
    failed = 0
    results = [] if round_check else None
    for op in ops:
        try:
            result = clock.time(op.fn)
        except Exception as e:  # the library's fault, counted as failed
            failed += 1
            run.note_failure(op.name, "%s: %s" % (type(e).__name__, e))
            if results is not None:
                results.append(None)
            continue
        if results is not None:
            results.append(result)
        if not run.judge(op.name, op.check, result):
            failed += 1
            run.note_failure(op.name, _describe(result))
    if round_check:
        run.judge("round", round_check, results)
    return clock.take(), failed


def _describe(result):
    verdict = getattr(result, "verdict", None)
    return "verdict %s" % verdict if verdict else repr(result)[:200]


def library(run, name):
    build, round_check = workloads.LIBRARY[name]
    prefixes = workloads.PREFIXES[name]

    def sample():
        proc = run.child([os.path.join(HERE, "launcher.py"), "setup",
                          json.dumps(prefixes)])
        if proc.returncode != 0:
            raise SystemExit("set-up failed:\n" + proc.stderr)
        return float(proc.stdout.split()[-1])
    setup_s = setup_samples(run, sample)

    sys.path.insert(0, run.src)
    import copyposet
    import copyposet.certify  # noqa: F401  (the modules the ops call)
    import copyposet.closures  # noqa: F401
    import copyposet.engine  # noqa: F401
    import copyposet.typesets  # noqa: F401
    for sid, n in prefixes.items():
        copyposet.get_structure(sid).prefix(n)
    ops = build(copyposet, run.seed)

    clock = Clock()
    run_round(run, ops, round_check, clock)  # warm-up: lazy state, caches
    rounds, attempted, failed = timed_rounds(
        run, lambda: run_round(run, ops, round_check, clock))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    with instrument.Instrument(trace=bool(run.trace)) as ins:
        traced, _ = run_round(run, ops, round_check, clock)
    if run.trace:
        metrics = instrument.layer_metrics(ins.layer_values())
        metrics.update(trace_extras(rounds, traced, clock))
        write_spans(run, name, ins.spans)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": rate(rounds, 1), "unit": "1/s"},
            "cmd_p50_ms": {"value": p50_ms(rounds), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "oracle_calls": {"value": ins.oracle_calls(), "unit": "count"},
            "points_scanned": {"value": ins.points_scanned(),
                               "unit": "count"},
        }
    return attempted, failed, metrics


# -- cli-cold ----------------------------------------------------------------


def cli_round(run, clock, launcher=None, stats=None):
    """Run every command once in a fresh interpreter; returns ((raw,
    rescaled) wall time of each command, failed commands)."""
    failed, outputs = 0, {}
    for i, (name, argv, check) in enumerate(clicold.COMMANDS):
        if launcher:
            path = out_path(run, "cmd-%d.json" % i)
            cmd = [os.path.join(HERE, "launcher.py"), launcher, path] + argv
        else:
            cmd = ["-m", "copyposet.cli"] + argv
        proc = clock.time(lambda: run.child(cmd))
        if launcher:
            with open(path, encoding="utf-8") as fh:
                stats.append(json.load(fh))
            os.remove(path)
        if proc.returncode != 0:
            failed += 1
            run.note_failure(name, "exit %d: %s" % (
                proc.returncode, proc.stderr.strip().splitlines()[-1:]))
            continue
        outputs[name] = proc.stdout
        if not run.judge(name, check, proc.stdout):
            failed += 1
    run.judge("round", clicold.round_check, outputs)
    return clock.take(), failed


def cli_cold(run, name):
    del name

    def sample():
        t0 = perf_counter()
        proc = run.child(["-c", "import copyposet.cli"])
        if proc.returncode != 0:
            raise SystemExit("set-up failed:\n" + proc.stderr)
        return perf_counter() - t0
    setup_s = setup_samples(run, sample)

    clock = Clock()
    rounds, attempted, failed = timed_rounds(run, lambda: cli_round(run, clock))
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    stats = []
    traced, _ = cli_round(run, clock, "trace" if run.trace else "count",
                          stats)
    if run.trace:
        values = {}
        spans = []
        for i, s in enumerate(stats):
            instrument.merge(values, s["layers"])
            spans.extend([i] + list(span) for span in s["spans"])
        metrics = instrument.layer_metrics(values)
        metrics.update(trace_extras(rounds, traced, clock))
        write_spans(run, "cli-cold", spans)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": rate(rounds, 1), "unit": "1/s"},
            "cmd_p50_ms": {"value": p50_ms(rounds), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "oracle_calls": {"value": sum(s["oracle_calls"] for s in stats),
                             "unit": "count"},
            "points_scanned": {"value": sum(s["points_scanned"]
                                            for s in stats),
                               "unit": "count"},
        }
    return attempted, failed, metrics


# -- output ------------------------------------------------------------------


def out_path(run, stem):
    os.makedirs(os.path.join(run.root, OUT_DIR), exist_ok=True)
    return os.path.join(run.root, OUT_DIR, stem)


def write_spans(run, name, spans):
    path = out_path(run, "trace-%s-seed%d.json" % (name, run.seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": run.seed,
                   "fields": ["name", "start", "end", "parent"],
                   "spans": spans}, fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "copyposet",
                                       "__init__.py")):
        print("error: run from the root of a copyposet checkout "
              "(src/copyposet not found in %s)" % root, file=sys.stderr)
        return 2
    run = Run(root, args.seed, args.seconds, args.trace)
    body = cli_cold if args.workload == "cli-cold" else library
    attempted, failed, metrics = body(run, args.workload)

    for name, detail in sorted(run.failures.items()):
        print("failed: %s (%s)" % (name, detail), file=sys.stderr)
    for line in list(dict.fromkeys(run.incorrect))[:20]:
        print("INCORRECT: %s" % line, file=sys.stderr)
    for name, m in metrics.items():
        print("%-44s %16.6g %s" % (name, m["value"], m["unit"]))
    print("%s seed %d: %d operations attempted, %d failed"
          % (args.workload, args.seed, attempted, failed))
    result = {"correct": not run.incorrect, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    line = json.dumps(result, sort_keys=True)
    with open(out_path(run, "result-%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w",
            encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
