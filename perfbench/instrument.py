"""Counters and spans installed around the library from outside it.

The library is not changed: the benchmark replaces the public methods of
the structure classes and the public functions of the upper modules with
wrappers for the length of one pass and restores them afterwards.

Two modes:

* counting (``trace=False``): exact counts of the oracle primitives and of
  the candidate points drawn, nothing else, so that ``oracle_calls`` and
  ``points_scanned`` come from a pass of their own;
* tracing (``trace=True``): the counts plus a span (name, start, end,
  parent) for each call into a public function of typesets, closures,
  engine, certify, battery and ``cli.main``.  The structure primitives are
  called hundreds of thousands of times per round, so they only accumulate
  counts and time.  A span's self time is its length minus the time of its
  child spans and of the structure primitives called directly under it.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from math import comb
from time import perf_counter

ORACLE = ("same_type", "extendable", "typeset_finite", "type_unranked")
COUNTED = ORACLE + ("point_at", "index_of", "tuples_same_orbit")
CANDIDATES = ("target_candidates", "source_candidates")
# further structure methods whose time belongs to the structures layer
TIMED = ("typeset_iter", "extensions", "orbit_reps", "prefix", "sort_points",
         "typeset_members", "unranked_witness", "ac_members_exact",
         "ac_is_exact", "singleton_answer", "check_same_type_pre", "encode",
         "decode")
GENERATORS = ("typeset_iter", "extensions") + CANDIDATES
SPANNED_MODULES = ("typesets", "closures", "engine", "certify", "battery")
HANDLE_METHODS = ("advance", "try_decide", "schedule_claims", "decided_in",
                  "decided_out")

# the per-layer metrics of a traced run, with their units
LAYER_METRICS = (
    ("structures.same_type.calls", "count"),
    ("structures.point_at.calls", "count"),
    ("structures.candidates_drawn", "count"),
    ("structures.self_s", "s"),
    ("structures.extendable.calls", "count"),
    ("structures.tuples_same_orbit.calls", "count"),
    ("structures.index_of.calls", "count"),
    ("structures.typeset_finite.calls", "count"),
    ("structures.type_unranked.calls", "count"),
    ("typesets.rank_at_most.calls", "count"),
    ("typesets.rank_at_most.self_s", "s"),
    ("typesets.oligomorphic_profile.self_s", "s"),
    ("closures.algebraic_closure.self_s", "s"),
    ("closures.ranked_closure.self_s", "s"),
    ("closures.intersection_closure_upper.self_s", "s"),
    ("engine.advance.stages", "count"),
    ("engine.advance.self_s", "s"),
    ("engine.advance.candidates_per_stage", "count/stage"),
    ("engine.decide_window.self_s", "s"),
    ("engine.try_decide.calls", "count"),
    ("engine.try_decide.in_ratio", "ratio"),
    ("engine.membership.calls", "count"),
    ("engine.bernstein_base.self_s", "s"),
    ("certify.check_copy.calls", "count"),
    ("certify.check_copy.self_s", "s"),
    ("certify.check_copy.hit_ratio", "ratio"),
    ("certify.check_inclusion.self_s", "s"),
    ("certify.check_disjointness.self_s", "s"),
    ("certify.brute_same_type.calls", "count"),
    ("certify.brute_same_type.self_s", "s"),
    ("battery.run_battery.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.jsonl_bytes", "bytes"),
)


def _structure_classes(structures):
    return {type(structures.get_structure(sid))
            for sid in structures.BUILTIN_IDS}


def _handle_classes(engine):
    seen, todo = [], [engine.CopyHandle]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return [c for c in seen if c.__module__.startswith("copyposet.")]


class Instrument:
    """Wrappers over one imported ``copyposet``; use as a context manager
    around the pass to measure.  Only one may be installed at a time."""

    def __init__(self, trace=False):
        self.trace = trace
        self.active = False
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.spans = []
        self.structures_s = 0.0
        self._stack = []  # open spans: [start, child_s, index]
        self._sdepth = 0  # nesting depth inside structure methods
        self._adepth = 0  # nesting depth inside engine advance
        self._saved = []

    # -- installation --------------------------------------------------------

    def __enter__(self):
        from copyposet import structures

        for cls in _structure_classes(structures):
            names = COUNTED + CANDIDATES + (TIMED if self.trace else ())
            for name in names:
                fn = getattr(cls, name)
                if name in GENERATORS:
                    self._patch(cls, name, self._wrap_gen(name, fn))
                else:
                    self._patch(cls, name, self._wrap_prim(name, fn))
        if self.trace:
            import importlib
            for modname in SPANNED_MODULES:
                mod = importlib.import_module("copyposet." + modname)
                for name, fn in list(vars(mod).items()):
                    if name.startswith("_") or not inspect.isfunction(fn) \
                            or fn.__module__ != mod.__name__:
                        continue
                    self._patch(mod, name, self._wrap_span(
                        "%s.%s" % (modname, name), fn))
            from copyposet import cli, engine
            self._patch(cli, "main", self._wrap_span("cli.main", cli.main))
            for cls in _handle_classes(engine):
                for name in HANDLE_METHODS:
                    if name in vars(cls):
                        self._patch(cls, name, self._wrap_span(
                            "engine." + name, vars(cls)[name]))
                if "membership" in vars(cls):
                    self._patch(cls, "membership",
                                self._wrap_count("engine.membership.calls",
                                                 vars(cls)["membership"]))
        self.active = True
        return self

    def __exit__(self, *exc):
        self.active = False
        for owner, name, original in reversed(self._saved):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._saved.clear()
        return False

    def _patch(self, owner, name, wrapper):
        self._saved.append((owner, name, vars(owner).get(name)))
        setattr(owner, name, wrapper)

    # -- structure primitives ------------------------------------------------

    def _charge(self, dt):
        self.structures_s += dt
        if self._stack:
            self._stack[-1][1] += dt

    def _wrap_prim(self, name, fn):
        key = "structures.%s.calls" % name
        counted = name in COUNTED
        counts = self.counts
        if not self.trace:
            @functools.wraps(fn)
            def count_only(*args, **kwargs):
                if self.active:
                    counts[key] += 1
                return fn(*args, **kwargs)
            return count_only

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if counted:
                counts[key] += 1
            if self._sdepth:
                self._sdepth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._sdepth -= 1
            self._sdepth = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._sdepth = 0
                self._charge(perf_counter() - t0)
        return timed

    def _wrap_gen(self, name, fn):
        drawn = name in CANDIDATES
        counts = self.counts

        @functools.wraps(fn)
        def gen(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                timed = self.trace and self.active and not self._sdepth
                if timed:
                    self._sdepth = 1
                    t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    if timed:
                        self._sdepth = 0
                        self._charge(perf_counter() - t0)
                if drawn and self.active:
                    counts["structures.candidates_drawn"] += 1
                    if self._adepth:
                        counts["engine.advance.candidates"] += 1
                yield item
        return gen

    # -- spans ---------------------------------------------------------------

    def _wrap_count(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def count_only(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)
        return count_only

    def _wrap_span(self, name, fn):
        counts, spans, stack = self.counts, self.spans, self._stack
        before, after = {
            "engine.advance": (self._advance_in, self._advance_out),
            "engine.try_decide": (None, self._try_decide_out),
            "certify.check_copy": (self._check_copy_in,
                                   self._check_copy_out),
        }.get(name, (None, None))

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            counts[name + ".calls"] += 1
            index = len(spans)
            spans.append(None)
            frame = [0.0, 0.0, index]
            parent = stack[-1][2] if stack else -1
            stack.append(frame)
            token = before() if before else None
            result = None
            frame[0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                spans[index] = (name, frame[0], end, parent)
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if after:
                    after(args, kwargs, result, token)
                    if stack:  # bookkeeping is not the caller's time
                        stack[-1][1] += perf_counter() - end
        return span

    def _advance_in(self):
        self._adepth += 1
        return self._adepth == 1

    def _advance_out(self, args, kwargs, result, outermost):
        self._adepth -= 1
        if outermost and result is not None:
            stages = args[1] if len(args) > 1 else kwargs["stages"]
            self.counts["engine.advance.stages"] += stages

    def _try_decide_out(self, args, kwargs, result, token):
        if result is not None and result.is_in:
            self.counts["engine.try_decide.in"] += 1

    def _check_copy_in(self):
        return self.counts["structures.point_at.calls"]

    def _check_copy_out(self, args, kwargs, result, scanned_before):
        self.counts["certify.check_copy.scanned"] += \
            self.counts["structures.point_at.calls"] - scanned_before
        if result is None or result.verdict == "fail":
            return
        params = result.params
        self.active = False
        try:
            self.counts["certify.check_copy.discharged"] += _obligations(
                args[0], params["depth"], params["sockel_cap"]) \
                - len(result.unresolved)
        finally:
            self.active = True

    # -- results -------------------------------------------------------------

    def oracle_calls(self):
        return sum(self.counts["structures.%s.calls" % n] for n in ORACLE)

    def points_scanned(self):
        return self.counts["structures.point_at.calls"] + \
            self.counts["structures.candidates_drawn"]

    def layer_values(self):
        """The raw sums a traced pass produced, as a plain dict; add such
        dicts across processes with ``merge`` before ``layer_metrics``."""
        out = dict(self.counts)
        for name, value in self.self_s.items():
            out[name + ".self_s"] = value
        out["structures.self_s"] = self.structures_s
        return out


def _obligations(handle, depth, cap):
    """The (F, x) pairs check_copy walks: F a sockel of at most ``cap``
    window points inside the copy, x a window point off F."""
    window = handle.structure.prefix(depth)
    inside = sum(1 for p in window if handle.membership(p).is_in)
    n = len(window)
    return sum(comb(inside, s) * (n - s) for s in range(cap + 1))


def merge(total, part):
    for key, value in part.items():
        total[key] = total.get(key, 0) + value
    return total


def layer_metrics(values):
    """Per-layer metrics from summed raw values; a layer the pass did not
    reach reads 0."""
    v = dict(values)

    def ratio(num, den):
        return v.get(num, 0) / v[den] if v.get(den) else 0.0

    derived = {
        "engine.advance.candidates_per_stage": ratio(
            "engine.advance.candidates", "engine.advance.stages"),
        "engine.try_decide.in_ratio": ratio(
            "engine.try_decide.in", "engine.try_decide.calls"),
        "certify.check_copy.hit_ratio": ratio(
            "certify.check_copy.discharged", "certify.check_copy.scanned"),
    }
    return {name: {"value": derived[name] if name in derived
                   else v.get(name, 0.0 if unit == "s" else 0),
                   "unit": unit}
            for name, unit in LAYER_METRICS}
