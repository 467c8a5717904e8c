"""Spans and counts around the public functions of each kmweights layer.

The program is not changed: `Tracer.install` replaces each wrapped function
in every kmweights module that holds a reference to it, because modules
import by name (``from .lp import feasible``).  Wrappers cost one flag test
while the tracer is inactive, so reference computations made by the checks
run untraced.

A layer's self time is its span time minus the time of the spans nested
in it.  Generators (``weyl.enumerate_group``) are timed per resume: their
span runs from the first to the last resume and its self time is the sum
of the resumes.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

now = time.perf_counter


def _result_len(counter):
    def count(counts, args, result):
        counts[counter] += len(result)
    return count


def _lp_counts(counts, args, result):
    a = args[0]
    m = len(a)
    counts["lp.feasible.cells"] += m * ((len(a[0]) if m else 0) + m)
    if result is None:
        counts["lp.feasible.infeasible"] += 1


def _hull_counts(counts, args, result):
    counts["modweights.hull_generators.generators"] += len(result.vertices) + len(result.rays)


def _member_counts(counts, args, result):
    if result:
        counts["modweights.hull_contains.members"] += 1


def _nonzero_counts(counts, args, result):
    if result:
        counts["oracle.simple_multiplicity.nonzero"] += 1


def _pair_counts(group):
    def count(counts, args, result):
        counts[group + ".term_pairs"] += len(args[0].terms) * len(args[1].terms)
    return count


# (module, attribute, metric group, how to call it, counter)
# "call" wraps a plain function or method, "outer" times only the outermost
# call of a recursive method, "gen" wraps a generator function.
LAYERS = [
    ("lp", "feasible", "lp.feasible", "call", _lp_counts),
    ("cartan", "classify", "cartan.classify", "call", None),
    ("modweights", "hull_generators", "modweights.hull_generators", "call", _hull_counts),
    ("modweights", "hull_contains", "modweights.hull_contains", "call", _member_counts),
    ("modweights", "wt_integrable", "modweights.wt_integrable", "call", None),
    ("modweights", "wt_simple_slice", "modweights.formulas", "call", None),
    ("modweights", "wt_simple_orbit", "modweights.formulas", "call", None),
    ("modweights", "wt_simple_hull", "modweights.formulas", "call", None),
    ("modweights", "wt_parabolic_verma", "modweights.formulas", "call", None),
    ("weyl", "enumerate_group", "weyl.enumerate_group", "gen", None),
    ("weyl", "orbit_truncated", "weyl.orbit_truncated", "call",
     _result_len("weyl.orbit_truncated.points")),
    ("oracle", "words_of_offset", "oracle.words_of_offset", "call",
     _result_len("oracle.words_of_offset.words")),
    ("oracle", "GramBuilder.form", "oracle.GramBuilder.form", "outer", None),
    ("oracle", "simple_multiplicity", "oracle.simple_multiplicity", "call", _nonzero_counts),
    ("series", "TruncSeries.__mul__", "series.TruncSeries.mul", "call",
     _pair_counts("series.TruncSeries.mul")),
    ("series", "LaurentElt.__mul__", "series.LaurentElt.mul", "call",
     _pair_counts("series.LaurentElt.mul")),
    ("series", "wkw_sum", "series.sums", "call", None),
    ("series", "atiyah_bott_sum", "series.sums", "call", None),
    ("series", "weyl_summand", "series.sums", "call", None),
    ("roots", "positive_real_up_to", "roots", "call", _result_len("roots.roots")),
    ("roots", "positive_imaginary_up_to", "roots", "call", _result_len("roots.roots")),
    ("verify", "verify_denominator_bases", "verify", "call", None),
    ("verify", "verify_rank2_macdonald", "verify", "call", None),
    ("verify", "verify_wkw_vs_weights", "verify", "call", None),
    ("verify", "check_integrability_invariants", "verify", "call", None),
    ("cli", "run", "cli.run", "call", None),
]

# Every per-layer metric the traced run reports, with its unit.
METRICS = {
    "lp.feasible.calls": "count", "lp.feasible.self_s": "s",
    "lp.feasible.infeasible": "count", "lp.feasible.cells": "count",
    "modweights.hull_generators.self_s": "s",
    "modweights.hull_generators.generators": "count",
    "modweights.hull_contains.calls": "count", "modweights.hull_contains.self_s": "s",
    "modweights.hull_contains.members": "count",
    "modweights.hull_contains.member_share": "ratio",
    "modweights.wt_integrable.calls": "count", "modweights.wt_integrable.self_s": "s",
    "modweights.formulas.self_s": "s",
    "weyl.enumerate_group.self_s": "s", "weyl.enumerate_group.elements": "count",
    "weyl.orbit_truncated.calls": "count", "weyl.orbit_truncated.self_s": "s",
    "weyl.orbit_truncated.points": "count",
    "oracle.words_of_offset.self_s": "s", "oracle.words_of_offset.words": "count",
    "oracle.GramBuilder.form.self_s": "s", "oracle.GramBuilder.form.entries": "count",
    "oracle.simple_multiplicity.calls": "count", "oracle.simple_multiplicity.self_s": "s",
    "oracle.simple_multiplicity.nonzero": "count",
    "series.TruncSeries.mul.calls": "count", "series.TruncSeries.mul.self_s": "s",
    "series.TruncSeries.mul.term_pairs": "count",
    "series.LaurentElt.mul.calls": "count", "series.LaurentElt.mul.self_s": "s",
    "series.LaurentElt.mul.term_pairs": "count",
    "series.sums.self_s": "s",
    "roots.self_s": "s", "roots.roots": "count",
    "cartan.classify.calls": "count", "cartan.classify.self_s": "s",
    "cli.run.self_s": "s", "verify.self_s": "s",
    "trace.pass_s": "s", "trace.overhead_s": "s",
}


class Tracer:
    """Aggregates per-layer calls, self time and counts; keeps spans on request."""

    def __init__(self):
        self.active = False
        self.recording = False
        self.op = None
        self.spans = []
        self._stack = []  # [span id, name, group, start, child time, parent id]
        self._next_id = 0
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def _push(self, name, group):
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, name, group, now(), 0.0, parent]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _pop(self, frame):
        end = now()
        self._stack.pop()
        dur = end - frame[3]
        if self._stack:
            self._stack[-1][4] += dur
        return end, dur - frame[4]

    def _record(self, frame, end, self_time):
        if self.recording:
            self.spans.append({"id": frame[0], "name": frame[1], "start": frame[3],
                               "end": end, "parent": frame[5], "op": self.op,
                               "self": self_time})

    def _call(self, name, group, fn, count):
        tr = self

        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            frame = tr._push(name, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                end, self_time = tr._pop(frame)
                tr.calls[group] += 1
                tr.self_s[group] += self_time
                tr._record(frame, end, self_time)
            if count is not None:
                count(tr.counts, args, result)
            return result

        return traced

    def _outer(self, name, group, fn):
        tr = self
        inside = [False]

        def traced(*args):
            if not tr.active or inside[0]:
                return fn(*args)
            inside[0] = True
            frame = tr._push(name, group)
            try:
                return fn(*args)
            finally:
                inside[0] = False
                end, self_time = tr._pop(frame)
                tr.calls[group] += 1
                tr.self_s[group] += self_time
                tr._record(frame, end, self_time)

        return traced

    def _gen(self, name, group, fn):
        tr = self

        def resumes(gen):
            first = None
            busy = 0.0
            try:
                while True:
                    frame = tr._push(name, group)
                    if first is None:
                        first = frame
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end, self_time = tr._pop(frame)
                        busy += self_time
                        tr.self_s[group] += self_time
                    tr.counts[group + ".elements"] += 1
                    yield item
            finally:
                gen.close()
                tr.calls[group] += 1
                tr._record(first, end, busy)

        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            return resumes(fn(*args, **kwargs))

        return traced

    def install(self):
        """Wrap every layer function in every kmweights module that binds it."""
        for mod_name, attr, group, how, count in LAYERS:
            mod = importlib.import_module("kmweights." + mod_name)
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                wrapped = (self._outer(name, group, fn) if how == "outer"
                           else self._call(name, group, fn, count))
                setattr(cls, meth, wrapped)
                continue
            fn = getattr(mod, attr)
            wrapped = (self._gen(name, group, fn) if how == "gen"
                       else self._call(name, group, fn, count))
            for m_name, m in list(sys.modules.items()):
                if m_name == "kmweights" or m_name.startswith("kmweights."):
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, key, wrapped)

    def metrics(self):
        """The per-layer metrics gathered since the last reset (pass_s aside)."""
        out = {}
        for name in METRICS:
            group, _, what = name.rpartition(".")
            if what == "calls":
                out[name] = self.calls[group]
            elif what == "self_s":
                out[name] = self.self_s[group]
            else:
                out[name] = self.counts.get(name, 0)
        # Each outermost form() call computes one Gram entry.
        out["oracle.GramBuilder.form.entries"] = self.calls["oracle.GramBuilder.form"]
        calls = self.calls["modweights.hull_contains"]
        out["modweights.hull_contains.member_share"] = (
            self.counts["modweights.hull_contains.members"] / calls if calls else 0.0)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
