"""Span tracer for the traced benchmark run.

The tracer wraps public functions and methods of tailent from the outside
(module attributes and class attributes), records one span per call in
memory (name, start, end, parent span) and a few counters at the same
boundaries, and restores every original on `uninstall`.  Nothing in
`src/` is edited; callers reach the wrappers because tailent looks these
names up at call time (module globals, lazy imports in the CLI, class
attribute lookup for methods).
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from tailent import cli, combinatorics, entropy, maps, polyalg, rates, symbolic

# Spans whose evaluate_array calls build orbit matrices.
_ORBIT_SPANS = ("entropy.eps_entropy", "entropy.spanning_count")


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.names = []                  # span-name table
        self._name_ids = {}
        self.name_of = array("i")        # per span: index into self.names
        self.parent = array("i")         # per span: parent span index or -1
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = defaultdict(float)
        self.job_starts = []             # (first span index, job name)
        self.orbit_max_n = {}            # (pass, job, map, grid size) -> max n
        self._job = None
        self._pass = 0
        self._saved = []

    # -- patching -----------------------------------------------------------
    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, owner, attr, name, hook=None, span=True, skip_caller=None):
        """Patch owner.attr with a recording wrapper.  With span=False only
        the hook runs.  Calls made from code of module `skip_caller` are
        that module's own work and pass through unrecorded."""
        orig = owner.__dict__[attr]
        nid = self._name_id(name)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack)

        if span:
            def wrapper(*args, **kwargs):
                if (skip_caller is not None and
                        sys._getframe(1).f_globals.get("__name__") == skip_caller):
                    return orig(*args, **kwargs)
                idx = len(start)
                name_of.append(nid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(idx)
                start.append(perf_counter())
                try:
                    result = orig(*args, **kwargs)
                finally:
                    end[idx] = perf_counter()
                    stack.pop()
                if hook is not None:
                    hook(args, kwargs, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                result = orig(*args, **kwargs)
                hook(args, kwargs, result)
                return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def install(self):
        """Patch for one traced pass."""
        self._pass += 1
        c = self.counters
        bind_ee = inspect.signature(entropy.eps_entropy).bind
        bind_sc = inspect.signature(entropy.spanning_count).bind
        orbit_ids = {self._name_id(n) for n in _ORBIT_SPANS}

        def orbit_request(m, n, grid, grid_bits):
            size = (2 ** grid_bits + 1) if grid is None else len(grid)
            c["entropy.orbit_cells"] += size * n
            key = (self._pass, self._job, m.name, size)
            self.orbit_max_n[key] = max(self.orbit_max_n.get(key, 0), n)

        def on_eps_entropy(args, kwargs, est):
            b = bind_ee(*args, **kwargs)
            b.apply_defaults()
            a = b.arguments
            orbit_request(a["m"], max(a["n_range"]), None, a["grid_bits"])
            c["entropy.saturated"] += bool(est.saturated)

        def on_spanning_count(args, kwargs, result):
            b = bind_sc(*args, **kwargs)
            b.apply_defaults()
            a = b.arguments
            orbit_request(a["m"], a["n"], a["grid"], a["grid_bits"])

        def on_tail(args, kwargs, est):
            c["entropy.saturated"] += bool(est.saturated)

        def on_evaluate_array(args, kwargs, result):
            points = np.size(args[1])
            c["maps.evaluate_array.points"] += points
            for i in self.stack:
                if i >= 0 and self.name_of[i] in orbit_ids:
                    c["entropy.orbit_evaluated"] += points
                    break

        def on_poly_call(args, kwargs, result):
            c["polyalg.Polynomial.call.points"] += np.size(args[1])

        def on_reparam(args, kwargs, atlas):
            c["polyalg.atlas.step1"] += atlas.step1_count
            c["polyalg.atlas.step2"] += atlas.step2_count
            c["polyalg.atlas.charts"] += atlas.chart_count

        def on_sft_entropy(args, kwargs, result):
            c["symbolic.sft.states"] += args[0].size

        def on_successors(args, kwargs, succ):
            c["symbolic.sft.edges"] += sum(len(row) for row in succ)

        self.wrap(cli, "main", "cli")
        self.wrap(entropy, "eps_entropy", "entropy.eps_entropy", on_eps_entropy)
        self.wrap(entropy, "spanning_count", "entropy.spanning_count",
                  on_spanning_count)
        self.wrap(entropy, "tail_entropy_estimate",
                  "entropy.tail_entropy_estimate", on_tail)
        self.wrap(entropy, "continuity_modulus", "entropy.continuity_modulus")
        self.wrap(maps.IntervalMap, "evaluate_array", "maps.evaluate_array",
                  on_evaluate_array)
        self.wrap(polyalg, "reparametrize_1d", "polyalg.reparametrize_1d",
                  on_reparam)
        # Polynomial maps evaluate, validate and find critical points through
        # polyalg; that is the map layer's kernel, not the exact layer's.
        self.wrap(polyalg, "isolate_roots", "polyalg.isolate_roots",
                  skip_caller="tailent.maps")
        self.wrap(polyalg, "verify_atlas", "polyalg.verify_atlas")
        self.wrap(polyalg.Polynomial, "__call__", "polyalg.Polynomial.call",
                  on_poly_call, skip_caller="tailent.maps")
        self.wrap(combinatorics.BellTable, "faa_di_bruno",
                  "combinatorics.faa_di_bruno")
        self.wrap(combinatorics.BellTable, "partial_bell",
                  "combinatorics.partial_bell")
        self.wrap(symbolic, "sft_entropy", "symbolic.sft_entropy",
                  on_sft_entropy)
        self.wrap(symbolic.Sft, "successors", "symbolic.Sft.successors",
                  on_successors, span=False)
        self.wrap(symbolic, "build_Yp", "symbolic.build_Yp")
        self.wrap(symbolic, "thickness", "symbolic.thickness")
        self.wrap(symbolic, "gap_lemma_check", "symbolic.gap_lemma_check")
        self.wrap(rates, "g_inverse", "rates.g_inverse")
        self.wrap(rates, "weight_from_rate", "rates.weight_from_rate")

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def begin_job(self, name):
        self._job = name
        self.job_starts.append((len(self.start), name))

    # -- reduction ----------------------------------------------------------
    def span_totals(self):
        """name -> [calls, inclusive seconds, self seconds].

        Inclusive time counts only spans with no ancestor of the same name,
        so recursion is not double counted; self time is a span's duration
        minus the durations of its direct children.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(n):
            nid = self.name_of[i]
            dur = self.end[i] - self.start[i]
            t = totals[self.names[nid]]
            t[0] += 1
            t[2] += dur - child[i]
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != nid:
                p = self.parent[p]
            if p < 0:
                t[1] += dur
        return totals

    def layer_metrics(self, passes):
        """Per-layer metric values, per traced pass."""
        totals = self.span_totals()
        c = self.counters
        distinct = sum(size * (n - 1)
                       for (*_, size), n in self.orbit_max_n.items())
        evaluated = c["entropy.orbit_evaluated"]
        values = {}
        for name, _unit, (kind, key) in LAYER_METRICS:
            if kind == "calls":
                v = totals[key][0] if key in totals else 0
            elif kind == "s":
                v = totals[key][1] if key in totals else 0.0
            elif kind == "self_s":
                v = totals[key][2] if key in totals else 0.0
            elif kind == "counter":
                v = c.get(key, 0.0)
            elif kind == "spans":
                v = len(self.start)
            else:
                continue
            values[name] = v / passes
        values["entropy.orbit_reuse"] = distinct / evaluated if evaluated else 0.0
        return values

    def write(self, path):
        """All spans as gzip'd JSON lines: id, name, start, end, parent, job."""
        marks = self.job_starts + [(len(self.start), None)]
        names = [json.dumps(n) for n in self.names]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for (first, job), (stop, _) in zip(marks, marks[1:]):
                job = json.dumps(job)
                fh.writelines(
                    f"[{i},{names[self.name_of[i]]},{self.start[i]!r},"
                    f"{self.end[i]!r},{self.parent[i]},{job}]\n"
                    for i in range(first, stop))


# (metric, unit, (kind, source)): kind "calls"/"s"/"self_s" read span
# totals, "counter" reads a counter; "derived" values are set by the runner
# or by layer_metrics itself.
LAYER_METRICS = [
    ("entropy.eps_entropy.calls", "count", ("calls", "entropy.eps_entropy")),
    ("entropy.eps_entropy.self_s", "s", ("self_s", "entropy.eps_entropy")),
    ("entropy.spanning_count.calls", "count", ("calls", "entropy.spanning_count")),
    ("entropy.spanning_count.self_s", "s", ("self_s", "entropy.spanning_count")),
    ("entropy.orbit_cells", "count", ("counter", "entropy.orbit_cells")),
    ("entropy.orbit_reuse", "ratio", ("derived", None)),
    ("maps.evaluate_array.calls", "count", ("calls", "maps.evaluate_array")),
    ("maps.evaluate_array.points", "count", ("counter", "maps.evaluate_array.points")),
    ("maps.evaluate_array.s", "s", ("s", "maps.evaluate_array")),
    ("entropy.tail_entropy_estimate.calls", "count",
     ("calls", "entropy.tail_entropy_estimate")),
    ("entropy.tail_entropy_estimate.self_s", "s",
     ("self_s", "entropy.tail_entropy_estimate")),
    ("entropy.saturated", "count", ("counter", "entropy.saturated")),
    ("entropy.continuity_modulus.self_s", "s",
     ("self_s", "entropy.continuity_modulus")),
    ("polyalg.reparametrize_1d.calls", "count", ("calls", "polyalg.reparametrize_1d")),
    ("polyalg.reparametrize_1d.self_s", "s", ("self_s", "polyalg.reparametrize_1d")),
    ("polyalg.isolate_roots.calls", "count", ("calls", "polyalg.isolate_roots")),
    ("polyalg.isolate_roots.s", "s", ("s", "polyalg.isolate_roots")),
    ("polyalg.Polynomial.call.calls", "count", ("calls", "polyalg.Polynomial.call")),
    ("polyalg.Polynomial.call.points", "count",
     ("counter", "polyalg.Polynomial.call.points")),
    ("polyalg.Polynomial.call.s", "s", ("s", "polyalg.Polynomial.call")),
    ("polyalg.verify_atlas.s", "s", ("s", "polyalg.verify_atlas")),
    ("polyalg.atlas.step1", "count", ("counter", "polyalg.atlas.step1")),
    ("polyalg.atlas.step2", "count", ("counter", "polyalg.atlas.step2")),
    ("polyalg.atlas.charts", "count", ("counter", "polyalg.atlas.charts")),
    ("combinatorics.faa_di_bruno.calls", "count", ("calls", "combinatorics.faa_di_bruno")),
    ("combinatorics.faa_di_bruno.s", "s", ("s", "combinatorics.faa_di_bruno")),
    ("combinatorics.partial_bell.calls", "count", ("calls", "combinatorics.partial_bell")),
    ("combinatorics.partial_bell.s", "s", ("s", "combinatorics.partial_bell")),
    ("symbolic.sft_entropy.calls", "count", ("calls", "symbolic.sft_entropy")),
    ("symbolic.sft_entropy.s", "s", ("s", "symbolic.sft_entropy")),
    ("symbolic.build_Yp.s", "s", ("s", "symbolic.build_Yp")),
    ("symbolic.sft.states", "count", ("counter", "symbolic.sft.states")),
    ("symbolic.sft.edges", "count", ("counter", "symbolic.sft.edges")),
    ("symbolic.thickness.s", "s", ("s", "symbolic.thickness")),
    ("symbolic.gap_lemma_check.s", "s", ("s", "symbolic.gap_lemma_check")),
    ("rates.g_inverse.calls", "count", ("calls", "rates.g_inverse")),
    ("rates.g_inverse.s", "s", ("s", "rates.g_inverse")),
    ("rates.weight_from_rate.s", "s", ("s", "rates.weight_from_rate")),
    ("cli.self_s", "s", ("self_s", "cli")),
    ("trace.spans", "count", ("spans", None)),
    ("trace.overhead_s", "s", ("derived", None)),
]
