"""Spans around the public functions of each coarsekit layer, recorded from
the benchmark's side: nothing under ``src/`` changes.

``Tracer.install`` replaces every module attribute through which callers
reach a traced function (``coarsekit.io.parse_family``,
``coarsekit.cli.run_phi_suite``, ``coarsekit.phisuite.phi``, ...) with a
wrapper that records a span; ``uninstall`` puts the originals back.  Spans
are kept in memory and reduced once, at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

# span group -> (module, attribute) of each traced function; a group is the
# per-layer metric prefix, so several functions can share one
LAYERS = {
    "cli.run": [("cli", "run")],
    "io.parse_family": [("io", "parse_family")],
    "io.parse_certificate": [("io", name) for name in (
        "parse_action", "parse_map", "parse_subsets", "parse_asdim_certificate",
        "parse_an_certificate", "parse_decomposition_certificate",
        "parse_fibering_witness", "parse_rho_table")],
    "io.write": [("io", name) for name in (
        "write_family", "write_action", "write_map", "write_subsets",
        "write_asdim_certificate", "write_an_certificate",
        "write_decomposition_certificate", "write_fibering_witness", "write_rho_table")],
    "metric.validate_metric": [("metric", "validate_metric")],
    "metric.construct": [("metric", "product"), ("metric", "quotient_with_map")],
    "maps.envelopes": [("maps", "control_envelope"), ("maps", "properness_envelope"),
                       ("maps", "is_coarsely_onto")],
    "decomposition.r_components": [("decomposition", "r_components")],
    "decomposition.check_decomposition": [("decomposition", "check_decomposition")],
    "decomposition.check_fibering_witness": [("decomposition", "check_fibering_witness")],
    "decomposition.search_decomposition": [("decomposition", "search_decomposition")],
    "covers.check_asdim_certificate": [("covers", "check_asdim_certificate")],
    "covers.check_an_control": [("covers", "check_an_control")],
    "covers.lebesgue_number": [("covers", "lebesgue_number")],
    "covers.pushforward_quotient_cover": [("covers", "pushforward_quotient_cover")],
    "cone.phi": [("cone", "phi")],
    "cone.cone_distance": [("cone", "cone_distance")],
    "cone.chain_oracle": [("cone", "chain_oracle")],
    "cone.cone_sample": [("cone", "cone_sample")],
    "phisuite.run_phi_suite": [("phisuite", "run_phi_suite")],
    "constructions.minimax_ultrametric": [("constructions", "minimax_ultrametric")],
    "report.render": [("report", "Report.render")],
}


def _count_phi(counts, args, kwargs) -> None:
    """phi calls and evaluations (broadcast size of t and r), counted at the
    span boundary from the arguments the caller passes."""
    t = kwargs.get("t", args[1] if len(args) > 1 else 0.0)
    r = kwargs.get("r", args[2] if len(args) > 2 else 0.0)
    counts["cone.phi.calls"] += 1
    counts["cone.phi.evals"] += int(np.broadcast(t, r).size)


class Tracer:
    """Records (group, start, end, span id, parent id) for every call of a
    traced function.

    A span opened on a thread with no open span of its own (a worker of the
    phi-suite thread pool) takes the innermost open span of the thread that
    installed the tracer as its parent, so every span nests under its
    job's root span.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def wrap(self, group: str, fn):
        count = _count_phi if group == "cone.phi" else None
        spans = self.spans
        counts = self.counts
        ids = self._ids
        main_stack = self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(counts, args, kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((group, t0, t1, sid, parent))

        return traced

    def install(self) -> None:
        """Wrap every traced function at every coarsekit module attribute
        that holds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "coarsekit" or name.startswith("coarsekit."))]
        for group, targets in LAYERS.items():
            for mod_name, attr in targets:
                owner = sys.modules[f"coarsekit.{mod_name}"]
                if "." in attr:  # a method: patch the class attribute
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, self.wrap(group, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self.wrap(group, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


def self_times(spans) -> dict[str, float]:
    """Self time per span group.

    Each instant covered by some span is charged to the innermost open
    spans at that instant, split evenly when several are open at once (two
    phi-suite workers under one interpreter lock).  A span's self time is
    therefore its duration minus the part its children cover, and the self
    times of all groups add up to the time covered by root spans.
    """
    events = []
    for k, (_, t0, t1, _, _) in enumerate(spans):
        events.append((t0, 1, k))
        events.append((t1, 0, k))
    events.sort()
    index = {sid: k for k, (_, _, _, sid, _) in enumerate(spans)}
    parent_of = [index.get(parent, -1) for (_, _, _, _, parent) in spans]
    open_children = [0] * len(spans)
    is_open = [False] * len(spans)
    innermost: set[int] = set()
    own = [0.0] * len(spans)
    last = None
    for t, is_start, k in events:
        if innermost and last is not None and t > last:
            share = (t - last) / len(innermost)
            for s in innermost:
                own[s] += share
        last = t
        p = parent_of[k]
        if is_start:
            is_open[k] = True
            if open_children[k] == 0:
                innermost.add(k)
            if p >= 0:
                open_children[p] += 1
                innermost.discard(p)
        else:
            is_open[k] = False
            innermost.discard(k)
            if p >= 0:
                open_children[p] -= 1
                if open_children[p] == 0 and is_open[p]:
                    innermost.add(p)
    totals: dict[str, float] = defaultdict(float)
    for (group, *_), v in zip(spans, own):
        totals[group] += v
    return dict(totals)


def inclusive_times(spans) -> dict[str, tuple[float, int]]:
    """(summed duration, call count) per group."""
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for group, t0, t1, _, _ in spans:
        out[group][0] += t1 - t0
        out[group][1] += 1
    return {g: (v[0], v[1]) for g, v in out.items()}
