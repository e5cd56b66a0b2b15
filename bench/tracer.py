"""Per-layer tracing from outside the package.

The tracer replaces listed public functions of cohdist with timing
wrappers: in the defining module, in every cohdist module that imported the
name, and on the class for methods.  Spans (name, start, end, parent,
operation id) stay in memory until the run writes them out.  Nothing in
cohdist itself is instrumented, and an uninstalled tracer leaves the
original functions in place, so untraced runs pay nothing.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Probe:
    """One traced entry point.

    ``owner`` is a module or class path inside cohdist, ``attr`` the
    attribute to wrap, ``span`` the span name (a callable receives the
    call's arguments, for names that depend on them), and ``count`` an
    optional callable turning (args, result) into counter increments.
    """

    owner: str
    attr: str
    span: str | Callable
    count: Callable | None = None


def _cli_span(argv, *_):
    words = [w for w in argv if not w.startswith("-")]
    command = "_".join(words[:2]) if words[0] == "catalyst" else words[0]
    return f"cli.main.{command}"


def _plan_count(args, plan):
    rank = sum(len(s) for s in plan.family_index_sets)
    return {"distill.branches": len(plan.branches), "distill.ranks": rank}


def _plan_bytes(args, code):
    argv = args[0]
    if argv[0] != "protocol" or code != 0:
        return {}
    return {"cli.plan_bytes": os.path.getsize(argv[3])}


PROBES = (
    Probe("cohdist.states", "validate_density", "states.validate"),
    Probe("cohdist.subspaces.CoherenceSupportGraph", "from_state", "subspaces.graph"),
    Probe("cohdist.subspaces.CoherenceSupportGraph", "maximal_cliques", "subspaces.cliques"),
    Probe("cohdist.subspaces", "maximal_pure_subspaces", "subspaces.rank1",
          lambda a, r: {"subspaces.found": len(r)}),
    Probe("cohdist.subspaces", "optimize_disjoint_selection", "subspaces.select"),
    Probe("cohdist.measures", "min_profile_ratio", "measures.profile_ratio"),
    Probe("cohdist.measures", "tensor", "measures.tensor"),
    Probe("cohdist.measures", "power_mean", "measures.power_mean"),
    Probe("cohdist.distill", "optimal_protocol", "distill.synthesis"),
    Probe("cohdist.distill", "full_plan", "distill.plan", _plan_count),
    Probe("cohdist.distill.DistillationPlan", "completeness_gap", "distill.completeness"),
    Probe("cohdist.distill", "verify_branch_outputs", "distill.replay"),
    Probe("cohdist.distill.StrictlyIncoherentKraus", "from_matrix", "distill.kraus"),
    Probe("cohdist.distill.StrictlyIncoherentKraus", "from_entries", "distill.kraus"),
    Probe("cohdist.catalysis", "search_catalyst", "catalysis.search",
          lambda a, r: {"catalysis.candidates": r.candidates_evaluated}),
    Probe("cohdist.catalysis", "enhancement_gate", "catalysis.gate"),
    Probe("cohdist.catalysis", "deterministic_gate", "catalysis.gate"),
    Probe("cohdist.oracles", "simulate", "oracles.simulate"),
    Probe("cohdist.cli", "main", _cli_span, _plan_bytes),
)


def _resolve(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        module = sys.modules.get(".".join(parts[:cut]))
        if module is not None:
            obj = module
            for name in parts[cut:]:
                obj = getattr(obj, name)
            return obj
    raise LookupError(path)


class Tracer:
    """Span recorder plus the patching that feeds it."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, args, kwargs, count=None):
        # a call nested in a span of the same name belongs to that span
        if self._stack and self._stack[-1][0] == name:
            return fn(*args, **kwargs)
        parent = self._stack[-1][3] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [name, time.perf_counter(), parent, index]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index] = (name, frame[1], time.perf_counter(), parent, self.op_id)
        if count is not None:
            for key, inc in count(args, result).items():
                self.counts[key] += inc
        return result

    def operation(self, op_id: int, name: str, fn):
        """Run one benchmark operation under a root span."""
        self.op_id = op_id
        return self.span(name, fn, (), {})

    # -- patching ----------------------------------------------------------

    def _wrap(self, probe: Probe, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = probe.span(*args) if callable(probe.span) else probe.span
            return tracer.span(name, fn, args, kwargs, probe.count)

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, probes=PROBES):
        for probe in probes:
            owner = _resolve(probe.owner)
            if isinstance(owner, type):
                raw = owner.__dict__[probe.attr]
                if isinstance(raw, classmethod):
                    self._set(owner, probe.attr, classmethod(self._wrap(probe, raw.__func__)))
                else:
                    self._set(owner, probe.attr, self._wrap(probe, raw))
                continue
            original = getattr(owner, probe.attr)
            wrapped = self._wrap(probe, original)
            for name, module in list(sys.modules.items()):
                if name == "cohdist" or name.startswith("cohdist."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (self seconds, total seconds, number of spans).

        Self time is a span's duration minus the time its child spans cover.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name][0] += end - start - inner
            out[name][1] += end - start
            out[name][2] += 1
        return {k: tuple(v) for k, v in out.items()}
