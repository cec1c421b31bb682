"""Span recorder for the traced run, and the per-layer metrics it yields.

``Recorder.install`` wraps every public, non-generator function defined in
a ``turanlab`` module and rebinds the wrapper under every name a
``turanlab`` module holds it by: the defining module (which catches calls
through its own globals), the package namespace and each ``from .x import
f`` site such as ``enumeration.canonical_certificate_rows``.  Nothing under
``src/`` is edited.  Spans stay in memory until ``write``.

A span is ``[name_id, parent, start_ns, end_ns, size]``; ``parent`` is
the index of the enclosing span or -1, and ``size`` is a count taken from
the return value of the few functions listed in ``SIZES``.  A layer is the
defining module's short name.  Self time is a span's duration minus the
part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from types import ModuleType
from typing import Callable

# counts read from return values at the layer boundary
SIZES: dict[str, Callable[[object], int]] = {
    # classes kept on every level built: the list of levels for 1..n
    "enumeration.levels_up_to": lambda levels: sum(len(level) for level in levels),
}

COLOUR = ("invariants.is_r_colorable", "invariants.chromatic_number",
          "invariants.dsatur_coloring")
CLIQUE = ("invariants.max_clique", "invariants.clique_number",
          "invariants.find_clique", "invariants.is_clique_free",
          "invariants.assert_clique_free")


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self._stack = [-1]
        self._patches: list[tuple[ModuleType, str, object]] = []

    def install(self, package: ModuleType) -> None:
        prefix = package.__name__ + "."
        mods = [package] + [importlib.import_module(prefix + info.name)
                            for info in pkgutil.iter_modules(package.__path__)]
        wrappers: dict[int, tuple[object, object]] = {}
        for mod in mods:
            layer = mod.__name__.rpartition(".")[2]
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        size_of = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, stack[-1], clock(), 0, -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if size_of is not None:
                span[4] = size_of(result)
            return result

        return traced

    def write(self, path: str, run_id: str) -> None:
        with open(path, "w") as fh:
            fh.write("run_id,span,parent,name,start_ns,end_ns,size\n")
            names = self.names
            for i, (nid, parent, start, end, size) in enumerate(self.spans):
                fh.write(f"{run_id},{i},{parent},{names[nid]},{start},{end},{size}\n")


def self_times(spans: list[list[int]]) -> list[int]:
    """Per span: duration minus the union of its children's intervals,
    clipped to the span.  Children follow their parent in the list."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[1] >= 0:
            children[span[1]].append(i)
    out = []
    for i, (_, _, start, end, _) in enumerate(spans):
        covered = 0
        reach = start
        for c in sorted(children[i], key=lambda c: spans[c][2]):
            lo = max(spans[c][2], reach)
            hi = min(spans[c][3], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(names: list[str], spans: list[list[int]]
                  ) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced body, and the names of those whose
    functions are not in the program (absent, never reported as zero)."""
    selfs = self_times(spans)
    span_name = [names[s[0]] for s in spans]
    layer = [n.partition(".")[0] for n in span_name]
    installed = set(names)
    layers = {n.partition(".")[0] for n in names}

    def entries(member: Callable[[int], bool]) -> list[int]:
        """Spans in a group whose parent is outside the group."""
        return [i for i, s in enumerate(spans)
                if member(i) and not (s[1] >= 0 and member(s[1]))]

    def busy(idx: list[int]) -> float:
        return sum(spans[i][3] - spans[i][2] for i in idx) / 1e9

    def self_s(member: Callable[[int], bool]) -> float:
        return sum(selfs[i] for i in range(len(spans)) if member(i)) / 1e9

    def in_layer(name: str) -> Callable[[int], bool]:
        return lambda i: layer[i] == name

    def named(*fns: str) -> Callable[[int], bool]:
        group = set(fns)
        return lambda i: span_name[i] in group

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, float] = {}
    absent: list[str] = []

    def put(metric: str, needs: bool, value: Callable[[], float]) -> None:
        if needs:
            out[metric] = value()
        else:
            absent.append(metric)

    canon = entries(in_layer("canon"))
    has_canon = "canon" in layers
    put("canon.calls", has_canon, lambda: len(canon))
    put("canon.busy_s", has_canon, lambda: busy(canon))
    put("canon.us_per_call", has_canon, lambda: ratio(busy(canon) * 1e6, len(canon)))

    has_enum = "enumeration" in layers
    labelled = sum(1 for i in canon if spans[i][1] >= 0 and layer[spans[i][1]] == "enumeration")
    kept = max((s[4] for i, s in enumerate(spans)
                if span_name[i] == "enumeration.levels_up_to"), default=0)
    has_kept = "enumeration.levels_up_to" in installed
    put("enumeration.self_s", has_enum, lambda: self_s(in_layer("enumeration")))
    put("enumeration.labelled", has_enum and has_canon, lambda: labelled)
    put("enumeration.kept", has_kept, lambda: kept)
    put("enumeration.kept_per_labelled", has_kept and has_canon,
        lambda: ratio(kept, labelled))

    for metric, fn in (("encode", "graph.to_graph6"), ("decode", "graph.from_graph6")):
        idx = [i for i in range(len(spans)) if span_name[i] == fn]
        put(f"graph.{metric}_calls", fn in installed, lambda: len(idx))
        put(f"graph.{metric}_s", fn in installed, lambda: busy(idx))

    for metric, group in (("colour", COLOUR), ("clique", CLIQUE)):
        present = bool(installed.intersection(group))
        put(f"invariants.{metric}_calls", present, lambda: len(entries(named(*group))))
        put(f"invariants.{metric}_s", present, lambda: self_s(named(*group)))

    put("deficiency.calls", "deficiency.deficiency" in installed,
        lambda: len([i for i in range(len(spans)) if span_name[i] == "deficiency.deficiency"]))
    put("deficiency.self_s", "deficiency" in layers, lambda: self_s(in_layer("deficiency")))
    put("deficiency.blowup_s", "deficiency.optimal_blowup" in installed,
        lambda: busy(entries(named("deficiency.optimal_blowup"))))
    for name in ("saturation", "tripartite", "symmetrization", "cli"):
        put(f"{name}.self_s", name in layers, lambda: self_s(in_layer(name)))
    put("constructions.busy_s", "constructions" in layers,
        lambda: busy(entries(in_layer("constructions"))))
    return out, absent
