"""Spans around the public functions of every ``ceaf`` module.

``Tracer.install`` replaces each public function of the layer modules (and
``StrengthModel.strength``) by a timing wrapper, under every name any ``ceaf``
module binds it to: ``coalition`` imports ``c_defeats`` and others from
``semantics`` by name, and the package re-exports most of them.  A span is
(name, parent, start, end); spans stay in memory in call order and are written
out once, at exit.  ``per_layer`` turns the span files into the per-layer
metrics.
"""

from __future__ import annotations

import array
import inspect
import json
import sys
import time
from collections import Counter

MODULES = ("core", "semantics", "coalition", "npreduction", "oracle", "io_doc", "dot", "cli")

STRENGTH = "core.strength"
MAS = "semantics.max_attack_strength"
# calls whose distinct argument tuples are counted, for the repeat ratios
KEYED = {
    "semantics.c_defeats": lambda fw, subset, target: (id(fw), frozenset(subset), target),
    "coalition.attackers": lambda fw, subset: (id(fw), frozenset(subset)),
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.kind = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.defined = 0  # strength lookups that returned a value
        self.distinct = {name: set() for name in KEYED}

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        kind, parent, start, end, stack = (
            self.kind, self.parent, self.start, self.end, self.stack
        )
        clock = time.perf_counter
        keyed = KEYED.get(name)
        seen = self.distinct.get(name)
        is_strength = name == STRENGTH
        tracer = self

        def traced(*args, **kwargs):
            i = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0.0)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if keyed is not None:
                seen.add(keyed(*args, **kwargs))
            elif is_strength and result is not None:
                tracer.defined += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Patch every public function of ``MODULES`` in every loaded
        ``ceaf`` module that binds it."""
        from ceaf.core import StrengthModel

        StrengthModel.strength = self._wrap(STRENGTH, StrengthModel.strength)
        wrappers = {}
        for short in MODULES:
            mod = sys.modules.get(f"ceaf.{short}") or __import__(
                f"ceaf.{short}", fromlist=["_"]
            )
            for attr, obj in sorted(vars(mod).items()):
                fn = inspect.unwrap(obj) if callable(obj) else None
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or id(obj) in wrappers
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{short}.{fn.__name__}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "ceaf" and not modname.startswith("ceaf."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def write(self, path: str, extra: dict) -> None:
        header = dict(
            extra,
            names=self.names,
            spans=len(self.kind),
            defined=self.defined,
            distinct={k: len(v) for k, v in self.distinct.items()},
        )
        with open(path, "wb") as out:
            line = json.dumps(header).encode() + b"\n"
            out.write(line)
            for arr in (self.kind, self.parent, self.start, self.end):
                arr.tofile(out)


def read(path: str):
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array.array(code)
            arr.fromfile(f, n)
            arrays.append(arr)
    return header, arrays


def summarise(paths) -> dict:
    """Per-function totals over the span files of one traced run.

    ``s`` counts only spans not nested in a span of the same name, so
    recursion is not counted twice; ``self_s`` is a span's duration minus that
    of its direct children.  ``enumerate_s`` is the time under any outermost
    ``semantics.enumerate_*`` span, and ``strength_in_mas`` counts strength
    lookups made under ``max_attack_strength``.
    """
    calls, incl, self_s, extra = Counter(), Counter(), Counter(), Counter()
    for path in paths:
        header, (kind, parent, start, end) = read(path)
        names = header["names"]
        extra["defined"] += header["defined"]
        for name, count in header["distinct"].items():
            extra["distinct:" + name] += count
        enum = [n.startswith("semantics.enumerate_") for n in names]
        strength, mas = names.index(STRENGTH), names.index(MAS)
        dur = [e - s for s, e in zip(start, end)]
        child = [0.0] * len(dur)
        active = [0] * len(names)
        enum_depth = 0
        stack: list = []
        for i, k in enumerate(kind):
            p = parent[i]
            while stack and stack[-1] != p:
                j = stack.pop()
                active[kind[j]] -= 1
                enum_depth -= enum[kind[j]]
            if p >= 0:
                child[p] += dur[i]
            calls[names[k]] += 1
            if not active[k]:
                incl[names[k]] += dur[i]
            if enum[k] and not enum_depth:
                extra["enumerate_s"] += dur[i]
            if k == strength and active[mas]:
                extra["strength_in_mas"] += 1
            active[k] += 1
            enum_depth += enum[k]
            stack.append(i)
        for i, k in enumerate(kind):
            self_s[names[k]] += dur[i] - child[i]
    return dict(calls=calls, s=incl, self_s=self_s, extra=extra)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(paths) -> dict:
    """The per-layer metrics of one traced run (all of its span files)."""
    t = summarise(paths)
    calls, incl, self_s, extra = t["calls"], t["s"], t["self_s"], t["extra"]
    out = {}
    for name in ("core.strength", "semantics.max_attack_strength", "semantics.c_defeats",
                 "coalition.attackers", "coalition.undefeated_external",
                 "coalition.profitable", "semantics.view"):
        out[name + ".calls"] = calls[name]
    for name in ("core.strength", "semantics.max_attack_strength",
                 "semantics.is_c_admissible", "coalition.undefeated_external"):
        out[name + ".self_s"] = self_s[name]
    for name in ("core.validate_axioms", "core.instantiated_closure", "coalition.max_sets",
                 "coalition.max_profitable", "coalition.formability",
                 "npreduction.check_reduction", "npreduction.np_semantics",
                 "io_doc.loads", "io_doc.dumps", "oracle.check_theorem", "dot.export_dot"):
        out[name + ".s"] = incl[name]
    out["semantics.enumerate.s"] = extra["enumerate_s"]
    out["core.strength.defined_ratio"] = _ratio(extra["defined"], calls["core.strength"])
    out["semantics.max_attack_strength.strength_per_call"] = _ratio(
        extra["strength_in_mas"], calls[MAS]
    )
    for name in KEYED:
        out[name + ".repeat_ratio"] = 1.0 - _ratio(extra["distinct:" + name], calls[name]) \
            if calls[name] else 0.0
    for short in MODULES:
        out[short + ".self_s"] = sum(
            v for k, v in self_s.items() if k.startswith(short + ".")
        )
    return out


def header(path: str) -> dict:
    with open(path, "rb") as f:
        return json.loads(f.readline())
