"""Deterministic DOT rendering of frameworks and coalition views.

One node per argument instance, labelled ``id (capacity)``.  One edge per
minimal defined attack: an attacker set with a defined strength against the
target none of whose proper subsets has one.  These are the attacks the
engine counts, persist-derived ones included: under ``persist`` a view's
weakened coalition members keep the group attacks of their full-capacity
entries.  Group attacks are routed through a point-shaped junction node so
the graph stays a plain digraph.  Node and edge order is sorted, so output
is byte-stable.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .core import Arg, Framework, _masks
from . import semantics


def _node_name(a: Arg) -> str:
    return f"{a.id}_{a.capacity}"


def _label(a: Arg) -> str:
    return f"{a.id} ({a.capacity})"


def minimal_attacks(
    fw: Framework, nodes: frozenset, base: frozenset = frozenset()
) -> list:
    """``(attackers, target, strength)`` for every minimal defined attack
    among ``nodes``, where attacks from inside ``base`` on a member of it do
    not count: singletons first, then groups, each by attackers then target."""
    masks = _masks(fw)
    pool, drop = masks.mask(nodes), masks.mask(base)
    edges = []
    for target in nodes:
        rec = masks.target(target)
        for m in masks.minimal(rec, pool, drop if target in base else 0):
            edges.append((masks.members(m), target, masks.strength(rec, m)))
    return sorted(edges, key=lambda e: (len(e[0]) > 1, sorted(e[0]), e[1]))


def export_dot(fw: Framework, view_of: Optional[Iterable[Arg]] = None) -> str:
    """Render the whole framework, or the view of a conflict-eliminable set."""
    if view_of is None:
        nodes, base, title = frozenset(fw.arguments), frozenset(), "framework"
    else:
        vw = semantics.view(fw, frozenset(view_of))
        nodes, base, title = vw.arguments, vw.base, "view"

    lines = [f"digraph {title} {{"]
    lines.append('  node [shape=ellipse];')
    for a in sorted(nodes):
        lines.append(f'  "{_node_name(a)}" [label="{_label(a)}"];')
    junction = 0
    for attackers, target, strength in minimal_attacks(fw, nodes, base):
        if len(attackers) == 1:
            (source,) = attackers
            lines.append(
                f'  "{_node_name(source)}" -> "{_node_name(target)}"'
                f' [label="{strength}"];'
            )
        else:
            junction += 1
            jname = f"join_{junction}"
            lines.append(f'  "{jname}" [shape=point];')
            for source in sorted(attackers):
                lines.append(f'  "{_node_name(source)}" -> "{jname}" [dir=none];')
            lines.append(f'  "{jname}" -> "{_node_name(target)}" [label="{strength}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
