"""Seeded framework documents for the benchmark.

The benchmark makes its own documents instead of calling
``ceaf.oracle.generate_random``, so that a change to the library's generator
cannot silently change the workload.  Documents cover the shapes the shipped
fixtures use: singleton attacks, explicit group entries, reduced-capacity
variant entries (as attacker and as target), ``max``/``sum`` aggregation and
``strict``/``persist`` variant policies.  Every emitted document has positive
capacities, only known identifiers, and unique identifiers within each
attacker set.

A document is built in two steps.  ``base_document`` draws a structure from a
pool index; its answers are computed once and stored (see ``make_expected.py``).
``relabel`` then renames the arguments and shuffles every list from the run's
seed, so each seed gives different bytes with the same structure, and the
stored answers still apply after mapping the names.  The same inputs always
give byte-identical text.
"""

from __future__ import annotations

import hashlib
import json
import random

SHAPES = (
    ("max", "strict"),
    ("sum", "persist"),
    ("max", "persist"),
    ("sum", "strict"),
)


def _instance(name: str, capacity: int, full: dict):
    return name if full[name] == capacity else [name, capacity]


def base_document(
    index: int,
    size: int,
    density: float,
    groups: int,
    variants: int,
) -> dict:
    """A weighted document drawn from ``index``, in the shape whose turn in
    ``SHAPES`` the index is."""
    rng = random.Random(f"perfbench/weighted/{index}/{size}")
    aggregator, policy = SHAPES[index % len(SHAPES)]
    names = [f"x{i + 1}" for i in range(size)]
    caps = {n: rng.randint(1, 4) for n in names}
    table: dict = {}

    def add(attackers, target, strength):
        key = (tuple(sorted(attackers)), target)
        table.setdefault(key, strength)

    for s in names:
        for t in names:
            if s != t and rng.random() < density:
                add([(s, caps[s])], (t, caps[t]), rng.randint(1, caps[t]))
    for _ in range(groups):
        k = rng.choice((2, 2, 3))
        members = rng.sample(names, k + 1)
        t = members.pop()
        add([(m, caps[m]) for m in members], (t, caps[t]), rng.randint(1, caps[t] + 1))
    reducible = [n for n in names if caps[n] > 1]
    for _ in range(variants if reducible else 0):
        r = rng.choice(reducible)
        reduced = (r, rng.randint(1, caps[r] - 1))
        other = rng.choice([n for n in names if n != r])
        if rng.random() < 0.5:
            add([reduced], (other, caps[other]), rng.randint(1, caps[other]))
        else:
            add([(other, caps[other])], reduced, rng.randint(1, reduced[1]))

    attacks = []
    for (attackers, (t, tc)), strength in sorted(table.items()):
        attacks.append(
            {
                "from": [_instance(a, c, caps) for a, c in attackers],
                "to": _instance(t, tc, caps),
                "strength": strength,
            }
        )
    return {
        "version": "1",
        "mode": "weighted",
        "aggregator": aggregator,
        "variantPolicy": policy,
        "arguments": [{"id": n, "capacity": caps[n]} for n in names],
        "attacks": attacks,
    }


def defeat_only_document(index: int, size: int, density: float, groups: int) -> dict:
    """A ``nielsen-parsons`` document: capacities default to 1 and every
    attack defeats its target, the regime of the reduction check."""
    rng = random.Random(f"perfbench/np/{index}/{size}")
    names = [f"x{i + 1}" for i in range(size)]
    pairs = set()
    for s in names:
        for t in names:
            if s != t and rng.random() < density:
                pairs.add(((s,), t))
    for _ in range(groups):
        members = rng.sample(names, 3)
        t = members.pop()
        pairs.add((tuple(sorted(members)), t))
    return {
        "version": "1",
        "mode": "nielsen-parsons",
        "arguments": [{"id": n} for n in names],
        "attacks": [{"from": list(a), "to": t} for a, t in sorted(pairs)],
    }


def relabel(doc: dict, seed: int, tag: str):
    """Rename every argument and shuffle every list, drawn from ``seed``.

    Returns the new document and the old-to-new name map.
    """
    rng = random.Random(f"perfbench/relabel/{seed}/{tag}")
    old = [a["id"] for a in doc["arguments"]]
    fresh: list = []
    while len(fresh) < len(old):
        name = rng.choice("abcdefghkmnpqrstuvwyz") + str(rng.randint(0, 99))
        if name not in fresh:
            fresh.append(name)
    names = dict(zip(old, fresh))

    def inst(raw):
        return names[raw] if isinstance(raw, str) else [names[raw[0]], raw[1]]

    out = {k: v for k, v in doc.items() if k not in ("arguments", "attacks")}
    out["arguments"] = [dict(a, id=names[a["id"]]) for a in doc["arguments"]]
    rng.shuffle(out["arguments"])
    attacks = []
    for a in doc["attacks"]:
        froms = [inst(f) for f in a["from"]]
        rng.shuffle(froms)
        attacks.append(dict(a, **{"from": froms, "to": inst(a["to"])}))
    rng.shuffle(attacks)
    out["attacks"] = attacks
    return out, names


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


def digest(doc: dict) -> str:
    return hashlib.sha256(dumps(doc).encode()).hexdigest()
