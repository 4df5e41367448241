"""The benchmark's inputs: documents, queries and CLI calls per workload.

Everything here is data in canonical names (``x1`` ... ``xn`` for generated
documents).  A run renames the generated documents from its seed (see
``gen.relabel``); stored answers are kept in canonical names, so they apply to
every seed.  Changing anything in this file changes the workload: regenerate
``expected.json`` with ``make_expected.py`` in the same change.
"""

from __future__ import annotations

import json

import gen


def encode(value, back: dict):
    """The canonical, name-independent JSON form of an answer.

    ``back`` maps a run's argument names to canonical ones.  Arguments become
    ``"name:capacity"``, sets become sorted lists, tuples become lists.
    """
    if isinstance(value, (frozenset, set)):
        return sorted((encode(v, back) for v in value), key=json.dumps)
    if isinstance(value, (tuple, list)):
        return [encode(v, back) for v in value]
    if isinstance(value, dict):
        return {k: encode(v, back) for k, v in value.items()}
    if isinstance(value, str):
        return back.get(value, value)
    if hasattr(value, "capacity"):
        return f"{back.get(value.id, value.id)}:{value.capacity}"
    return value

# ---------------------------------------------------------------------------
# in-process workloads

# 8 arguments: the largest size the brute-force oracle accepts, so every
# formation answer is certified by it.  One document per shape.
FORMATION_DOCS = {
    f"f{i}": ("weighted", dict(index=i, size=8, density=0.25, groups=3, variants=3))
    for i in range(4)
}

# Enumerations at 12 arguments, one document per shape.  Axiom validation at
# 10 arguments under ``strict``; under ``persist`` it takes 8-38 s per
# 10-argument document at the seed commit, so those run at 8 arguments (pool
# indices past the formation documents).  Defeat-only documents feed the
# reduction check and the plain semantics.
ENUMERATION_DOCS = {
    **{
        f"e{i}": ("weighted", dict(index=i, size=12, density=0.25, groups=4, variants=4))
        for i in range(4)
    },
    **{
        f"v{n}": ("weighted", dict(index=i, size=size, density=0.25, groups=3, variants=3))
        for n, (i, size) in enumerate(((0, 10), (3, 10), (5, 8), (6, 8)))
    },
    "n0": ("nielsen-parsons", dict(index=0, size=12, density=0.2, groups=2)),
    "n1": ("nielsen-parsons", dict(index=1, size=12, density=0.2, groups=2)),
}


def base_document(kind: str, params: dict) -> dict:
    if kind == "weighted":
        return gen.base_document(**params)
    return gen.defeat_only_document(**params)


def formation_queries(doc: str, size: int) -> list:
    """Profitability of growing ``{x1}`` by each other argument, maximal
    profitability for three of them, maximal sets and continuity, then
    formability of all four kinds.  The order is fixed: later queries reuse
    what earlier ones memoised, as in one caller's session."""
    base = ["x1"]
    grown = [["x1", f"x{j}"] for j in range(2, size + 1)]
    qs = [dict(op="profitable", first=base, second=g) for g in grown]
    qs += [dict(op="max_profitable", first=base, second=g) for g in grown[:3]]
    qs.append(dict(op="max_sets", base=base))
    qs.append(dict(op="is_continuous", base=base))
    qs += [dict(op="formability", kind=k, base=base) for k in ("W", "M", "WS", "S")]
    return [dict(q, doc=doc) for q in qs]


def enumeration_queries() -> list:
    qs = []
    for d in ("e0", "e1", "e2", "e3"):
        for op in ("conflict_eliminable", "c_admissible", "c_preferred"):
            qs.append(dict(op=op, doc=d))
    for d in ("v0", "v1", "v2", "v3"):
        qs.append(dict(op="instantiated_closure", doc=d))
        qs.append(dict(op="validate_axioms", doc=d))
    for d in ("n0", "n1"):
        qs.append(dict(op="check_reduction", doc=d))
        for k in ("conflict-free", "admissible", "preferred"):
            qs.append(dict(op="np_semantics", kind=k, doc=d))
    return qs


def plan(workload: str):
    """(documents, queries) of an in-process workload, in canonical names."""
    if workload == "formation":
        docs = FORMATION_DOCS
        queries = [
            q
            for name, (_, p) in docs.items()
            for q in formation_queries(name, p["size"])
        ]
    else:
        docs = ENUMERATION_DOCS
        queries = enumeration_queries()
    for i, q in enumerate(queries):
        q["id"] = f"{q['doc']}/{i}/{q['op']}"
    return docs, queries


# ---------------------------------------------------------------------------
# cli-fixtures

# Seeds handed to ``ceaf random``; a run picks one from its own seed.
RANDOM_SEEDS = tuple(range(8))
RANDOM_FILE = "{work}/random.json"

_F = "fixtures/{}.json"
FIXTURES = ("ldp", "seven", "asym", "disc", "indep-larger", "indep-state", "indep-fewer")


def cli_calls(random_seed: int) -> list:
    """About forty ``ceaf`` invocations; ``random_seed`` goes to ``ceaf
    random``, whose output the last two calls read.  ``check`` says how the answer is
    compared: ``text`` (stdout and exit code), ``sets``/``holds`` (a field of
    the ``--json`` payload and the exit code) or ``file`` (the bytes
    ``random`` wrote)."""
    calls = [dict(argv=["validate", _F.format(f)], check="text") for f in FIXTURES]
    for f in ("ldp", "seven"):
        for k in ("conflict-eliminable", "c-admissible", "c-preferred"):
            calls.append(dict(argv=["--json", "semantics", _F.format(f), "--kind", k],
                              check="sets", key="sets"))
    for f in ("asym", "disc"):
        calls.append(dict(argv=["--json", "semantics", _F.format(f), "--kind", "c-preferred"],
                          check="sets", key="sets"))
    for f, s in (("ldp", "a1,a3"), ("seven", "a2,a3"), ("disc", "a1,a2")):
        calls.append(dict(argv=["view", _F.format(f), "--set", s], check="text"))
    for f, s1, s2 in (
        ("asym", "s1", "s1,a2"),
        ("asym", "a2", "s1,a2"),
        ("indep-larger", "a1", "a1,a2"),
        ("indep-state", "s1", "s3"),
        ("indep-fewer", "s3", "s2"),
    ):
        calls.append(dict(argv=["--json", "profit", _F.format(f), "--s1", s1, "--s2", s2],
                          check="holds", key="holds"))
    # The maximal kinds on ``seven`` cost two to three interpreter starts
    # each; there are enough of them (a fifth of the calls) that the 90th
    # percentile falls among them rather than on the tail of the cheap calls.
    formability = [("a2", k) for k in ("W", "M", "WS", "S")]
    formability += [(base, k) for base in ("a3", "s1", "s7") for k in ("WS", "S")]
    for base, k in formability:
        calls.append(dict(argv=["--json", "formability", _F.format("seven"), "--kind", k,
                                "--set", base], check="sets", key="partners"))
    for f, k in (("ldp", "preferred"), ("seven", "admissible")):
        calls.append(dict(argv=["np", _F.format(f), "--kind", k], check="text"))
    calls.append(dict(argv=["export-dot", _F.format("ldp")], check="text"))
    calls.append(dict(argv=["export-dot", _F.format("ldp"), "--view", "a1,a3"], check="text"))
    calls.append(dict(argv=["export-dot", _F.format("ldp"), "--view", "a1,a2,a3"], check="text"))
    calls.append(dict(argv=["export-dot", _F.format("seven")], check="text"))
    for f, t in (("ldp", "L1"), ("ldp", "T10"), ("asym", "P1"), ("disc", "T3"), ("ldp", "T1")):
        calls.append(dict(argv=["check", _F.format(f), "--theorem", t], check="text"))
    calls.append(dict(argv=["random", "--args", "6", "--density", "0.3",
                            "--seed", str(random_seed), "-o", RANDOM_FILE], check="file"))
    calls.append(dict(argv=["validate", RANDOM_FILE], check="text"))
    calls.append(dict(argv=["--json", "semantics", RANDOM_FILE, "--kind", "c-preferred"],
                      check="sets", key="sets"))
    for i, c in enumerate(calls):
        c["id"] = f"{i}/" + " ".join(c["argv"])
        if RANDOM_FILE in c["argv"]:
            c["id"] += f" @random{random_seed}"
    return calls


GOLDENS = {
    ("export-dot", "fixtures/ldp.json"): "fixtures/goldens/ldp-whole.dot",
    ("export-dot", "fixtures/ldp.json", "--view", "a1,a3"): "fixtures/goldens/ldp-view-a1-a3.dot",
    ("export-dot", "fixtures/ldp.json", "--view", "a1,a2,a3"):
        "fixtures/goldens/ldp-view-a1-a2-a3.dot",
}
