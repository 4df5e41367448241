"""Search the free structure of the seven-argument fixture.

The fixed entries mirror the documented constraints; the optional edges and
the aggregation policy are free.  Every combination is scored against the
target formability equations for base {a2} and the target pair of maximal
admissible coalitions.  Best candidates are printed with their deviations.
"""

import itertools
import sys
import time

sys.path.insert(0, "src")

from ceaf import coalition, semantics
from ceaf.core import Arg, Framework

CAPS = {"s1": 2, "a2": 2, "a3": 2, "s4": 2, "s5": 2, "s6": 2, "s7": 2}
A = {name: Arg(name, cap) for name, cap in CAPS.items()}


def E(*pairs):
    out = {}
    for attackers, target, strength in pairs:
        if isinstance(attackers, (str, tuple)) and not isinstance(attackers, list):
            attackers = [attackers]
        key = frozenset(
            A[a] if isinstance(a, str) else Arg(*a) for a in attackers
        )
        tgt = A[target] if isinstance(target, str) else Arg(*target)
        out[(key, tgt)] = strength
    return out


FIXED = [
    ("s1", "a3", 1),
    ("a2", "a3", 1),
    ("a2", "s4", 2),
    ("a2", "s5", 2),
    ("s6", "s7", 2),
    ("s7", "s6", 2),
    ("s7", "s4", 2),
    ("s7", "s5", 2),
    ("s4", "s7", 1),
    ("s5", "s7", 1),
    ([("a2", 1), "s1"], "a3", 2),
    (["a2", "s1"], "a3", 2),
    (("a2", 1), "s4", 1),
    (("a2", 1), "s5", 1),
    (("a3", 1), "s1", 2),
    (("a3", 1), "s6", 2),
    ("s6", ("a3", 1), 2),
    ("s4", ("a2", 1), 2),
    ("s5", ("a2", 1), 2),
]

OPTIONAL = {
    "a3>a2": [("a3", "a2", 1)],
    "s1>a2": [("s1", "a2", 1)],
    "a3>s1": [("a3", "s1", 2)],
    "a3>s6": [("a3", "s6", 2)],
    "s6>a3": [("s6", "a3", 2)],
    "s1>s7": [("s1", "s7", 1)],
    "s7>s1": [("s7", "s1", 1)],
    "s45>a2": [("s4", "a2", 2), ("s5", "a2", 2)],
}


def setof(*names):
    return frozenset(A[n] for n in names)


TARGET = {
    "W": {
        setof("a3"),
        setof("s1"),
        setof("s6"),
        setof("s7"),
        setof("s1", "s6"),
        setof("s1", "s7"),
        setof("a3", "s7"),
    },
    "M": {
        setof("a3"),
        setof("s7"),
        setof("s1", "s6"),
        setof("s1", "s7"),
        setof("a3", "s7"),
    },
    "WS": {
        setof("a3"),
        setof("s1"),
        setof("s7"),
        setof("s1", "s7"),
        setof("a3", "s7"),
    },
    "S": {
        setof("a3"),
        setof("s1"),
        setof("s7"),
        setof("s1", "s7"),
        setof("a3", "s7"),
    },
}
TARGET_PREF = {setof("s1", "a2", "s7"), setof("a2", "a3", "s7")}


def evaluate(config, aggregator, fewer_basis):
    entries = E(*FIXED)
    for name in config:
        entries.update(E(*OPTIONAL[name]))
    fw = Framework.build(A.values(), entries, aggregator, "strict")
    base = setof("a2")

    # cheap gates first: every target partner must be permitted
    for partner in TARGET["W"]:
        if not coalition.coalition_permitted(fw, base, partner):
            return None

    results = {}
    for kind in ("W", "M", "WS", "S"):
        results[kind] = set(
            coalition.formability(fw, kind, base, fewer_basis).partners
        )
        if kind == "W" and results["W"] != TARGET["W"]:
            break

    score = sum(
        len(results.get(kind, set()) ^ TARGET[kind]) for kind in TARGET
    )
    pref = set(semantics.enumerate_c_preferred(fw))
    pref_ok = pref == TARGET_PREF
    return score, results, pref_ok


def fmt(partners):
    return sorted(
        "{" + ",".join(sorted(a.id for a in p)) + "}" for p in partners
    )


def main():
    names = sorted(OPTIONAL)
    best = []
    start = time.time()
    tried = 0
    for r in range(len(names) + 1):
        for combo in itertools.combinations(names, r):
            for aggregator in ("sum", "max"):
                for fewer_basis in ("own", "shared"):
                    tried += 1
                    out = evaluate(frozenset(combo), aggregator, fewer_basis)
                    if out is None:
                        continue
                    score, results, pref_ok = out
                    if "M" not in results:
                        score = 99 + score
                    best.append(
                        (score, not pref_ok, combo, aggregator, fewer_basis, results)
                    )
    best.sort(key=lambda t: (t[0], t[1], len(t[2])))
    print(f"tried {tried} configs in {time.time() - start:.1f}s")
    for score, pref_bad, combo, aggregator, fewer_basis, results in best[:12]:
        print(
            f"score={score} pref_ok={not pref_bad} agg={aggregator} "
            f"basis={fewer_basis} edges={sorted(combo)}"
        )
        for kind in ("W", "M", "WS", "S"):
            if kind in results:
                extra = fmt(results[kind] - TARGET[kind])
                missing = fmt(TARGET[kind] - results[kind])
                line = f"  {kind}: computed={fmt(results[kind])}"
                if extra:
                    line += f" extra={extra}"
                if missing:
                    line += f" missing={missing}"
                print(line)


if __name__ == "__main__":
    main()
