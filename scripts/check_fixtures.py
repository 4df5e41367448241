"""Verify the frozen claims of the small fixtures against the engine.

Loads each document from fixtures/ and prints what it checks; the last line
is ``all fixture claims hold`` when every claim does.

    python3 scripts/check_fixtures.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ceaf import io_doc, validate_axioms
from ceaf import coalition as co
from ceaf import semantics as sem


def load(name):
    return io_doc.load(ROOT / "fixtures" / f"{name}.json").framework


def show(name, fw):
    report = validate_axioms(fw)
    print(f"== {name}: axioms {'ok' if report.ok else 'VIOLATIONS'}")
    if not report.ok:
        for v in report.violations[:8]:
            print("   ", v)


def ids(fw, *names):
    return frozenset(fw.by_id(n) for n in names)


fw = load("asym")
show("asym", fw)
s1 = ids(fw, "s1")
a2 = ids(fw, "a2")
u = ids(fw, "s1", "a2")
p1 = co.profitable(fw, s1, u)
p2 = co.profitable(fw, a2, u)
print("  {s1} -> union:", p1)
print("  {a2} -> union:", p2)
assert p1.holds and not p2.holds and p2.larger_set and p2.better_state and not p2.fewer_attackers

fw = load("disc")
show("disc", fw)
a1 = ids(fw, "a1")
s2 = ids(fw, "a1", "a2")
sx = ids(fw, "a1", "a2", "s3")
print("  c-preferred:", [sorted(str(a) for a in s) for s in sem.enumerate_c_preferred(fw)])
print("  max_sets({a1}):", [sorted(str(a) for a in s) for s in co.max_sets(fw, a1)])
print("  {a1} -> {a1,a2}:", co.profitable(fw, a1, s2))
print("  rank({a1}):", co.state_rank(fw, a1), " rank({a1,a2}):", co.state_rank(fw, s2))
print("  weakly continuous({a1}):", co.is_weakly_continuous(fw, a1))
assert sx in co.max_sets(fw, a1)
assert sx in co.pref_supersets(fw, a1)
assert not co.profitable(fw, a1, s2).holds
assert not co.is_weakly_continuous(fw, a1)

fw = load("indep-larger")
show("indep-larger", fw)
a1 = ids(fw, "a1")
u = ids(fw, "a1", "a2")
v = co.profitable(fw, a1, u)
print("  verdict:", v)
print("  rank({a1}):", co.state_rank(fw, a1), " rank(union):", co.state_rank(fw, u))
print("  attackers({a1}):", sorted(str(a) for a in co.attackers(fw, a1)))
assert v.larger_set and not v.better_state and not v.fewer_attackers
assert co.state_rank(fw, u) == co.StateRank.ONE_DIRECTIONAL
assert co.state_rank(fw, a1) == co.StateRank.MIDDLE

fw = load("indep-state")
show("indep-state", fw)
s1, s3 = ids(fw, "s1"), ids(fw, "s3")
v = co.profitable(fw, s1, s3)
print("  verdict:", v)
print("  rank({s3}):", co.state_rank(fw, s3))
assert not v.larger_set and v.better_state and not v.fewer_attackers
assert co.state_rank(fw, s3) == co.StateRank.CADMISSIBLE
assert co.state_leq(fw, s1, s3)

fw = load("indep-fewer")
show("indep-fewer", fw)
s3, s2 = ids(fw, "s3"), ids(fw, "s2")
v = co.profitable(fw, s3, s2)
print("  verdict:", v)
assert not v.larger_set and not v.better_state and v.fewer_attackers

print("all fixture claims hold")
