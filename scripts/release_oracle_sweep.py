"""Release gate: brute-force / engineered equivalence over 400 random models.

Compares every exported semantic operation against its brute-force reference
on 200 seeded random frameworks, 200 seeded five-argument frameworks from
``oracle.generate_group_entries`` (group entries that may lie below the fold
of their subsets, under sum/max and strict/persist in turn) and every
document in fixtures/.  It runs the theorem checkers that hold on every
axiom-valid framework on the 200 random ones, and L1 and P5, which hold on
every table, on the group-entry ones, where each failing theorem counts as a
diff; on those it also compares attack strength and attack on every attacker
set drawn from the instances the table names, two instances of one
identifier included.  It runs the reduction check on 200 seeded defeat-only
frameworks of 3-8 arguments, where each violation it reports counts as a
diff.  On six seeded random frameworks of 9 and 10 arguments, past the
brute guard, it compares conflict-eliminability, intrinsic arguments and the
state rank on every subset, both enumerations (conflict-eliminable and
c-admissible) as lists in subset order against the brute filters, and the
c-preferred family.  Maximal
profitability and formability are compared under both fewer bases.  The
brute functions answer through the memo of the test session
(``tests/brute_memo.py``), emptied after each framework.  Slow by design (run
before a release, not in the regular test loop); prints one line per
framework and a final verdict.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import brute_memo

from ceaf import (
    RandomModelSpec,
    check_reduction,
    check_theorem,
    generate_random,
    io_doc,
)
from ceaf import FEWER_BASES, FORMABILITY_KINDS, coalition, oracle, semantics
from ceaf.core import _subsets

# as in tests/test_properties.py; the fixtures are left out, since `seven`
# breaks P1 and P4 by design
UNIVERSAL_THEOREMS = ("L1", "P1", "P2", "P4", "P5", "P6", "T2", "T3", "T10")
# generated frameworks of 9 and 10 arguments, past the brute guard
LARGE_SEEDS = 6


def frameworks():
    """(name, framework, the check to run on it)"""
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        yield path.stem, io_doc.load(path).framework, check
    for seed in range(200):
        spec = RandomModelSpec(
            argument_count=3 + seed % 3,
            capacity_range=(1, 4),
            attack_density=0.1 + (seed % 6) * 0.09,
            aggregator="sum" if seed % 2 else "max",
            seed=seed,
        )
        yield f"seed{seed}", generate_random(spec), check_with_theorems
    for seed in range(200):
        aggregator, policy = ("sum", "max")[seed % 2], ("strict", "persist")[seed // 2 % 2]
        fw = oracle.generate_group_entries(seed, aggregator, policy)
        yield f"group-seed{seed}", fw, check_group_entries
    for seed in range(200):
        fw = oracle.generate_random_restricted(3 + seed % 6, 0.1 + seed % 5 * 0.1, seed)
        yield f"reduction-seed{seed}", fw, check_reduction_violations
    for seed in range(LARGE_SEEDS):
        spec = RandomModelSpec(
            argument_count=9 + seed % 2,
            capacity_range=(1, 4),
            attack_density=0.2 + (seed % 3) * 0.05,
            aggregator="sum" if seed % 2 else "max",
            seed=seed,
        )
        yield f"large-seed{seed}", generate_random(spec), check_large


def check(name, fw):
    problems = []
    args = sorted(fw.arguments)
    for target in args:
        for attackers in _subsets(fw.arguments - {target}):
            if semantics.max_attack_strength(
                fw, attackers, target
            ) != oracle.brute_vmax(fw, attackers, target):
                problems.append(("vmax", attackers, target))
            if semantics.attacks(fw, attackers, target) != oracle.brute_attacks(
                fw, attackers, target
            ):
                problems.append(("attacks", attackers, target))
    subsets = list(_subsets(fw.arguments, include_empty=True))
    ce = []
    for s in subsets:
        mine = semantics.is_conflict_eliminable(fw, s)
        if mine != oracle.brute_conflict_eliminable(fw, s):
            problems.append(("conflict-eliminable", s))
        if mine:
            ce.append(s)
            if semantics.intrinsic(fw, s) != oracle.brute_alpha(fw, s):
                problems.append(("intrinsic", s))
        if semantics.is_c_admissible(fw, s) != oracle.brute_c_admissible(fw, s):
            problems.append(("c-admissible", s))
    for s in ce:
        for target in args:
            if semantics.c_attacks(fw, s, target) != oracle.brute_c_attacks(
                fw, s, target
            ):
                problems.append(("c-attacks", s, target))
            if semantics.c_defeats(fw, s, target) != oracle.brute_c_defeats(
                fw, s, target
            ):
                problems.append(("c-defeats", s, target))
        if semantics.is_one_directionally_attacked(
            fw, s
        ) != oracle.brute_one_directional(fw, s):
            problems.append(("one-directional", s))
        if semantics.state_rank(fw, s) != oracle._brute_rank(fw, s):
            problems.append(("state-rank", s))
        if coalition.max_sets(fw, s) != oracle.brute_max_sets(fw, s):
            problems.append(("max-sets", s))
    if semantics.enumerate_c_preferred(fw) != oracle.brute_c_preferred(fw):
        problems.append(("c-preferred",))
    # the brute relational routes are doubly exponential; scope the bases
    # they quantify over by framework size (the test suite covers the
    # seven-argument fixture's relations directly)
    n = len(fw.arguments)
    deep = n <= 4
    if n <= 6:
        for s1 in ce:
            for s2 in ce:
                if not s1 <= s2:
                    continue
                if coalition.profitable(
                    fw, s1, s2
                ).holds != oracle.brute_profitable(fw, s1, s2):
                    problems.append(("profitable", s1, s2))
                for basis in FEWER_BASES if deep or len(s1) <= 1 else ():
                    if coalition.max_profitable(
                        fw, s1, s2, basis
                    ) != oracle.brute_max_profitable(fw, s1, s2, basis):
                        problems.append(("max-profitable", basis, s1, s2))
        for s1 in ce:
            if not s1 or not (deep or len(s1) == 1):
                continue
            # W and M do not read the basis
            kinds = [(k, "own") for k in FORMABILITY_KINDS]
            kinds += [("WS", "shared"), ("S", "shared")]
            for kind, basis in kinds:
                if list(
                    coalition.formability(fw, kind, s1, basis).partners
                ) != oracle.brute_formability(fw, kind, s1, basis):
                    problems.append(("formability", kind, basis, s1))
    return problems


def check_large(name, fw):
    """Past the brute guard's 8 arguments: conflict-eliminability, intrinsic
    arguments and state rank on every subset, both enumerations as lists in
    ``_subsets`` order against the brute filters, and the c-preferred family
    against the maximal brute c-admissible sets (``brute_c_preferred`` itself
    refuses more than 8 arguments)."""
    problems, family, admissible = [], [], []
    for s in _subsets(fw.arguments, include_empty=True):
        mine = semantics.is_conflict_eliminable(fw, s)
        if mine != oracle.brute_conflict_eliminable(fw, s):
            problems.append(("conflict-eliminable", s))
        if oracle.brute_conflict_eliminable(fw, s):
            family.append(s)
        if oracle.brute_c_admissible(fw, s):
            admissible.append(s)
        if not mine:
            continue
        if semantics.intrinsic(fw, s) != oracle.brute_alpha(fw, s):
            problems.append(("intrinsic", s))
        if semantics.state_rank(fw, s) != oracle._brute_rank(fw, s):
            problems.append(("state-rank", s))
    if semantics.enumerate_conflict_eliminable(fw) != family:
        problems.append(("conflict-eliminable family",))
    if semantics.enumerate_c_admissible(fw) != admissible:
        problems.append(("c-admissible family",))
    preferred = [s for s in admissible if not any(s < t for t in admissible)]
    if semantics.enumerate_c_preferred(fw) != preferred:
        problems.append(("c-preferred",))
    return problems


def check_with_theorems(name, fw, theorems=UNIVERSAL_THEOREMS):
    problems = check(name, fw)
    for theorem in theorems:
        report = check_theorem(fw, theorem, name)
        if not report.verdict:
            problems.append(("theorem", report.to_json()))
    return problems


def check_group_entries(name, fw):
    # the tables need not be axiom-valid, so only the checkers that hold on
    # every table apply
    problems = check_with_theorems(name, fw, ("L1", "P5"))
    instances = fw.arguments | fw.strengths.instances()
    for attackers in _subsets(instances):
        for target in sorted(instances):
            if semantics.max_attack_strength(
                fw, attackers, target
            ) != oracle.brute_vmax(fw, attackers, target):
                problems.append(("instance vmax", attackers, target))
            if semantics.attacks(fw, attackers, target) != oracle.brute_attacks(
                fw, attackers, target
            ):
                problems.append(("instance attacks", attackers, target))
    return problems


def check_reduction_violations(name, fw):
    return [("reduction", v.axiom, v.message) for v in check_reduction(fw).violations]


def main():
    brute_memo.install()
    start = time.time()
    bad = 0
    for name, fw, checker in frameworks():
        if len(fw.arguments) > 7 and checker is check:
            continue
        t0 = time.time()
        problems = checker(name, fw)
        brute_memo.clear()  # the next framework shares no brute answer
        status = "ok" if not problems else f"{len(problems)} DIFFS"
        print(f"{name}: {status} ({time.time() - t0:.1f}s)")
        if problems:
            bad += 1
            for p in problems[:5]:
                print("   ", p)
    print(f"done in {time.time() - start:.1f}s; {bad} frameworks with diffs")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
