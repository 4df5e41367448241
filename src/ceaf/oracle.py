"""Brute-force reference semantics, mechanical theorem checkers, and a seeded
random framework generator.

The brute-force routines transcribe the definitions with raw quantifier
expansion over full powersets and no caching; they exist to certify the
engineered implementations bit for bit.  The theorem checkers instantiate the
library's structural results exhaustively on a concrete framework and report a
replayable counterexample on failure.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    Arg,
    Framework,
    NotConflictEliminable,
    SizeLimitExceeded,
    StrengthModel,
)
from . import coalition, semantics

BRUTE_LIMIT = 8


def _guard(fw: Framework, limit: int = BRUTE_LIMIT) -> None:
    if len(fw.arguments) > limit:
        raise SizeLimitExceeded(
            f"brute force limited to {limit} arguments, got {len(fw.arguments)}"
        )


def _powerset(items, include_empty=True):
    items = sorted(items)
    start = 0 if include_empty else 1
    for r in range(start, len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


def brute_vmax(fw: Framework, attackers: Iterable[Arg], target: Arg) -> int:
    attackers = frozenset(attackers)
    best = 0
    for sub in _powerset(attackers, include_empty=False):
        v = fw.strengths.strength(sub, target)
        if v is not None and v > best:
            best = v
    return best


def brute_attacks(fw: Framework, attackers: Iterable[Arg], target: Arg) -> bool:
    return any(
        fw.strengths.strength(sub, target) is not None
        for sub in _powerset(frozenset(attackers), include_empty=False)
    )


def brute_defeats(fw: Framework, attackers: Iterable[Arg], target: Arg) -> bool:
    attackers = frozenset(attackers)
    return brute_attacks(fw, attackers, target) and (
        brute_vmax(fw, attackers, target) >= target.capacity
    )


def brute_conflict_eliminable(fw: Framework, subset: Iterable[Arg]) -> bool:
    subset = frozenset(subset)
    return not any(brute_defeats(fw, subset, s) for s in subset)


def brute_alpha(fw: Framework, subset: Iterable[Arg]) -> frozenset:
    subset = frozenset(subset)
    if not brute_conflict_eliminable(fw, subset):
        raise NotConflictEliminable(str(sorted(subset)))
    return frozenset(
        Arg(s.id, s.capacity - brute_vmax(fw, subset, s)) for s in subset
    )


def _brute_view_strength(fw, subset, attackers, target) -> Optional[int]:
    if target in subset and attackers <= subset:
        return None
    return fw.strengths.strength(attackers, target)


def brute_c_attacks(fw: Framework, subset: Iterable[Arg], target: Arg) -> bool:
    subset = frozenset(subset)
    if not brute_conflict_eliminable(fw, subset):
        return False
    alpha = brute_alpha(fw, subset)
    return any(
        _brute_view_strength(fw, subset, sub, target) is not None
        for sub in _powerset(alpha, include_empty=False)
    )


def brute_c_defeats(fw: Framework, subset: Iterable[Arg], target: Arg) -> bool:
    subset = frozenset(subset)
    if not brute_c_attacks(fw, subset, target):
        return False
    alpha = brute_alpha(fw, subset)
    for sub in _powerset(alpha, include_empty=False):
        v = _brute_view_strength(fw, subset, sub, target)
        if v is not None and v >= target.capacity:
            return True
    return False


def brute_c_admissible(fw: Framework, subset: Iterable[Arg]) -> bool:
    subset = frozenset(subset)
    if not brute_conflict_eliminable(fw, subset):
        return False
    alpha = brute_alpha(fw, subset)
    view_args = (fw.arguments - subset) | alpha
    for member in subset:
        for attack_set in _powerset(view_args, include_empty=False):
            if _brute_view_strength(fw, subset, attack_set, member) is None:
                continue
            if not any(brute_c_defeats(fw, subset, sx) for sx in attack_set):
                return False
    return True


def brute_c_preferred(fw: Framework) -> list:
    _guard(fw)
    admissible = [
        s
        for s in _powerset(fw.arguments)
        if brute_c_admissible(fw, s)
    ]
    maximal = [s for s in admissible if not any(s < t for t in admissible)]
    return sorted(maximal, key=lambda s: (len(s), sorted(s)))


def brute_one_directional(fw: Framework, subset: Iterable[Arg]) -> bool:
    subset = frozenset(subset)
    if not brute_conflict_eliminable(fw, subset):
        raise NotConflictEliminable(str(sorted(subset)))
    alpha = brute_alpha(fw, subset)
    view_args = (fw.arguments - subset) | alpha
    for member in subset:
        for attack_set in _powerset(view_args, include_empty=False):
            resolving = any(
                _brute_view_strength(fw, subset, sub, member) is not None
                for sub in _powerset(attack_set, include_empty=False)
            )
            if resolving and not any(
                brute_c_attacks(fw, subset, sx) for sx in attack_set
            ):
                return True
    return False


def _brute_rank(fw: Framework, s: frozenset) -> int:
    if brute_c_admissible(fw, s):
        return 2
    if brute_one_directional(fw, s):
        return 0
    return 1


def _brute_undefeated(fw: Framework, base: frozenset, candidate: frozenset) -> int:
    total = 0
    for s in fw.arguments:
        if any(
            fw.strengths.strength(frozenset((s,)), member) is not None
            for member in base
        ):
            if s not in candidate and not brute_c_defeats(fw, candidate, s):
                total += 1
    return total


def brute_profitable(fw: Framework, first, second) -> bool:
    first, second = frozenset(first), frozenset(second)
    if not first <= second:
        return False
    if not (
        brute_conflict_eliminable(fw, first)
        and brute_conflict_eliminable(fw, second)
    ):
        return False
    if _brute_rank(fw, first) > _brute_rank(fw, second):
        return False
    return _brute_undefeated(fw, first, first) >= _brute_undefeated(fw, first, second)


def brute_max_sets(fw: Framework, subset) -> list:
    _guard(fw)
    subset = frozenset(subset)
    reachable = [
        t
        for t in _powerset(fw.arguments)
        if subset <= t and brute_profitable(fw, subset, t)
    ]
    maximal = [t for t in reachable if not any(t < u for u in reachable)]
    return sorted(maximal, key=lambda s: (len(s), sorted(s)))


def brute_max_profitable(
    fw: Framework, first, second, fewer_basis: str = "own"
) -> bool:
    _guard(fw)
    first, second = frozenset(first), frozenset(second)
    if not brute_profitable(fw, first, second):
        return False

    def leq(beta, sx, sy):
        if beta == "l":
            return len(sx) <= len(sy)
        if beta == "b":
            return _brute_rank(fw, sx) <= _brute_rank(fw, sy)
        if fewer_basis == "own":
            return _brute_undefeated(fw, sy, sy) <= _brute_undefeated(fw, sx, sx)
        return _brute_undefeated(fw, first, sy) <= _brute_undefeated(fw, first, sx)

    def less(beta, sx, sy):
        return leq(beta, sx, sy) and not leq(beta, sy, sx)

    firsts = brute_max_sets(fw, first)
    seconds = brute_max_sets(fw, second)
    for sx in seconds:
        ok = True
        for sy in firsts:
            for beta in ("l", "b", "f"):
                if less(beta, sx, sy) and not any(
                    less(gamma, sy, sx)
                    for gamma in ("l", "b", "f")
                    if gamma != beta
                ):
                    ok = False
        if ok:
            return True
    return False


def brute_formability(
    fw: Framework, kind: str, subset, fewer_basis: str = "own"
) -> list:
    _guard(fw)
    subset = frozenset(subset)
    if kind in ("W", "M"):
        relation = lambda a, b: brute_profitable(fw, a, b)
    else:
        relation = lambda a, b: brute_max_profitable(fw, a, b, fewer_basis)
    combine = any if kind in ("W", "WS") else all
    partners = []
    for candidate in _powerset(fw.arguments - subset, include_empty=False):
        if candidate & subset:
            continue
        union = subset | candidate
        if not brute_conflict_eliminable(fw, union):
            continue
        if combine((relation(subset, union), relation(candidate, union))):
            partners.append(candidate)
    return sorted(partners, key=lambda s: (len(s), sorted(s)))


# ---------------------------------------------------------------------------
# theorem checkers


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    framework: str
    verdict: bool
    counterexample: Optional[tuple] = None

    def to_json(self) -> str:
        payload = {
            "theorem": self.theorem,
            "framework": self.framework,
            "verdict": "pass" if self.verdict else "fail",
            "counterexample": _encode_witness(self.counterexample),
        }
        return json.dumps(payload, sort_keys=True)


def _encode_witness(witness):
    if witness is None:
        return None
    out = []
    for part in witness:
        if isinstance(part, frozenset):
            out.append(sorted([a.id, a.capacity] for a in part))
        elif isinstance(part, Arg):
            out.append([part.id, part.capacity])
        else:
            out.append(str(part))
    return out


def _check_L1(fw: Framework):
    # defeats survive into supersets
    for s1 in _powerset(fw.arguments, include_empty=False):
        for member in s1:
            if semantics.defeats(fw, s1, member):
                for extra in _powerset(fw.arguments - s1):
                    s2 = s1 | extra
                    if not semantics.defeats(fw, s2, member):
                        return (s1, s2, member)
    return None


def _check_P1(fw: Framework):
    # id-wise capacity raises keep strengths defined and non-decreasing; the
    # resolved table holds every defined pair, targets in domain order and
    # attacker sets in ``_id_unique_subsets`` order
    from .core import instantiated_closure, _raise_failures, _resolved

    domain = sorted(instantiated_closure(fw))
    resolved = _resolved(fw.strengths, domain)
    for s, raised, t, _, _ in _raise_failures(resolved.items(), resolved, domain):
        return (s, raised, t)
    return None


def _check_P2(fw: Framework):
    # intrinsic capacities never go negative
    for s in semantics._conflict_eliminable_sets(fw):
        for a in semantics.intrinsic(fw, s):
            if a.capacity < 0:
                return (s, a)
    return None


def _check_P4(fw: Framework):
    # intrinsic arguments are conflict-free inside the view
    for s in semantics._conflict_eliminable_sets(fw):
        vw = semantics.view(fw, s)
        for member in vw.alpha:
            for sub in _powerset(vw.alpha - {member}, include_empty=False):
                if vw.strength(sub, member) is not None:
                    return (s, sub, member)
    return None


def _check_P5(fw: Framework):
    # the framework-level and view-level formulations agree wherever both
    # apply, and coalition defeats imply coalition attacks
    for s in semantics._conflict_eliminable_sets(fw):
        vw = semantics.view(fw, s)
        verdicts = {}
        for t in sorted(fw.arguments | vw.arguments):
            ca = semantics.c_attacks(fw, s, t)
            cd = semantics.c_defeats(fw, s, t)
            verdicts[t] = (ca, cd)
            if cd and not ca:
                return (s, t, "defeat without attack")
        for t in sorted(fw.arguments & vw.arguments):
            defined = [
                v
                for sub in _powerset(vw.alpha, include_empty=False)
                if (v := vw.strength(sub, t)) is not None
            ]
            if verdicts[t] != (bool(defined), any(v >= t.capacity for v in defined)):
                return (s, t, "formulations disagree")
    return None


def _check_P6(fw: Framework):
    # the parts of a permitted coalition are conflict-eliminable; the
    # permitted pairs with first part s1 are (s1, u - s1) for u >= s1 in the
    # family
    family = semantics._conflict_eliminable_sets(fw)
    for s1 in _powerset(fw.arguments):
        for u in family:
            if s1 <= u and not (
                semantics.is_conflict_eliminable(fw, s1)
                and semantics.is_conflict_eliminable(fw, u - s1)
            ):
                return (s1, u - s1)
    return None


def _check_T1(fw: Framework):
    from .npreduction import check_reduction

    report = check_reduction(fw)
    if report.ok:
        return None
    return (report.violations[0].axiom,)


def _check_T2(fw: Framework):
    # an admissible sx and a conflict-eliminable s1 < sx form a permitted,
    # profitable coalition with sx - s1
    family = semantics._conflict_eliminable_sets(fw)
    for sx in family:
        if not semantics.is_c_admissible(fw, sx):
            continue
        for s1 in family:
            if not s1 < sx:
                continue
            if not semantics.is_conflict_eliminable(fw, sx - s1):
                return (sx, s1, "difference not conflict-eliminable")
            if not coalition.profitable(fw, s1, sx).holds:
                return (sx, s1, "not profitable")
    return None


def _check_T3(fw: Framework):
    # a profitable admissible union u > s1 grows profitably into a preferred
    # superset
    family = semantics._conflict_eliminable_sets(fw)
    preferred = semantics.enumerate_c_preferred(fw)
    for s1 in family:
        for u in family:
            if not (
                s1 < u
                and semantics.is_c_admissible(fw, u)
                and coalition.profitable(fw, s1, u).holds
            ):
                continue
            if not any(
                u <= u3 and coalition.profitable(fw, s1, u3).holds for u3 in preferred
            ):
                return (s1, u - s1)
    return None


def theorem4_violations(fw: Framework):
    """Every failure of the mutually-maximal-coalition result, in checking
    order.  For each conflict-eliminable s1 and each maximal
    coalition-admissible sx containing it, the base s1 and its nonempty
    complement sx - s1 must each profit from growing into sx and from no
    strictly larger sy.  A witness leads with the set whose clause failed
    and ends with the clause: ``(base, sx, tag)`` for the profit clauses,
    ``(base, sx, sy, tag)`` for the maximality clauses."""
    _guard(fw)
    family = semantics._conflict_eliminable_sets(fw)
    preferred = semantics.enumerate_c_preferred(fw)
    for s1 in family:
        for sx in (p for p in preferred if s1 <= p):
            rest = sx - s1
            if not coalition.profitable(fw, s1, sx).holds:
                yield (s1, sx, "base not profitable")
            if rest and not coalition.profitable(fw, rest, sx).holds:
                yield (rest, sx, "complement not profitable")
            # profit needs a conflict-eliminable result
            for sy in (t for t in family if sx < t):
                if coalition.profitable(fw, s1, sy).holds:
                    yield (s1, sx, sy, "base not maximal")
                if rest and coalition.profitable(fw, rest, sy).holds:
                    yield (rest, sx, sy, "complement not maximal")


def _check_T4(fw: Framework):
    return next(theorem4_violations(fw), None)


def _check_T7(fw: Framework):
    # somewhere profitability is one-sided; profit needs a
    # conflict-eliminable union
    family = semantics._conflict_eliminable_sets(fw)
    for s1 in family:
        if not s1:
            continue
        for union in family:
            if (
                s1 < union
                and coalition.profitable(fw, s1, union).holds
                and not coalition.profitable(fw, union - s1, union).holds
            ):
                return None
    return ("no one-sided profitable pair found",)


def _check_T8(fw: Framework):
    # somewhere a maximal profitable superset contains an unprofitable stage;
    # a stage need not be conflict-eliminable, so stages range over the
    # powerset of sx
    for s1 in semantics._conflict_eliminable_sets(fw):
        if not s1:
            continue
        for sx in coalition.max_sets(fw, s1):
            for s2 in _powerset(sx):
                if s1 <= s2 and s2 != s1:
                    if not coalition.profitable(fw, s1, s2).holds:
                        return None
    return ("no discontinuous growth stage found",)


def _check_T9(fw: Framework):
    for sx in semantics.enumerate_c_preferred(fw):
        pairs_ok = all(
            coalition.profitable(fw, sy, sy | sz).holds
            for sy in _powerset(sx)
            for sz in _powerset(sx - sy)
            if semantics.is_conflict_eliminable(fw, sy)
        )
        weak_ok = all(
            coalition.is_weakly_continuous(fw, s1)
            for s1 in _powerset(sx)
            if s1 != sx and semantics.is_conflict_eliminable(fw, s1)
        )
        if pairs_ok != weak_ok:
            return (sx,)
    return None


def _check_T10(fw: Framework):
    for s1 in semantics._conflict_eliminable_sets(fw):
        results = {
            kind: set(coalition.formability(fw, kind, s1).partners)
            for kind in ("W", "M", "WS", "S")
        }
        if not results["M"] <= results["W"]:
            return (s1, "M not within W")
        if not results["WS"] <= results["W"]:
            return (s1, "WS not within W")
        if not results["S"] <= results["M"]:
            return (s1, "S not within M")
        if not results["S"] <= results["WS"]:
            return (s1, "S not within WS")
    return None


_CHECKERS = {
    "L1": _check_L1,
    "P1": _check_P1,
    "P2": _check_P2,
    "P4": _check_P4,
    "P5": _check_P5,
    "P6": _check_P6,
    "T1": _check_T1,
    "T2": _check_T2,
    "T3": _check_T3,
    "T4": _check_T4,
    "T7": _check_T7,
    "T8": _check_T8,
    "T9": _check_T9,
    "T10": _check_T10,
}

THEOREM_IDS = tuple(sorted(_CHECKERS))


def check_theorem(fw: Framework, theorem: str, name: str = "") -> TheoremReport:
    """Instantiate one structural result exhaustively on the framework."""
    theorem = theorem.upper()
    if theorem not in _CHECKERS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    _guard(fw)
    witness = _CHECKERS[theorem](fw)
    return TheoremReport(theorem, name, witness is None, witness)


# ---------------------------------------------------------------------------
# random generation


@dataclass(frozen=True)
class RandomModelSpec:
    argument_count: int
    capacity_range: tuple = (1, 4)
    attack_density: float = 0.25
    aggregator: str = "max"
    seed: int = 0


def generate_random(spec: RandomModelSpec) -> Framework:
    """A deterministic, axiom-valid random framework.

    Singleton strengths are drawn uniformly from [1, target capacity + 1] at
    the configured density; group strengths come from the aggregator, and
    reduced-capacity lookups use persist defaulting so coalition views stay
    computable.  An invalid spec raises ``ValueError`` naming its field.
    """
    lo, hi = spec.capacity_range
    if spec.argument_count < 0:
        raise ValueError("argument_count must be at least 0")
    if not 1 <= lo <= hi:
        raise ValueError("capacity_range must satisfy 1 <= lo <= hi")
    if not 0 <= spec.attack_density <= 1:  # NaN fails both comparisons
        raise ValueError("attack_density must lie in [0, 1]")
    rng = random.Random(spec.seed)
    args = [Arg(f"x{i + 1}", rng.randint(lo, hi)) for i in range(spec.argument_count)]
    entries = {}
    for source in args:
        for target in args:
            if source.id == target.id:
                continue
            if rng.random() < spec.attack_density:
                entries[(frozenset((source,)), target)] = rng.randint(
                    1, target.capacity + 1
                )
    return Framework(
        frozenset(args),
        StrengthModel.from_entries(entries, spec.aggregator, "persist"),
    )


def generate_group_entries(
    seed: int, aggregator: str = "sum", variant_policy: str = "strict"
) -> Framework:
    """Five arguments, capacities 1-3; per target, each other argument's
    singleton entry with probability 1/2, then with probability 1/2 one group
    entry over two or more of those (and 1/2 again a lowered-capacity variant
    of it).  Strengths lie in [1, target capacity + 1], so a group entry may
    lie below the fold of its own subsets."""
    rng = random.Random(seed)
    args = [Arg(f"x{i}", rng.randint(1, 3)) for i in range(5)]
    entries = {}
    for target in args:
        singles = [a for a in args if a != target and rng.random() < 0.5]
        keys = [frozenset((a,)) for a in singles]
        if len(singles) > 1 and rng.random() < 0.5:
            group = rng.sample(singles, rng.randint(2, len(singles)))
            keys.append(frozenset(group))
            if rng.random() < 0.5:
                keys.append(frozenset(a.with_capacity(rng.randint(1, a.capacity)) for a in group))
        for key in keys:
            entries[(key, target)] = rng.randint(1, target.capacity + 1)
    return Framework.build(args, entries, aggregator, variant_policy)


def generate_random_restricted(
    argument_count: int, attack_density: float, seed: int
) -> Framework:
    """A deterministic defeat-only framework in explicit-only mode, suitable
    for the reduction check: every listed attack reaches its target's
    capacity, and small group attacks are thrown in alongside singletons."""
    rng = random.Random(seed)
    args = [Arg(f"x{i + 1}", rng.randint(1, 3)) for i in range(argument_count)]
    entries = {}
    for source in args:
        for target in args:
            if source.id == target.id:
                continue
            if rng.random() < attack_density:
                entries[(frozenset((source,)), target)] = target.capacity + rng.randint(
                    0, 2
                )
    pool = [a for a in args]
    for _ in range(max(0, argument_count - 2)):
        group = frozenset(rng.sample(pool, 2))
        target = rng.choice(pool)
        if target in group:
            continue
        if rng.random() < attack_density:
            entries[(group, target)] = target.capacity + rng.randint(0, 2)
    return Framework(
        frozenset(args),
        StrengthModel.from_entries(entries, "explicit-only", "strict"),
    )
