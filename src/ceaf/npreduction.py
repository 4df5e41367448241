"""Plain group-attack argumentation frameworks and the reduction check.

A plain framework is a finite set of argument names with a group-attack
relation (nonempty attacker set, target).  When every defined attack in a
capacitated framework defeats its target outright, the capacitated semantics
collapse onto the plain ones: conflict-eliminable sets are conflict-free,
intrinsic arguments are the identity, coalition attacks coincide with plain
attacks and with coalition defeats, and the coalition-admissible /
coalition-preferred sets coincide with the admissible / preferred ones.
``check_reduction`` verifies all five collapses by exhaustive enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Literal

from .core import (
    Framework,
    SIZE_LIMIT_DEFAULT,
    ValidationReport,
    Violation,
    _check_limit,
    _subsets,
)
from . import semantics

NPKind = Literal["conflict-free", "admissible", "preferred"]
NP_KINDS = ("conflict-free", "admissible", "preferred")


class NotAnAttack(Exception):
    """Raised when minimality is asked of a pair that is not in the relation."""


class PreconditionUnmet(Exception):
    """The framework is not in the defeat-only regime the reduction needs."""


@dataclass(frozen=True)
class NPFramework:
    """A finite set of argument names with group attacks."""

    arguments: frozenset
    group_attacks: frozenset  # of (frozenset[str], str)

    @staticmethod
    def build(arguments: Iterable[str], group_attacks) -> "NPFramework":
        args = frozenset(arguments)
        rel = frozenset((frozenset(a), t) for a, t in group_attacks)
        for attackers, target in rel:
            if not attackers:
                raise ValueError("group attack with empty attacker set")
            if not attackers <= args or target not in args:
                raise ValueError("group attack mentions unknown arguments")
        return NPFramework(args, rel)


def np_attacks(np: NPFramework, group: Iterable[str], target: str) -> bool:
    group = frozenset(group)
    return any(a <= group for (a, t) in np.group_attacks if t == target)


def np_minimal(np: NPFramework, group: Iterable[str], target: str) -> bool:
    group = frozenset(group)
    if (group, target) not in np.group_attacks:
        raise NotAnAttack(f"({sorted(group)}, {target}) is not in the relation")
    return not any(
        a < group for (a, t) in np.group_attacks if t == target
    )


def _minimal_attacks_on(np: NPFramework, target: str):
    pairs = [a for (a, t) in np.group_attacks if t == target]
    return [a for a in pairs if not any(b < a for b in pairs)]


def np_conflict_free(np: NPFramework, group: FrozenSet[str]) -> bool:
    return not any(np_attacks(np, group, a) for a in group)


def np_defends(np: NPFramework, group: FrozenSet[str], target: str) -> bool:
    for attack in _minimal_attacks_on(np, target):
        if not any(np_attacks(np, group, ax) for ax in attack):
            return False
    return True


def np_admissible(np: NPFramework, group: FrozenSet[str]) -> bool:
    return np_conflict_free(np, group) and all(
        np_defends(np, group, a) for a in group
    )


def np_semantics(
    np: NPFramework, kind: NPKind, limit: int = SIZE_LIMIT_DEFAULT
) -> list:
    """Exhaustively enumerate conflict-free / admissible / preferred sets."""
    if kind not in NP_KINDS:
        raise ValueError(f"unknown semantics kind {kind!r}")
    _check_limit(np, limit)
    subsets = list(_subsets(np.arguments, include_empty=True))
    if kind == "conflict-free":
        chosen = [s for s in subsets if np_conflict_free(np, s)]
    else:
        chosen = [s for s in subsets if np_admissible(np, s)]
    if kind == "preferred":
        chosen = [s for s in chosen if not any(s < t for t in chosen)]
    return sorted(chosen, key=lambda s: (len(s), sorted(s)))


def to_np(fw: Framework) -> NPFramework:
    """Forget capacities: names and the listed group attacks."""
    return NPFramework.build(
        (a.id for a in fw.arguments),
        (
            (frozenset(x.id for x in attackers), target.id)
            for (attackers, target) in fw.strengths._lookup
        ),
    )


def check_reduction(fw: Framework, limit: int = SIZE_LIMIT_DEFAULT) -> ValidationReport:
    """Verify the five collapse claims on a defeat-only framework.

    Requires the strength table to be in explicit-only mode and every defined
    attack to defeat its target; otherwise ``PreconditionUnmet``.
    """
    if fw.strengths.aggregator != "explicit-only":
        raise PreconditionUnmet("reduction needs an explicit-only strength table")
    for (attackers, target), v in fw.strengths._lookup.items():
        if v < target.capacity:
            raise PreconditionUnmet(
                f"attack on {target} with strength {v} does not defeat it"
            )

    _check_limit(fw, limit)

    np = to_np(fw)
    ids = lambda s: frozenset(a.id for a in s)
    violations = []

    subsets = list(_subsets(fw.arguments, include_empty=True))
    for s in subsets:
        ce = semantics.is_conflict_eliminable(fw, s)
        cf = np_conflict_free(np, ids(s))
        if ce != cf:
            violations.append(
                Violation(
                    "conflict-eliminable = conflict-free",
                    (s,),
                    f"{sorted(ids(s))}: conflict-eliminable={ce} conflict-free={cf}",
                )
            )
        if ce:
            alpha = semantics.intrinsic(fw, s)
            if alpha != s:
                violations.append(
                    Violation(
                        "intrinsic identity",
                        (s,),
                        f"intrinsic arguments of {sorted(ids(s))} differ from it",
                    )
                )
            vw = semantics.view(fw, s)
            if vw.arguments != fw.arguments:
                violations.append(
                    Violation(
                        "view covers the framework",
                        (s,),
                        f"view arguments of {sorted(ids(s))} differ from the framework",
                    )
                )
            for t in sorted(fw.arguments):
                ca = semantics.c_attacks(fw, s, t)
                at = semantics.attacks(fw, s, t)
                cd = semantics.c_defeats(fw, s, t)
                if ca != at:
                    violations.append(
                        Violation(
                            "c-attack = attack",
                            (s, t),
                            f"{sorted(ids(s))} vs {t.id}: c-attack={ca} attack={at}",
                        )
                    )
                if ca != cd:
                    violations.append(
                        Violation(
                            "c-attack = c-defeat",
                            (s, t),
                            f"{sorted(ids(s))} vs {t.id}: c-attack={ca} c-defeat={cd}",
                        )
                    )

    c_adm = {ids(s) for s in subsets if semantics.is_c_admissible(fw, s)}
    adm = {s for s in _subsets(np.arguments, include_empty=True) if np_admissible(np, s)}
    if c_adm != adm:
        difference = sorted(
            (sorted(d) for d in c_adm.symmetric_difference(adm)), key=str
        )
        violations.append(
            Violation(
                "c-admissible = admissible",
                tuple(),
                f"admissible families differ on {difference}",
            )
        )
    c_pref = {ids(s) for s in semantics.enumerate_c_preferred(fw, limit)}
    pref = set(np_semantics(np, "preferred", limit))
    if c_pref != pref:
        difference = sorted(
            (sorted(d) for d in c_pref.symmetric_difference(pref)), key=str
        )
        violations.append(
            Violation(
                "c-preferred = preferred",
                tuple(),
                f"preferred families differ on {difference}",
            )
        )
    return ValidationReport(tuple(violations))
