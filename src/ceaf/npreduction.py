"""Plain group-attack argumentation frameworks and the reduction check.

A plain framework is a finite set of argument names with a group-attack
relation (nonempty attacker set, target).  When every defined attack in a
capacitated framework defeats its target outright, the capacitated semantics
collapse onto the plain ones: conflict-eliminable sets are conflict-free,
intrinsic arguments are the identity, coalition attacks coincide with plain
attacks and with coalition defeats, and the coalition-admissible /
coalition-preferred sets coincide with the admissible / preferred ones.
``check_reduction`` verifies all five collapses: it compares the
conflict-eliminable family with the conflict-free one, and checks the other
claims over the conflict-eliminable sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

from .core import Framework, SIZE_LIMIT_DEFAULT, ValidationReport, Violation
from .core import _check_limit, _fmt, _grow, _masks, _maximal_masks
from . import NP_KINDS, semantics

NPKind = Literal["conflict-free", "admissible", "preferred"]


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


def _plain(np: NPFramework) -> tuple:
    """The conflict-free, the admissible and the preferred sets of ``np``, in
    ``_subsets`` order.  Each name is a bit, in sorted order, and each target
    keeps its minimal attacker masks.  Conflict-freeness is downward closed, so the
    conflict-free sets grow by ``_grow``; a set is cut as soon as its highest
    name completes an attack together with its target."""
    names = sorted(np.arguments)
    bit = {n: 1 << i for i, n in enumerate(names)}
    attacks = {}  # target bit -> attacker masks
    for attackers, target in np.group_attacks:
        attacks.setdefault(bit[target], []).append(sum(bit[a] for a in attackers))
    minimal = {
        t: [a for a in ms if not any(b != a and not b & ~a for b in ms)]
        for t, ms in attacks.items()
    }
    conflicts = [a | t for t, ms in minimal.items() for a in ms]
    by_bit = [[c for c in conflicts if c >> i & 1] for i in range(len(names))]
    free = _grow(len(names), lambda s: all(c & ~s for c in by_bit[s.bit_length() - 1]))
    admissible = []
    for s in free:
        hit = sum(t for t, ms in minimal.items() if any(not a & ~s for a in ms))
        if all(a & hit for t, ms in minimal.items() if t & s for a in ms):
            admissible.append(s)
    sets = lambda masks: [frozenset(n for n, b in bit.items() if m & b) for m in masks]
    return sets(free), sets(admissible), sets(_maximal_masks(admissible))


def np_semantics(
    np: NPFramework, kind: NPKind, limit: int = SIZE_LIMIT_DEFAULT
) -> list:
    """The conflict-free / admissible / preferred sets, in ``_subsets`` order."""
    if kind not in NP_KINDS:
        raise ValueError(f"unknown semantics kind {kind!r}")
    _check_limit(np, limit)
    return _plain(np)[NP_KINDS.index(kind)]


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

    Requires the strength table to be in explicit-only mode, every defined
    attack to defeat its target, and every entry to name base arguments with
    distinct identifiers, since ``to_np`` forgets capacities; otherwise
    ``PreconditionUnmet``.  The conflict-eliminable and conflict-free families
    are compared as identifier sets, and the other claims are checked on the
    family's masks: the intrinsic mask against the mask, and per base argument
    one view strength (c-attack and c-defeat) and one attack strength.  That
    the view's arguments ``(fw.arguments - s) | alpha`` are the framework's
    needs no check of its own: where ``alpha == s`` they are
    ``fw.arguments``, so they can differ only where intrinsic identity
    already fails for the same ``s``.
    """
    if fw.strengths.aggregator != "explicit-only":
        raise PreconditionUnmet("reduction needs an explicit-only strength table")
    for (attackers, target), v in fw.strengths._lookup.items():
        if v < target.capacity:
            raise PreconditionUnmet(
                f"attack on {target} with strength {v} does not defeat it"
            )
    if len({a.id for a in fw.arguments}) < len(fw.arguments):
        raise PreconditionUnmet("reduction needs distinct argument identifiers")
    for attackers, target in fw.strengths._lookup:
        if not attackers | {target} <= fw.arguments:
            raise PreconditionUnmet(
                f"attack on {target} from {_fmt(attackers)} names an instance "
                "that is not a base argument"
            )

    _check_limit(fw, limit)

    ids = lambda s: frozenset(a.id for a in s)
    by_id = {a.id: a for a in fw.arguments}
    masks, family = _masks(fw), semantics._family(fw)
    ce = {ids(s): m for m, s in family.items()}
    free, admissible, preferred = _plain(to_np(fw))
    free = set(free)
    violations = []

    for key in sorted(ce.keys() | free, key=lambda k: (len(k), sorted(k))):
        s = family[ce[key]] if key in ce else frozenset(map(by_id.get, key))
        if (key in ce) != (key in free):
            violations.append(
                Violation(
                    "conflict-eliminable = conflict-free",
                    (s,),
                    f"{sorted(key)}: conflict-eliminable={key in ce} "
                    f"conflict-free={key in free}",
                )
            )
        if key in ce:
            m = ce[key]
            if masks.intrinsic(m) != m:
                violations.append(
                    Violation(
                        "intrinsic identity",
                        (s,),
                        f"intrinsic arguments of {sorted(key)} differ from it",
                    )
                )
            for i, t in enumerate(masks.args[: len(fw.arguments)]):
                v = semantics._view_strongest(masks, m, 1 << i)
                ca, cd = v > 0, 0 < v >= t.capacity
                at = masks.best(masks.record(i), m) > 0
                if ca != at:
                    violations.append(
                        Violation(
                            "c-attack = attack",
                            (s, t),
                            f"{sorted(key)} vs {t.id}: c-attack={ca} attack={at}",
                        )
                    )
                if ca != cd:
                    violations.append(
                        Violation(
                            "c-attack = c-defeat",
                            (s, t),
                            f"{sorted(key)} vs {t.id}: c-attack={ca} c-defeat={cd}",
                        )
                    )

    for claim, mine, plain in (
        ("admissible", semantics.enumerate_c_admissible(fw, limit), admissible),
        ("preferred", semantics.enumerate_c_preferred(fw, limit), preferred),
    ):
        mine = set(map(ids, mine))
        if mine != set(plain):
            difference = sorted(
                (sorted(d) for d in mine.symmetric_difference(plain)), key=str
            )
            violations.append(
                Violation(
                    f"c-{claim} = {claim}",
                    tuple(),
                    f"{claim} families differ on {difference}",
                )
            )
    return ValidationReport(tuple(violations))
