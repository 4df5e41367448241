"""Coalition profitability and formability on top of the attack semantics.

A conflict-eliminable set occupies one of three states: coalition-admissible
(it defends every member), one-directionally attacked (something attacks it
that it cannot even counter-attack), or the middle ground.  Growing into a
superset is profitable when the superset is at least as large, in at least as
good a state, and leaves no more of the base set's attackers undefeated.  The
maximal-profitability refinement additionally requires that some maximal
coalition reachable from the enlarged set is not strictly dominated, under the
size / state / undefeated-attacker criteria, by every maximal coalition
reachable from the original set.  Four formability semantics classify partner
sets by one-sided or mutual (maximal) profitability.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Literal

from . import FEWER_BASES, FORMABILITY_KINDS
from .core import (
    Arg,
    Framework,
    NotConflictEliminable,
    SIZE_LIMIT_DEFAULT,
    _check_limit,
    _fmt,
    _maximal,
    _memoised,
)
from .semantics import (
    _conflict_eliminable_sets,
    _unanswered_attack,
    attacks,
    c_attacks,
    c_defeats,
    enumerate_c_preferred,
    is_c_admissible,
    is_conflict_eliminable,
)

Criterion = Literal["l", "b", "f"]
FewerBasis = Literal["own", "shared"]
FormabilityKind = Literal["W", "M", "WS", "S"]


class StateRank(enum.IntEnum):
    """Quality of a conflict-eliminable set, best first."""

    ONE_DIRECTIONAL = 0
    MIDDLE = 1
    CADMISSIBLE = 2


@_memoised
def is_one_directionally_attacked(fw: Framework, subset: Iterable[Arg]) -> bool:
    """Something in the coalition's view attacks a member, and the coalition
    cannot counter-attack any element of that attacking set."""
    if not is_conflict_eliminable(fw, subset):
        raise NotConflictEliminable(_fmt(subset))
    return _unanswered_attack(fw, subset, c_attacks)


@_memoised
def state_rank(fw: Framework, subset: Iterable[Arg]) -> StateRank:
    if not is_conflict_eliminable(fw, subset):
        raise NotConflictEliminable(_fmt(subset))
    if is_c_admissible(fw, subset):
        return StateRank.CADMISSIBLE
    if is_one_directionally_attacked(fw, subset):
        return StateRank.ONE_DIRECTIONAL
    return StateRank.MIDDLE


def state_leq(fw: Framework, first: Iterable[Arg], second: Iterable[Arg]) -> bool:
    """Is the second set in at least as good a state as the first?  False
    unless both sets are conflict-eliminable."""
    first, second = frozenset(first), frozenset(second)
    if not (is_conflict_eliminable(fw, first) and is_conflict_eliminable(fw, second)):
        return False
    return state_rank(fw, first) <= state_rank(fw, second)


def coalition_permitted(
    fw: Framework, first: Iterable[Arg], second: Iterable[Arg]
) -> bool:
    """Disjoint sets whose union is conflict-eliminable may form a coalition."""
    first, second = frozenset(first), frozenset(second)
    return not (first & second) and is_conflict_eliminable(fw, first | second)


@_memoised
def attackers(fw: Framework, subset: Iterable[Arg]) -> frozenset:
    """The framework members whose singletons attack some member of the set."""
    return frozenset(
        s
        for s in fw.arguments
        if any(attacks(fw, frozenset((s,)), member) for member in subset)
    )


def undefeated_external(
    fw: Framework, base: Iterable[Arg], candidate: Iterable[Arg]
) -> int:
    """How many of the base set's attackers the candidate coalition neither
    absorbs nor defeats."""
    base, candidate = frozenset(base), frozenset(candidate)
    return sum(
        1
        for s in attackers(fw, base)
        if s not in candidate and not c_defeats(fw, candidate, s)
    )


@dataclass(frozen=True)
class ProfitVerdict:
    holds: bool
    larger_set: bool
    better_state: bool
    fewer_attackers: bool
    attacker_counts: tuple

    def __str__(self) -> str:
        flag = lambda b: "yes" if b else "no"
        return (
            f"holds={flag(self.holds)} larger-set={flag(self.larger_set)} "
            f"better-state={flag(self.better_state)} "
            f"fewer-attackers={flag(self.fewer_attackers)} "
            f"undefeated-before={self.attacker_counts[0]} "
            f"undefeated-after={self.attacker_counts[1]}"
        )


def profitable(
    fw: Framework, first: Iterable[Arg], second: Iterable[Arg]
) -> ProfitVerdict:
    """Is growing from ``first`` to ``second`` profitable?  All three axioms
    must hold: containment, state, and no increase in the base set's
    undefeated external attackers."""
    first, second = frozenset(first), frozenset(second)
    larger = first <= second
    better = state_leq(fw, first, second)
    before = undefeated_external(fw, first, first)
    after = undefeated_external(fw, first, second)
    fewer = before >= after
    return ProfitVerdict(
        larger and better and fewer, larger, better, fewer, (before, after)
    )


@_memoised
def _profitable_holds(fw: Framework, first: frozenset, second: frozenset) -> bool:
    """``profitable(...).holds``, stopping at its first failing clause."""
    return (
        first <= second
        and state_leq(fw, first, second)
        and undefeated_external(fw, first, first)
        >= undefeated_external(fw, first, second)
    )


def _members(fw: Framework, subset: Iterable[Arg]) -> frozenset:
    """``subset`` as a frozenset; ValueError names any instance not in ``fw``."""
    subset = frozenset(subset)
    if not subset <= fw.arguments:
        raise ValueError(f"{_fmt(subset - fw.arguments)} not in the framework")
    return subset


@_memoised
def _max_sets(fw: Framework, subset: frozenset) -> tuple:
    """Callers check the size limit and ``_members`` first."""
    if not is_conflict_eliminable(fw, subset):
        raise NotConflictEliminable(_fmt(subset))
    family = _conflict_eliminable_sets(fw)
    reachable = [t for t in family if subset <= t and _profitable_holds(fw, subset, t)]
    return tuple(_maximal(reachable))


def max_sets(
    fw: Framework, subset: Iterable[Arg], limit: int = SIZE_LIMIT_DEFAULT
) -> list:
    """All profit-maximal supersets of the given conflict-eliminable set."""
    subset = _members(fw, subset)
    _check_limit(fw, limit)
    return list(_max_sets(fw, subset))


def pref_supersets(
    fw: Framework, subset: Iterable[Arg], limit: int = SIZE_LIMIT_DEFAULT
) -> list:
    """The maximal coalition-admissible sets containing the given set."""
    subset = frozenset(subset)
    return [s for s in enumerate_c_preferred(fw, limit) if subset <= s]


def _check_basis(fewer_basis: str) -> None:
    if fewer_basis not in FEWER_BASES:
        raise ValueError(f"unknown fewer basis {fewer_basis!r}")


def crit_leq(
    fw: Framework,
    beta: Criterion,
    first: Iterable[Arg],
    second: Iterable[Arg],
    fewer_basis: FewerBasis = "own",
    shared_base: frozenset = frozenset(),
) -> bool:
    """Is ``second`` at least as good as ``first`` by one criterion: ``l``
    (size), ``b`` (state rank), or ``f`` (undefeated attackers, fewer being
    better)?  For ``f`` each set is measured against its own attacker base by
    default; the ``shared`` basis measures both against ``shared_base``."""
    first, second = frozenset(first), frozenset(second)
    if beta not in ("l", "b", "f"):
        raise ValueError(f"unknown criterion {beta!r}")
    if beta == "f":
        _check_basis(fewer_basis)
    if beta == "l":
        return len(first) <= len(second)
    if not (is_conflict_eliminable(fw, first) and is_conflict_eliminable(fw, second)):
        raise NotConflictEliminable("criteria b/f compare conflict-eliminable sets")
    if beta == "b":
        return state_rank(fw, first) <= state_rank(fw, second)
    if fewer_basis == "own":
        return undefeated_external(fw, second, second) <= undefeated_external(
            fw, first, first
        )
    return undefeated_external(fw, shared_base, second) <= undefeated_external(
        fw, shared_base, first
    )


def crit_less(
    fw: Framework,
    beta: Criterion,
    first,
    second,
    fewer_basis: FewerBasis = "own",
    shared_base: frozenset = frozenset(),
) -> bool:
    return crit_leq(fw, beta, first, second, fewer_basis, shared_base) and not crit_leq(
        fw, beta, second, first, fewer_basis, shared_base
    )


def max_profitable(
    fw: Framework,
    first: Iterable[Arg],
    second: Iterable[Arg],
    fewer_basis: FewerBasis = "own",
    limit: int = SIZE_LIMIT_DEFAULT,
) -> bool:
    """Profitability refined by reachable maximal coalitions: some maximal
    coalition of ``second`` must, against every maximal coalition of
    ``first``, compensate each strict criterion loss with a strict win on
    another criterion."""
    _check_basis(fewer_basis)
    first, second = _members(fw, first), _members(fw, second)
    if not _profitable_holds(fw, first, second):
        return False
    _check_limit(fw, limit)
    firsts = _max_sets(fw, first)
    seconds = _max_sets(fw, second)

    def survives(sx: frozenset) -> bool:
        for sy in firsts:
            for beta in ("l", "b", "f"):
                if crit_less(fw, beta, sx, sy, fewer_basis, first):
                    others = [g for g in ("l", "b", "f") if g != beta]
                    if not any(
                        crit_less(fw, gamma, sy, sx, fewer_basis, first)
                        for gamma in others
                    ):
                        return False
        return True

    return any(survives(sx) for sx in seconds)


def _continuity(fw: Framework, subset: Iterable[Arg], limit: int):
    """``_continuous_via`` for each profit-maximal superset of ``subset``."""
    subset = _members(fw, subset)
    if not is_conflict_eliminable(fw, subset):
        raise NotConflictEliminable(_fmt(subset))
    _check_limit(fw, limit)
    return (_continuous_via(fw, subset, sz) for sz in _max_sets(fw, subset))


def is_weakly_continuous(
    fw: Framework, subset: Iterable[Arg], limit: int = SIZE_LIMIT_DEFAULT
) -> bool:
    """Some profit-maximal superset can be grown towards through permitted
    intermediate coalitions that are each profitable."""
    return any(_continuity(fw, subset, limit))


def is_continuous(
    fw: Framework, subset: Iterable[Arg], limit: int = SIZE_LIMIT_DEFAULT
) -> bool:
    """Every profit-maximal superset can be grown towards as above."""
    return all(_continuity(fw, subset, limit))


def _continuous_via(fw: Framework, subset: frozenset, sz: frozenset) -> bool:
    return all(
        _profitable_holds(fw, subset, sw)
        for sw in _conflict_eliminable_sets(fw)
        if subset <= sw <= sz
    )


@dataclass(frozen=True)
class FormabilityResult:
    kind: str
    base: frozenset
    partners: tuple


def formability(
    fw: Framework,
    kind: FormabilityKind,
    subset: Iterable[Arg],
    fewer_basis: FewerBasis = "own",
    limit: int = SIZE_LIMIT_DEFAULT,
) -> FormabilityResult:
    """Partner sets the coalition may form under one of the four semantics:
    one-sided profit (W), mutual profit (M), one-sided maximal profit (WS),
    and mutual maximal profit (S)."""
    if kind not in FORMABILITY_KINDS:
        raise ValueError(f"unknown formability kind {kind!r}")
    _check_basis(fewer_basis)
    subset = _members(fw, subset)
    if not is_conflict_eliminable(fw, subset):
        raise NotConflictEliminable(_fmt(subset))
    _check_limit(fw, limit)

    if kind in ("W", "M"):
        relation = lambda a, b: _profitable_holds(fw, a, b)
    else:
        relation = lambda a, b: max_profitable(fw, a, b, fewer_basis, limit)
    combine = any if kind in ("W", "WS") else all

    # every conflict-eliminable proper superset is a permitted union; the
    # partners come out in ``_subsets`` order, as the unions do, since two
    # unions over one base differ exactly where their partners differ
    partners = []
    for union in _conflict_eliminable_sets(fw):
        candidate = union - subset
        if subset < union and combine(
            (relation(subset, union), relation(candidate, union))
        ):
            partners.append(candidate)
    return FormabilityResult(kind, subset, tuple(partners))
