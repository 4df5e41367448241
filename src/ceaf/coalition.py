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

from dataclasses import dataclass
from typing import Iterable, Literal

from . import FEWER_BASES, FORMABILITY_KINDS
from .core import Arg, Framework, NotConflictEliminable, SIZE_LIMIT_DEFAULT
from .core import _bits, _check_limit, _fmt, _masks, _maximal_masks, _memoised
from .semantics import _family, _rank, attacks, c_defeats
from .semantics import enumerate_c_preferred, is_conflict_eliminable
from .semantics import StateRank, is_one_directionally_attacked, state_rank  # re-exported

Criterion = Literal["l", "b", "f"]
FewerBasis = Literal["own", "shared"]
FormabilityKind = Literal["W", "M", "WS", "S"]


class _Growth:
    """A framework's coalition records, keyed by mask and filled on first
    use: the attacker mask, the base arguments whose c-defeat is known with
    those c-defeated, and the profit-maximal supersets, which walk the
    family: callers check the size limit first.  State ranks are read from
    the mask context's table (``semantics._rank``).  Like ``_Masks`` it holds
    no framework, whose memo holds it; the methods take one."""

    def __init__(self, masks):
        self.masks, self.att, self.beat, self.maxes = masks, {}, {}, {}

    def attacker_mask(self, fw: Framework, m: int) -> int:
        """The union of the members' ``attackers``, each asked once."""
        a = self.att.get(m)
        if a is None:
            a = 0
            for b in _bits(m):
                if b not in self.att:
                    self.att[b] = self.masks.mask(attackers(fw, self.masks.members(b)))
                a |= self.att[b]
            self.att[m] = a
        return a

    def undefeated(self, fw: Framework, base: int, cand: int) -> int:
        """``undefeated_external``, asking ``c_defeats`` about each pair once."""
        need = self.attacker_mask(fw, base) & ~cand
        known, beat = self.beat.get(cand, (0, 0))
        if need & ~known:
            s, args = self.masks.members(cand), self.masks.args
            for b in _bits(need & ~known):
                if c_defeats(fw, s, args[b.bit_length() - 1]):
                    beat |= b
            self.beat[cand] = known | need, beat
        return (need & ~beat).bit_count()

    def holds(self, fw: Framework, first: int, second: int) -> bool:
        """``profitable(...).holds``, stopping at its first failing clause."""
        return (
            not first & ~second
            and 0 <= _rank(self.masks, first) <= _rank(self.masks, second)
            and self.undefeated(fw, first, first) >= self.undefeated(fw, first, second)
        )

    def score(self, fw: Framework, m: int, base: int) -> tuple:
        """Size, state rank and minus the attackers of ``base`` left undefeated."""
        return m.bit_count(), _rank(self.masks, m), -self.undefeated(fw, base, m)

    def max_sets(self, fw: Framework, m: int) -> list:
        """The profit-maximal supersets of ``m``, in family order."""
        got = self.maxes.get(m)
        if got is None:
            reach = [t for t in _family(fw) if not m & ~t and self.holds(fw, m, t)]
            got = self.maxes[m] = _maximal_masks(reach)
        return got

    def survives(self, fw: Framework, first: int, second: int, shared: bool) -> bool:
        """``max_profitable`` past its profitability clause."""
        score = lambda x: self.score(fw, x, first if shared else x)
        ys = [score(y) for y in self.max_sets(fw, first)]
        return any(
            all(any(y[j] < x[j] for j in range(3) if j != i)
                for y in ys for i in range(3) if x[i] < y[i])
            for x in map(score, self.max_sets(fw, second))
        )


@_memoised
def _growth(fw: Framework) -> _Growth:
    return _Growth(_masks(fw))


def _on_masks(fw: Framework, *sets) -> tuple:
    """``fw``'s coalition records, then each of ``sets`` as a mask."""
    return (g := _growth(fw), *map(g.masks.mask, sets))


def state_leq(fw: Framework, first: Iterable[Arg], second: Iterable[Arg]) -> bool:
    """Is the second set in at least as good a state as the first?  False
    unless both sets are conflict-eliminable."""
    g, f, s = _on_masks(fw, first, second)
    return 0 <= _rank(g.masks, f) <= _rank(g.masks, s)


def coalition_permitted(
    fw: Framework, first: Iterable[Arg], second: Iterable[Arg]
) -> bool:
    """Disjoint sets whose union is conflict-eliminable may form a coalition."""
    first, second = frozenset(first), frozenset(second)
    return not (first & second) and is_conflict_eliminable(fw, first | second)


def attackers(fw: Framework, subset: Iterable[Arg]) -> frozenset:
    """The framework members whose singletons attack some member of the set."""
    subset = frozenset(subset)
    return frozenset(s for s in fw.arguments if any(attacks(fw, (s,), t) for t in subset))


def undefeated_external(
    fw: Framework, base: Iterable[Arg], candidate: Iterable[Arg]
) -> int:
    """How many of the base set's attackers the candidate coalition neither
    absorbs nor defeats."""
    g, b, c = _on_masks(fw, base, candidate)
    return g.undefeated(fw, b, c)


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
    g, f, s = _on_masks(fw, first, second)
    larger, better = not f & ~s, 0 <= _rank(g.masks, f) <= _rank(g.masks, s)
    before, after = g.undefeated(fw, f, f), g.undefeated(fw, f, s)
    fewer = before >= after
    holds = larger and better and fewer
    return ProfitVerdict(holds, larger, better, fewer, (before, after))


def _members(fw: Framework, subset: Iterable[Arg], ce: bool = False) -> frozenset:
    """``subset`` as a frozenset; ValueError names any instance not in ``fw``,
    and with ``ce`` NotConflictEliminable a set off the family."""
    subset = frozenset(subset)
    if not subset <= fw.arguments:
        raise ValueError(f"{_fmt(subset - fw.arguments)} not in the framework")
    if ce and not is_conflict_eliminable(fw, subset):
        raise NotConflictEliminable(_fmt(subset))
    return subset


def max_sets(
    fw: Framework, subset: Iterable[Arg], limit: int = SIZE_LIMIT_DEFAULT
) -> list:
    """All profit-maximal supersets of the given conflict-eliminable set."""
    subset = _members(fw, subset)
    _check_limit(fw, limit)  # before the state check, unlike the queries below
    g, m = _on_masks(fw, _members(fw, subset, ce=True))
    return list(map(_family(fw).get, g.max_sets(fw, m)))


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
    if beta not in ("l", "b", "f"):
        raise ValueError(f"unknown criterion {beta!r}")
    if beta == "f":
        _check_basis(fewer_basis)
    g, f, s, shared = _on_masks(fw, first, second, shared_base)
    if beta != "l" and min(_rank(g.masks, f), _rank(g.masks, s)) < 0:
        raise NotConflictEliminable("criteria b/f compare conflict-eliminable sets")
    score = lambda x: g.score(fw, x, x if fewer_basis == "own" else shared)
    return score(f)["lbf".index(beta)] <= score(s)["lbf".index(beta)]


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
    g, f, s = _on_masks(fw, _members(fw, first), _members(fw, second))
    if not g.holds(fw, f, s):
        return False
    _check_limit(fw, limit)
    return g.survives(fw, f, s, fewer_basis == "shared")


def _continuity(fw: Framework, subset: Iterable[Arg], limit: int):
    """For each profit-maximal superset of ``subset``, whether every family
    set between the two is profitable from ``subset``."""
    subset = _members(fw, subset, ce=True)
    _check_limit(fw, limit)
    g, m = _on_masks(fw, subset)
    return (
        all(g.holds(fw, m, w) for w in _family(fw) if not m & ~w and not w & ~z)
        for z in g.max_sets(fw, m)
    )


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
    subset = _members(fw, subset, ce=True)
    _check_limit(fw, limit)
    g, m = _on_masks(fw, subset)
    maximal, shared = kind in ("WS", "S"), fewer_basis == "shared"
    combine = any if kind in ("W", "WS") else all
    # every conflict-eliminable proper superset is a permitted union; the
    # partners come out in ``_subsets`` order, as the unions do, since two
    # unions over one base differ exactly where their partners differ
    return FormabilityResult(kind, subset, tuple(
        union - subset
        for u, union in _family(fw).items()
        if not m & ~u and u != m and combine(
            g.holds(fw, a, u) and (not maximal or g.survives(fw, a, u, shared))
            for a in (m, u & ~m)
        )
    ))
