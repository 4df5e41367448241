"""Attack semantics: defeats, conflict-eliminable sets, intrinsic arguments,
coalition views, and the coalition-level admissibility notions built on them.

A set of arguments tolerates partial internal attacks as long as no member is
outright defeated (attacked with strength reaching its capacity).  Such a
conflict-eliminable set acts through its intrinsic arguments: the same
identifiers with capacities reduced by the strongest internal attack on each
member.  The coalition's view keeps external arguments at full capacity,
replaces the coalition by its intrinsic arguments, and drops the attacks that
were purely internal.  Attacks from the coalition are launched by subsets of
the intrinsic arguments inside the view; attacks on the coalition still target
the original, full-capacity members.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import Arg, Framework, NotConflictEliminable, SIZE_LIMIT_DEFAULT, StrengthModel
from .core import _Masks, _bits, _check_limit, _fmt, _grow, _masks, _maximal_masks, _memoised


def max_attack_strength(fw: Framework, attackers: Iterable[Arg], target: Arg) -> int:
    """The maximum defined strength over subsets of ``attackers`` against
    ``target``; 0 when no subset attacks."""
    masks = _masks(fw)
    return masks.best(masks.target(target), masks.mask(attackers))


def attacks(fw: Framework, attackers: Iterable[Arg], target: Arg) -> bool:
    """Does some nonempty subset of ``attackers`` carry a defined strength
    against ``target``?  Every strength is at least 1."""
    return max_attack_strength(fw, attackers, target) > 0


def defeats(fw: Framework, attackers: Iterable[Arg], target: Arg) -> bool:
    """An attack defeats its target when its strength reaches the target's
    capacity."""
    return 0 < max_attack_strength(fw, attackers, target) >= target.capacity


def is_conflict_eliminable(fw: Framework, subset: Iterable[Arg]) -> bool:
    """No member of the set is defeated by the set itself."""
    masks = _masks(fw)
    return masks.eliminable(masks.mask(subset))


def intrinsic(fw: Framework, subset: Iterable[Arg]) -> frozenset:
    """The intrinsic arguments of a conflict-eliminable set: each member's
    capacity reduced by the strongest internal attack on it."""
    masks = _masks(fw)
    m = masks.mask(subset)
    if not masks.eliminable(m):
        raise NotConflictEliminable(_fmt(masks.members(m)))
    return masks.members(masks.intrinsic(m))


@dataclass(frozen=True)
class View:
    """The framework as a coalition sees it."""

    strengths: StrengthModel  # not the framework, whose memo holds this view
    base: frozenset  # the coalition's original members
    alpha: frozenset  # its intrinsic arguments
    arguments: frozenset  # (S \ base) | alpha
    diagnostics: tuple = ()

    def strength(self, attackers: Iterable[Arg], target: Arg) -> Optional[int]:
        """Strength lookup with the purely internal attacks removed."""
        attackers = frozenset(attackers)
        if target in self.base and attackers <= self.base:
            return None
        return self.strengths.strength(attackers, target)


@_memoised
def view(fw: Framework, subset: Iterable[Arg]) -> View:
    """The view a conflict-eliminable coalition has of the framework."""
    alpha = intrinsic(fw, subset)
    # Residual attacks from weakened intrinsic arguments back onto original
    # members survive the deletion of purely internal attacks; surface them.
    masks, diagnostics = _masks(fw), []
    pool, base = masks.mask(alpha), masks.mask(subset)
    for target in sorted(subset):
        found = masks.minimal(masks.target(target), pool, base)
        if found:
            cand = min(map(masks.members, found), key=lambda s: (len(s), sorted(s)))
            diagnostics.append(
                f"residual attack from intrinsic arguments {_fmt(cand)} "
                f"onto coalition member {target}"
            )
    return View(fw.strengths, subset, alpha, fw.arguments - subset | alpha, tuple(diagnostics))


def _view_strongest(masks: _Masks, m: int, b: int) -> int:
    """The largest strength a subset of the intrinsic arguments of ``m`` has
    on the instance of bit ``b`` in the coalition's view, ``View.strength``'s
    rule as a mask test (on a member, subsets inside ``m`` do not count); 0
    when ``m`` is not conflict-eliminable."""
    rec, drop = masks.record(b.bit_length() - 1), m if m & b else 0
    return masks.best(rec, masks.intrinsic(m), drop) if masks.eliminable(m) else 0


def c_attacks(fw: Framework, subset: Iterable[Arg], target: Arg) -> bool:
    """Does some subset of the coalition's intrinsic arguments carry a defined
    strength against ``target`` inside the coalition's view?  False when the
    coalition is not conflict-eliminable."""
    masks = _masks(fw)
    return _view_strongest(masks, masks.mask(subset), masks.bit(target)) > 0


def c_defeats(fw: Framework, subset: Iterable[Arg], target: Arg) -> bool:
    """As ``c_attacks`` but requiring view strength at least the target's
    capacity."""
    masks = _masks(fw)
    return 0 < _view_strongest(masks, masks.mask(subset), masks.bit(target)) >= target.capacity


class StateRank(enum.IntEnum):
    """Quality of a conflict-eliminable set, best first."""

    ONE_DIRECTIONAL = 0
    MIDDLE = 1
    CADMISSIBLE = 2


def _rank(masks: _Masks, m: int) -> int:
    """The state rank of ``m`` (``_walk``), -1 off the family, memoised in ``masks.ranks``."""
    rank = masks.ranks.get(m)
    if rank is None:
        rank = masks.ranks[m] = _walk(masks, m) if masks.eliminable(m) else -1
    return rank


def _walk(masks: _Masks, m: int) -> StateRank:
    """One walk over the minimal attacking sets on the members of ``m`` in its
    view: the first set with no element the coalition c-attacks makes it
    one-directionally attacked (a c-defeat is a c-attack), else one with no
    c-defeated element the middle state, else it is coalition-admissible."""
    pool, rank = masks.base & ~m | masks.intrinsic(m), StateRank.CADMISSIBLE
    for b in _bits(m):
        for att in masks.minimal(masks.record(b.bit_length() - 1), pool, m):
            got = [(_view_strongest(masks, m, x), masks.args[x.bit_length() - 1].capacity)
                   for x in _bits(att)]
            if not any(v > 0 for v, _ in got):
                return StateRank.ONE_DIRECTIONAL
            if not any(0 < v >= c for v, c in got):
                rank = StateRank.MIDDLE
    return rank


def state_rank(fw: Framework, subset: Iterable[Arg]) -> StateRank:
    """The state of a conflict-eliminable coalition (see ``_walk``)."""
    masks = _masks(fw)
    m = masks.mask(subset)
    if (rank := _rank(masks, m)) < 0:
        raise NotConflictEliminable(_fmt(masks.members(m)))
    return rank


def is_one_directionally_attacked(fw: Framework, subset: Iterable[Arg]) -> bool:
    """Something in the coalition's view attacks a member, and the coalition
    cannot counter-attack any element of that attacking set."""
    return state_rank(fw, subset) == StateRank.ONE_DIRECTIONAL


def is_c_admissible(fw: Framework, subset: Iterable[Arg]) -> bool:
    """The coalition defends every original member: each attacking set in its
    view contains an element the coalition defeats from its intrinsic
    arguments.  False when the set is not conflict-eliminable."""
    masks = _masks(fw)
    return _rank(masks, masks.mask(subset)) == StateRank.CADMISSIBLE


@_memoised
def _family(fw: Framework) -> dict:
    """Every conflict-eliminable subset of the framework's arguments by its
    mask, in ``_subsets`` order, grown by ``_grow``: for T ⊆ S the strongest
    attack on a member of T from a subset of T is at most that from a subset
    of S, so the family is downward closed.  Callers check the size limit."""
    masks = _masks(fw)  # the sorted arguments hold the low bits, as in ``_subsets``
    probe = lambda m: masks.conflict_eliminable(m, 1 << m.bit_length() - 1)
    found = _grow(len(fw.arguments), probe)
    masks.ce.update(dict.fromkeys(found, True))
    return dict(zip(found, map(masks.members, found)))


def _conflict_eliminable_sets(fw: Framework) -> tuple:
    """The sets of ``_family``, in its order."""
    return tuple(_family(fw).values())


def enumerate_conflict_eliminable(fw: Framework, limit: int = SIZE_LIMIT_DEFAULT) -> list:
    _check_limit(fw, limit)
    return list(_conflict_eliminable_sets(fw))


def enumerate_c_admissible(fw: Framework, limit: int = SIZE_LIMIT_DEFAULT) -> list:
    _check_limit(fw, limit)
    masks = _masks(fw)
    return [s for m, s in _family(fw).items() if _rank(masks, m) == StateRank.CADMISSIBLE]


@_memoised
def _c_preferred(fw: Framework) -> tuple:
    """The subset-maximal c-admissible sets, in ``_subsets`` order; check the limit."""
    family, masks = _family(fw), _masks(fw)
    admissible = [m for m in family if _rank(masks, m) == StateRank.CADMISSIBLE]
    return tuple(map(family.get, _maximal_masks(admissible)))


def enumerate_c_preferred(fw: Framework, limit: int = SIZE_LIMIT_DEFAULT) -> list:
    """Subset-maximal coalition-admissible sets, by exhaustive enumeration,
    in ``_subsets`` order."""
    _check_limit(fw, limit)
    return list(_c_preferred(fw))
