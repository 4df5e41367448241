"""Core data model: capacitated arguments, coherent sets, and group attack strengths.

An argument instance is an identifier together with a natural-number capacity
(how much independent content the argument carries).  A framework couples a
coherent set of instances with a partial strength table assigning a positive
strength to group attacks.  The table is finite; queries outside it may be
derived by an aggregation policy (``max``/``sum`` over singleton attacks) and,
under the ``persist`` variant policy, by falling back to the nearest listed
entry at higher capacities.  ``validate_axioms`` checks the eight structural
axioms of the attack-strength function over the finite instantiated domain.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Literal, Mapping, Optional

from . import SIZE_LIMIT_DEFAULT

Aggregator = Literal["max", "sum", "explicit-only"]
VariantPolicy = Literal["strict", "persist"]


class SizeLimitExceeded(Exception):
    """Raised when an exhaustive enumeration would exceed the configured bound."""


def _check_limit(fw, limit: int = SIZE_LIMIT_DEFAULT) -> None:
    if len(fw.arguments) > limit:
        raise SizeLimitExceeded(
            f"framework has {len(fw.arguments)} arguments (> {limit})"
        )


class NotConflictEliminable(Exception):
    """Raised when an operation requires a conflict-eliminable base set."""


@dataclass(frozen=True, order=True)
class Arg:
    """An argument instance: identifier plus capacity."""

    id: str
    capacity: int

    def with_capacity(self, capacity: int) -> "Arg":
        """The same identifier at a different capacity."""
        if capacity == self.capacity:
            return self
        return Arg(self.id, capacity)

    def __str__(self) -> str:
        return f"{self.id}({self.capacity})"


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple
    message: str

    def __str__(self) -> str:
        return f"[{self.axiom}] {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


def validate_coherent(members: Iterable[Arg]) -> ValidationReport:
    """Check the three coherence conditions on a set of argument instances.

    Finite, all capacities positive, and no identifier used twice.
    Violations are reported with the offending instance as witness.
    """
    members = list(members)
    violations = []
    seen: dict[str, Arg] = {}
    for a in sorted(members):
        if a.capacity <= 0:
            violations.append(
                Violation("capacity > 0", (a,), f"{a} has non-positive capacity")
            )
        if a.id in seen:
            violations.append(
                Violation(
                    "duplicate identifier",
                    (seen[a.id], a),
                    f"identifier {a.id!r} used by both {seen[a.id]} and {a}",
                )
            )
        else:
            seen[a.id] = a
    return ValidationReport(tuple(violations))


def _ids_unique(instances: Iterable[Arg]) -> bool:
    ids = [a.id for a in instances]
    return len(ids) == len(set(ids))


@dataclass(frozen=True)
class StrengthModel:
    """A finite table of group-attack strengths plus derivation policy.

    ``entries`` maps (attacker set, target) to a strength >= 1.  Resolution
    order for a query: exact listed entry; persist fallback (the minimum
    strength over listed entries with the same identifier signature, the same
    target instance, and attacker capacities at least the query's); aggregator
    fold over the query's singletons.  Under ``explicit-only`` nothing is
    derived.  Queries with an empty attacker set, or with the target among the
    attackers, are undefined.
    """

    entries_items: tuple = ()
    aggregator: Aggregator = "max"
    variant_policy: VariantPolicy = "strict"

    def __post_init__(self):
        lookup = {}
        for (attackers, target), strength in self.entries_items:
            if strength < 1:
                raise ValueError(
                    f"strength {strength} < 1 for attack {_fmt(attackers)} on {target}"
                )
            lookup[(frozenset(attackers), target)] = strength
        # Indexes over ``lookup``: each target's listed attacker keys in
        # ``lookup`` order, the id-unique keys by (target, id signature), and
        # each target's singleton-attacker ids.
        by_target, by_signature = defaultdict(list), defaultdict(list)
        singleton_ids = defaultdict(set)
        for (attackers, target), strength in lookup.items():
            by_target[target].append(attackers)
            capacities = {a.id: a.capacity for a in attackers}
            if len(capacities) == len(attackers):
                by_signature[(target, frozenset(capacities))].append(
                    (capacities, strength)
                )
            if len(attackers) == 1:
                singleton_ids[target].update(capacities)
        object.__setattr__(self, "_lookup", lookup)
        object.__setattr__(self, "_by_target", dict(by_target))
        object.__setattr__(self, "_by_signature", dict(by_signature))
        object.__setattr__(self, "_singleton_ids", dict(singleton_ids))

    @staticmethod
    def from_entries(
        entries: Mapping,
        aggregator: Aggregator = "max",
        variant_policy: VariantPolicy = "strict",
    ) -> "StrengthModel":
        items = tuple(
            sorted(
                (((frozenset(k[0]), k[1]), v) for k, v in entries.items()),
                key=lambda kv: (sorted(kv[0][0]), kv[0][1], kv[1]),
            )
        )
        return StrengthModel(items, aggregator, variant_policy)

    def instances(self) -> frozenset:
        """Every argument instance mentioned in the table."""
        out = set()
        for (attackers, target) in self._lookup:
            out.update(attackers)
            out.add(target)
        return frozenset(out)

    def strength(self, attackers: Iterable[Arg], target: Arg) -> Optional[int]:
        attackers = frozenset(attackers)
        if not attackers or target in attackers:
            return None
        exact = self._lookup.get((attackers, target))
        if exact is not None:
            return exact
        if self.aggregator == "explicit-only":
            return None
        if self.variant_policy == "persist":
            fallback = self._persist_default(attackers, target)
            if fallback is not None:
                return fallback
        if len(attackers) == 1:
            return None
        values = []
        for x in attackers:
            v = self.strength(frozenset((x,)), target)
            if v is None:
                return None
            values.append(v)
        return max(values) if self.aggregator == "max" else sum(values)

    def _persist_default(self, attackers: frozenset, target: Arg) -> Optional[int]:
        # A zero-capacity attacker carries no content and never attacks.
        if any(a.capacity == 0 for a in attackers):
            return None
        want = {a.id: a.capacity for a in attackers}
        if len(want) != len(attackers):
            return None
        best = None
        for got, v in self._by_signature.get((target, frozenset(want)), ()):
            if all(got[i] >= want[i] for i in want):
                best = v if best is None else min(best, v)
        return best


@dataclass(frozen=True)
class Framework:
    """A coherent set of arguments together with a strength model; it owns
    the memo tables (see ``_memoised``) of the queries asked of it."""

    arguments: frozenset
    strengths: StrengthModel

    def __post_init__(self):
        object.__setattr__(self, "_memo", defaultdict(dict))

    @staticmethod
    def build(
        arguments: Iterable[Arg],
        entries: Mapping,
        aggregator: Aggregator = "max",
        variant_policy: VariantPolicy = "strict",
    ) -> "Framework":
        return Framework(
            frozenset(arguments),
            StrengthModel.from_entries(entries, aggregator, variant_policy),
        )

    def by_id(self, name: str) -> Arg:
        for a in self.arguments:
            if a.id == name:
                return a
        raise KeyError(name)


def _subsets(items, include_empty=False):
    items = sorted(items)
    start = 0 if include_empty else 1
    for r in range(start, len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


def _grow(n: int, ok) -> list:
    """Every mask over ``n`` bits the downward-closed ``ok`` accepts, in
    ``_subsets`` order: sets grow one size at a time, each by a bit above its
    highest, so every level stays in lexicographic index order."""
    found, level = [0], [0]
    while level:
        level = [s | 1 << i for s in level for i in range(s.bit_length(), n) if ok(s | 1 << i)]
        found += level
    return found


def _bits(mask: int):
    """The set bits of ``mask``, lowest first, each as a one-bit mask."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _maximal_masks(family: list) -> list:
    """The masks of ``family``, distinct and in ``_subsets`` order, inside no
    other, in that order: walked largest first, each kept unless inside a kept one."""
    kept = []
    for m in reversed(family):
        if all(m & ~k for k in kept):
            kept.append(m)
    return kept[::-1]


def _id_unique_subsets(instances, include_empty=False):
    """Subsets of a (possibly multi-capacity) instance pool with unique ids, in
    mixed-radix order: each id absent or one of its variants in sorted order,
    the first id the fastest digit."""
    by_id = defaultdict(list)
    for a in sorted(instances):
        by_id[a.id].append(a)
    choices = [[None, *variants] for variants in reversed(by_id.values())]
    for combo in itertools.product(*choices):
        s = frozenset(a for a in combo if a is not None)
        if s or include_empty:
            yield s


def _definable(model: StrengthModel, pool, target: Arg) -> list:
    """The id-unique subsets of ``pool`` that can have a defined strength on
    ``target``, in ``_id_unique_subsets(pool)`` order.  ``strength`` defines a
    nonempty ``s`` only if (a) ``(s, target)`` is listed, (b) under persist,
    ``s`` lowers the capacities of a listed id-unique key on ``target``, or (c)
    under ``max``/``sum``, ``s`` has two or more members that resolve alone."""
    pool, by_id = frozenset(pool), defaultdict(list)
    for a in sorted(pool):
        by_id[a.id].append(a)
    weight, place = {}, 1  # mixed radix, the first id the fastest digit
    for variants in by_id.values():
        weight.update((a, d * place) for d, a in enumerate(variants, 1))
        place *= len(variants) + 1
    derives = model.aggregator != "explicit-only"
    found = set()
    for key in model._by_target.get(target, ()):
        caps = {a.id: a.capacity for a in key}
        if not key or len(caps) != len(key):
            continue
        if key <= pool:
            found.add(key)
        if derives and model.variant_policy == "persist":
            lower = ([a for a in by_id[i] if a.capacity <= k] for i, k in caps.items())
            found.update(map(frozenset, itertools.product(*lower)))
    if derives:
        ids = model._singleton_ids.get(target, ())
        core = [a for a in pool if a.id in ids]
        core = [a for a in core if model.strength({a}, target) is not None]
        found.update(s for s in _id_unique_subsets(core) if len(s) > 1)
    return sorted(found, key=lambda s: sum(weight[a] for a in s))


def _resolved(model: StrengthModel, domain: list) -> dict:
    """Every defined strength over ``domain``: targets in ``domain`` order,
    attacker sets in ``_id_unique_subsets(domain)`` order."""
    pairs = ((s, t) for t in domain for s in _definable(model, domain, t))
    return {k: v for k in pairs if (v := model.strength(*k)) is not None}


_MISSING = object()


def _memoised(fn):
    """Memoise ``fn(fw, *sets)`` in ``fw``'s own table for ``fn``, keyed by
    frozensets.  A hit on such a key is one lookup; any other key (a list, a
    set, a generator) is canonicalised on the miss, and ``fn`` receives the
    frozensets.  A call that raises stores nothing."""

    @functools.wraps(fn)
    def memo(fw: Framework, *key):
        table = fw._memo[fn]
        try:
            value = table.get(key, _MISSING)
        except TypeError:  # an unhashable list or set
            value = _MISSING
        if value is _MISSING:
            key = tuple(map(frozenset, key))
            value = table.get(key, _MISSING)
            if value is _MISSING:
                value = table[key] = fn(fw, *key)
        return value

    return memo


class _Target:
    """One target's tables in a ``_Masks`` context."""

    __slots__ = ("target", "resolving", "single", "keys", "projections", "values")


class _Masks:
    """A framework's instances interned as bits, so that a set of them is an
    ``int``: the sorted base arguments take the first bits, and every other
    instance the next free bit when first met.  Per target it keeps the mask
    of the instances that resolve alone and their strengths, the masks of the
    listed keys, the identifier tuples of the persist projections, and
    ``StrengthModel.strength`` memoised by attacker mask; per coalition mask,
    ``ce``, ``alpha`` and ``ranks`` (filled by ``semantics``).  It holds the
    model, not the framework, whose memo holds it."""

    def __init__(self, model: StrengthModel, arguments):
        self.model, self.args, self.records = model, [], []
        self.bits, self.id_masks, self.ce, self.alpha, self.ranks = {}, {}, {}, {}, {}
        for a in sorted(arguments):
            self.bit(a)
        self.base = (1 << len(self.args)) - 1

    def bit(self, a: Arg) -> int:
        b = self.bits.get(a)
        if b is None:
            b = self.bits[a] = 1 << len(self.args)
            self.args.append(a)
            self.records.append(None)
            self.id_masks[a.id] = self.id_masks.get(a.id, 0) | b
            for rec in self.records:
                if rec is not None:
                    self._note(rec, a, b)
        return b

    def mask(self, instances) -> int:
        m, bits = 0, self.bits
        for a in instances:
            m |= bits.get(a) or self.bit(a)
        return m

    def members(self, mask: int) -> frozenset:
        return frozenset([self.args[b.bit_length() - 1] for b in _bits(mask)])

    def target(self, t: Arg) -> _Target:
        return self.record(self.bit(t).bit_length() - 1)

    def record(self, i: int) -> _Target:
        rec = self.records[i]
        if rec is None:
            rec = _Target()
            rec.target, rec.resolving, rec.single, rec.values = self.args[i], 0, {}, {}
            listed = [k for k in self.model._by_target.get(rec.target, ()) if k]
            rec.keys = [self.mask(k) for k in listed]
            persist = self.model.variant_policy == "persist"
            ids = [tuple({a.id for a in k}) for k in listed if persist]
            rec.projections = [s for s, k in zip(ids, listed) if len(s) == len(k)]
            self.records[i] = rec
            for a, b in self.bits.items():
                self._note(rec, a, b)
        return rec

    def _note(self, rec: _Target, a: Arg, b: int) -> None:
        if a.id in self.model._singleton_ids.get(rec.target, ()):
            v = self.strength(rec, b)
            if v is not None:
                rec.resolving |= b
                rec.single[b] = v

    def strength(self, rec: _Target, mask: int) -> Optional[int]:
        v = rec.values.get(mask, _MISSING)
        if v is _MISSING:
            v = rec.values[mask] = self.model.strength(self.members(mask), rec.target)
        return v

    def best(self, rec: _Target, attackers: int, drop: int = 0) -> int:
        """The largest strength of a subset of ``attackers`` on ``rec``'s
        target, 0 when none has one; subsets inside ``drop`` do not count.
        The candidates are the singleton-resolving core, its singletons, the
        listed keys inside ``attackers`` and the persist projections onto it.
        Any other subset with a strength is a fold over part of the core,
        under ``max`` never above a singleton.  Under ``sum`` a fold grows
        with its set, so the one-smaller subsets are tried, once each, only
        below a mask whose fold is above ``best``, which holds the mask's own
        strength: a listed or persist-defined mask below its fold."""
        best, keep, core = 0, ~drop, attackers & rec.resolving
        if core & keep:
            best = max(v for b, v in rec.single.items() if b & core & keep)
            best = max(best, self.strength(rec, core) or 0)
        for k in rec.keys:
            if not k & ~attackers and k & keep:
                best = max(best, self.strength(rec, k) or 0)
        for m in self._projected(rec, attackers) if rec.projections else ():
            if m & keep:
                best = max(best, self.strength(rec, m) or 0)
        if core & (core - 1) and core & keep and self.model.aggregator == "sum":
            todo, seen = [core], {core}
            while todo:
                m = todo.pop()
                if sum([v for b, v in rec.single.items() if b & m]) > best:
                    for b in rec.single:
                        if b & m and (sub := m & ~b) & keep and sub not in seen:
                            seen.add(sub)
                            best = max(best, self.strength(rec, sub) or 0)
                            todo.append(sub)
        return best

    def _projected(self, rec: _Target, pool: int) -> list:
        """``rec``'s persist projections onto ``pool``: each listed key whose
        identifiers are distinct and all in ``pool``, mapped to one instance
        per identifier in every combination.  Every persist-defined subset of
        ``pool`` is one of them; a pool with one instance per identifier has
        one per key, the union of its parts."""
        id_masks, out = self.id_masks, []
        for ids in rec.projections:
            m = 0
            for i in ids:
                if not (part := pool & id_masks[i]):
                    break
                m |= part
            else:
                if m.bit_count() == len(ids):
                    out.append(m)
                else:  # some identifier has two instances in ``pool``
                    ms = [0]
                    for i in ids:
                        ms = [x | b for x in ms for b in _bits(pool & id_masks[i])]
                    out += ms
        return out

    def minimal(self, rec: _Target, pool: int, drop: int = 0) -> list:
        """The minimal subsets of ``pool`` with a strength on ``rec``'s
        target, smallest first; subsets inside ``drop`` do not count.  Every
        larger attacking set contains one.  A set only the fold defines
        contains a resolving singleton, so ``best``'s candidates suffice."""
        cands = [b for b in rec.single if b & pool & ~drop]
        cands += [k for k in rec.keys if not k & ~pool]
        cands += self._projected(rec, pool)
        kept = []
        for c in sorted(cands, key=int.bit_count):
            if c & ~drop and all(k & ~c for k in kept):
                if self.strength(rec, c) is not None:
                    kept.append(c)
        return kept

    def conflict_eliminable(self, mask: int) -> bool:
        """No instance of ``mask`` is defeated by ``mask``."""
        return not any(
            self.best(self.records[i] or self.record(i), mask) >= self.args[i].capacity
            for i in range(mask.bit_length())
            if mask >> i & 1
        )

    def eliminable(self, mask: int) -> bool:
        """``conflict_eliminable``, memoised in ``ce``."""
        if (ce := self.ce.get(mask)) is None:
            ce = self.ce[mask] = self.conflict_eliminable(mask)
        return ce

    def intrinsic(self, mask: int) -> int:
        """The intrinsic arguments of the conflict-eliminable ``mask``, each
        member less the strongest attack on it from ``mask``, memoised in ``alpha``."""
        if (alpha := self.alpha.get(mask)) is None:
            alpha = self.alpha[mask] = self.mask([
                a.with_capacity(a.capacity - self.best(self.record(i), mask))
                for i, a in enumerate(self.args[: mask.bit_length()]) if mask >> i & 1
            ])
        return alpha


@_memoised
def _masks(fw: Framework) -> _Masks:
    return _Masks(fw.strengths, fw.arguments)


@_memoised
def instantiated_closure(fw: Framework) -> frozenset:
    """All instances the semantics can touch: base arguments, every instance
    mentioned in the strength table, and every reduced-capacity instance that
    arises as an intrinsic argument of some conflict-eliminable subset."""
    from . import semantics  # deferred; semantics depends on core

    masks, alpha = _masks(fw), 0
    for m in semantics._family(fw):
        alpha |= masks.intrinsic(m)
    return fw.arguments | fw.strengths.instances() | masks.members(alpha)


def validate_axioms(fw: Framework, max_domain: int = 24) -> ValidationReport:
    """Exhaustively check the structural axioms over the instantiated domain.

    The domain is the instantiated closure; attacker sets range over its
    identifier-unique subsets (duplicate-identifier sets never arise in the
    semantics).  Positivity holds by construction: ``StrengthModel`` rejects a
    strength below 1.
    """
    _check_limit(fw, max_domain)
    n = len(fw.arguments | fw.strengths.instances())  # the closure holds at least these
    if n > max_domain:
        raise SizeLimitExceeded(f"closure has at least {n} instances (> {max_domain})")
    violations = list(validate_coherent(fw.arguments).violations)

    for attackers, target in sorted(fw.strengths._lookup):
        if not attackers:
            violations.append(
                Violation("coherence", (target,), "entry with empty attacker set")
            )
        if target in attackers:
            violations.append(
                Violation(
                    "no self attacks",
                    (attackers, target),
                    f"{target} appears in its own attacker set",
                )
            )

    domain = sorted(instantiated_closure(fw))
    if len(domain) > max_domain:
        raise SizeLimitExceeded(
            f"closure has {len(domain)} instances (> {max_domain})"
        )

    resolved = _resolved(fw.strengths, domain)

    for (s, t), v in sorted(resolved.items()):
        # quasi-closure by subset + subset monotonicity (mono 2 corollary)
        for sub in _subsets(s):
            if sub == s:
                continue
            vsub = resolved.get((sub, t))
            if vsub is None:
                violations.append(
                    Violation(
                        "quasi-closure by subset",
                        (s, sub, t),
                        f"({_fmt(s)}, {t}) is defined but subset {_fmt(sub)} is not",
                    )
                )
            elif vsub > v:
                violations.append(
                    Violation(
                        "subset monotonicity",
                        (sub, s, t),
                        f"strength({_fmt(sub)}, {t})={vsub} exceeds "
                        f"strength({_fmt(s)}, {t})={v}",
                    )
                )
        # attack monotonicity 1: raising one attacker's capacity
        for a in sorted(s):
            for b in domain:
                if b.id != a.id or b.capacity <= a.capacity:
                    continue
                vr = resolved.get(((s - {a}) | {b}, t))
                if vr is None:
                    violations.append(
                        Violation(
                            "attack monotonicity 1 (source)",
                            (s, a, b, t),
                            f"({_fmt(s)}, {t}) defined but raising {a} to {b} "
                            "is undefined",
                        )
                    )
                elif vr < v:
                    violations.append(
                        Violation(
                            "attack monotonicity 1 (source)",
                            (s, a, b, t),
                            f"raising {a} to {b} drops strength {v} -> {vr}",
                        )
                    )
        # attack monotonicity 3: raising the target's capacity
        if all(a.id != t.id for a in s):
            for u in domain:
                if u.id != t.id or u.capacity <= t.capacity:
                    continue
                vu = resolved.get((s, u))
                if vu is None:
                    violations.append(
                        Violation(
                            "attack monotonicity 3 (target)",
                            (s, t, u),
                            f"({_fmt(s)}, {t}) defined but target raised to {u} "
                            "is undefined",
                        )
                    )
                elif vu < v:
                    violations.append(
                        Violation(
                            "attack monotonicity 3 (target)",
                            (s, t, u),
                            f"raising target {t} to {u} drops strength {v} -> {vu}",
                        )
                    )

    # closure by set union + attack monotonicity 2 over resolved pairs
    by_target: dict = {}
    for (s, t), v in resolved.items():
        by_target.setdefault(t, []).append((s, v))
    for t, pairs in sorted(by_target.items()):
        for (s1, v1), (s2, v2) in itertools.combinations(sorted(pairs), 2):
            union = s1 | s2
            if t in union or not _ids_unique(union):
                continue
            vu = resolved.get((union, t))
            if vu is None:
                violations.append(
                    Violation(
                        "closure by set union",
                        (s1, s2, t),
                        f"({_fmt(s1)}, {t}) and ({_fmt(s2)}, {t}) defined but "
                        f"their union is not",
                    )
                )
            inter = s1 & s2
            if inter:
                vi = resolved.get((inter, t))
                if vi is not None and vi > min(v1, v2):
                    violations.append(
                        Violation(
                            "attack monotonicity 2 (source)",
                            (s1, s2, t),
                            f"strength of intersection {_fmt(inter)} on {t} "
                            f"exceeds a component",
                        )
                    )

    # generalised source monotonicity: raising capacities id-wise
    pairs = sorted(resolved.items())
    for s, raised, t, v, vr in _raise_failures(pairs, resolved, domain):
        violations.append(
            Violation(
                "generalised monotonicity",
                (s, raised, t),
                f"id-wise raise of {_fmt(s)} to {_fmt(raised)} vs {t} is undefined"
                if vr is None
                else f"id-wise raise of {_fmt(s)} drops strength {v} -> {vr}",
            )
        )

    return ValidationReport(tuple(dict.fromkeys(violations)))


def _raisings(s: frozenset, domain) -> Iterable[frozenset]:
    """All id-wise capacity raisings of ``s``, which has one instance per
    identifier, within the domain; ``s`` itself among them."""
    choices = []
    for a in sorted(s):
        ups = [b for b in domain if b.id == a.id and b.capacity >= a.capacity]
        choices.append(ups or [a])
    for combo in itertools.product(*choices):
        yield frozenset(combo)


def _raise_failures(pairs, resolved: dict, domain) -> Iterable[tuple]:
    """``(s, raised, t, v, vr)`` for each resolved pair ``((s, t), v)`` of
    ``pairs``, in their order, and each id-wise raising of ``s`` whose
    strength ``vr`` on ``t`` in ``resolved`` is undefined or below ``v``."""
    for (s, t), v in pairs:
        for raised in _raisings(s, domain):
            vr = resolved.get((raised, t))
            if vr is None or vr < v:
                yield s, raised, t, v, vr


def _fmt(instances) -> str:
    return "{" + ", ".join(str(a) for a in sorted(instances)) + "}"
