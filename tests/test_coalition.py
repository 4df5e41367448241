import gc
import inspect
import weakref

import pytest

from ceaf import (
    Arg,
    Framework,
    NPFramework,
    NotConflictEliminable,
    RandomModelSpec,
    StateRank,
    attackers,
    coalition_permitted,
    crit_leq,
    formability,
    generate_random,
    instantiated_closure,
    is_continuous,
    is_one_directionally_attacked,
    is_weakly_continuous,
    max_profitable,
    max_sets,
    np_semantics,
    pref_supersets,
    profitable,
    state_leq,
    state_rank,
    undefeated_external,
)
from ceaf import coalition, oracle, semantics
from ceaf.coalition import FORMABILITY_KINDS, crit_less
from ceaf.core import _subsets
from conftest import FIXTURE_FILES, by_ids, load_fixture, state_leq_literal


def attack_free(n=2):
    args = [Arg(f"x{i + 1}", 2) for i in range(n)]
    return Framework.build(args, {})


def test_one_directional(ldp, indep_larger):
    assert is_one_directionally_attacked(ldp, by_ids(ldp, "a1", "a2", "a3"))
    # the a1/a3 pair has the same unanswerable attacker a4
    assert is_one_directionally_attacked(ldp, by_ids(ldp, "a1", "a3"))
    fw = attack_free()
    assert not is_one_directionally_attacked(fw, frozenset(list(fw.arguments)[:1]))
    assert is_one_directionally_attacked(
        indep_larger, by_ids(indep_larger, "a1", "a2")
    )


def test_state_rank(ldp, indep_larger, indep_state):
    assert state_rank(indep_state, by_ids(indep_state, "s3")) == StateRank.CADMISSIBLE
    assert state_rank(indep_larger, by_ids(indep_larger, "a1")) == StateRank.MIDDLE
    assert (
        state_rank(ldp, by_ids(ldp, "a1", "a2", "a3")) == StateRank.ONE_DIRECTIONAL
    )
    with pytest.raises(NotConflictEliminable):
        state_rank(ldp, by_ids(ldp, "a3", "a4"))


def test_state_leq(ldp, indep_state):
    s1, s3 = by_ids(indep_state, "s1"), by_ids(indep_state, "s3")
    assert state_leq(indep_state, s1, s3)
    # {s1} defeats its attacker back, so it is coalition-admissible too and
    # the ordering holds in both directions here
    assert state_rank(indep_state, s1) == StateRank.CADMISSIBLE
    assert state_leq(indep_state, s3, s1)
    for fw, subset in ((ldp, by_ids(ldp, "a1", "a3")), (indep_state, s3)):
        assert state_leq(fw, subset, subset)
    # not defined across non-conflict-eliminable sets
    assert not state_leq(ldp, by_ids(ldp, "a3", "a4"), by_ids(ldp, "a1"))


def test_state_leq_matches_literal_disjunction(ldp, seven, asym, disc):
    from ceaf.core import _subsets

    for fw in (ldp, asym, disc, seven):
        subsets = list(_subsets(fw.arguments, include_empty=True))
        ce = [s for s in subsets if coalition_permitted(fw, s, frozenset())]
        for s1 in ce:
            for s2 in ce:
                assert state_leq(fw, s1, s2) == state_leq_literal(fw, s1, s2)


def test_ranks_are_mutually_exclusive(ldp, seven, asym, disc):
    from ceaf import is_c_admissible, is_conflict_eliminable
    from ceaf.core import _subsets

    for fw in (ldp, seven, asym, disc):
        for s in _subsets(fw.arguments, include_empty=True):
            if not is_conflict_eliminable(fw, s):
                continue
            if is_c_admissible(fw, s):
                assert not is_one_directionally_attacked(fw, s)


def test_coalition_permitted(ldp, indep_state):
    assert coalition_permitted(ldp, by_ids(ldp, "a1", "a3"), by_ids(ldp, "a2"))
    assert not coalition_permitted(ldp, by_ids(ldp, "a1"), by_ids(ldp, "a1", "a2"))
    assert not coalition_permitted(
        indep_state, by_ids(indep_state, "s1"), by_ids(indep_state, "s2")
    )


def test_attackers(ldp, indep_larger):
    assert attackers(ldp, by_ids(ldp, "a3")) == by_ids(ldp, "a1", "a2", "a4")
    assert attackers(ldp, frozenset()) == frozenset()
    assert attackers(indep_larger, by_ids(indep_larger, "a1")) == by_ids(
        indep_larger, "a2", "s3", "s4"
    )
    pair = by_ids(ldp, "a1", "a3")
    assert attackers(ldp, sorted(pair)) == attackers(ldp, pair)


def test_undefeated_external(ldp, indep_larger):
    pair = by_ids(ldp, "a1", "a3")
    triple = by_ids(ldp, "a1", "a2", "a3")
    assert undefeated_external(ldp, pair, pair) == 2
    assert undefeated_external(ldp, pair, triple) == 1
    assert undefeated_external(ldp, frozenset(), frozenset()) == 0
    a1 = by_ids(indep_larger, "a1")
    assert undefeated_external(indep_larger, a1, a1) == 1


def test_profitable_running_example(ldp):
    pair = by_ids(ldp, "a1", "a3")
    triple = by_ids(ldp, "a1", "a2", "a3")
    verdict = profitable(ldp, pair, triple)
    assert verdict.holds
    assert verdict.attacker_counts == (2, 1)
    assert profitable(ldp, pair, pair).holds  # reflexive


def test_profitable_asymmetry(asym):
    s1, a2 = by_ids(asym, "s1"), by_ids(asym, "a2")
    union = by_ids(asym, "s1", "a2")
    assert profitable(asym, s1, union).holds
    verdict = profitable(asym, a2, union)
    assert not verdict.holds
    assert verdict.larger_set and verdict.better_state
    assert not verdict.fewer_attackers


def test_max_sets(disc, seven):
    a1 = by_ids(disc, "a1")
    assert by_ids(disc, "a1", "a2", "s3") in max_sets(disc, a1)
    fw = attack_free()
    x1 = frozenset([fw.by_id("x1")])
    assert max_sets(fw, x1) == [frozenset(fw.arguments)]
    result = max_sets(seven, by_ids(seven, "a2"))
    assert by_ids(seven, "s1", "a2", "s7") in result
    assert by_ids(seven, "a2", "a3", "s7") in result


def test_pref_supersets(disc, seven):
    assert by_ids(disc, "a1", "a2", "s3") in pref_supersets(disc, by_ids(disc, "a1"))
    assert pref_supersets(seven, by_ids(seven, "s7")) == [
        by_ids(seven, "a2", "a3", "s7"),
        by_ids(seven, "s1", "a2", "s7"),
    ]
    from ceaf import enumerate_c_preferred

    assert pref_supersets(seven, frozenset()) == enumerate_c_preferred(seven)


def test_crit_leq(seven):
    x1 = by_ids(seven, "a2")
    both = by_ids(seven, "a2", "a3")
    assert crit_leq(seven, "l", x1, both)
    assert not crit_leq(seven, "l", both, x1)
    for beta in ("l", "b", "f"):
        assert crit_leq(seven, beta, x1, x1)
    blocked = by_ids(seven, "s1", "a2", "s6")
    preferred = by_ids(seven, "a2", "a3", "s7")
    assert crit_less(seven, "f", blocked, preferred)
    assert crit_less(seven, "b", blocked, preferred)


def test_max_profitable_reflexive(ldp, seven):
    for fw, subset in (
        (ldp, by_ids(ldp, "a1", "a3")),
        (seven, by_ids(seven, "a2")),
        (seven, by_ids(seven, "s7")),
    ):
        assert max_profitable(fw, subset, subset)


def test_max_profitable_seven_facts(seven):
    a2a3s7 = by_ids(seven, "a2", "a3", "s7")
    s1a2s7 = by_ids(seven, "s1", "a2", "s7")
    assert max_profitable(seven, by_ids(seven, "a3"), a2a3s7)
    assert max_profitable(seven, by_ids(seven, "s1"), s1a2s7)
    assert max_profitable(seven, by_ids(seven, "s7"), s1a2s7)
    assert max_profitable(seven, by_ids(seven, "s7"), a2a3s7)


def test_max_profitable_implies_profitable(seven):
    from ceaf.core import _subsets

    base = by_ids(seven, "a2")
    for extra in _subsets(seven.arguments - base):
        union = base | extra
        if max_profitable(seven, base, union):
            assert profitable(seven, base, union).holds


def test_continuity(disc):
    a1 = by_ids(disc, "a1")
    assert not is_weakly_continuous(disc, a1)
    assert not is_continuous(disc, a1)
    fw = attack_free(3)
    for a in fw.arguments:
        assert is_weakly_continuous(fw, {a})
        assert is_continuous(fw, {a})


def test_formability_candidates_are_permitted(ldp):
    base = by_ids(ldp, "a1", "a3")
    for kind in ("W", "M", "WS", "S"):
        result = formability(ldp, kind, base)
        assert result.kind == kind
        for partner in result.partners:
            assert partner
            assert not partner & base
            assert coalition_permitted(ldp, base, partner)


def test_formability_rejects_bad_kind(ldp):
    with pytest.raises(ValueError):
        formability(ldp, "X", by_ids(ldp, "a1"))


def test_unknown_fewer_basis_is_rejected(seven):
    a2, both = by_ids(seven, "a2"), by_ids(seven, "a2", "a3")
    for kind in FORMABILITY_KINDS:
        with pytest.raises(ValueError, match="fewer basis 'bogus'"):
            formability(seven, kind, a2, "bogus")
    # growing {a2, a3} into {a2} is not profitable, so no criterion is read
    with pytest.raises(ValueError, match="fewer basis 'bogus'"):
        max_profitable(seven, both, a2, "bogus")
    with pytest.raises(ValueError, match="fewer basis 'bogus'"):
        crit_leq(seven, "f", a2, both, "bogus")


def _defeated_pair():
    x, y = Arg("x", 1), Arg("y", 1)
    return Framework.build([x, y], {(frozenset({x}), y): 1}), frozenset({x, y})


@pytest.mark.parametrize(
    "call",
    [
        # {x, y} is not conflict-eliminable
        lambda: crit_leq(*_defeated_pair(), frozenset(), "z"),
        # nine arguments exceed the brute-force bound
        lambda: oracle.check_theorem(
            generate_random(RandomModelSpec(9, (1, 4), 0.25, "max", 1)), "bogus"
        ),
        # seventeen arguments exceed the enumeration bound
        lambda: np_semantics(
            NPFramework.build([f"x{i}" for i in range(17)], []), "bogus"
        ),
        lambda: formability(attack_free(17), "W", frozenset(), "bogus"),
    ],
    ids=["crit_leq", "check_theorem", "np_semantics", "formability"],
)
def test_argument_checks_come_before_the_work(call):
    with pytest.raises(ValueError, match="unknown"):
        call()


def test_formability_attack_free():
    fw = attack_free(2)
    x1 = frozenset([fw.by_id("x1")])
    x2 = frozenset([fw.by_id("x2")])
    for kind in ("W", "M", "WS", "S"):
        assert formability(fw, kind, x1).partners == (x2,)


def test_memo_tables_are_released_with_the_framework():
    fw = load_fixture("ldp")
    formability(fw, "WS", by_ids(fw, "a1"))
    semantics.view(fw, by_ids(fw, "a1", "a3"))
    ref = weakref.ref(fw)
    del fw
    gc.collect()
    assert ref() is None


def test_views_hold_no_reference_back_to_their_framework():
    # A View kept in the framework's memo must not form a cycle with it, so
    # the framework is freed by reference counting alone.
    fw = load_fixture("ldp")
    gc.disable()
    try:
        formability(fw, "WS", by_ids(fw, "a1"))
        semantics.view(fw, by_ids(fw, "a1", "a3"))
        ref = weakref.ref(fw)
        del fw
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "query",
    [
        semantics.is_conflict_eliminable,
        semantics.intrinsic,
        semantics.view,
        semantics.c_defeats,
        semantics.is_c_admissible,
        is_one_directionally_attacked,
        state_rank,
        attackers,
    ],
    ids=lambda query: query.__name__,
)
def test_memoised_queries_accept_any_iterable(query):
    # One function per query: any iterable gives the answer of the frozenset,
    # and the framework's table for it keeps one canonical key per query.
    fw = load_fixture("ldp")
    rest = [fw.by_id("a4")] if query is semantics.c_defeats else []
    for names in (("a1", "a3"), ("a1", "a2", "a3")):
        members = sorted(by_ids(fw, *names))
        forms = (
            list(members),
            set(members),
            (a for a in members),
            frozenset(members),
        )
        answers = [query(fw, form, *rest) for form in forms]
        assert all(answer == answers[0] for answer in answers), names
    if query is not semantics.view:
        # the coalition records and the mask context's tables keep the masks
        assert query not in fw._memo
        return
    table = fw._memo[query.__wrapped__]
    assert len(table) == 2
    for key in table:
        assert all(isinstance(k, (frozenset, Arg)) for k in key), key


def test_non_member_base_is_rejected(ldp):
    # a1(1) is not ldp's a1(4): growing it by the framework's own arguments
    # would give a "coalition" holding two instances of a1.
    base = frozenset([Arg("a1", 1)])
    assert oracle.brute_max_sets(ldp, base) == []
    member = by_ids(ldp, "a1")
    queries = (
        lambda: max_sets(ldp, base),
        lambda: max_profitable(ldp, base, base | member),
        lambda: max_profitable(ldp, member, base | member),
        lambda: is_continuous(ldp, base),
        lambda: is_weakly_continuous(ldp, base),
        *(lambda k=kind: formability(ldp, k, base) for kind in FORMABILITY_KINDS),
    )
    for query in queries:
        with pytest.raises(ValueError, match=r"a1\(1\)"):
            query()


class Powerset:
    """The coalition walkers in their powerset forms, which visit every
    superset of a base instead of the memoised conflict-eliminable family:
    the reference the family walk must reproduce."""

    def __init__(self, fw):
        self.fw = fw
        self._max_sets = {}

    def enumerate_conflict_eliminable(self):
        subsets = _subsets(self.fw.arguments, include_empty=True)
        return [s for s in subsets if semantics.is_conflict_eliminable(self.fw, s)]

    def enumerate_c_admissible(self):
        subsets = _subsets(self.fw.arguments, include_empty=True)
        return [s for s in subsets if semantics.is_c_admissible(self.fw, s)]

    def instantiated_closure(self):
        fw = self.fw
        closure = set(fw.arguments) | set(fw.strengths.instances())
        for subset in _subsets(fw.arguments):
            if semantics.is_conflict_eliminable(fw, subset):
                closure.update(semantics.intrinsic(fw, subset))
        return frozenset(closure)

    def max_sets(self, subset):
        if subset not in self._max_sets:
            fw = self.fw
            reachable = [
                subset | extra
                for extra in _subsets(fw.arguments - subset, include_empty=True)
                if profitable(fw, subset, subset | extra).holds
            ]
            maximal = [t for t in reachable if not any(t < o for o in reachable)]
            self._max_sets[subset] = sorted(maximal, key=lambda s: (len(s), sorted(s)))
        return self._max_sets[subset]

    def max_profitable(self, first, second):
        fw = self.fw
        if not profitable(fw, first, second).holds:
            return False
        criteria = ("l", "b", "f")

        def survives(sx):
            return not any(
                crit_less(fw, beta, sx, sy, "own", first)
                and not any(
                    crit_less(fw, gamma, sy, sx, "own", first)
                    for gamma in criteria
                    if gamma != beta
                )
                for sy in self.max_sets(first)
                for beta in criteria
            )

        return any(survives(sx) for sx in self.max_sets(second))

    def continuous_via(self, subset, sz):
        for extra in _subsets(sz - subset, include_empty=True):
            sw = subset | extra
            if coalition_permitted(self.fw, subset, sw - subset):
                if not profitable(self.fw, subset, sw).holds:
                    return False
        return True

    def is_continuous(self, subset):
        return all(self.continuous_via(subset, sz) for sz in self.max_sets(subset))

    def is_weakly_continuous(self, subset):
        return any(self.continuous_via(subset, sz) for sz in self.max_sets(subset))

    def formability(self, kind, subset):
        fw = self.fw
        if kind in ("W", "M"):
            relation = lambda a, b: profitable(fw, a, b).holds
        else:
            relation = self.max_profitable
        combine = any if kind in ("W", "WS") else all
        partners = []
        for candidate in _subsets(fw.arguments - subset):
            if not coalition_permitted(fw, subset, candidate):
                continue
            union = subset | candidate
            if combine((relation(subset, union), relation(candidate, union))):
                partners.append(candidate)
        return sorted(partners, key=lambda s: (len(s), sorted(s)))


def non_monotone_group_entry(policy="strict"):
    """Sum aggregation with a listed group entry, {x0, x1, x4} -> x2 = 1,
    below the fold of its proper subset {x1, x4} (1 + 2 = 3).  The strongest
    attack of {x0, x1, x4} on x2 is that fold, not the listed 1, so neither
    {x0, x1, x2, x4} nor {x1, x2, x4} is conflict-eliminable; a kernel that
    tried only the listed keys and the singleton-resolving core would answer
    1 or 2 and keep the first set while dropping its subset."""
    x0, x1, x2, x4 = Arg("x0", 1), Arg("x1", 1), Arg("x2", 3), Arg("x4", 3)
    entries = {
        (frozenset([x0]), x2): 1,
        (frozenset([x1]), x2): 1,
        (frozenset([x4]), x2): 2,
        (frozenset([x0, x1, x4]), x2): 1,
    }
    return Framework.build([x0, x1, x2, x4], entries, "sum", policy)


DIFFERENTIAL_FRAMEWORKS = {
    **{path.stem: lambda name=path.stem: load_fixture(name) for path in FIXTURE_FILES},
    **{
        f"random-{n}-{agg}": (
            lambda spec=RandomModelSpec(n, (1, 4), density, agg, seed): (
                generate_random(spec)
            )
        )
        for n, density, agg, seed in (
            (6, 0.3, "max", 61),
            (6, 0.25, "sum", 62),
            (7, 0.25, "max", 72),
            (7, 0.3, "sum", 71),
            (8, 0.25, "max", 81),
            (8, 0.3, "sum", 82),
        )
    },
    "non-monotone-group-entry": non_monotone_group_entry,
}


@pytest.mark.parametrize(
    "make", DIFFERENTIAL_FRAMEWORKS.values(), ids=DIFFERENTIAL_FRAMEWORKS
)
def test_family_walk_matches_powerset_walk(make):
    fw, ref = make(), Powerset(make())
    family = ref.enumerate_conflict_eliminable()
    assert semantics.enumerate_conflict_eliminable(fw) == family
    assert semantics.enumerate_c_admissible(fw) == ref.enumerate_c_admissible()
    assert instantiated_closure(fw) == ref.instantiated_closure()
    for base in family:
        assert max_sets(fw, base) == ref.max_sets(base), base
        assert is_continuous(fw, base) == ref.is_continuous(base), base
        assert is_weakly_continuous(fw, base) == ref.is_weakly_continuous(base), base
        for kind in FORMABILITY_KINDS:
            # the reference sorts its partners; the engine returns that order
            partners = list(formability(fw, kind, base).partners)
            assert partners == ref.formability(kind, base), (kind, base)


@pytest.mark.parametrize("name", [path.stem for path in FIXTURE_FILES])
def test_profitable_holds_is_the_verdict(name):
    fw = load_fixture(name)
    family = semantics.enumerate_conflict_eliminable(fw)
    growth, mask = coalition._growth(fw), semantics._masks(fw).mask
    for first in family:
        for second in family:
            assert growth.holds(fw, mask(first), mask(second)) == (
                profitable(fw, first, second).holds
            ), (first, second)


def test_max_sets_visits_only_the_conflict_eliminable_supersets(monkeypatch):
    fw = load_fixture("seven")
    base = by_ids(fw, "a2")
    calls = []
    holds = coalition._Growth.holds

    def counted(growth, fw, first, second):
        calls.append((first, second))
        return holds(growth, fw, first, second)

    monkeypatch.setattr(coalition._Growth, "holds", counted)
    max_sets(fw, base)
    masks = semantics._masks(fw)
    supersets = [s for s in semantics.enumerate_conflict_eliminable(fw) if base <= s]
    assert len(calls) <= len(supersets) < 2 ** (len(fw.arguments) - 1)
    assert {masks.members(second) for _, second in calls} <= set(supersets)


def test_limit_free_queries_never_walk_the_family(monkeypatch):
    # 40 arguments, far past any size limit: profitable, undefeated_external
    # and attackers take no limit, so they answer from the coalition records
    # without enumerating the conflict-eliminable family
    fw = generate_random(RandomModelSpec(40, (1, 4), 0.1, "sum", 3))
    monkeypatch.setattr(semantics, "_grow", lambda *_: pytest.fail("family walk"))
    args = sorted(fw.arguments)
    for a, b in zip(args[:30:3], args[1:30:3]):
        first, second = frozenset({a}), frozenset({a, b})
        assert attackers(fw, first) <= attackers(fw, second)
        verdict = profitable(fw, first, second)
        assert verdict.attacker_counts == (
            undefeated_external(fw, first, first),
            undefeated_external(fw, first, second),
        )
        assert not profitable(fw, second, first).larger_set
    for walk in (semantics._family, semantics._conflict_eliminable_sets):
        assert inspect.unwrap(walk) not in fw._memo
