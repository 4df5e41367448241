import gc
import weakref

import pytest

from ceaf import (
    Arg,
    Framework,
    NotConflictEliminable,
    StateRank,
    attackers,
    coalition_permitted,
    crit_leq,
    formability,
    is_continuous,
    is_one_directionally_attacked,
    is_weakly_continuous,
    max_profitable,
    max_sets,
    pref_supersets,
    profitable,
    state_leq,
    state_rank,
    undefeated_external,
)
from ceaf import semantics
from ceaf.coalition import crit_less
from conftest import by_ids, load_fixture, state_leq_literal


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
    table = fw._memo[query.__wrapped__]
    assert len(table) == 2
    for key in table:
        assert all(isinstance(k, (frozenset, Arg)) for k in key), key
