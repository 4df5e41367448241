"""The theorem checkers that read what the engine already answers, against
the forms they replaced.

P2, P4, P6, T2, T3, T4, T7 and T10 quantify over conflict-eliminable sets or
permitted coalitions, whose union is conflict-eliminable, so ``oracle.py``
reads them from ``semantics._conflict_eliminable_sets``.  The reference
below is the powerset form: every subset probed with
``is_conflict_eliminable``, every partner drawn from the powerset of the
rest.  Walking the unions ``u >= s1`` in family order visits ``u - s1`` in
the powerset order of the complement, so the first counterexample, and with
it every report, is the same.

P1 reads the closure's resolved strength table, whose pairs come in the
order its reference probes every id-unique subset against every target.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ceaf import (
    Framework,
    RandomModelSpec,
    check_theorem,
    generate_random,
    instantiated_closure,
    validate_axioms,
)
from ceaf import coalition, semantics
from ceaf.core import _id_unique_subsets, _raisings
from ceaf.oracle import TheoremReport, _powerset
from conftest import FIXTURE_FILES, load_fixture
from test_coalition import non_monotone_group_entry
from test_core import strength_tables


def _ce_subsets(fw):
    return [
        s
        for s in _powerset(fw.arguments)
        if semantics.is_conflict_eliminable(fw, s)
    ]


def ref_P1(fw):
    domain = sorted(instantiated_closure(fw))
    for t in domain:
        for s in _id_unique_subsets(domain):
            v = fw.strengths.strength(s, t)
            if v is None:
                continue
            for raised in _raisings(s, domain):
                vr = fw.strengths.strength(raised, t)
                if vr is None or vr < v:
                    return (s, raised, t)
    return None


def ref_P2(fw):
    for s in _ce_subsets(fw):
        for a in semantics.intrinsic(fw, s):
            if a.capacity < 0:
                return (s, a)
    return None


def ref_P4(fw):
    for s in _ce_subsets(fw):
        vw = semantics.view(fw, s)
        for member in vw.alpha:
            for sub in _powerset(vw.alpha - {member}, include_empty=False):
                if vw.strength(sub, member) is not None:
                    return (s, sub, member)
    return None


def ref_P6(fw):
    for s1 in _powerset(fw.arguments):
        for s2 in _powerset(fw.arguments):
            if coalition.coalition_permitted(fw, s1, s2):
                if not (
                    semantics.is_conflict_eliminable(fw, s1)
                    and semantics.is_conflict_eliminable(fw, s2)
                ):
                    return (s1, s2)
    return None


def ref_T2(fw):
    for sx in _powerset(fw.arguments, include_empty=False):
        if not semantics.is_c_admissible(fw, sx):
            continue
        for s1 in _powerset(sx):
            if s1 == sx or not semantics.is_conflict_eliminable(fw, s1):
                continue
            s2 = sx - s1
            if not semantics.is_conflict_eliminable(fw, s2):
                return (sx, s1, "difference not conflict-eliminable")
            if not coalition.coalition_permitted(fw, s1, s2):
                return (sx, s1, "coalition not permitted")
            if not coalition.profitable(fw, s1, sx).holds:
                return (sx, s1, "not profitable")
    return None


def ref_T3(fw):
    for s1 in _ce_subsets(fw):
        for s2 in _powerset(fw.arguments - s1, include_empty=False):
            union = s1 | s2
            if not coalition.coalition_permitted(fw, s1, s2):
                continue
            if not semantics.is_c_admissible(fw, union):
                continue
            if not coalition.profitable(fw, s1, union).holds:
                continue
            witness = None
            for s3 in _powerset(fw.arguments - s1, include_empty=False):
                if not s2 <= s3:
                    continue
                u3 = s1 | s3
                if (
                    coalition.coalition_permitted(fw, s1, s3)
                    and coalition.profitable(fw, s1, u3).holds
                    and u3 in set(semantics.enumerate_c_preferred(fw))
                ):
                    witness = s3
                    break
            if witness is None:
                return (s1, s2)
    return None


def ref_theorem4_violations(fw):
    for s1 in _ce_subsets(fw):
        for sx in coalition.pref_supersets(fw, s1):
            rest = sx - s1
            if not coalition.profitable(fw, s1, sx).holds:
                yield (s1, sx, "base not profitable")
            if rest and not coalition.profitable(fw, rest, sx).holds:
                yield (rest, sx, "complement not profitable")
            for extra in _powerset(fw.arguments - sx, include_empty=False):
                sy = sx | extra
                if coalition.profitable(fw, s1, sy).holds:
                    yield (s1, sx, sy, "base not maximal")
                if rest and coalition.profitable(fw, rest, sy).holds:
                    yield (rest, sx, sy, "complement not maximal")


def ref_T4(fw):
    return next(ref_theorem4_violations(fw), None)


def ref_T7(fw):
    for s1 in _ce_subsets(fw):
        if not s1:
            continue
        for s2 in _powerset(fw.arguments - s1, include_empty=False):
            union = s1 | s2
            if coalition.profitable(fw, s1, union).holds and not coalition.profitable(
                fw, s2, union
            ).holds:
                return None
    return ("no one-sided profitable pair found",)


def ref_T10(fw):
    for s1 in _ce_subsets(fw):
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


REFERENCES = {
    "P1": ref_P1,
    "P2": ref_P2,
    "P4": ref_P4,
    "P6": ref_P6,
    "T2": ref_T2,
    "T3": ref_T3,
    "T4": ref_T4,
    "T7": ref_T7,
    "T10": ref_T10,
}


def ref_report(fw, theorem):
    witness = REFERENCES[theorem](fw)
    return TheoremReport(theorem, "", witness is None, witness).to_json()


FRAMEWORKS = {
    **{path.stem: lambda name=path.stem: load_fixture(name) for path in FIXTURE_FILES},
    **{
        f"random-{n}-{agg}-{seed}": (
            lambda spec=RandomModelSpec(n, (1, 4), density, agg, seed): (
                generate_random(spec)
            )
        )
        for n, density, agg, seed in (
            (5, 0.3, "max", 51),
            (5, 0.45, "sum", 52),
            (6, 0.3, "max", 61),
            (6, 0.25, "sum", 62),
            (7, 0.25, "max", 72),
            (7, 0.3, "sum", 71),
            (8, 0.2, "max", 0),  # T4 fails here
            (8, 0.25, "sum", 1),
        )
    },
    **{
        f"non-monotone-group-entry-{policy}": (
            lambda policy=policy: non_monotone_group_entry(policy)
        )
        for policy in ("strict", "persist")
    },
}


@pytest.mark.parametrize("make", FRAMEWORKS.values(), ids=FRAMEWORKS)
def test_family_checkers_match_powerset_checkers(make):
    fw, reference = make(), make()
    for theorem in REFERENCES:
        assert check_theorem(fw, theorem).to_json() == ref_report(
            reference, theorem
        ), theorem


def _base_at_largest_capacity(model):
    """A framework over ``model`` whose arguments are each identifier at the
    largest capacity the table mentions."""
    base = {a.id: a for a in sorted(model.instances())}
    return Framework(frozenset(base.values()), model)


@pytest.mark.parametrize("policy", ["strict", "persist"])
@pytest.mark.parametrize("aggregator", ["max", "sum", "explicit-only"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_P1_matches_its_reference_and_validate_axioms(aggregator, policy, data):
    # the tables carry reduced-capacity variants and group entries, which
    # generate_random does not
    model = data.draw(strength_tables(aggregator, policy))
    fw = _base_at_largest_capacity(model)
    report = check_theorem(fw, "P1")
    assert report.to_json() == ref_report(_base_at_largest_capacity(model), "P1")
    raises = [
        v.witness
        for v in validate_axioms(fw).violations
        if v.axiom == "generalised monotonicity"
    ]
    assert report.verdict == (not raises)
    if not report.verdict:
        assert report.counterexample in raises


def test_T3_reports_the_first_union_without_a_preferred_witness(monkeypatch):
    # With no preferred sets, the first profitable admissible union fails.
    fw, reference = load_fixture("ldp"), load_fixture("ldp")
    monkeypatch.setattr(semantics, "enumerate_c_preferred", lambda fw: [])
    report = check_theorem(fw, "T3")
    assert not report.verdict
    assert report.to_json() == ref_report(reference, "T3")


def test_checkers_decide_admissibility_once_per_set():
    # 92 of the 256 subsets are conflict-eliminable; each one's state is
    # decided once, into the mask context's rank table, and no subset outside
    # the family is probed
    fw = generate_random(RandomModelSpec(8, (1, 4), 0.25, "sum", 1))
    family = semantics._conflict_eliminable_sets(fw)
    for theorem in ("T3", "T4", "P6", "T10"):
        check_theorem(fw, theorem)
    masks = semantics._masks(fw)
    assert 0 < len(masks.ranks) <= len(family) < 256
    assert 0 < len(masks.ce) <= len(family)
    assert all(masks.ce.values())


def test_P5_compares_engine_answers_with_the_view(monkeypatch):
    # One wrong c_defeats answer: the engine says no, the view's strengths
    # say yes.
    fw = load_fixture("ldp")
    assert check_theorem(fw, "P5").verdict
    s, t = next(
        (s, t)
        for s in semantics._conflict_eliminable_sets(fw)
        for t in sorted(fw.arguments - s)
        if semantics.c_defeats(fw, s, t)
    )
    real = semantics.c_defeats
    monkeypatch.setattr(
        semantics,
        "c_defeats",
        lambda fw, *key: False if key == (s, t) else real(fw, *key),
    )
    report = check_theorem(fw, "P5")
    assert not report.verdict
    assert report.counterexample == (s, t, "formulations disagree")


@pytest.mark.parametrize("policy", ["strict", "persist"])
def test_P5_reports_the_non_monotone_group_entry(policy):
    # The view's strengths give {x1, x4} the fold 1 + 2 = 3 on x2, which the
    # engine's c_defeats now finds below the listed {x0, x1, x4} -> x2 = 1,
    # so the two formulations agree and L1 holds as well.
    fw = non_monotone_group_entry(policy)
    for theorem in ("P5", "L1"):
        assert check_theorem(fw, theorem).to_json() == (
            f'{{"counterexample": null, "framework": "", "theorem": "{theorem}", '
            '"verdict": "pass"}'
        )
