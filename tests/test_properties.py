"""Structural laws checked on the fixtures and on randomized frameworks."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ceaf import (
    Arg,
    Framework,
    RandomModelSpec,
    check_theorem,
    generate_random,
    instantiated_closure,
    validate_axioms,
)
from ceaf import coalition, dot, oracle, semantics
from ceaf.core import _id_unique_subsets, _raisings, _subsets
from conftest import state_leq_literal
from test_core import strength_tables

specs = st.builds(
    RandomModelSpec,
    argument_count=st.integers(2, 5),
    capacity_range=st.tuples(st.integers(1, 2), st.integers(2, 4)),
    attack_density=st.floats(0.0, 0.6),
    aggregator=st.sampled_from(["max", "sum"]),
    seed=st.integers(0, 10**6),
)

few_examples = settings(max_examples=25, deadline=None)


@few_examples
@given(specs)
def test_random_models_are_axiom_valid(spec):
    assert validate_axioms(generate_random(spec)).ok


@few_examples
@given(specs)
def test_aggregators_are_subset_monotone_and_union_closed(spec):
    fw = generate_random(spec)
    args = sorted(fw.arguments)
    for target in args:
        rest = [a for a in args if a != target]
        values = {}
        for group in _subsets(rest):
            values[group] = fw.strengths.strength(group, target)
        for g1, v1 in values.items():
            for g2, v2 in values.items():
                if v1 is None or v2 is None:
                    continue
                union = values[g1 | g2]
                assert union is not None
                assert union >= max(v1, v2) or fw.strengths.aggregator == "max"
                if g1 <= g2:
                    assert v1 <= v2


@few_examples
@given(specs)
def test_generalised_source_monotonicity(spec):
    fw = generate_random(spec)
    domain = sorted(instantiated_closure(fw))
    for target in domain:
        for group in _id_unique_subsets(domain):
            v = fw.strengths.strength(group, target)
            if v is None:
                continue
            for raised in _raisings(group, domain):
                vr = fw.strengths.strength(raised, target)
                assert vr is not None and vr >= v


@few_examples
@given(specs)
def test_definedness_square(spec):
    # a group resolves exactly when it lies inside the singleton-resolving set
    fw = generate_random(spec)
    for target in sorted(fw.arguments):
        core = {
            x
            for x in fw.arguments
            if x != target and fw.strengths.strength({x}, target) is not None
        }
        for group in _subsets(fw.arguments - {target}):
            assert (fw.strengths.strength(group, target) is not None) == (
                bool(group) and group <= core
            )


@few_examples
@given(specs)
def test_vmax_matches_brute_force_random(spec):
    fw = generate_random(spec)
    args = sorted(fw.arguments)
    for target in args:
        for attackers in _subsets(set(args) - {target}):
            assert semantics.max_attack_strength(
                fw, attackers, target
            ) == oracle.brute_vmax(fw, attackers, target)


@few_examples
@given(specs)
def test_vmax_equals_core_strength_on_valid_models(spec):
    fw = generate_random(spec)
    for target in sorted(fw.arguments):
        for attackers in _subsets(fw.arguments - {target}):
            core = frozenset(
                x for x in attackers if fw.strengths.strength({x}, target) is not None
            )
            expected = fw.strengths.strength(core, target) if core else None
            assert semantics.max_attack_strength(fw, attackers, target) == (
                expected or 0
            )


def _fixture_list(request, names=("ldp", "asym", "disc", "indep_larger")):
    return [request.getfixturevalue(n) for n in names]


UNIVERSAL_THEOREMS = ("L1", "P1", "P2", "P4", "P5", "P6", "T2", "T3", "T10")


@pytest.mark.parametrize("theorem", UNIVERSAL_THEOREMS)
def test_theorems_hold_on_fixtures(request, theorem, seven):
    for fw in _fixture_list(request):
        report = check_theorem(fw, theorem)
        assert report.verdict, report.to_json()
    if theorem in ("L1", "P5"):
        report = check_theorem(seven, theorem)
        assert report.verdict, report.to_json()


@few_examples
@given(specs)
def test_theorems_hold_on_random_models(spec):
    fw = generate_random(spec)
    for theorem in UNIVERSAL_THEOREMS:
        report = check_theorem(fw, theorem)
        assert report.verdict, report.to_json()


def test_theorem4_first_clauses_hold_universally(request):
    # base and complement both profit from a maximal admissible coalition
    for fw in _fixture_list(request) + [
        generate_random(RandomModelSpec(4, (1, 3), 0.4, "max", seed))
        for seed in range(10)
    ]:
        for s1 in _subsets(fw.arguments):
            if not semantics.is_conflict_eliminable(fw, s1):
                continue
            for sx in coalition.pref_supersets(fw, s1):
                assert coalition.profitable(fw, s1, sx).holds
                rest = sx - s1
                if rest:
                    assert coalition.profitable(fw, rest, sx).holds


def test_theorem4_maximality_refuted_on_record():
    # frozen witness: the maximality clause fails for a base set that is not
    # coalition-admissible, although both relations above hold
    fw = generate_random(
        RandomModelSpec(5, (1, 4), 0.45000000000000007, "max", 8)
    )
    report = check_theorem(fw, "T4")
    assert not report.verdict
    ids = {a.id: a for a in fw.arguments}
    s1 = frozenset({ids["x2"]})
    sx = frozenset({ids["x2"], ids["x4"], ids["x5"]})
    sy = sx | {ids["x1"]}
    assert sx in set(semantics.enumerate_c_preferred(fw))
    assert coalition.profitable(fw, s1, sy).holds
    assert oracle.brute_profitable(fw, s1, sy)


def test_rank_equals_literal_ordering_random():
    for seed in range(20):
        fw = generate_random(RandomModelSpec(4, (1, 3), 0.4, "max", seed))
        ce = [
            s
            for s in _subsets(fw.arguments, include_empty=True)
            if semantics.is_conflict_eliminable(fw, s)
        ]
        for s1 in ce:
            for s2 in ce:
                assert coalition.state_leq(fw, s1, s2) == state_leq_literal(
                    fw, s1, s2
                )


def test_state_order_is_total_preorder_on_ce_sets(ldp):
    ce = [
        s
        for s in _subsets(ldp.arguments, include_empty=True)
        if semantics.is_conflict_eliminable(ldp, s)
    ]
    for s1 in ce:
        assert coalition.state_leq(ldp, s1, s1)
        for s2 in ce:
            assert coalition.state_leq(ldp, s1, s2) or coalition.state_leq(
                ldp, s2, s1
            )
            for s3 in ce:
                if coalition.state_leq(ldp, s1, s2) and coalition.state_leq(
                    ldp, s2, s3
                ):
                    assert coalition.state_leq(ldp, s1, s3)


def test_profit_reflexive_and_antisymmetric(ldp, asym):
    for fw in (ldp, asym):
        ce = [
            s
            for s in _subsets(fw.arguments)
            if semantics.is_conflict_eliminable(fw, s)
        ]
        for s in ce:
            assert coalition.profitable(fw, s, s).holds
        for s1 in ce:
            for s2 in ce:
                if (
                    coalition.profitable(fw, s1, s2).holds
                    and coalition.profitable(fw, s2, s1).holds
                ):
                    assert s1 == s2  # containment both ways


def test_one_directional_sets_are_never_c_admissible(request):
    for fw in _fixture_list(request):
        for s in _subsets(fw.arguments):
            if not semantics.is_conflict_eliminable(fw, s):
                continue
            if coalition.is_one_directionally_attacked(fw, s):
                assert not semantics.is_c_admissible(fw, s)


def test_alpha_capacities_stay_positive(request):
    # conflict-eliminability leaves every intrinsic argument some content
    for fw in _fixture_list(request):
        for s in _subsets(fw.arguments):
            if semantics.is_conflict_eliminable(fw, s):
                for a in semantics.intrinsic(fw, s):
                    assert a.capacity >= 1


def test_continuation_equivalence_on_attack_free():
    args = [Arg(f"x{i}", 2) for i in range(4)]
    from ceaf import Framework

    fw = Framework.build(args, {})
    assert check_theorem(fw, "T9").verdict


def test_formability_partners_properties(request, seven):
    for fw in _fixture_list(request) + [seven]:
        for s1 in _subsets(fw.arguments):
            if len(s1) != 1 or not semantics.is_conflict_eliminable(fw, s1):
                continue
            results = {
                kind: set(coalition.formability(fw, kind, s1).partners)
                for kind in ("W", "M", "WS", "S")
            }
            assert results["M"] <= results["W"]
            assert results["WS"] <= results["W"]
            assert results["S"] <= results["M"]
            assert results["S"] <= results["WS"]
            for partners in results.values():
                for p in partners:
                    assert p and not (p & s1)
                    assert coalition.coalition_permitted(fw, s1, p)


def _probe_minimal_attacks(nodes, strength_of):
    """Reference for ``dot.minimal_attacks``: every subset of ``nodes`` looked
    up against every target, kept when no proper subset is defined too."""
    members = sorted(nodes)
    subsets = [
        frozenset(c)
        for r in range(1, len(members) + 1)
        for c in itertools.combinations(members, r)
    ]
    edges = []
    for t in members:
        defined = {s: v for s in subsets if (v := strength_of(s, t)) is not None}
        edges += [
            (s, t, v) for s, v in defined.items() if not any(d < s for d in defined)
        ]
    return sorted(edges, key=lambda e: (len(e[0]) > 1, sorted(e[0]), e[1]))


@pytest.mark.parametrize("policy", ["strict", "persist"])
@pytest.mark.parametrize("aggregator", ["max", "sum", "explicit-only"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_dot_edges_are_the_minimal_defined_attacks(aggregator, policy, data):
    # the tables carry group and reduced-variant entries, so under persist a
    # view's weakened members resolve group attacks through lowered keys
    model = data.draw(strength_tables(aggregator, policy))
    variants = {}
    for a in sorted(model.instances()):
        variants.setdefault(a.id, []).append(a)
    args = [data.draw(st.sampled_from(v)) for v in variants.values()]
    fw = Framework(frozenset(args), model)
    views = [(fw.arguments, frozenset(), model.strength)]
    for s in _subsets(fw.arguments):
        if semantics.is_conflict_eliminable(fw, s):
            vw = semantics.view(fw, s)
            views.append((vw.arguments, vw.base, vw.strength))
    for nodes, base, strength_of in views:
        assert dot.minimal_attacks(fw, nodes, base) == _probe_minimal_attacks(
            nodes, strength_of
        ), sorted(nodes)
