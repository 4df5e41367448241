import re

import pytest
from hypothesis import given, settings, strategies as st

from ceaf import (
    Arg,
    Framework,
    RandomModelSpec,
    SizeLimitExceeded,
    StrengthModel,
    generate_random,
    instantiated_closure,
    validate_axioms,
    validate_coherent,
)
from ceaf.core import _id_unique_subsets, _resolved
from conftest import load_fixture

FIXTURES = (
    "ldp",
    "seven",
    "asym",
    "disc",
    "indep_larger",
    "indep_state",
    "indep_fewer",
)


def test_validate_coherent_accepts_running_example(ldp):
    assert validate_coherent(ldp.arguments).ok


def test_validate_coherent_rejects_zero_capacity():
    report = validate_coherent({Arg("a1", 0)})
    assert not report.ok
    assert report.violations[0].axiom == "capacity > 0"


def test_validate_coherent_rejects_duplicate_identifier():
    report = validate_coherent({Arg("a1", 2), Arg("a1", 3)})
    assert not report.ok
    assert report.violations[0].axiom == "duplicate identifier"


def test_variant_changes_only_capacity():
    a3 = Arg("a3", 5)
    assert a3.with_capacity(2) == Arg("a3", 2)
    assert a3.with_capacity(5) is a3
    assert Arg("a2", 3).with_capacity(1) == Arg("a2", 1)


def test_strength_explicit_entry(ldp):
    a1, a3 = ldp.by_id("a1"), ldp.by_id("a3")
    assert ldp.strengths.strength({a1}, a3) == 3


def test_strength_undefined_for_empty_attackers(ldp):
    assert ldp.strengths.strength(frozenset(), ldp.by_id("a3")) is None


def test_strength_undefined_for_self_attack(ldp):
    a1 = ldp.by_id("a1")
    assert ldp.strengths.strength({a1}, a1) is None


def test_strength_sum_aggregation(ldp):
    a1, a2, a3 = ldp.by_id("a1"), ldp.by_id("a2"), ldp.by_id("a3")
    assert ldp.strengths.strength({a1, a2}, a3) == 4


def test_strength_max_aggregation():
    x, y, t = Arg("x", 2), Arg("y", 2), Arg("t", 5)
    fw = Framework.build(
        [x, y, t],
        {(frozenset({x}), t): 2, (frozenset({y}), t): 3},
        aggregator="max",
    )
    assert fw.strengths.strength({x, y}, t) == 3


def test_explicit_entry_overrides_aggregation():
    x, y, t = Arg("x", 2), Arg("y", 2), Arg("t", 5)
    fw = Framework.build(
        [x, y, t],
        {
            (frozenset({x}), t): 2,
            (frozenset({y}), t): 3,
            (frozenset({x, y}), t): 4,
        },
        aggregator="max",
    )
    assert fw.strengths.strength({x, y}, t) == 4


def test_explicit_only_derives_nothing():
    x, y, t = Arg("x", 2), Arg("y", 2), Arg("t", 5)
    fw = Framework.build(
        [x, y, t],
        {(frozenset({x}), t): 2, (frozenset({y}), t): 3},
        aggregator="explicit-only",
    )
    assert fw.strengths.strength({x, y}, t) is None


def test_strict_policy_leaves_unlisted_variants_undefined(ldp):
    a3, a4 = ldp.by_id("a3"), ldp.by_id("a4")
    assert ldp.strengths.strength({a3.with_capacity(2)}, a4) is None


def test_persist_policy_defaults_reduced_attackers():
    x, t = Arg("x", 3), Arg("t", 4)
    fw = Framework.build(
        [x, t],
        {(frozenset({x}), t): 2},
        aggregator="max",
        variant_policy="persist",
    )
    assert fw.strengths.strength({x.with_capacity(1)}, t) == 2
    # target capacities must match a listed entry exactly
    assert fw.strengths.strength({x}, t.with_capacity(2)) is None
    # a contentless attacker never attacks
    assert fw.strengths.strength({x.with_capacity(0)}, t) is None


def test_persist_default_takes_minimum_over_dominating_entries():
    x, t = Arg("x", 3), Arg("t", 4)
    fw = Framework.build(
        [x, t],
        {
            (frozenset({Arg("x", 3)}), t): 3,
            (frozenset({Arg("x", 2)}), t): 2,
        },
        aggregator="max",
        variant_policy="persist",
    )
    assert fw.strengths.strength({Arg("x", 1)}, t) == 2
    assert fw.strengths.strength({Arg("x", 2)}, t) == 2
    assert fw.strengths.strength({Arg("x", 3)}, t) == 3


def _full_scan_strength(model, attackers, target):
    """Reference resolver: ``StrengthModel.strength`` with a persist fallback
    that scans every listed entry instead of reading an index."""
    attackers = frozenset(attackers)
    if not attackers or target in attackers:
        return None
    exact = model._lookup.get((attackers, target))
    if exact is not None:
        return exact
    if model.aggregator == "explicit-only":
        return None
    if model.variant_policy == "persist":
        fallback = _full_scan_persist(model, attackers, target)
        if fallback is not None:
            return fallback
    if len(attackers) == 1:
        return None
    values = []
    for x in attackers:
        v = model._lookup.get((frozenset((x,)), target))
        if v is None and model.variant_policy == "persist":
            v = _full_scan_persist(model, frozenset((x,)), target)
        if v is None:
            return None
        values.append(v)
    return max(values) if model.aggregator == "max" else sum(values)


def _full_scan_persist(model, attackers, target):
    if any(a.capacity == 0 for a in attackers):
        return None
    want = {a.id: a.capacity for a in attackers}
    if len(want) != len(attackers):
        return None
    best = None
    for (listed, s), v in model._lookup.items():
        if s != target or len(listed) != len(attackers):
            continue
        got = {a.id: a.capacity for a in listed}
        if set(got) != set(want):
            continue
        if all(got[i] >= want[i] for i in want):
            best = v if best is None else min(best, v)
    return best


@st.composite
def strength_tables(draw, aggregator, policy):
    """3-5 arguments; singleton and group entries whose attackers and target
    may be reduced-capacity variants of the arguments."""
    args = [Arg(f"x{i}", draw(st.integers(1, 4))) for i in range(draw(st.integers(3, 5)))]

    def instance(a):
        return a.with_capacity(draw(st.integers(1, a.capacity)))

    entries = {}
    for _ in range(draw(st.integers(1, 10))):
        target = draw(st.sampled_from(args))
        group = draw(
            st.lists(
                st.sampled_from([a for a in args if a != target]),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        key = frozenset(instance(a) for a in group)
        entries[(key, instance(target))] = draw(st.integers(1, 5))
    return StrengthModel.from_entries(entries, aggregator, policy)


@pytest.mark.parametrize("policy", ["strict", "persist"])
@pytest.mark.parametrize("aggregator", ["max", "sum", "explicit-only"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_strength_matches_full_scan_reference(aggregator, policy, data):
    model = data.draw(strength_tables(aggregator, policy))
    pool = model.instances()
    for attackers in _id_unique_subsets(pool):
        for target in pool:
            assert model.strength(attackers, target) == _full_scan_strength(
                model, attackers, target
            ), (sorted(attackers), target)


def _probe_subsets(instances):
    """Reference enumeration: every nonempty id-unique subset, each id absent
    or one of its variants in sorted order, the first id the fastest digit."""
    by_id = {}
    for a in sorted(instances):
        by_id.setdefault(a.id, []).append(a)
    ids = sorted(by_id)

    def rec(i):
        if i == len(ids):
            yield frozenset()
            return
        for rest in rec(i + 1):
            yield rest
            for a in by_id[ids[i]]:
                yield rest | {a}

    return [s for s in rec(0) if s]


def _probe_resolved(model, domain):
    """Reference for ``core._resolved``: every id-unique subset of the domain
    looked up against every target, keeping the defined answers."""
    resolved = {}
    subsets = _probe_subsets(domain)
    for t in domain:
        for s in subsets:
            v = model.strength(s, t)
            if v is not None:
                resolved[(s, t)] = v
    return resolved


@pytest.mark.parametrize("policy", ["strict", "persist"])
@pytest.mark.parametrize("aggregator", ["max", "sum", "explicit-only"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_resolved_matches_probe_in_order(aggregator, policy, data):
    # lists, not dicts: the violation order of validate_axioms follows this one
    model = data.draw(strength_tables(aggregator, policy))
    domain = sorted(model.instances())
    assert list(_resolved(model, domain).items()) == list(
        _probe_resolved(model, domain).items()
    )


@pytest.mark.parametrize("name", FIXTURES)
def test_resolved_matches_probe_in_order_on_fixtures(name):
    fw = load_fixture(name)
    domain = sorted(instantiated_closure(fw))
    assert list(_resolved(fw.strengths, domain).items()) == list(
        _probe_resolved(fw.strengths, domain).items()
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: load_fixture("seven"),
        lambda: generate_random(RandomModelSpec(10, (1, 4), 0.25, "sum", 1)),
    ],
    ids=["seven", "random-10"],
)
def test_validate_axioms_looks_up_only_definable_sets(monkeypatch, build):
    fw = build()
    instantiated_closure(fw)  # its conflict-eliminability lookups are not counted
    calls, defined = 0, 0
    resolve = StrengthModel.strength

    def counted(self, attackers, target):
        nonlocal calls, defined
        calls += 1
        v = resolve(self, attackers, target)
        defined += v is not None
        return v

    monkeypatch.setattr(StrengthModel, "strength", counted)
    validate_axioms(fw)
    assert defined > 0
    assert calls <= 2 * defined, (calls, defined)


def test_required_strength_raises_on_missing_variant(ldp):
    # ({a3(2)}, a4) is not listed, and under strict a lone attacker is never derived
    a3, a4 = ldp.by_id("a3"), ldp.by_id("a4")
    assert ldp.strengths.strength({a3.with_capacity(2)}, a4) is None


def test_validate_axioms_running_example(ldp):
    assert validate_axioms(ldp).ok


def test_validate_axioms_flags_self_attack():
    a1 = Arg("a1", 4)
    fw = Framework.build([a1], {(frozenset({a1}), a1): 1})
    report = validate_axioms(fw)
    assert any(v.axiom == "no self attacks" for v in report.violations)


@pytest.mark.parametrize("strength", [0, -1])
def test_strength_model_rejects_strength_below_one(strength):
    # The loader rejects such an entry; the library admits the same tables.
    x, y = Arg("x", 2), Arg("y", 2)
    message = f"strength {strength} < 1 for attack {{x(2)}} on y(2)"
    with pytest.raises(ValueError, match=re.escape(message)):
        Framework.build([x, y], {(frozenset({x}), y): strength})


def test_validate_axioms_flags_subset_monotonicity():
    x, y, t = Arg("x", 2), Arg("y", 2), Arg("t", 5)
    fw = Framework.build(
        [x, y, t],
        {
            (frozenset({x}), t): 3,
            (frozenset({y}), t): 1,
            (frozenset({x, y}), t): 1,
        },
        aggregator="max",
    )
    report = validate_axioms(fw)
    assert any(v.axiom == "subset monotonicity" for v in report.violations)


def test_validate_axioms_flags_source_monotonicity_gap():
    # a strength listed at a reduced attacker capacity only
    fw = Framework.build(
        [Arg("x", 3), Arg("t", 4)],
        {(frozenset({Arg("x", 1)}), Arg("t", 4)): 2},
        aggregator="max",
    )
    report = validate_axioms(fw)
    assert any(
        v.axiom == "attack monotonicity 1 (source)" for v in report.violations
    )


def test_validate_axioms_flags_missing_union():
    x, y, t = Arg("x", 2), Arg("y", 2), Arg("t", 5)
    fw = Framework.build(
        [x, y, t],
        {(frozenset({x}), t): 2, (frozenset({y}), t): 3},
        aggregator="explicit-only",
    )
    report = validate_axioms(fw)
    assert any(v.axiom == "closure by set union" for v in report.violations)


def test_instantiated_closure_contains_intrinsic_variants(ldp):
    closure = instantiated_closure(ldp)
    assert Arg("a1", 1) in closure
    assert Arg("a3", 2) in closure
    assert Arg("a2", 1) in closure
    assert Arg("a3", 4) in closure


def test_validate_axioms_checks_size_before_the_closure():
    # the closure walks all 2^40 subsets; the guard must refuse first
    fw = Framework.build([Arg(f"x{i}", 1) for i in range(40)], {})
    with pytest.raises(SizeLimitExceeded, match="40 arguments"):
        validate_axioms(fw)


def test_validate_axioms_checks_table_instances_before_the_closure(monkeypatch):
    # 2 arguments, but the table names 25 reduced variants of x: the closure
    # has at least 27 instances, which the guard can count without building it
    from ceaf import semantics

    x, y = Arg("x", 30), Arg("y", 30)
    entries = {(frozenset([x.with_capacity(c)]), y): 1 for c in range(1, 26)}
    fw = Framework.build([x, y], entries)
    walks = []
    walk = semantics._family
    monkeypatch.setattr(semantics, "_family", lambda fw: walks.append(fw) or walk(fw))
    with pytest.raises(SizeLimitExceeded, match="27 instances"):
        validate_axioms(fw)
    assert walks == []


def test_framework_roundtrips_by_id(ldp):
    assert ldp.by_id("a2") == Arg("a2", 3)
    with pytest.raises(KeyError):
        ldp.by_id("zz")


def test_singleton_definedness_square(ldp):
    # a group resolves exactly when it sits inside the singleton-resolving set
    from ceaf.core import _subsets

    for target in sorted(ldp.arguments):
        core = {
            x
            for x in ldp.arguments
            if x != target and ldp.strengths.strength({x}, target) is not None
        }
        for group in _subsets(ldp.arguments - {target}):
            defined = ldp.strengths.strength(group, target) is not None
            assert defined == (group <= core and bool(group))
