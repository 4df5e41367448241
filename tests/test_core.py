import pytest

from ceaf import (
    Arg,
    Framework,
    SizeLimitExceeded,
    instantiated_closure,
    validate_axioms,
    validate_coherent,
    variant,
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
    assert variant(a3, 2) == Arg("a3", 2)
    assert variant(a3, 5) is a3
    assert variant(Arg("a2", 3), 1) == Arg("a2", 1)


def test_strength_explicit_entry(ldp):
    a1, a3 = ldp.by_id("a1"), ldp.by_id("a3")
    assert ldp.strength({a1}, a3) == 3


def test_strength_undefined_for_empty_attackers(ldp):
    assert ldp.strength(frozenset(), ldp.by_id("a3")) is None


def test_strength_undefined_for_self_attack(ldp):
    a1 = ldp.by_id("a1")
    assert ldp.strength({a1}, a1) is None


def test_strength_sum_aggregation(ldp):
    a1, a2, a3 = ldp.by_id("a1"), ldp.by_id("a2"), ldp.by_id("a3")
    assert ldp.strength({a1, a2}, a3) == 4


def test_strength_max_aggregation():
    x, y, t = Arg("x", 2), Arg("y", 2), Arg("t", 5)
    fw = Framework.build(
        [x, y, t],
        {(frozenset({x}), t): 2, (frozenset({y}), t): 3},
        aggregator="max",
    )
    assert fw.strength({x, y}, t) == 3


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
    assert fw.strength({x, y}, t) == 4


def test_explicit_only_derives_nothing():
    x, y, t = Arg("x", 2), Arg("y", 2), Arg("t", 5)
    fw = Framework.build(
        [x, y, t],
        {(frozenset({x}), t): 2, (frozenset({y}), t): 3},
        aggregator="explicit-only",
    )
    assert fw.strength({x, y}, t) is None


def test_strict_policy_leaves_unlisted_variants_undefined(ldp):
    a3, a4 = ldp.by_id("a3"), ldp.by_id("a4")
    assert ldp.strength({variant(a3, 2)}, a4) is None


def test_persist_policy_defaults_reduced_attackers():
    x, t = Arg("x", 3), Arg("t", 4)
    fw = Framework.build(
        [x, t],
        {(frozenset({x}), t): 2},
        aggregator="max",
        variant_policy="persist",
    )
    assert fw.strength({variant(x, 1)}, t) == 2
    # target capacities must match a listed entry exactly
    assert fw.strength({x}, variant(t, 2)) is None
    # a contentless attacker never attacks
    assert fw.strength({variant(x, 0)}, t) is None


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
    assert fw.strength({Arg("x", 1)}, t) == 2
    assert fw.strength({Arg("x", 2)}, t) == 2
    assert fw.strength({Arg("x", 3)}, t) == 3


def test_required_strength_raises_on_missing_variant(ldp):
    from ceaf import MissingVariantStrength

    a3, a4 = ldp.by_id("a3"), ldp.by_id("a4")
    with pytest.raises(MissingVariantStrength):
        ldp.strengths.required_strength({variant(a3, 2)}, a4)


def test_validate_axioms_running_example(ldp):
    assert validate_axioms(ldp).ok


def test_validate_axioms_flags_self_attack():
    a1 = Arg("a1", 4)
    fw = Framework.build([a1], {(frozenset({a1}), a1): 1})
    report = validate_axioms(fw)
    assert any(v.axiom == "no self attacks" for v in report.violations)


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
    # the restricted regime drops the closure axioms
    assert validate_axioms(fw, restricted=True).ok


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


def test_framework_roundtrips_by_id(ldp):
    assert ldp.by_id("a2") == Arg("a2", 3)
    with pytest.raises(KeyError):
        ldp.by_id("zz")


def test_singleton_definedness_square(ldp):
    # a group resolves exactly when it sits inside the singleton-resolving set
    from ceaf.core import _subsets

    for target in ldp.sorted_arguments():
        core = {
            x
            for x in ldp.arguments
            if x != target and ldp.strength({x}, target) is not None
        }
        for group in _subsets(ldp.arguments - {target}):
            defined = ldp.strength(group, target) is not None
            assert defined == (group <= core and bool(group))
