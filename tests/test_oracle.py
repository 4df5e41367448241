import pytest
from hypothesis import given, settings, strategies as st

from ceaf import (
    Arg,
    Framework,
    RandomModelSpec,
    check_theorem,
    generate_random,
    validate_axioms,
)
from ceaf import FORMABILITY_KINDS, coalition, oracle, semantics
from ceaf.core import _subsets
from brute_memo import BRUTE
from conftest import FIXTURE_FILES, by_ids, load_fixture

FIXTURE_NAMES = ("ldp", "seven", "asym", "disc")


@pytest.fixture(scope="module")
def random_models():
    specs = [
        RandomModelSpec(argument_count=n, attack_density=d, aggregator=agg, seed=seed)
        for n, d, agg, seed in [
            (3, 0.3, "max", 1),
            (4, 0.4, "max", 2),
            (4, 0.25, "sum", 3),
            (5, 0.35, "max", 4),
            (5, 0.2, "sum", 5),
        ]
    ]
    return [generate_random(s) for s in specs]


def all_fixtures(request):
    return [request.getfixturevalue(name) for name in FIXTURE_NAMES]


@pytest.mark.parametrize(
    "spec, field",
    [
        (RandomModelSpec(-2), "argument_count"),
        (RandomModelSpec(3, capacity_range=(0, 0)), "capacity_range"),
        (RandomModelSpec(3, capacity_range=(0, 3)), "capacity_range"),
        (RandomModelSpec(3, capacity_range=(3, 1)), "capacity_range"),
        (RandomModelSpec(3, attack_density=-0.1), "attack_density"),
        (RandomModelSpec(3, attack_density=1.5), "attack_density"),
        (RandomModelSpec(3, attack_density=float("nan")), "attack_density"),
    ],
    ids=[
        "negative-count",
        "zero-capacity",
        "zero-lower-capacity",
        "empty-capacity-range",
        "negative-density",
        "density-above-one",
        "nan-density",
    ],
)
def test_generate_random_rejects_invalid_specs(spec, field):
    with pytest.raises(ValueError, match=field):
        generate_random(spec)


def test_brute_vmax_examples(ldp):
    a1, a2, a3 = ldp.by_id("a1"), ldp.by_id("a2"), ldp.by_id("a3")
    assert oracle.brute_vmax(ldp, {a3}, a1) == 3
    assert oracle.brute_vmax(ldp, {a1, a2}, a3) == 4


def test_brute_alpha_examples(ldp):
    assert oracle.brute_alpha(ldp, by_ids(ldp, "a1", "a3")) == {
        Arg("a1", 1),
        Arg("a3", 2),
    }


@pytest.mark.parametrize("name", ["ldp", "indep_larger", "indep_state"])
def test_brute_memo_matches_the_unwrapped_oracle(monkeypatch, name):
    # conftest wraps the oracle in a session memo; with the wrappers taken
    # out, the cache-free definitions give the same answers
    fw = load_fixture(name)

    def ask():
        subsets = _subsets(fw.arguments, include_empty=True)
        family = [s for s in subsets if oracle.brute_conflict_eliminable(fw, s)]
        base = family[1]
        return (
            family,
            [oracle.brute_alpha(fw, s) for s in family],
            [oracle._brute_rank(fw, s) for s in family],
            [oracle._brute_undefeated(fw, base, s) for s in family],
            [oracle.brute_max_sets(fw, s) for s in family],
            oracle.brute_c_preferred(fw),
            [oracle.brute_formability(fw, kind, base) for kind in FORMABILITY_KINDS],
        )

    memoised = ask()
    stored = sum(len(getattr(oracle, n).table) for n in BRUTE)
    assert ask() == memoised
    assert sum(len(getattr(oracle, n).table) for n in BRUTE) == stored
    got = oracle.brute_max_sets(fw, memoised[0][1])
    got.append(None)  # a copy: the stored list is untouched
    assert oracle.brute_max_sets(fw, memoised[0][1]) == got[:-1]
    for n in BRUTE:
        monkeypatch.setattr(oracle, n, getattr(oracle, n).__wrapped__)
    assert ask() == memoised


def test_vmax_matches_brute_force(request, random_models):
    for fw in all_fixtures(request) + random_models:
        for target in sorted(fw.arguments):
            for attackers in _subsets(fw.arguments - {target}):
                assert semantics.max_attack_strength(
                    fw, attackers, target
                ) == oracle.brute_vmax(fw, attackers, target), (
                    fw,
                    attackers,
                    target,
                )
                assert semantics.attacks(fw, attackers, target) == (
                    oracle.brute_attacks(fw, attackers, target)
                ), (fw, attackers, target)


def test_alpha_and_views_match_brute_force(request, random_models):
    for fw in all_fixtures(request) + random_models:
        for subset in _subsets(fw.arguments):
            ce = semantics.is_conflict_eliminable(fw, subset)
            assert ce == oracle.brute_conflict_eliminable(fw, subset)
            if ce:
                assert semantics.intrinsic(fw, subset) == oracle.brute_alpha(
                    fw, subset
                )


def test_coalition_attacks_match_brute_force(request, random_models):
    for fw in all_fixtures(request) + random_models:
        for subset in _subsets(fw.arguments):
            for target in sorted(fw.arguments):
                assert semantics.c_attacks(fw, subset, target) == (
                    oracle.brute_c_attacks(fw, subset, target)
                )
                assert semantics.c_defeats(fw, subset, target) == (
                    oracle.brute_c_defeats(fw, subset, target)
                )


def test_c_admissible_matches_brute_force(request, random_models):
    # the full state rank too: admissibility alone cannot tell a
    # one-directionally attacked set from one in the middle state
    for fw in all_fixtures(request) + random_models:
        args = sorted(fw.arguments)
        for subset in _subsets(fw.arguments, include_empty=True):
            assert semantics.is_c_admissible(fw, subset) == (
                oracle.brute_c_admissible(fw, subset)
            ), (fw, subset)
            if semantics.is_conflict_eliminable(fw, subset):
                assert semantics.state_rank(fw, subset) == (
                    oracle._brute_rank(fw, subset)
                ), (fw, subset)
                for target in args:
                    assert semantics.c_attacks(fw, subset, target) == (
                        oracle.brute_c_attacks(fw, subset, target)
                    ), (fw, subset, target)


def test_c_preferred_matches_brute_force(request, random_models):
    for fw in all_fixtures(request) + random_models:
        assert semantics.enumerate_c_preferred(fw) == oracle.brute_c_preferred(fw)


def test_nine_arguments_match_the_memoised_oracle():
    # Past the brute guard: the release sweep's smallest 9-argument framework
    # (seed 4).  Both enumerations as lists in ``_subsets`` order against the
    # brute filters, then the intrinsic arguments and state rank of every
    # conflict-eliminable set, and the c-preferred family.
    fw = generate_random(RandomModelSpec(9, (1, 4), 0.25, "max", 4))
    subsets = list(_subsets(fw.arguments, include_empty=True))
    family = [s for s in subsets if oracle.brute_conflict_eliminable(fw, s)]
    admissible = [s for s in subsets if oracle.brute_c_admissible(fw, s)]
    assert semantics.enumerate_conflict_eliminable(fw) == family
    assert semantics.enumerate_c_admissible(fw) == admissible
    for s in family:
        assert semantics.intrinsic(fw, s) == oracle.brute_alpha(fw, s), s
        assert semantics.state_rank(fw, s) == oracle._brute_rank(fw, s), s
    preferred = [s for s in admissible if not any(s < t for t in admissible)]
    assert semantics.enumerate_c_preferred(fw) == preferred


def test_profitability_matches_brute_force(request, random_models):
    for fw in all_fixtures(request) + random_models:
        subsets = list(_subsets(fw.arguments, include_empty=True))
        for s1 in subsets:
            for s2 in subsets:
                if not s1 <= s2:
                    continue
                assert coalition.profitable(fw, s1, s2).holds == (
                    oracle.brute_profitable(fw, s1, s2)
                ), (fw, s1, s2)


def test_max_sets_match_brute_force(request, random_models):
    for fw in all_fixtures(request) + random_models:
        for subset in _subsets(fw.arguments):
            if semantics.is_conflict_eliminable(fw, subset):
                assert coalition.max_sets(fw, subset) == oracle.brute_max_sets(
                    fw, subset
                )


def test_formability_matches_brute_force(request, random_models):
    small = [fw for fw in all_fixtures(request) if len(fw.arguments) <= 5]
    for fw in small + random_models:
        for subset in _subsets(fw.arguments):
            if not semantics.is_conflict_eliminable(fw, subset):
                continue
            for kind in ("W", "M", "WS", "S"):
                assert list(
                    coalition.formability(fw, kind, subset).partners
                ) == oracle.brute_formability(fw, kind, subset), (fw, kind, subset)


def test_formability_matches_brute_force_seven(seven):
    base = by_ids(seven, "a2")
    for kind in ("W", "M", "WS", "S"):
        assert list(
            coalition.formability(seven, kind, base).partners
        ) == oracle.brute_formability(seven, kind, base)


def test_max_profitable_matches_brute_force(request, random_models):
    for fw in all_fixtures(request)[:1] + random_models:
        subsets = [
            s
            for s in _subsets(fw.arguments)
            if semantics.is_conflict_eliminable(fw, s)
        ]
        for s1 in subsets:
            for s2 in subsets:
                if s1 <= s2:
                    assert coalition.max_profitable(fw, s1, s2) == (
                        oracle.brute_max_profitable(fw, s1, s2)
                    )


@pytest.mark.parametrize("name", [path.stem for path in FIXTURE_FILES])
def test_shared_basis_matches_brute_force(request, name):
    # the f criterion measured against the shared base: every nonempty family
    # base against each of its family supersets, and WS and S from that base
    fw = request.getfixturevalue(name.replace("-", "_"))
    family = semantics.enumerate_conflict_eliminable(fw)
    for base in family[1:]:
        for sup in family:
            if base <= sup:
                assert coalition.max_profitable(fw, base, sup, "shared") == (
                    oracle.brute_max_profitable(fw, base, sup, "shared")
                ), (base, sup)
        for kind in ("WS", "S"):
            assert list(
                coalition.formability(fw, kind, base, "shared").partners
            ) == oracle.brute_formability(fw, kind, base, "shared"), (kind, base)


@pytest.mark.parametrize("policy", ["strict", "persist"])
@pytest.mark.parametrize("aggregator", ["max", "sum"])
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_group_entries_match_brute_force(aggregator, policy, seed):
    # group entries below the fold of one of their subsets, which a kernel
    # trying only the listed keys and the singleton-resolving core misses
    fw = oracle.generate_group_entries(seed, aggregator, policy)
    args = sorted(fw.arguments)
    family = semantics._conflict_eliminable_sets(fw)
    for subset in _subsets(fw.arguments, include_empty=True):
        for target in args:
            assert semantics.max_attack_strength(fw, subset, target) == (
                oracle.brute_vmax(fw, subset, target)
            ), (subset, target)
        ce = semantics.is_conflict_eliminable(fw, subset)
        assert ce == oracle.brute_conflict_eliminable(fw, subset) == (subset in family)
        assert semantics.is_c_admissible(fw, subset) == (
            oracle.brute_c_admissible(fw, subset)
        ), subset
        if ce:
            assert all(sub in family for sub in _subsets(subset))
            assert semantics.intrinsic(fw, subset) == oracle.brute_alpha(fw, subset)
            assert semantics.state_rank(fw, subset) == (
                oracle._brute_rank(fw, subset)
            ), subset
            for target in args:
                assert semantics.c_attacks(fw, subset, target) == (
                    oracle.brute_c_attacks(fw, subset, target)
                ), (subset, target)
                assert semantics.c_defeats(fw, subset, target) == (
                    oracle.brute_c_defeats(fw, subset, target)
                ), (subset, target)
    for theorem in ("L1", "P5"):
        report = check_theorem(fw, theorem)
        assert report.verdict, report.to_json()


def test_persist_projections_reach_attackers_with_repeated_ids():
    # the one entry {x(3), y(3)} -> t(2) projects under persist onto {x(1),
    # y(1)} and {x(2), y(1)}, both inside an attacker set holding two
    # instances of x, so that set attacks t with strength 2 and defeats it
    x1, x2, x3, y1, y3, t = (
        Arg("x", 1), Arg("x", 2), Arg("x", 3), Arg("y", 1), Arg("y", 3), Arg("t", 2)
    )
    fw = Framework.build([x3, y3, t], {(frozenset({x3, y3}), t): 2}, "max", "persist")
    attackers = {x1, x2, y1}
    assert semantics.max_attack_strength(fw, attackers, t) == 2
    assert oracle.brute_vmax(fw, attackers, t) == 2
    assert semantics.defeats(fw, attackers, t) and oracle.brute_defeats(fw, attackers, t)


@pytest.mark.parametrize(
    "seed, aggregator", [(25, "max"), (68, "max"), (75, "max"), (26, "sum")]
)
def test_group_entries_match_brute_force_on_every_instance_set(seed, aggregator):
    # attacker sets drawn from every instance the table names, so some hold
    # two instances of one identifier; on these seeds a kernel that skips the
    # persist projections onto such sets answers below the definition
    fw = oracle.generate_group_entries(seed, aggregator, "persist")
    instances = fw.arguments | fw.strengths.instances()
    for attackers in _subsets(instances):
        for target in sorted(instances):
            where = (sorted(attackers), target)
            assert semantics.max_attack_strength(fw, attackers, target) == (
                oracle.brute_vmax(fw, attackers, target)
            ), where
            assert semantics.attacks(fw, attackers, target) == (
                oracle.brute_attacks(fw, attackers, target)
            ), where
            assert semantics.defeats(fw, attackers, target) == (
                oracle.brute_defeats(fw, attackers, target)
            ), where


def test_generate_group_entries_deterministic():
    fw = oracle.generate_group_entries(3)
    assert fw == oracle.generate_group_entries(3) != oracle.generate_group_entries(4)
    assert any(len(k) > 1 for (k, _), _ in fw.strengths.entries_items)


def test_generate_random_deterministic():
    spec = RandomModelSpec(argument_count=5, attack_density=0.3, seed=7)
    assert generate_random(spec) == generate_random(spec)
    other = RandomModelSpec(argument_count=5, attack_density=0.3, seed=8)
    assert generate_random(other) != generate_random(spec)


def test_generate_random_attack_free_at_zero_density():
    fw = generate_random(RandomModelSpec(argument_count=4, attack_density=0.0, seed=1))
    assert not fw.strengths.entries_items


def test_generate_random_axiom_valid():
    for seed in range(12):
        spec = RandomModelSpec(
            argument_count=4,
            attack_density=0.3,
            aggregator="sum" if seed % 2 else "max",
            seed=seed,
        )
        fw = generate_random(spec)
        report = validate_axioms(fw)
        assert report.ok, (seed, str(report))


def test_check_theorem_reports(ldp, seven):
    report = check_theorem(ldp, "L1", "ldp")
    assert report.verdict and report.counterexample is None
    assert '"verdict": "pass"' in report.to_json()
    assert check_theorem(seven, "T10", "seven").verdict


def test_check_theorem_unknown_id(ldp):
    with pytest.raises(ValueError):
        check_theorem(ldp, "Z9")


def test_theorem_witness_fixtures(asym, disc):
    assert check_theorem(asym, "T7").verdict
    assert check_theorem(disc, "T8").verdict


def test_defeat_needs_an_attack_on_a_capacity_zero_target():
    # no subset of {x} attacks y, so nothing defeats it, whatever its capacity
    x, y = Arg("x", 1), Arg("y", 0)
    fw = Framework.build([x, y], {})
    assert not semantics.defeats(fw, {x}, y)
    assert not oracle.brute_defeats(fw, {x}, y)
