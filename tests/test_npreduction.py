"""The plain semantics and the reduction check, with the frozenset forms the
mask search replaced kept below as the reference."""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

from ceaf import (
    Arg,
    Framework,
    NPFramework,
    StateRank,
    check_reduction,
    np_semantics,
    semantics,
    to_np,
)
from ceaf.core import SIZE_LIMIT_DEFAULT, ValidationReport, Violation, _Masks, _subsets
from ceaf.npreduction import (
    NP_KINDS,
    NotAnAttack,
    PreconditionUnmet,
    np_attacks,
    np_minimal,
)
from ceaf.oracle import generate_random_restricted


@pytest.fixture(scope="module")
def chain():
    # x -> y -> z plus a group attack {x, z} -> w
    return NPFramework.build(
        "xyzw",
        [({"x"}, "y"), ({"y"}, "z"), ({"x", "z"}, "w")],
    )


def test_np_attacks(chain):
    assert np_attacks(chain, {"x"}, "y")
    assert not np_attacks(chain, {"x"}, "w")  # only the pair attacks w
    assert np_attacks(chain, {"x", "z"}, "w")
    assert np_attacks(chain, {"x", "y", "z"}, "w")


def test_np_minimal(chain):
    assert np_minimal(chain, {"x"}, "y")
    assert np_minimal(chain, {"x", "z"}, "w")
    with pytest.raises(NotAnAttack):
        np_minimal(chain, {"x", "y"}, "w")
    wide = NPFramework.build("xy", [({"x"}, "y"), ({"x", "y"}, "y")])
    assert not np_minimal(wide, {"x", "y"}, "y")


def test_np_semantics_mutual_pair():
    np = NPFramework.build("xy", [({"x"}, "y"), ({"y"}, "x")])
    assert np_semantics(np, "preferred") == [frozenset("x"), frozenset("y")]


def test_np_semantics_no_attacks():
    np = NPFramework.build("xy", [])
    assert np_semantics(np, "preferred") == [frozenset("xy")]


def test_np_semantics_chain_defends():
    np = NPFramework.build("xyz", [({"x"}, "y"), ({"y"}, "z")])
    admissible = np_semantics(np, "admissible")
    assert frozenset("xz") in admissible
    assert frozenset("z") not in admissible
    assert np_semantics(np, "preferred") == [frozenset("xz")]


def test_np_semantics_conflict_free():
    np = NPFramework.build("xy", [({"x"}, "y")])
    assert frozenset("xy") not in np_semantics(np, "conflict-free")
    assert frozenset("x") in np_semantics(np, "conflict-free")


def _restricted(entries, names):
    args = {n: Arg(n, 1) for n in names}
    table = {
        (frozenset(args[a] for a in attackers), args[t]): 1
        for attackers, t in entries
    }
    return Framework.build(
        args.values(), table, aggregator="explicit-only", variant_policy="strict"
    )


def test_check_reduction_mutual_pair():
    fw = _restricted([({"x"}, "y"), ({"y"}, "x")], "xy")
    assert check_reduction(fw).ok


def test_check_reduction_attack_free():
    fw = _restricted([], "xy")
    assert check_reduction(fw).ok


def test_check_reduction_group_attacks():
    fw = _restricted(
        [({"x"}, "y"), ({"y"}, "z"), ({"x", "z"}, "w"), ({"w"}, "x")], "xyzw"
    )
    assert check_reduction(fw).ok


def test_check_reduction_rejects_partial_attacks():
    x, y = Arg("x", 1), Arg("y", 3)
    fw = Framework.build(
        [x, y], {(frozenset({x}), y): 1}, aggregator="explicit-only"
    )
    with pytest.raises(PreconditionUnmet):
        check_reduction(fw)


def test_check_reduction_rejects_derived_tables(ldp):
    with pytest.raises(PreconditionUnmet):
        check_reduction(ldp)


def test_to_np_forgets_capacities(ldp):
    np = to_np(ldp)
    assert np.arguments == frozenset({"a1", "a2", "a3", "a4"})
    assert (frozenset({"a1"}), "a3") in np.group_attacks


# the frozenset forms the mask search replaced: the reference


def ref_minimal_attacks_on(np, target):
    pairs = [a for (a, t) in np.group_attacks if t == target]
    return [a for a in pairs if not any(b < a for b in pairs)]


def ref_conflict_free(np, group):
    return not any(np_attacks(np, group, a) for a in group)


def ref_defends(np, group, target):
    for attack in ref_minimal_attacks_on(np, target):
        if not any(np_attacks(np, group, ax) for ax in attack):
            return False
    return True


def ref_admissible(np, group):
    return ref_conflict_free(np, group) and all(
        ref_defends(np, group, a) for a in group
    )


def ref_np_semantics(np, kind):
    subsets = list(_subsets(np.arguments, include_empty=True))
    if kind == "conflict-free":
        chosen = [s for s in subsets if ref_conflict_free(np, s)]
    else:
        chosen = [s for s in subsets if ref_admissible(np, s)]
    if kind == "preferred":
        chosen = [s for s in chosen if not any(s < t for t in chosen)]
    return sorted(chosen, key=lambda s: (len(s), sorted(s)))


def ref_check_reduction(fw, limit=SIZE_LIMIT_DEFAULT):
    """Every subset probed: conflict-eliminable against conflict-free, the
    per-set claims for each conflict-eliminable one, the admissible families
    by filtering all subsets."""
    np = to_np(fw)
    ids = lambda s: frozenset(a.id for a in s)
    violations = []

    subsets = list(_subsets(fw.arguments, include_empty=True))
    for s in subsets:
        ce = semantics.is_conflict_eliminable(fw, s)
        cf = ref_conflict_free(np, ids(s))
        if ce != cf:
            violations.append(
                Violation(
                    "conflict-eliminable = conflict-free",
                    (s,),
                    f"{sorted(ids(s))}: conflict-eliminable={ce} conflict-free={cf}",
                )
            )
        if ce:
            alpha = semantics.intrinsic(fw, s)
            if alpha != s:
                violations.append(
                    Violation(
                        "intrinsic identity",
                        (s,),
                        f"intrinsic arguments of {sorted(ids(s))} differ from it",
                    )
                )
            for t in sorted(fw.arguments):
                ca = semantics.c_attacks(fw, s, t)
                at = semantics.attacks(fw, s, t)
                cd = semantics.c_defeats(fw, s, t)
                if ca != at:
                    violations.append(
                        Violation(
                            "c-attack = attack",
                            (s, t),
                            f"{sorted(ids(s))} vs {t.id}: c-attack={ca} attack={at}",
                        )
                    )
                if ca != cd:
                    violations.append(
                        Violation(
                            "c-attack = c-defeat",
                            (s, t),
                            f"{sorted(ids(s))} vs {t.id}: c-attack={ca} c-defeat={cd}",
                        )
                    )

    c_adm = {ids(s) for s in subsets if semantics.is_c_admissible(fw, s)}
    adm = {s for s in _subsets(np.arguments, include_empty=True) if ref_admissible(np, s)}
    if c_adm != adm:
        difference = sorted(
            (sorted(d) for d in c_adm.symmetric_difference(adm)), key=str
        )
        violations.append(
            Violation(
                "c-admissible = admissible",
                tuple(),
                f"admissible families differ on {difference}",
            )
        )
    c_pref = {ids(s) for s in semantics.enumerate_c_preferred(fw, limit)}
    pref = set(ref_np_semantics(np, "preferred"))
    if c_pref != pref:
        difference = sorted(
            (sorted(d) for d in c_pref.symmetric_difference(pref)), key=str
        )
        violations.append(
            Violation(
                "c-preferred = preferred",
                tuple(),
                f"preferred families differ on {difference}",
            )
        )
    return ValidationReport(tuple(violations))


@st.composite
def plain_frameworks(draw):
    """0-8 names; group attacks of 1-3 attackers on any name, so self attacks
    and groups that contain their target occur."""
    names = "abcdefgh"[: draw(st.integers(0, 8))]
    attacks = []
    if names:
        for _ in range(draw(st.integers(0, 2 * len(names)))):
            group = draw(st.sets(st.sampled_from(names), min_size=1, max_size=3))
            attacks.append((group, draw(st.sampled_from(names))))
    return NPFramework.build(names, attacks)


@settings(max_examples=200, deadline=None)
@given(np=plain_frameworks())
def test_np_semantics_matches_reference(np):
    for kind in NP_KINDS:
        assert np_semantics(np, kind) == ref_np_semantics(np, kind)


def test_np_semantics_self_attack_and_target_in_group():
    np = NPFramework.build("xyz", [({"x"}, "x"), ({"y", "z"}, "z")])
    for kind in NP_KINDS:
        assert np_semantics(np, kind) == ref_np_semantics(np, kind)
    # z is attacked by {y, z}, which nothing attacks
    assert np_semantics(np, "preferred") == [frozenset("y")]


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(0, 8),
    density=st.sampled_from([0.1, 0.2, 0.35, 0.5]),
    seed=st.integers(0, 10_000),
)
def test_check_reduction_matches_reference(size, density, seed):
    report = check_reduction(generate_random_restricted(size, density, seed))
    expected = ref_check_reduction(generate_random_restricted(size, density, seed))
    assert str(report) == str(expected)


# each claim's check can fail: the engine answers wrongly in one place, on a
# seam that both check_reduction and the reference pass through, and the
# report names that claim, as the reference does


def _wall():
    # x -> y -> z, and w attacks nothing; {w, x, z} is the one preferred set.
    # y has capacity 2, so a view strength of 1 on it is a c-attack that is
    # not a c-defeat
    w, x, y, z = Arg("w", 1), Arg("x", 1), Arg("y", 2), Arg("z", 1)
    table = {(frozenset({x}), y): 2, (frozenset({y}), z): 1}
    return Framework.build(
        [w, x, y, z], table, aggregator="explicit-only", variant_policy="strict"
    )


def _mask(fw, *names):
    """The mask of the named base arguments: bit i is the i-th sorted one."""
    return sum(1 << i for i, a in enumerate(sorted(fw.arguments)) if a.id in names)


def _flip(monkeypatch, owner, name, at, answer):
    """``owner.<name>(first, *at)`` gives ``answer(first)``, and every other
    call the engine's answer; the first argument is a mask context."""
    real = getattr(owner, name)
    monkeypatch.setattr(
        owner,
        name,
        lambda first, *key: answer(first) if key == at else real(first, *key),
    )


def _view_strength(monkeypatch, fw, member, target, v):
    at = (_mask(fw, member), _mask(fw, target))
    _flip(monkeypatch, semantics, "_view_strongest", at, lambda masks: v)


def _drop_from_family(monkeypatch, fw, *names):
    m = _mask(fw, *names)
    _flip(monkeypatch, _Masks, "eliminable", (m,), lambda masks: False)
    real = semantics._family
    monkeypatch.setattr(
        semantics, "_family", lambda fw: {k: s for k, s in real(fw).items() if k != m}
    )


FLIPS = {
    # (break the engine, the axioms the report must name)
    # x attacks y with 2; a view strength of 1 is a c-attack but no c-defeat
    "c-defeat": (
        lambda mp, fw: _view_strength(mp, fw, "x", "y", 1),
        {"c-attack = c-defeat"},
    ),
    # w attacks nothing, so a view strength of 1 on y is a c-attack without
    # an attack or a c-defeat: both halves of the claim break
    "c-attack": (
        lambda mp, fw: _view_strength(mp, fw, "w", "y", 1),
        {"c-attack = attack", "c-attack = c-defeat"},
    ),
    # w attacks nothing, so the extra intrinsic argument changes no attack
    "intrinsic": (
        lambda mp, fw: _flip(
            mp, _Masks, "intrinsic", (_mask(fw, "x"),), lambda _: _mask(fw, "w", "x")
        ),
        {"intrinsic identity"},
    ),
    # a weakened member changes the view's arguments too, which intrinsic
    # identity already reports
    "weakened intrinsic": (
        lambda mp, fw: _flip(
            mp,
            _Masks,
            "intrinsic",
            (_mask(fw, "w"),),
            lambda masks: masks.mask({fw.by_id("w").with_capacity(0)}),
        ),
        {"intrinsic identity"},
    ),
    # {y} is conflict-eliminable but not admissible
    "conflict-eliminable": (
        lambda mp, fw: _drop_from_family(mp, fw, "y"),
        {"conflict-eliminable = conflict-free"},
    ),
    # the empty set is admissible but not preferred
    "c-admissible": (
        lambda mp, fw: _flip(mp, semantics, "_rank", (0,), lambda _: StateRank.MIDDLE),
        {"c-admissible = admissible"},
    ),
}


@pytest.mark.parametrize("claim", FLIPS)
def test_check_reduction_reports_a_broken_claim(claim, monkeypatch):
    assert check_reduction(_wall()).ok
    breaks, axioms = FLIPS[claim]
    fw, reference = _wall(), _wall()
    breaks(monkeypatch, fw)
    report = check_reduction(fw)
    assert {v.axiom for v in report.violations} == axioms
    assert str(report) == str(ref_check_reduction(reference))


def test_check_reduction_compares_families_without_views():
    # 4,096 subsets, of which the conflict-eliminable family is a small part:
    # no subset outside it is probed and no view is built
    fw = generate_random_restricted(12, 0.2, 1)
    assert check_reduction(fw).ok
    family = semantics._conflict_eliminable_sets(fw)
    probed = semantics._masks(fw).ce
    assert 0 < len(probed) <= len(family) < 4096
    assert all(probed.values())
    assert not fw._memo.get(inspect.unwrap(semantics.view))


# an entry keyed by an instance that is not a base argument: to_np would turn
# it into a plain attack that the base argument cannot launch


def test_check_reduction_rejects_entries_off_the_base():
    x, y = Arg("x", 2), Arg("y", 1)
    fw = Framework.build(
        [x, y], {(frozenset({Arg("x", 1)}), y): 1}, aggregator="explicit-only"
    )
    assert not semantics.attacks(fw, {x}, y)
    with pytest.raises(PreconditionUnmet, match=r"from \{x\(1\)\}"):
        check_reduction(fw)


def test_check_reduction_rejects_shared_identifiers():
    x1, x2, y = Arg("x", 1), Arg("x", 2), Arg("y", 1)
    fw = Framework.build(
        [x1, x2, y], {(frozenset({x1}), y): 1}, aggregator="explicit-only"
    )
    with pytest.raises(PreconditionUnmet, match="distinct"):
        check_reduction(fw)

