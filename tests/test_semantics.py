import pytest

from ceaf import (
    Arg,
    Framework,
    NotConflictEliminable,
    RandomModelSpec,
    attacks,
    c_attacks,
    c_defeats,
    defeats,
    enumerate_c_preferred,
    generate_random,
    intrinsic,
    is_c_admissible,
    is_conflict_eliminable,
    max_attack_strength,
    view,
)
from conftest import by_ids, load_fixture


def test_attacks_known_pairs(ldp):
    a1, a3, a4 = ldp.by_id("a1"), ldp.by_id("a3"), ldp.by_id("a4")
    assert attacks(ldp, {a1}, a3)
    assert not attacks(ldp, {a4}, a1)
    assert not attacks(ldp, frozenset(), a3)


def test_max_attack_strength(ldp):
    a1, a2, a3, a4 = (ldp.by_id(n) for n in ("a1", "a2", "a3", "a4"))
    assert max_attack_strength(ldp, {a3}, a1) == 3
    assert max_attack_strength(ldp, {a4}, a1) == 0
    assert max_attack_strength(ldp, {a1, a2}, a3) == 4
    assert max_attack_strength(ldp, {a1, a2, a4}, a3) == 5


def test_defeats(ldp):
    a1, a3, a4 = ldp.by_id("a1"), ldp.by_id("a3"), ldp.by_id("a4")
    assert defeats(ldp, {a3}, a4)  # strength 1 reaches capacity 1
    assert not defeats(ldp, {a1}, a3)  # 3 < 5
    assert not defeats(ldp, frozenset(), a3)


def test_conflict_eliminable(ldp):
    assert is_conflict_eliminable(ldp, by_ids(ldp, "a1", "a3"))
    assert is_conflict_eliminable(ldp, by_ids(ldp, "a1", "a2", "a3"))
    # a3's attack defeats a4 outright
    assert not is_conflict_eliminable(ldp, by_ids(ldp, "a3", "a4"))
    for a in ldp.arguments:
        assert is_conflict_eliminable(ldp, {a})


def test_mutual_defeat_pair_not_conflict_eliminable(indep_state):
    assert not is_conflict_eliminable(indep_state, by_ids(indep_state, "s1", "s2"))


def test_intrinsic_running_example(ldp):
    assert intrinsic(ldp, by_ids(ldp, "a1", "a3")) == {Arg("a1", 1), Arg("a3", 2)}
    assert intrinsic(ldp, by_ids(ldp, "a1", "a2", "a3")) == {
        Arg("a1", 1),
        Arg("a2", 1),
        Arg("a3", 1),
    }
    a4 = ldp.by_id("a4")
    assert intrinsic(ldp, {a4}) == {a4}


def test_intrinsic_requires_conflict_eliminable(ldp):
    with pytest.raises(NotConflictEliminable):
        intrinsic(ldp, by_ids(ldp, "a3", "a4"))


def test_view_running_example(ldp):
    vw = view(ldp, by_ids(ldp, "a1", "a3"))
    assert vw.arguments == {
        Arg("a1", 1),
        Arg("a3", 2),
        Arg("a2", 3),
        Arg("a4", 1),
    }
    a2, a4 = ldp.by_id("a2"), ldp.by_id("a4")
    # the only surviving attacks among the view are mutual a3(2) / a2(3)
    assert vw.strength({Arg("a3", 2)}, a2) == 1
    assert vw.strength({a2}, Arg("a3", 2)) == 1
    assert vw.strength({Arg("a3", 2)}, a4) is None
    assert vw.strength({Arg("a1", 1)}, Arg("a3", 2)) is None
    # the purely internal full-capacity attacks are deleted
    a1, a3 = ldp.by_id("a1"), ldp.by_id("a3")
    assert vw.strength({a1}, a3) is None
    assert ldp.strengths.strength({a1}, a3) == 3


def test_view_of_singleton_deletes_nothing(ldp):
    a4 = ldp.by_id("a4")
    vw = view(ldp, {a4})
    assert vw.arguments == ldp.arguments
    a3 = ldp.by_id("a3")
    assert vw.strength({a3}, a4) == 1


def test_view_residual_attack_diagnostic(ldp):
    # in the a2/a3 coalition the weakened a3 still attacks the original a2
    vw = view(ldp, by_ids(ldp, "a2", "a3"))
    assert vw.alpha == {Arg("a2", 1), Arg("a3", 4)}
    assert any("residual attack" in d for d in vw.diagnostics)
    assert view(ldp, by_ids(ldp, "a1", "a3")).diagnostics == ()


def _probe_diagnostics(fw, subset):
    """Reference for ``View.diagnostics``: for each member, the first subset of
    the intrinsic arguments, by size then name, that holds a reduced instance,
    is not inside the coalition, and has a defined strength on the member."""
    from ceaf.core import _subsets

    alpha = intrinsic(fw, subset)
    out = []
    for member in sorted(subset):
        for cand in _subsets(alpha):
            if cand & (alpha - subset) and not cand <= subset:
                if fw.strengths.strength(cand, member) is not None:
                    names = ", ".join(str(a) for a in sorted(cand))
                    out.append(
                        f"residual attack from intrinsic arguments {{{names}}} "
                        f"onto coalition member {member}"
                    )
                    break
    return tuple(out)


def _random(seed, aggregator):
    spec = RandomModelSpec(6, (1, 4), 0.3, aggregator, seed)
    return pytest.param(lambda: generate_random(spec), id=f"random-{aggregator}-{seed}")


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda n=n: load_fixture(n), id=n)
        for n in ("ldp", "seven", "asym", "disc", "indep_larger")
    ]
    + [_random(seed, agg) for seed in range(4) for agg in ("max", "sum")],
)
def test_view_diagnostics_match_powerset_probe(build):
    from ceaf.core import _subsets

    fw = build()
    for s in _subsets(fw.arguments):
        if is_conflict_eliminable(fw, s):
            assert view(fw, s).diagnostics == _probe_diagnostics(fw, s), sorted(s)


def test_c_attacks(ldp):
    pair = by_ids(ldp, "a1", "a3")
    a2, a4 = ldp.by_id("a2"), ldp.by_id("a4")
    assert c_attacks(ldp, pair, a2)
    assert not c_attacks(ldp, pair, a4)
    a3 = ldp.by_id("a3")
    assert not c_attacks(ldp, pair, a3)  # no coalition attacks itself


def test_c_defeats(ldp):
    a2, a4 = ldp.by_id("a2"), ldp.by_id("a4")
    assert c_defeats(ldp, by_ids(ldp, "a3"), a4)
    assert not c_defeats(ldp, by_ids(ldp, "a1", "a3"), a2)  # view strength 1 < 3
    for names, target in ((("a3",), a4), (("a1", "a3"), a2)):
        subset = by_ids(ldp, *names)
        assert c_defeats(ldp, sorted(subset), target) == c_defeats(ldp, subset, target)


def test_c_admissible(ldp):
    assert not is_c_admissible(ldp, by_ids(ldp, "a1", "a3"))
    assert not is_c_admissible(ldp, by_ids(ldp, "a1", "a2", "a3"))
    assert is_c_admissible(ldp, frozenset())
    assert not is_c_admissible(ldp, by_ids(ldp, "a3", "a4"))


def test_c_admissible_implies_conflict_eliminable(ldp, seven, asym, disc):
    from ceaf.core import _subsets

    for fw in (ldp, seven, asym, disc):
        for s in _subsets(fw.arguments, include_empty=True):
            if is_c_admissible(fw, s):
                assert is_conflict_eliminable(fw, s)


def test_enumerate_c_preferred_attack_free():
    x, y = Arg("x", 1), Arg("y", 2)
    fw = Framework.build([x, y], {})
    assert enumerate_c_preferred(fw) == [frozenset({x, y})]


def test_enumerate_c_preferred_seven(seven):
    result = enumerate_c_preferred(seven)
    assert by_ids(seven, "s1", "a2", "s7") in result
    assert by_ids(seven, "a2", "a3", "s7") in result


def test_enumerate_c_preferred_disc(disc):
    assert by_ids(disc, "a1", "a2", "s3") in enumerate_c_preferred(disc)


def test_size_limit():
    from ceaf import SizeLimitExceeded

    args = [Arg(f"x{i}", 1) for i in range(5)]
    fw = Framework.build(args, {})
    with pytest.raises(SizeLimitExceeded):
        enumerate_c_preferred(fw, limit=3)
