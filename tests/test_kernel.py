"""The L1-L3 mask kernel against the definitions, on frozensets.

``max_attack_strength``, ``defeats``, ``is_conflict_eliminable``,
``c_attacks``, ``c_defeats`` and ``state_rank`` (which ``is_c_admissible`` and
``is_one_directionally_attacked`` read) all resolve through one per-framework
mask context (``core._Masks``).  The reference below is the definition: every
nonempty id-unique subset of the attackers looked up with
``StrengthModel.strength`` or with a view's rule, and the best of them taken
by ``_strongest``; the minimal attacking sets ``_minimal_attack_sets`` finds
among the resolving singletons, listed keys and persist projections, since
every attacking set contains one of those.  Attack strength and defeat on
attacker sets holding two instances of one identifier are checked against the
brute-force oracle instead.
"""

import importlib
import importlib.util
import itertools
import sys
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ceaf import (
    Framework,
    RandomModelSpec,
    StateRank,
    StrengthModel,
    generate_random,
    instantiated_closure,
    is_one_directionally_attacked,
    semantics,
)
from ceaf.core import _Masks, _id_unique_subsets, _masks, _subsets
from ceaf.oracle import brute_conflict_eliminable, brute_defeats, brute_vmax
from conftest import ROOT, by_ids, load_fixture
from test_coalition import DIFFERENTIAL_FRAMEWORKS, non_monotone_group_entry
from test_core import strength_tables


def _persist_projections(model, pool, target):
    """Under persist, every listed entry on ``target`` whose identifiers are
    distinct and all carried by the id-unique ``pool``, projected onto the
    pool's instances of those identifiers."""
    if model.variant_policy != "persist":
        return
    by_id = {a.id: a for a in pool}
    if len(by_id) != len(pool):
        return
    for key in model._by_target.get(target, ()):
        # ``by_id`` holds one instance per pool id, so the projection keeps
        # all of ``key``'s members exactly when their ids are distinct and
        # all in the pool
        proj = frozenset(by_id.get(a.id) for a in key)
        if len(proj) == len(key) and None not in proj:
            yield proj


def _minimal_attack_sets(model, pool, lookup, target):
    """The minimal subsets of the id-unique ``pool`` to which ``lookup`` gives
    a strength against ``target``, by size then members: the resolving
    singletons, listed keys and persist projections, less those that contain
    another."""
    singletons = (frozenset((x,)) for x in pool)
    found = {s for s in singletons if lookup(s, target) is not None}
    listed = (k for k in model._by_target.get(target, ()) if k <= pool)
    for cand in itertools.chain(listed, _persist_projections(model, pool, target)):
        if any(f <= cand for f in found) or lookup(cand, target) is None:
            continue
        found = {f for f in found if not cand < f}
        found.add(cand)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def _strongest(lookup, attackers, target):
    """The maximum strength ``lookup`` gives a nonempty id-unique subset of
    ``attackers`` against ``target``; 0 when it gives none."""
    values = (lookup(s, target) for s in _id_unique_subsets(attackers))
    return max((v for v in values if v is not None), default=0)


def ref_max_attack_strength(fw, attackers, target):
    return _strongest(fw.strengths.strength, frozenset(attackers), target)


def ref_defeats(fw, attackers, target):
    attackers = frozenset(attackers)
    return bool(attackers) and (
        ref_max_attack_strength(fw, attackers, target) >= target.capacity
    )


def ref_conflict_eliminable(fw, subset):
    return all(not ref_defeats(fw, subset, s) for s in subset)


def ref_view(fw, subset):
    alpha = frozenset(
        s.with_capacity(s.capacity - ref_max_attack_strength(fw, subset, s))
        for s in subset
    )
    args = (fw.arguments - subset) | alpha
    return semantics.View(fw.strengths, subset, alpha, args)


def ref_view_strongest(fw, subset, target):
    vw = ref_view(fw, subset)
    return _strongest(vw.strength, vw.alpha, target)


def ref_unanswered_attack(fw, subset, answers):
    """Some minimal attacking set on a member, in the view, has no element
    ``x`` with ``answers(x)``."""
    vw = ref_view(fw, subset)
    return any(
        not any(answers(x) for x in attack_set)
        for member in subset
        for attack_set in _minimal_attack_sets(
            fw.strengths, vw.arguments, vw.strength, member
        )
    )


def ref_c_admissible(fw, subset):
    def defeated(x):
        return 0 < ref_view_strongest(fw, subset, x) >= x.capacity

    return ref_conflict_eliminable(fw, subset) and not ref_unanswered_attack(
        fw, subset, defeated
    )


def ref_one_directionally_attacked(fw, subset):
    return ref_unanswered_attack(
        fw, subset, lambda x: ref_view_strongest(fw, subset, x) > 0
    )


def ref_conflict_eliminable_sets(fw):
    subsets = _subsets(fw.arguments, include_empty=True)
    return tuple(s for s in subsets if ref_conflict_eliminable(fw, s))


@pytest.mark.parametrize("policy", ["strict", "persist"])
@pytest.mark.parametrize("aggregator", ["max", "sum", "explicit-only"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_attack_strength_matches_reference(aggregator, policy, data):
    model = data.draw(strength_tables(aggregator, policy))
    pool = model.instances()
    top = {}
    for a in sorted(pool):
        top[a.id] = a  # each identifier at its largest capacity
    fw = Framework(frozenset(top.values()), model)
    # any attacker set, two instances of one identifier included; a sample,
    # since the brute maximum over all of them grows as 3**len(pool)
    drawn = st.lists(st.sampled_from(list(_subsets(pool))), max_size=40)
    for attackers in [frozenset(), *data.draw(drawn)]:
        for target in sorted(pool):
            want = brute_vmax(fw, attackers, target)
            assert semantics.max_attack_strength(fw, attackers, target) == want, (
                sorted(attackers), target
            )
            assert semantics.defeats(fw, attackers, target) == (
                brute_defeats(fw, attackers, target)
            ), (sorted(attackers), target)


@pytest.mark.parametrize(
    "make", DIFFERENTIAL_FRAMEWORKS.values(), ids=DIFFERENTIAL_FRAMEWORKS
)
def test_kernel_matches_reference(make):
    fw = make()
    family = ref_conflict_eliminable_sets(fw)
    assert semantics._conflict_eliminable_sets(fw) == family
    for subset in _subsets(fw.arguments, include_empty=True):
        assert semantics.is_conflict_eliminable(fw, subset) == (
            subset in family
        ), subset
    targets = sorted(instantiated_closure(fw))
    for subset in family:
        for target in targets:
            best = ref_view_strongest(fw, subset, target)
            assert semantics.c_attacks(fw, subset, target) == (best > 0), (
                subset, target
            )
            assert semantics.c_defeats(fw, subset, target) == (
                0 < best >= target.capacity
            ), (subset, target)
            assert semantics.max_attack_strength(fw, subset, target) == (
                ref_max_attack_strength(fw, subset, target)
            ), (subset, target)


@pytest.mark.parametrize(
    "make", DIFFERENTIAL_FRAMEWORKS.values(), ids=DIFFERENTIAL_FRAMEWORKS
)
def test_states_match_reference(make):
    fw = make()
    for subset in ref_conflict_eliminable_sets(fw):
        admissible = ref_c_admissible(fw, subset)
        one_directional = ref_one_directionally_attacked(fw, subset)
        assert semantics.is_c_admissible(fw, subset) == admissible, subset
        assert is_one_directionally_attacked(fw, subset) == one_directional, subset
        want = (
            StateRank.CADMISSIBLE if admissible
            else StateRank.ONE_DIRECTIONAL if one_directional
            else StateRank.MIDDLE
        )
        assert semantics.state_rank(fw, subset) == want, subset


@pytest.mark.parametrize("policy", ["strict", "persist"])
def test_kernel_keeps_the_non_monotone_witness(policy):
    # The listed {x0, x1, x4} -> x2 = 1 lies below the fold of its subsets
    # {x0, x4} and {x1, x4}, 1 + 2 = 3; the strongest subset attack is that
    # fold, so x4 with x0 or x1 defeats x2 and the family is downward closed.
    fw = non_monotone_group_entry(policy)
    x0, x1, x2, x4 = (fw.by_id(n) for n in ("x0", "x1", "x2", "x4"))
    assert semantics.max_attack_strength(fw, {x0, x1, x4}, x2) == 3
    assert brute_vmax(fw, {x0, x1, x4}, x2) == 3
    assert not semantics.is_conflict_eliminable(fw, {x0, x1, x2, x4})
    assert not semantics.is_conflict_eliminable(fw, {x1, x2, x4})
    subsets = list(_subsets(fw.arguments, include_empty=True))
    family = semantics._conflict_eliminable_sets(fw)
    assert family == tuple(s for s in subsets if not ({x2, x4} <= s and s & {x0, x1}))
    assert family == tuple(s for s in subsets if brute_conflict_eliminable(fw, s))


def test_enumeration_resolves_each_mask_once(monkeypatch):
    fw = generate_random(RandomModelSpec(12, (1, 4), 0.25, "sum", 1))
    calls = 0
    resolve = StrengthModel.strength

    def counted(self, attackers, target):
        nonlocal calls
        calls += 1
        return resolve(self, attackers, target)

    monkeypatch.setattr(StrengthModel, "strength", counted)
    family = semantics.enumerate_conflict_eliminable(fw)
    assert family  # the empty set at least
    assert calls <= 1000, calls


def test_family_grows_instead_of_probing_the_powerset(monkeypatch):
    # Each conflict-eliminable set is probed once for every bit above its
    # highest: 592 probes for 384 sets, where the powerset filter made 4,096.
    fw = generate_random(RandomModelSpec(12, (1, 4), 0.25, "sum", 1))
    masks, n, probes = _masks(fw), len(fw.arguments), 0
    probe = _Masks.conflict_eliminable

    def counted(self, mask):
        nonlocal probes
        probes += 1
        return probe(self, mask)

    monkeypatch.setattr(_Masks, "conflict_eliminable", counted)
    family = semantics.enumerate_conflict_eliminable(fw)
    grown = sum(n - masks.mask(s).bit_length() for s in family)
    assert probes == grown <= len(family) * n
    monkeypatch.undo()
    subsets = _subsets(fw.arguments, include_empty=True)
    assert family == [s for s in subsets if masks.conflict_eliminable(masks.mask(s))]


def test_conflict_eliminability_matches_definition_on_seven_under_persist():
    # seven under persist has variant ids and persist projections on most
    # targets; every mask of its base arguments against the definition
    seven = load_fixture("seven")
    fw = Framework(seven.arguments, replace(seven.strengths, variant_policy="persist"))
    masks = _masks(fw)
    probes = range(1 << len(fw.arguments))  # the base arguments hold the low bits
    answers = [masks.conflict_eliminable(m) for m in probes]
    assert answers == [ref_conflict_eliminable(fw, masks.members(m)) for m in probes]


def test_admissibility_builds_no_view(monkeypatch):
    fw = generate_random(RandomModelSpec(12, (1, 4), 0.25, "sum", 1))
    calls = Counter()
    resolve, view = StrengthModel.strength, semantics.view

    def counted(self, attackers, target):
        calls["strength"] += 1
        return resolve(self, attackers, target)

    def counted_view(fw, subset):
        calls["view"] += 1
        return view(fw, subset)

    monkeypatch.setattr(StrengthModel, "strength", counted)
    monkeypatch.setattr(semantics, "view", counted_view)
    assert semantics.enumerate_c_admissible(fw)  # the empty set at least
    assert calls["view"] == 0
    assert calls["strength"] <= 1000, calls


def test_tracer_sees_the_layer_seams():
    # perfbench/spans.py patches the public functions by qualified name; the
    # kernel must leave every seam it reads on the call path.
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for short in spans.MODULES:
        importlib.import_module(f"ceaf.{short}")
    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if name == "ceaf" or name.startswith("ceaf.")
    }
    saved = {name: dict(vars(mod)) for name, mod in modules.items()}
    strength = StrengthModel.strength
    tracer = spans.Tracer()
    try:
        tracer.install()
        fw = load_fixture("seven")
        sys.modules["ceaf.coalition"].formability(fw, "WS", by_ids(fw, "a2"))
    finally:
        StrengthModel.strength = strength
        for name, mod in modules.items():
            for attr, value in saved[name].items():
                if vars(mod).get(attr) is not value:
                    setattr(mod, attr, value)
    seen = Counter(tracer.names[k] for k in tracer.kind)
    for name in (
        "core.strength",
        "semantics.max_attack_strength",
        "semantics.c_defeats",
        "coalition.attackers",
    ):
        assert seen[name] > 0, name
