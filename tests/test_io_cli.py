import argparse
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ceaf import Arg, dot, io_doc
from ceaf.cli import build_parser, main
from conftest import FIXTURE_FILES

ROOT = Path(__file__).resolve().parent.parent
FIXDIR = ROOT / "fixtures"
GOLDDIR = FIXDIR / "goldens"


@pytest.mark.parametrize("path", FIXTURE_FILES, ids=lambda p: p.stem)
def test_fixture_documents_match_builders(path):
    # the shipped documents are the fixtures' one source; each is canonical,
    # exactly what ``dumps`` writes for the framework it loads to
    text = path.read_text()
    assert io_doc.dumps(io_doc.loads(text).framework) == text


@pytest.mark.parametrize("path", FIXTURE_FILES, ids=lambda p: p.stem)
def test_save_load_round_trip(path, tmp_path):
    fw = io_doc.load(path).framework
    saved = tmp_path / "fw.json"
    io_doc.save(fw, saved)
    assert io_doc.load(saved).framework == fw


def test_check_fixtures_script_passes():
    # the frozen claims of fixtures/README.md, re-derived from the documents
    result = subprocess.run(
        [sys.executable, "scripts/check_fixtures.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "all fixture claims hold"


def test_load_running_example(ldp):
    doc = io_doc.load(FIXDIR / "ldp.json")
    assert len(doc.framework.arguments) == 4
    assert doc.mode == "weighted"
    assert doc.framework.strengths.aggregator == "sum"


def test_load_rejects_bad_capacity(tmp_path):
    payload = {
        "version": "1",
        "mode": "weighted",
        "arguments": [{"id": "a1", "capacity": -1}],
        "attacks": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(io_doc.ValidationError) as info:
        io_doc.load(path)
    assert "capacity > 0" in str(info.value)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": "1",')
    with pytest.raises(io_doc.ParseError) as info:
        io_doc.load(path)
    assert info.value.line is not None


def test_load_rejects_schema_violations(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"version": "1", "arguments": [], "attacks": 7}))
    with pytest.raises(io_doc.ValidationError):
        io_doc.load(path)


def test_load_rejects_self_attack(tmp_path):
    payload = {
        "version": "1",
        "arguments": [{"id": "x", "capacity": 2}],
        "attacks": [{"from": [["x", 2]], "to": ["x", 2], "strength": 1}],
    }
    path = tmp_path / "self.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(io_doc.ValidationError):
        io_doc.load(path)


def test_np_mode_defaults(tmp_path):
    payload = {
        "version": "1",
        "mode": "nielsen-parsons",
        "arguments": [{"id": "x"}, {"id": "y"}],
        "attacks": [{"from": ["x"], "to": "y"}],
    }
    path = tmp_path / "np.json"
    path.write_text(json.dumps(payload))
    doc = io_doc.load(path)
    assert doc.np is not None
    assert doc.framework.strengths.aggregator == "explicit-only"
    x, y = doc.framework.by_id("x"), doc.framework.by_id("y")
    assert x.capacity == 1
    assert doc.framework.strengths.strength({x}, y) == 1  # defaults to the capacity


def test_dot_goldens_match(ldp):
    pairs = {
        "ldp-whole.dot": dot.export_dot(ldp),
        "ldp-view-a1-a3.dot": dot.export_dot(
            ldp, {ldp.by_id("a1"), ldp.by_id("a3")}
        ),
        "ldp-view-a1-a2-a3.dot": dot.export_dot(
            ldp, {ldp.by_id("a1"), ldp.by_id("a2"), ldp.by_id("a3")}
        ),
    }
    for name, text in pairs.items():
        assert (GOLDDIR / name).read_text() == text


def test_dot_whole_edges(ldp):
    text = dot.export_dot(ldp)
    for edge in (
        '"a1_4" -> "a3_5" [label="3"]',
        '"a3_5" -> "a1_4" [label="3"]',
        '"a2_3" -> "a3_5" [label="1"]',
        '"a3_5" -> "a2_3" [label="2"]',
        '"a3_5" -> "a4_1" [label="1"]',
        '"a4_1" -> "a3_5" [label="1"]',
    ):
        assert edge in text


def test_dot_empty_framework():
    from ceaf import Framework

    text = dot.export_dot(Framework.build([], {}))
    assert text == "digraph framework {\n  node [shape=ellipse];\n}\n"


def test_dot_group_attack_uses_junction():
    x, y, t = Arg("x", 1), Arg("y", 1), Arg("t", 1)
    from ceaf import Framework

    fw = Framework.build(
        [x, y, t],
        {(frozenset({x, y}), t): 1},
        aggregator="explicit-only",
    )
    text = dot.export_dot(fw)
    assert '"join_1" [shape=point];' in text
    assert '"join_1" -> "t_1" [label="1"];' in text


# ---------------------------------------------------------------------------
# command-line interface


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_validate_ok(capsys):
    code, out, err = run_cli(capsys, "validate", str(FIXDIR / "ldp.json"))
    assert code == 0
    assert out.strip() == "ok"


def test_cli_validate_reports_violations(capsys, tmp_path):
    payload = {
        "version": "1",
        "arguments": [
            {"id": "x", "capacity": 2},
            {"id": "y", "capacity": 5},
        ],
        "attacks": [
            {"from": [["x", 2]], "to": ["y", 5], "strength": 3},
            {"from": [["x", 1]], "to": ["y", 5], "strength": 4},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "monotonicity" in out


def test_cli_validate_rejects_incoherent(capsys, tmp_path):
    path = tmp_path / "neg.json"
    path.write_text(
        json.dumps(
            {
                "version": "1",
                "arguments": [{"id": "x", "capacity": -1}],
                "attacks": [],
            }
        )
    )
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "capacity" in err


def test_cli_validate_honours_limit(capsys):
    code, out, err = run_cli(
        capsys, "--limit", "3", "validate", str(FIXDIR / "ldp.json")
    )
    assert code == 3
    assert out == ""
    assert "4 arguments" in err


def test_cli_validate_unreadable_document(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, "validate", str(missing))
    assert code == 3
    assert str(missing) in err


def test_cli_validate_rejects_deeply_nested_document(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert "nested too deeply" in err


@pytest.mark.parametrize(
    "attack, message",
    [
        ({"from": [["zz", 1]], "to": "y", "strength": 1}, "unknown argument id 'zz'"),
        ({"from": [["x", 0]], "to": "y", "strength": 1}, "capacity of 'x' is 0"),
        ({"from": ["x", ["x", 1]], "to": "y", "strength": 1}, "argument id 'x' twice"),
    ],
    ids=["unknown-id", "zero-capacity", "repeated-id"],
)
def test_cli_validate_rejects_bad_attack_instances(capsys, tmp_path, attack, message):
    payload = {
        "version": "1",
        "arguments": [{"id": "x", "capacity": 2}, {"id": "y", "capacity": 2}],
        "attacks": [{"from": ["x"], "to": "y", "strength": 1}, attack],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert f"attacks[1]: {message}" in err


def test_cli_integral_floats_read_as_integers(capsys, tmp_path):
    def document(cap, strength):
        return {
            "version": "1",
            "arguments": [{"id": "x", "capacity": cap}, {"id": "y", "capacity": 2}],
            "attacks": [
                {"from": [["x", cap]], "to": "y", "strength": strength},
                {"from": ["y"], "to": ["x", cap], "strength": strength},
            ],
        }

    outputs = []
    for name, payload in (("int", document(2, 1)), ("float", document(2.0, 1.0))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        runs = (
            ("export-dot", str(path)),
            ("export-dot", str(path), "--view", "x"),
            ("semantics", str(path), "--kind", "c-preferred"),
            ("--json", "view", str(path), "--set", "x"),
        )
        outputs.append([run_cli(capsys, *argv) for argv in runs])
    assert outputs[1] == outputs[0]
    assert '"x_2"' in outputs[1][0][1] and 'label="1"' in outputs[1][0][1]


def test_cli_semantics(capsys):
    code, out, _ = run_cli(
        capsys, "semantics", str(FIXDIR / "disc.json"), "--kind", "c-preferred"
    )
    assert code == 0
    assert "{a1(2), a2(2), s3(2)}" in out


def test_cli_view(capsys):
    code, out, err = run_cli(
        capsys, "view", str(FIXDIR / "ldp.json"), "--set", "a1,a3"
    )
    assert code == 0
    assert "intrinsic: {a1(1), a3(2)}" in out


def test_cli_view_warns_on_residual_attack(capsys):
    code, out, err = run_cli(
        capsys, "view", str(FIXDIR / "ldp.json"), "--set", "a2,a3"
    )
    assert code == 0
    assert "residual attack" in err


def test_cli_profit_yes(capsys):
    code, out, _ = run_cli(
        capsys,
        "profit",
        str(FIXDIR / "ldp.json"),
        "--s1",
        "a1,a3",
        "--s2",
        "a1,a2,a3",
    )
    assert code == 0
    assert "holds=yes" in out


def test_cli_profit_no(capsys):
    code, out, _ = run_cli(
        capsys,
        "profit",
        str(FIXDIR / "asym.json"),
        "--s1",
        "a2",
        "--s2",
        "s1,a2",
    )
    assert code == 1
    assert "fewer-attackers=no" in out


def test_cli_formability_seven(capsys):
    code, out, _ = run_cli(
        capsys, "formability", str(FIXDIR / "seven.json"), "--kind", "W",
        "--set", "a2",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 7
    assert "{a3(2), s7(2)}" in out


def test_cli_np(capsys, tmp_path):
    payload = {
        "version": "1",
        "mode": "nielsen-parsons",
        "arguments": [{"id": "x"}, {"id": "y"}],
        "attacks": [
            {"from": ["x"], "to": "y"},
            {"from": ["y"], "to": "x"},
        ],
    }
    path = tmp_path / "np.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "np", str(path), "--kind", "preferred")
    assert code == 0
    assert out.splitlines() == ["{x}", "{y}"]


def test_cli_check_theorem(capsys):
    code, out, _ = run_cli(
        capsys, "check", str(FIXDIR / "ldp.json"), "--theorem", "L1"
    )
    assert code == 0
    assert "L1: pass" in out


def test_cli_check_reduction(capsys, tmp_path):
    payload = {
        "version": "1",
        "mode": "nielsen-parsons",
        "arguments": [{"id": "x"}, {"id": "y"}],
        "attacks": [{"from": ["x"], "to": "y"}],
    }
    path = tmp_path / "np.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "check", str(path), "--theorem", "T1")
    assert code == 0
    assert "T1: pass" in out


def test_cli_check_reduction_rejects_entries_off_the_base(capsys, tmp_path):
    # to_np forgets capacities: the entry on x(1) would become a plain attack
    # x -> y that the base argument x(2) cannot launch
    path = tmp_path / "off-base.json"
    path.write_text(
        json.dumps(
            {
                "version": "1",
                "aggregator": "explicit-only",
                "arguments": [{"id": "x", "capacity": 2}, {"id": "y", "capacity": 1}],
                "attacks": [{"from": [["x", 1]], "to": "y", "strength": 1}],
            }
        )
    )
    code, out, err = run_cli(capsys, "check", str(path), "--theorem", "T1")
    assert code == 2
    assert out == ""
    assert err == (
        "error: attack on y(1) from {x(1)} names an instance "
        "that is not a base argument\n"
    )


def test_cli_export_dot_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "export-dot", str(FIXDIR / "ldp.json"))
    assert code == 0
    assert out == (GOLDDIR / "ldp-whole.dot").read_text()


def test_cli_export_dot_view(capsys):
    code, out, _ = run_cli(
        capsys, "export-dot", str(FIXDIR / "ldp.json"), "--view", "a1,a3"
    )
    assert code == 0
    assert out == (GOLDDIR / "ldp-view-a1-a3.dot").read_text()


def test_cli_view_and_dot_show_persist_reduced_group_attack(capsys, tmp_path):
    # {y} -> x weakens x to x(1) in the view of {x, y}; under persist the
    # listed {x(2), y(2)} -> z still resolves for {x(1), y(2)}, and c_defeats
    # counts it, so view and DOT must show it
    path = tmp_path / "persist.json"
    path.write_text(
        json.dumps(
            {
                "version": "1",
                "aggregator": "max",
                "variantPolicy": "persist",
                "arguments": [{"id": i, "capacity": 2} for i in "xyz"],
                "attacks": [
                    {"from": ["y"], "to": "x", "strength": 1},
                    {"from": ["x", "y"], "to": "z", "strength": 2},
                ],
            }
        )
    )
    code, out, _ = run_cli(capsys, "--json", "view", str(path), "--set", "x,y")
    assert code == 0
    assert json.loads(out)["attacks"] == [
        {"from": [["x", 1], ["y", 2]], "to": ["z", 2], "strength": 2}
    ]
    code, out, _ = run_cli(capsys, "view", str(path), "--set", "x,y")
    assert "attack: {x(1), y(2)} -> z(2) [2]" in out.splitlines()
    code, out, _ = run_cli(capsys, "export-dot", str(path), "--view", "x,y")
    assert code == 0
    for line in (
        '"join_1" [shape=point];',
        '"x_1" -> "join_1" [dir=none];',
        '"y_2" -> "join_1" [dir=none];',
        '"join_1" -> "z_2" [label="2"];',
    ):
        assert f"  {line}" in out.splitlines()


def test_cli_random_round_trip(capsys, tmp_path):
    out_path = tmp_path / "random.json"
    code, _, err = run_cli(
        capsys,
        "random",
        "--args",
        "4",
        "--density",
        "0.3",
        "--seed",
        "7",
        "-o",
        str(out_path),
    )
    assert code == 0
    doc = io_doc.load(out_path)
    assert len(doc.framework.arguments) == 4
    code2, out2, _ = run_cli(capsys, "validate", str(out_path))
    assert code2 == 0


def test_cli_random_rejects_empty_capacity_range(capsys, tmp_path):
    out_path = tmp_path / "random.json"
    cases = [
        (("--capacity-min", "5", "--capacity-max", "2"), "--capacity-min exceeds"),
        (("--capacity-min", "0"), "--capacity-min must be at least 1"),
        (("--args", "-3"), "--args must be at least 0"),
        (("--density", "-0.1"), "--density must lie in [0, 1]"),
        (("--density", "1.5"), "--density must lie in [0, 1]"),
        (("--density", "nan"), "--density must lie in [0, 1]"),
    ]
    for flags, message in cases:
        argv = ["random", "--args", "3", *flags, "-o", str(out_path)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 3, flags
        assert message in err, flags
        assert not out_path.exists()


def test_cli_json_output_deterministic(capsys):
    args = (
        "--json",
        "formability",
        str(FIXDIR / "seven.json"),
        "--kind",
        "M",
        "--set",
        "a2",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["kind"] == "M"
    assert [["a3", 2]] in payload["partners"]


def test_cli_usage_errors(capsys):
    with pytest.raises(SystemExit) as info:
        main(["semantics"])  # missing file and kind
    assert info.value.code == 3
    code, _, err = run_cli(
        capsys, "view", str(FIXDIR / "ldp.json"), "--set", "zz"
    )
    assert code == 3
    assert "unknown argument id" in err


def test_cli_unknown_theorem(capsys):
    code, _, err = run_cli(
        capsys, "check", str(FIXDIR / "ldp.json"), "--theorem", "Z9"
    )
    assert code == 3


def test_cli_p7_is_an_unknown_theorem(capsys):
    code, out, err = run_cli(
        capsys, "check", str(FIXDIR / "seven.json"), "--theorem", "P7"
    )
    assert code == 3
    assert out == ""
    assert "unknown theorem id 'P7'" in err


def test_cli_engine_key_error_propagates(capsys, monkeypatch):
    from ceaf import semantics

    def broken(fw, subset):
        raise KeyError("engine bug")

    monkeypatch.setattr(semantics, "view", broken)
    with pytest.raises(KeyError, match="engine bug"):
        main(["view", str(FIXDIR / "ldp.json"), "--set", "a1"])


def test_cli_limit_flag(capsys):
    code, _, err = run_cli(
        capsys,
        "--limit",
        "2",
        "semantics",
        str(FIXDIR / "ldp.json"),
        "--kind",
        "c-preferred",
    )
    assert code == 3
    assert "arguments" in err


def test_cli_variant_policy_override(capsys):
    # persist defaulting makes the weakened a3 keep its attack on a4
    code, out, _ = run_cli(
        capsys,
        "--json",
        "--variant-policy",
        "persist",
        "view",
        str(FIXDIR / "ldp.json"),
        "--set",
        "a1,a3",
    )
    assert code == 0
    payload = json.loads(out)
    attacks = {(tuple(sorted(map(tuple, a["from"]))), tuple(a["to"])) for a in payload["attacks"]}
    assert ((("a3", 2),), ("a4", 1)) in attacks


# ---------------------------------------------------------------------------
# what a call loads


def _python(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )


# ``python -m ceaf.cli ARG...`` with the loaded ``ceaf`` modules written to
# standard error at exit; the CLI runs as ``__main__``, so ``ceaf.cli`` is not
# among them.
_LOADED = (
    "import atexit, json, runpy, sys\n"
    "atexit.register(lambda: print(json.dumps(sorted(\n"
    "    m for m in sys.modules if m == 'ceaf' or m.startswith('ceaf.'))), file=sys.stderr))\n"
    "runpy.run_module('ceaf.cli', run_name='__main__', alter_sys=True)\n"
)

IMPORT_BUDGETS = [
    (["--help"], {"ceaf"}, set()),  # exactly these
    (["validate", "fixtures/ldp.json"], {"ceaf.io_doc"},
     {"ceaf.coalition", "ceaf.oracle", "ceaf.dot"}),
    (["semantics", "fixtures/ldp.json", "--kind", "c-preferred"], {"ceaf.semantics"},
     {"ceaf.coalition", "ceaf.oracle", "ceaf.dot"}),
    (["formability", "fixtures/seven.json", "--kind", "WS", "--set", "a2"],
     {"ceaf.coalition"}, {"ceaf.oracle", "ceaf.dot"}),
    (["np", "fixtures/ldp.json", "--kind", "preferred"], {"ceaf.npreduction"},
     {"ceaf.coalition", "ceaf.oracle"}),
    (["check", "fixtures/ldp.json", "--theorem", "L1"], {"ceaf.oracle"}, set()),
]


@pytest.mark.parametrize(
    "argv, loads, skips", IMPORT_BUDGETS, ids=[b[0][0] for b in IMPORT_BUDGETS]
)
def test_cli_imports_only_what_its_command_uses(argv, loads, skips):
    result = _python("-c", _LOADED, *argv)
    assert result.returncode in (0, 1), result.stderr
    loaded = set(json.loads(result.stderr.splitlines()[-1]))
    if argv == ["--help"]:
        assert loaded == loads
    assert loads <= loaded, loaded
    assert not loaded & skips, loaded


EXPORTED = [
    "Arg", "FormabilityResult", "Framework", "NPFramework", "NotConflictEliminable",
    "ProfitVerdict", "RandomModelSpec", "SizeLimitExceeded", "StateRank",
    "StrengthModel", "TheoremReport", "ValidationReport", "View", "Violation",
    "attackers", "attacks", "c_attacks", "c_defeats", "check_reduction",
    "check_theorem", "coalition", "coalition_permitted", "core", "crit_leq",
    "defeats", "enumerate_c_admissible", "enumerate_c_preferred",
    "enumerate_conflict_eliminable", "formability", "generate_random",
    "instantiated_closure", "intrinsic", "is_c_admissible", "is_conflict_eliminable",
    "is_continuous", "is_one_directionally_attacked", "is_weakly_continuous",
    "max_attack_strength", "max_profitable", "max_sets", "np_attacks", "np_minimal",
    "np_semantics", "npreduction", "oracle", "pref_supersets", "profitable",
    "semantics", "state_leq", "state_rank", "to_np", "undefeated_external",
    "validate_axioms", "validate_coherent", "view",
]


def test_package_surface():
    import ceaf

    assert sorted(ceaf.__all__) == EXPORTED
    for name in EXPORTED:
        obj = getattr(ceaf, name)
        if isinstance(obj, type(ceaf)):
            assert obj is importlib.import_module(f"ceaf.{name}"), name
        else:
            assert obj.__module__.startswith("ceaf."), name
            assert getattr(sys.modules[obj.__module__], name) is obj, name
    namespace = {}
    exec("from ceaf import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTED)
    with pytest.raises(AttributeError, match="'ceaf'"):
        ceaf.no_such_name
    assert "__all__" in dir(ceaf)
    assert set(EXPORTED) <= set(dir(ceaf))


def test_package_import_loads_no_submodule():
    probe = "import sys, ceaf; print(sorted(m for m in sys.modules if 'ceaf' in m))"
    result = _python("-c", probe)
    assert result.stdout.split() == ["['ceaf']"], result.stderr


def _action(parser, dest, command=None):
    if command is not None:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[command]
    return next(a for a in parser._actions if a.dest == dest)


def test_parser_vocabularies_match_the_library():
    from ceaf import coalition, core, npreduction

    parser = build_parser()
    assert _action(parser, "fewer_basis").choices == list(coalition.FEWER_BASES)
    assert _action(parser, "kind", "formability").choices == list(
        coalition.FORMABILITY_KINDS
    )
    assert _action(parser, "kind", "np").choices == list(npreduction.NP_KINDS)
    assert _action(parser, "limit").default == core.SIZE_LIMIT_DEFAULT


def test_tracer_spans_the_cli_path():
    # the order ``perfbench/child.py cli`` uses: the CLI is imported before
    # the tracer is installed, and the engine loads after
    probe = (
        "import json, sys\n"
        "from collections import Counter\n"
        "import ceaf.cli\n"
        "sys.path.insert(0, 'perfbench')\n"
        "from spans import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "code = ceaf.cli.main(['formability', 'fixtures/seven.json', '--kind', 'WS', "
        "'--set', 'a2'])\n"
        "seen = Counter(tracer.names[k] for k in tracer.kind)\n"
        "print(json.dumps([code, seen]))\n"
    )
    result = _python("-c", probe)
    assert result.returncode == 0, result.stderr
    code, seen = json.loads(result.stdout.splitlines()[-1])
    assert code == 0
    for name in ("coalition.formability", "semantics.c_defeats", "core.strength"):
        assert seen.get(name, 0) > 0, name
