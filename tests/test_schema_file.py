"""The loader against the shipped schema, with ``jsonschema`` as the reference.

``schema/framework-document.schema.json`` is the one specification of the
document format; ``io_doc.loads`` enforces it without a schema library.
Every document the schema rejects must make ``loads`` raise
``io_doc.ValidationError`` (never a ``TypeError``, ``KeyError`` and the like).
"""

import copy
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from ceaf import io_doc
from conftest import FIXTURE_FILES

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "schema" / "framework-document.schema.json").read_text())
VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)
FIXTURE_DOCS = [json.loads(path.read_text()) for path in FIXTURE_FILES]

WEIGHTED = {
    "version": "1",
    "mode": "weighted",
    "aggregator": "max",
    "variantPolicy": "strict",
    "arguments": [{"id": "x", "capacity": 2}, {"id": "y", "capacity": 2}],
    "attacks": [{"from": [["x", 2]], "to": ["y", 2], "strength": 1}],
}
NP = {
    "version": "1",
    "mode": "nielsen-parsons",
    "arguments": [{"id": "x"}, {"id": "y"}],
    "attacks": [{"from": ["x"], "to": "y"}],
}
DELETE = object()


def doc_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def edited(base, path, value):
    """A copy of ``base`` with the value at ``path`` replaced (or deleted)."""
    doc = copy.deepcopy(base)
    parent = doc_at(doc, path[:-1])
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


CAPACITY = ("arguments", 0, "capacity")
STRENGTH = ("attacks", 0, "strength")
FROM_0 = ("attacks", 0, "from", 0)

CASES = {
    "top-level-list": [],
    "top-level-string": "x",
    "missing-version": edited(WEIGHTED, ("version",), DELETE),
    "missing-arguments": edited(WEIGHTED, ("arguments",), DELETE),
    "missing-attacks": edited(WEIGHTED, ("attacks",), DELETE),
    "extra-key-document": edited(WEIGHTED, ("extra",), 1),
    "extra-key-argument": edited(WEIGHTED, ("arguments", 0, "extra"), 1),
    "extra-key-attack": edited(WEIGHTED, ("attacks", 0, "extra"), 1),
    "version-int": edited(WEIGHTED, ("version",), 1),
    "id-int": edited(WEIGHTED, ("arguments", 0, "id"), 1),
    "id-null": edited(WEIGHTED, ("arguments", 0, "id"), None),
    "arguments-object": edited(WEIGHTED, ("arguments",), {}),
    "attacks-string": edited(WEIGHTED, ("attacks",), "x"),
    "from-string": edited(WEIGHTED, ("attacks", 0, "from"), "x"),
    "from-empty": edited(NP, ("attacks", 0, "from"), []),
    "instance-id-only": edited(WEIGHTED, FROM_0, ["x"]),
    "instance-three-items": edited(WEIGHTED, FROM_0, ["x", 2, "x"]),
    "instance-swapped": edited(WEIGHTED, FROM_0, [2, "x"]),
    "instance-bool-capacity": edited(WEIGHTED, FROM_0, ["x", True]),
    "instance-float-capacity": edited(WEIGHTED, FROM_0, ["x", 2.5]),
    "instance-number": edited(WEIGHTED, FROM_0, 2),
    "to-id-only": edited(WEIGHTED, ("attacks", 0, "to"), ["y"]),
    "to-object": edited(WEIGHTED, ("attacks", 0, "to"), {"id": "y"}),
}
for key, bad in (
    ("mode", "plain"),
    ("aggregator", "min"),
    ("variantPolicy", "lenient"),
):
    CASES[f"{key}-out-of-enum"] = edited(WEIGHTED, (key,), bad)
    CASES[f"{key}-null"] = edited(WEIGHTED, (key,), None)
    CASES[f"{key}-list"] = edited(WEIGHTED, (key,), [bad])
for mode, base in (("weighted", WEIGHTED), ("np", NP)):
    for label, bad in (("true", True), ("null", None), ("string", "2"), ("2.5", 2.5)):
        CASES[f"capacity-{label}-{mode}"] = edited(base, CAPACITY, bad)
        CASES[f"strength-{label}-{mode}"] = edited(base, STRENGTH, bad)


def test_bases_are_valid():
    for base in (WEIGHTED, NP):
        VALIDATOR.validate(base)
        io_doc.loads(json.dumps(base))


@pytest.mark.parametrize("doc", CASES.values(), ids=CASES.keys())
def test_loader_rejects_what_the_schema_rejects(doc):
    assert not VALIDATOR.is_valid(doc)
    with pytest.raises(io_doc.ValidationError):
        io_doc.loads(json.dumps(doc))


def test_error_messages_are_located():
    cases = {
        "document: missing key 'attacks'": CASES["missing-attacks"],
        "mode: expected one of weighted, nielsen-parsons, got null": CASES["mode-null"],
        "arguments[0]: unknown key 'extra'": CASES["extra-key-argument"],
        "attacks[0]: expected an integer, got true": CASES["strength-true-weighted"],
    }
    for message, doc in cases.items():
        with pytest.raises(io_doc.ValidationError) as info:
            io_doc.loads(json.dumps(doc))
        assert str(info.value) == message


@pytest.mark.parametrize("path", FIXTURE_FILES, ids=lambda p: p.stem)
def test_fixture_documents_pass_the_schema_and_load(path):
    # the shipped documents are the fixtures' one source; each is canonical,
    # exactly what ``dumps`` writes for the framework it loads to
    text = path.read_text()
    VALIDATOR.validate(json.loads(text))
    assert io_doc.dumps(io_doc.loads(text).framework) == text


# ---------------------------------------------------------------------------
# mutated fixture documents

VALUES = [None, True, False, 0, -1, 1, 2, 2.0, 2.5, "2", "a1", "zz", [], {}]
VALUES += [["a1", 1], [1, "a1"], ["a1"], ["a1", 1, 1]]
KEYS = ["extra", "id", "capacity", "from", "to", "strength", "mode", "aggregator"]


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


@st.composite
def mutated_documents(draw):
    """A fixture document with one to three random edits: a value replaced,
    a key or item deleted, or a key or item added."""
    doc = copy.deepcopy(draw(st.sampled_from(FIXTURE_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        value = copy.deepcopy(draw(st.sampled_from(VALUES)))
        node = doc_at(doc, path)
        if action == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(KEYS))] = value
        elif action == "add" and isinstance(node, list):
            node.append(value)
        elif path:
            doc = edited(doc, path, DELETE if action == "delete" else value)
        else:
            doc = value
    return doc


@settings(max_examples=400, deadline=None)
@given(mutated_documents())
def test_loader_rejects_mutated_documents_the_schema_rejects(doc):
    try:
        io_doc.loads(json.dumps(doc))
    except io_doc.ValidationError:
        return
    except io_doc.ParseError:
        pass
    assert VALIDATOR.is_valid(doc), "loaded a document the schema rejects"
