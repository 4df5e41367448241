"""Framework document format: JSON load/save with located diagnostics.

A document carries the argument list, the attack table, the aggregation and
variant policies, and a mode marker: ``weighted`` for capacitated frameworks,
``nielsen-parsons`` for plain group-attack frameworks (capacities optional,
strengths default to the target's capacity so every attack defeats).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .core import Arg, Framework, StrengthModel, ValidationReport, validate_coherent
from .npreduction import NPFramework, to_np

FORMAT_VERSION = "1"


class ParseError(Exception):
    """Malformed JSON; carries the line and column when known."""

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        self.line = line
        self.column = column
        where = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(f"{message}{where}")


class ValidationError(Exception):
    """Structurally well-formed but semantically invalid document."""

    def __init__(self, message: str, report: Optional[ValidationReport] = None):
        self.report = report
        if report is not None and not report.ok:
            message = f"{message}\n{report}"
        super().__init__(message)


@dataclass(frozen=True)
class LoadedDocument:
    mode: str
    framework: Framework
    np: Optional[NPFramework] = None


_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _fail(where: str, expected: str, value) -> ValidationError:
    return ValidationError(f"{where}: expected {expected}, got {json.dumps(value)}")


def _typed(value, kind: type, where: str):
    if not isinstance(value, kind):
        raise _fail(where, _KINDS[kind], value)
    return value


def _object(value, where: str, required: tuple, optional: tuple) -> None:
    _typed(value, dict, where)
    for key in required:
        if key not in value:
            raise ValidationError(f"{where}: missing key {key!r}")
    for key in value:
        if key not in required and key not in optional:
            raise ValidationError(f"{where}: unknown key {key!r}")


def _integer(value, where: str) -> int:
    """A JSON Schema integer: an int that is not a bool, or an integral
    float, which is stored as the int it equals."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise _fail(where, "an integer", value)
    return value


def _choice(payload: dict, key: str, default: str, choices: tuple) -> str:
    value = payload.get(key, default)
    if value not in choices:
        raise _fail(key, "one of " + ", ".join(choices), value)
    return value


def _instance(raw, capacities, *, where: str) -> Arg:
    if isinstance(raw, str):
        name, capacity = raw, capacities.get(raw)
    elif isinstance(raw, list) and len(raw) == 2:
        name, capacity = _typed(raw[0], str, where), _integer(raw[1], where)
    else:
        raise _fail(where, "an id or an [id, capacity] pair", raw)
    if name not in capacities:
        raise ValidationError(f"{where}: unknown argument id {name!r}")
    if capacity < 1:
        raise ValidationError(f"{where}: capacity of {name!r} is {capacity}, not >= 1")
    return Arg(name, capacity)


def loads(text: str) -> LoadedDocument:
    """Parse a document, rejecting with a located message everything
    ``schema/framework-document.schema.json`` rejects and everything the
    model cannot mean."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError as exc:
        raise ParseError("document nested too deeply") from exc
    _object(
        payload,
        "document",
        ("version", "arguments", "attacks"),
        ("mode", "aggregator", "variantPolicy"),
    )
    _typed(payload["version"], str, "version")
    mode = _choice(payload, "mode", "weighted", ("weighted", "nielsen-parsons"))
    np_mode = mode == "nielsen-parsons"
    default_capacity = 1 if np_mode else None
    aggregator = _choice(
        payload,
        "aggregator",
        "explicit-only" if np_mode else "max",
        ("max", "sum", "explicit-only"),
    )
    variant_policy = _choice(payload, "variantPolicy", "strict", ("strict", "persist"))

    capacities = {}
    members = []
    for i, spec in enumerate(_typed(payload["arguments"], list, "arguments")):
        where = f"arguments[{i}]"
        _object(spec, where, ("id",), ("capacity",))
        name = _typed(spec["id"], str, where)
        capacity = default_capacity
        if "capacity" in spec:
            capacity = _integer(spec["capacity"], where)
        if capacity is None:
            raise ValidationError(f"{where}: capacity required in weighted mode")
        capacities[name] = capacity
        members.append(Arg(name, capacity))

    report = validate_coherent(members)
    if not report.ok:
        raise ValidationError("incoherent argument set", report)

    entries = {}
    for i, attack in enumerate(_typed(payload["attacks"], list, "attacks")):
        where = f"attacks[{i}]"
        _object(attack, where, ("from", "to"), ("strength",))
        sources = _typed(attack["from"], list, where)
        if not sources:
            raise ValidationError(f"{where}: 'from' is empty")
        by_id = {}
        for raw in sources:
            a = _instance(raw, capacities, where=where)
            if a.id in by_id:
                raise ValidationError(f"{where}: argument id {a.id!r} twice in 'from'")
            by_id[a.id] = a
        attackers = frozenset(by_id.values())
        target = _instance(attack["to"], capacities, where=where)
        if "strength" in attack:
            strength = _integer(attack["strength"], where)
        elif np_mode:
            strength = target.capacity
        else:
            raise ValidationError(f"{where}: strength required in weighted mode")
        if strength < 1:
            raise ValidationError(f"{where}: strength must be >= 1, got {strength}")
        if target in attackers:
            raise ValidationError(f"{where}: target appears among the attackers")
        key = (attackers, target)
        if key in entries and entries[key] != strength:
            raise ValidationError(f"{where}: conflicting strengths for one attack")
        entries[key] = strength

    fw = Framework(
        frozenset(members),
        StrengthModel.from_entries(entries, aggregator, variant_policy),
    )
    return LoadedDocument(mode, fw, to_np(fw) if np_mode else None)


def load(path: Union[str, Path]) -> LoadedDocument:
    return loads(Path(path).read_text())


def to_payload(fw: Framework, mode: str = "weighted") -> dict:
    return {
        "version": FORMAT_VERSION,
        "mode": mode,
        "aggregator": fw.strengths.aggregator,
        "variantPolicy": fw.strengths.variant_policy,
        "arguments": [
            {"id": a.id, "capacity": a.capacity} for a in sorted(fw.arguments)
        ],
        "attacks": [
            {
                "from": [[a.id, a.capacity] for a in sorted(attackers)],
                "to": [target.id, target.capacity],
                "strength": strength,
            }
            for (attackers, target), strength in sorted(
                fw.strengths._lookup.items(),
                key=lambda kv: (sorted(kv[0][0]), kv[0][1]),
            )
        ],
    }


def dumps(fw: Framework, mode: str = "weighted") -> str:
    return json.dumps(to_payload(fw, mode), indent=2, sort_keys=False) + "\n"


def save(fw: Framework, path: Union[str, Path], mode: str = "weighted") -> None:
    Path(path).write_text(dumps(fw, mode))
