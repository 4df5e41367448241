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

import jsonschema

from .core import Arg, Framework, StrengthModel, ValidationReport, validate_coherent
from .npreduction import NPFramework, to_np

FORMAT_VERSION = "1"

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["version", "arguments", "attacks"],
    "properties": {
        "version": {"type": "string"},
        "mode": {"enum": ["weighted", "nielsen-parsons"]},
        "aggregator": {"enum": ["max", "sum", "explicit-only"]},
        "variantPolicy": {"enum": ["strict", "persist"]},
        "arguments": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id"],
                "properties": {
                    "id": {"type": "string"},
                    "capacity": {"type": "integer"},
                },
                "additionalProperties": False,
            },
        },
        "attacks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["from", "to"],
                "properties": {
                    "from": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "anyOf": [
                                {"type": "string"},
                                {
                                    "type": "array",
                                    "prefixItems": [
                                        {"type": "string"},
                                        {"type": "integer"},
                                    ],
                                    "minItems": 2,
                                    "maxItems": 2,
                                },
                            ]
                        },
                    },
                    "to": {
                        "anyOf": [
                            {"type": "string"},
                            {
                                "type": "array",
                                "prefixItems": [
                                    {"type": "string"},
                                    {"type": "integer"},
                                ],
                                "minItems": 2,
                                "maxItems": 2,
                            },
                        ]
                    },
                    "strength": {"type": "integer"},
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}


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


def _instance(raw, capacities, *, where: str) -> Arg:
    name, capacity = (raw, capacities.get(raw)) if isinstance(raw, str) else raw
    if name not in capacities:
        raise ValidationError(f"{where}: unknown argument id {name!r}")
    if capacity < 1:
        raise ValidationError(f"{where}: capacity of {name!r} is {capacity}, not >= 1")
    return Arg(name, capacity)


def loads(text: str) -> LoadedDocument:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    try:
        jsonschema.validate(payload, SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path)
        raise ValidationError(f"schema violation at /{path}: {exc.message}")

    mode = payload.get("mode", "weighted")
    np_mode = mode == "nielsen-parsons"
    default_capacity = 1 if np_mode else None

    capacities = {}
    members = []
    for spec in payload["arguments"]:
        capacity = spec.get("capacity", default_capacity)
        if capacity is None:
            raise ValidationError(
                f"argument {spec['id']!r} has no capacity (required in weighted mode)"
            )
        capacities[spec["id"]] = capacity
        members.append(Arg(spec["id"], capacity))

    report = validate_coherent(members)
    if not report.ok:
        raise ValidationError("incoherent argument set", report)

    entries = {}
    for i, attack in enumerate(payload["attacks"]):
        where = f"attacks[{i}]"
        by_id = {}
        for raw in attack["from"]:
            a = _instance(raw, capacities, where=where)
            if a.id in by_id:
                raise ValidationError(f"{where}: argument id {a.id!r} twice in 'from'")
            by_id[a.id] = a
        attackers = frozenset(by_id.values())
        target = _instance(attack["to"], capacities, where=where)
        strength = attack.get("strength")
        if strength is None:
            if not np_mode:
                raise ValidationError(f"{where}: strength required in weighted mode")
            strength = target.capacity
        if strength < 1:
            raise ValidationError(f"{where}: strength must be >= 1, got {strength}")
        if target in attackers:
            raise ValidationError(f"{where}: target appears among the attackers")
        key = (attackers, target)
        if key in entries and entries[key] != strength:
            raise ValidationError(f"{where}: conflicting strengths for one attack")
        entries[key] = strength

    aggregator = payload.get("aggregator", "explicit-only" if np_mode else "max")
    variant_policy = payload.get("variantPolicy", "strict")
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
