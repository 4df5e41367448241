"""Command-line interface.

Exit codes: 0 success (or a yes answer), 1 a no answer from a yes/no query,
2 validation failure, 3 usage error.  All diagnostics go to standard error;
``--json`` switches the result payload to deterministic JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

# The engine modules are imported where a command needs them, so that
# ``--help`` and usage errors load none of them.
from . import FEWER_BASES, FORMABILITY_KINDS, NP_KINDS, SIZE_LIMIT_DEFAULT

EXIT_OK = 0
EXIT_NO = 1
EXIT_INVALID = 2
EXIT_USAGE = 3


class _UsageError(Exception):
    """A command line the program cannot act on, such as an unknown id."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _json_set(instances) -> list:
    return [[a.id, a.capacity] for a in sorted(instances)]


def _parse_ids(fw, raw: str) -> frozenset:
    """Comma-separated ids, each at the framework's full capacity."""
    out = set()
    for name in filter(None, (part.strip() for part in raw.split(","))):
        try:
            out.add(fw.by_id(name))
        except KeyError:
            raise _UsageError(f"unknown argument id {name!r}") from None
    return frozenset(out)


def _emit(args, payload: dict, text_lines) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def build_parser() -> _Parser:
    parser = _Parser(prog="ceaf", description=__doc__)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--limit",
        type=int,
        default=SIZE_LIMIT_DEFAULT,
        help="enumeration bound on the number of arguments",
    )
    parser.add_argument(
        "--variant-policy",
        choices=["strict", "persist"],
        help="override the document's variant policy",
    )
    parser.add_argument(
        "--fewer-basis",
        choices=list(FEWER_BASES),
        default="own",
        help="attacker base used by the f criterion of maximal profitability",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check coherence and the strength axioms")
    p.add_argument("file")

    p = sub.add_parser("semantics", help="enumerate coalition semantics")
    p.add_argument("file")
    p.add_argument(
        "--kind",
        required=True,
        choices=["conflict-eliminable", "c-admissible", "c-preferred"],
    )

    p = sub.add_parser("view", help="show the view of a coalition")
    p.add_argument("file")
    p.add_argument("--set", required=True, dest="base")

    p = sub.add_parser("profit", help="is growing s1 into s2 profitable?")
    p.add_argument("file")
    p.add_argument("--s1", required=True)
    p.add_argument("--s2", required=True)

    p = sub.add_parser("formability", help="partner sets under one semantics")
    p.add_argument("file")
    p.add_argument("--kind", required=True, choices=list(FORMABILITY_KINDS))
    p.add_argument("--set", required=True, dest="base")

    p = sub.add_parser("np", help="plain group-attack semantics")
    p.add_argument("file")
    p.add_argument("--kind", required=True, choices=list(NP_KINDS))

    p = sub.add_parser("check", help="run a theorem checker")
    p.add_argument("file")
    p.add_argument("--theorem", required=True)

    p = sub.add_parser("export-dot", help="render the framework or a view")
    p.add_argument("file")
    p.add_argument("--view", dest="view_of")

    p = sub.add_parser("random", help="generate a random framework")
    p.add_argument("--args", type=int, required=True, dest="count")
    p.add_argument("--density", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--capacity-min", type=int, default=1)
    p.add_argument("--capacity-max", type=int, default=4)
    p.add_argument("--aggregator", choices=["max", "sum"], default="max")
    p.add_argument("-o", "--output", required=True)
    return parser


def _framework(args):
    from dataclasses import replace

    from . import io_doc
    from .core import Framework

    fw = io_doc.load(args.file).framework
    if args.variant_policy and args.variant_policy != fw.strengths.variant_policy:
        fw = Framework(
            fw.arguments, replace(fw.strengths, variant_policy=args.variant_policy)
        )
    return fw


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from . import io_doc
    from .core import NotConflictEliminable, SizeLimitExceeded
    from .npreduction import PreconditionUnmet

    try:
        return _dispatch(args)
    except (
        io_doc.ParseError,
        io_doc.ValidationError,
        NotConflictEliminable,
        PreconditionUnmet,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (SizeLimitExceeded, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # the engine does no I/O: a document path failed
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    from . import io_doc, npreduction, semantics
    from .core import _check_limit, _fmt, validate_axioms

    if args.command == "validate":
        fw = _framework(args)
        _check_limit(fw, args.limit)
        report = validate_axioms(fw)
        if report.ok:
            _emit(args, {"ok": True, "violations": []}, ["ok"])
            return EXIT_OK
        payload = {
            "ok": False,
            "violations": [
                {"axiom": v.axiom, "message": v.message} for v in report.violations
            ],
        }
        _emit(args, payload, [str(v) for v in report.violations])
        return EXIT_INVALID

    if args.command == "semantics":
        fw = _framework(args)
        if args.kind == "conflict-eliminable":
            sets = semantics.enumerate_conflict_eliminable(fw, args.limit)
        elif args.kind == "c-admissible":
            sets = semantics.enumerate_c_admissible(fw, args.limit)
        else:
            sets = semantics.enumerate_c_preferred(fw, args.limit)
        _emit(
            args,
            {"kind": args.kind, "sets": [_json_set(s) for s in sets]},
            [_fmt(s) for s in sets],
        )
        return EXIT_OK

    if args.command == "view":
        from . import dot

        fw = _framework(args)
        base = _parse_ids(fw, args.base)
        vw = semantics.view(fw, base)
        for note in vw.diagnostics:
            print(f"warning: {note}", file=sys.stderr)
        edges = [
            ([[a.id, a.capacity] for a in sorted(attackers)], target, v)
            for attackers, target, v in dot.minimal_attacks(
                fw, vw.arguments, vw.base
            )
        ]
        payload = {
            "base": _json_set(base),
            "intrinsic": _json_set(vw.alpha),
            "arguments": _json_set(vw.arguments),
            "attacks": [
                {"from": froms, "to": [t.id, t.capacity], "strength": v}
                for froms, t, v in edges
            ],
            "diagnostics": list(vw.diagnostics),
        }
        lines = [
            f"intrinsic: {_fmt(vw.alpha)}",
            f"arguments: {_fmt(vw.arguments)}",
        ] + [
            "attack: {"
            + ", ".join(f"{i}({c})" for i, c in froms)
            + f"}} -> {t} [{v}]"
            for froms, t, v in edges
        ]
        _emit(args, payload, lines)
        return EXIT_OK

    if args.command == "profit":
        from . import coalition

        fw = _framework(args)
        s1 = _parse_ids(fw, args.s1)
        s2 = _parse_ids(fw, args.s2)
        verdict = coalition.profitable(fw, s1, s2)
        payload = {
            "s1": _json_set(s1),
            "s2": _json_set(s2),
            "holds": verdict.holds,
            "larger_set": verdict.larger_set,
            "better_state": verdict.better_state,
            "fewer_attackers": verdict.fewer_attackers,
            "attacker_counts": list(verdict.attacker_counts),
        }
        _emit(args, payload, [str(verdict)])
        return EXIT_OK if verdict.holds else EXIT_NO

    if args.command == "formability":
        from . import coalition

        fw = _framework(args)
        base = _parse_ids(fw, args.base)
        result = coalition.formability(
            fw, args.kind, base, args.fewer_basis, args.limit
        )
        _emit(
            args,
            {
                "kind": args.kind,
                "base": _json_set(base),
                "partners": [_json_set(p) for p in result.partners],
            },
            [_fmt(p) for p in result.partners],
        )
        return EXIT_OK

    if args.command == "np":
        doc = io_doc.load(args.file)
        np = doc.np if doc.np is not None else npreduction.to_np(doc.framework)
        sets = npreduction.np_semantics(np, args.kind, args.limit)
        _emit(
            args,
            {"kind": args.kind, "sets": [sorted(s) for s in sets]},
            ["{" + ", ".join(sorted(s)) + "}" for s in sets],
        )
        return EXIT_OK

    if args.command == "check":
        from . import oracle

        theorem = args.theorem.upper()
        if theorem not in oracle.THEOREM_IDS:
            raise _UsageError(f"unknown theorem id {theorem!r}")
        fw = _framework(args)
        if theorem == "T1":
            report = npreduction.check_reduction(fw, args.limit)
            ok = report.ok
            payload = {
                "theorem": "T1",
                "verdict": "pass" if ok else "fail",
                "violations": [v.message for v in report.violations],
            }
            lines = [f"T1: {'pass' if ok else 'fail'}"] + [
                str(v) for v in report.violations
            ]
        else:
            result = oracle.check_theorem(fw, theorem, args.file)
            ok = result.verdict
            payload = json.loads(result.to_json())
            lines = [f"{theorem}: {'pass' if ok else 'fail'}"]
            if result.counterexample is not None:
                lines.append(f"counterexample: {payload['counterexample']}")
        _emit(args, payload, lines)
        return EXIT_OK if ok else EXIT_NO

    if args.command == "export-dot":
        from . import dot

        fw = _framework(args)
        view_of = _parse_ids(fw, args.view_of) if args.view_of else None
        sys.stdout.write(dot.export_dot(fw, view_of))
        return EXIT_OK

    if args.command == "random":
        from . import oracle

        if args.count < 0:
            raise _UsageError("--args must be at least 0")
        if not 0 <= args.density <= 1:  # NaN fails both comparisons
            raise _UsageError("--density must lie in [0, 1]")
        if args.capacity_min < 1:
            raise _UsageError("--capacity-min must be at least 1")
        if args.capacity_min > args.capacity_max:
            raise _UsageError("--capacity-min exceeds --capacity-max")
        spec = oracle.RandomModelSpec(
            argument_count=args.count,
            capacity_range=(args.capacity_min, args.capacity_max),
            attack_density=args.density,
            aggregator=args.aggregator,
            seed=args.seed,
        )
        fw = oracle.generate_random(spec)
        io_doc.save(fw, args.output)
        print(f"wrote {args.output}", file=sys.stderr)
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
