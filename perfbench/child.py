"""One cold benchmark process; ``run.py`` starts these one at a time.

    python3 perfbench/child.py run PLAN [--spans FILE] [--setup-only]
    python3 perfbench/child.py cli SPANS ARG...

``run`` imports the library, loads the plan's documents, answers its queries
in order and prints one JSON line: the interpreter-entry and ready times on
the system monotonic clock, the import time, and per query its id, duration
and canonical answer.  ``cli`` runs one ``ceaf`` command line under the
tracer.  With a span file, the public functions of every layer are traced
and the spans are written there at exit.
"""

import time

ENTER = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _violations(report) -> frozenset:
    # Witness order follows the sort order of the names (pairs of sets come
    # out either way round), so a witness is compared as a set.
    return frozenset((v.axiom, frozenset(v.witness)) for v in report.violations)


def execute(q: dict, doc, ids):
    """Answer one query through the library's public API."""
    from ceaf import coalition, core, npreduction, semantics

    fw = doc.framework
    op = q["op"]
    if op == "formability":
        return frozenset(coalition.formability(fw, q["kind"], ids(q["base"])).partners)
    if op == "max_sets":
        return frozenset(coalition.max_sets(fw, ids(q["base"])))
    if op == "is_continuous":
        return coalition.is_continuous(fw, ids(q["base"]))
    if op == "profitable":
        return coalition.profitable(fw, ids(q["first"]), ids(q["second"])).holds
    if op == "max_profitable":
        return coalition.max_profitable(fw, ids(q["first"]), ids(q["second"]))
    if op == "conflict_eliminable":
        return frozenset(semantics.enumerate_conflict_eliminable(fw))
    if op == "c_admissible":
        return frozenset(semantics.enumerate_c_admissible(fw))
    if op == "c_preferred":
        return frozenset(semantics.enumerate_c_preferred(fw))
    if op == "instantiated_closure":
        return core.instantiated_closure(fw)
    if op == "validate_axioms":
        return _violations(core.validate_axioms(fw))
    if op == "check_reduction":
        report = npreduction.check_reduction(fw)
        return {"ok": report.ok, "violations": _violations(report)}
    if op == "np_semantics":
        return frozenset(npreduction.np_semantics(doc.np, q["kind"]))
    raise ValueError(f"unknown query op {op!r}")


def run(plan_path: str, spans_path=None, setup_only=False) -> None:
    t0 = time.perf_counter()
    import ceaf.cli  # noqa: F401  every layer module, as the CLI loads them

    import_s = time.perf_counter() - t0
    import workloads

    tracer = None
    if spans_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    from ceaf import io_doc

    plan = json.loads(Path(plan_path).read_text())
    docs = {key: io_doc.load(path) for key, path in plan["docs"].items()}
    result = {"enter": ENTER, "import_s": import_s, "ready": time.monotonic()}
    answers = []
    if not setup_only:
        for q in plan["queries"]:
            doc = docs[q["doc"]]
            fwd = plan["names"][q["doc"]]
            back = {v: k for k, v in fwd.items()}

            def ids(names, fw=doc.framework, fwd=fwd):
                return frozenset(fw.by_id(fwd[n]) for n in names)

            start = time.perf_counter()
            try:
                raw = execute(q, doc, ids)
                seconds = time.perf_counter() - start
                answer = workloads.encode(raw, back)
            except Exception as exc:  # reported as a failed query
                seconds = time.perf_counter() - start
                answer = {"error": f"{type(exc).__name__}: {exc}"}
            answers.append([q["id"], seconds, answer])
    result["answers"] = answers
    if tracer is not None:
        tracer.write(spans_path, {})
    print(json.dumps(result))


def cli(spans_path: str, argv: list) -> int:
    t0 = time.perf_counter()
    import ceaf.cli

    import_s = time.perf_counter() - t0
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = ceaf.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    tracer.write(spans_path, {"enter": ENTER, "import_s": import_s})
    return code if isinstance(code, int) else 0


def main(argv: list) -> int:
    if argv[:1] == ["cli"] and len(argv) >= 2:
        return cli(argv[1], argv[2:])
    if argv[:1] == ["run"] and len(argv) >= 2:
        rest = argv[2:]
        spans_path = rest[rest.index("--spans") + 1] if "--spans" in rest else None
        run(argv[1], spans_path, "--setup-only" in rest)
        return 0
    print(__doc__, file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
