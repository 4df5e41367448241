"""Compute the stored answers in ``expected.json``.

    PYTHONPATH=src python3 perfbench/make_expected.py

Run once, from the repository root, when the workloads change.  Within the
brute-force oracle's limit (8 arguments) an answer comes from the
``ceaf.oracle.brute_*`` functions; where no brute function exists, or the
input is larger, it comes from the library as it stands, and each answer
records its source.  CLI answers include the exit code.  The brute functions
are pure, so they are memoised here for the duration of one document: the
answers are theirs, only computed once per distinct argument tuple.

Where the library disagrees with a brute answer, the brute answer is stored
and the disagreement is printed; a run then counts that query as failed.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from ceaf import io_doc, oracle  # noqa: E402

BRUTE = (
    "brute_vmax", "brute_attacks", "brute_defeats", "brute_conflict_eliminable",
    "brute_alpha", "brute_c_attacks", "brute_c_defeats", "brute_c_admissible",
    "brute_c_preferred", "brute_one_directional", "brute_profitable",
    "brute_max_sets", "brute_max_profitable",
)


def memoise_oracle() -> None:
    for name in BRUTE:
        fn = getattr(oracle, name)
        setattr(oracle, name, functools.lru_cache(maxsize=None)(fn))


def clear_oracle() -> None:
    for name in BRUTE:
        getattr(oracle, name).cache_clear()


def _powerset(items):
    items = sorted(items)
    return (
        frozenset(c) for r in range(len(items) + 1) for c in itertools.combinations(items, r)
    )


def brute_is_continuous(fw, base) -> bool:
    """``is_continuous`` from its definition, over brute maximal sets."""
    for target in oracle.brute_max_sets(fw, base):
        for extra in _powerset(target - base):
            grown = base | extra
            if oracle.brute_conflict_eliminable(fw, grown) and not oracle.brute_profitable(
                fw, base, grown
            ):
                return False
    return True


def brute(q: dict, fw, ids):
    """The brute-force answer to a query, or None where no brute function
    covers it."""
    op = q["op"]
    if len(fw.arguments) > oracle.BRUTE_LIMIT:
        return None
    if op == "formability":
        return frozenset(oracle.brute_formability(fw, q["kind"], ids(q["base"])))
    if op == "max_sets":
        return frozenset(oracle.brute_max_sets(fw, ids(q["base"])))
    if op == "is_continuous":
        return brute_is_continuous(fw, ids(q["base"]))
    if op == "profitable":
        return oracle.brute_profitable(fw, ids(q["first"]), ids(q["second"]))
    if op == "max_profitable":
        return oracle.brute_max_profitable(fw, ids(q["first"]), ids(q["second"]))
    if op == "conflict_eliminable":
        return frozenset(s for s in _powerset(fw.arguments)
                         if oracle.brute_conflict_eliminable(fw, s))
    if op == "c_admissible":
        return frozenset(s for s in _powerset(fw.arguments) if oracle.brute_c_admissible(fw, s))
    if op == "c_preferred":
        return frozenset(oracle.brute_c_preferred(fw))
    return None


def in_process(workload: str, report: list) -> tuple:
    docs, queries = workloads.plan(workload)
    loaded, digests = {}, {}
    for key, (kind, params) in docs.items():
        base = workloads.base_document(kind, params)
        digests[key] = gen.digest(base)
        loaded[key] = io_doc.loads(gen.dumps(base))
    answers = {}
    for q in queries:
        doc = loaded[q["doc"]]

        def ids(names, fw=doc.framework):
            return frozenset(fw.by_id(n) for n in names)

        engine = workloads.encode(child.execute(q, doc, ids), {})
        truth = brute(q, doc.framework, ids)
        if truth is None:
            answers[q["id"]] = {"answer": engine, "source": "engine"}
            continue
        truth = workloads.encode(truth, {})
        answers[q["id"]] = {"answer": truth, "source": "brute"}
        if truth != engine:
            report.append(f"{workload} {q['id']}: library {engine} != brute {truth}")
        print(f"  {workload} {q['id']}", file=sys.stderr)
    clear_oracle()
    return answers, digests


def cli_answers(report: list) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    answers = {}
    with tempfile.TemporaryDirectory() as work:
        for seed in workloads.RANDOM_SEEDS:
            for call in workloads.cli_calls(seed):
                if call["id"] in answers:
                    continue
                argv = [a.replace("{work}", work) for a in call["argv"]]
                proc = subprocess.run(
                    [sys.executable, "-m", "ceaf.cli", *argv],
                    cwd=ROOT, env=env, capture_output=True, text=True, check=False,
                )
                entry = {"exit": proc.returncode}
                if call["check"] == "file":
                    data = Path(argv[argv.index("-o") + 1]).read_bytes()
                    entry.update(sha256=hashlib.sha256(data).hexdigest(), source="engine")
                elif call["check"] == "text":
                    golden = workloads.GOLDENS.get(tuple(call["argv"]))
                    if golden:
                        entry.update(exit=0, stdout=(ROOT / golden).read_text(), source="golden")
                    else:
                        entry.update(stdout=proc.stdout, source="engine")
                else:
                    entry.update(cli_brute(call, argv), source="brute")
                    engine = json.loads(proc.stdout)[call["key"]]
                    if call["check"] == "sets":
                        engine = workloads.encode(
                            frozenset(frozenset(f"{i}:{c}" for i, c in s) for s in engine), {}
                        )
                    if engine != entry[call["check"]] or proc.returncode != entry["exit"]:
                        report.append(f"cli-fixtures {call['id']}: library disagrees")
                answers[call["id"]] = entry
                print(f"  cli-fixtures {call['id']}", file=sys.stderr)
    return answers


def cli_brute(call: dict, argv: list) -> dict:
    cmd = [a for a in argv if a != "--json"]
    fw = io_doc.load(ROOT / cmd[1]).framework

    def ids(raw):
        return frozenset(fw.by_id(n) for n in raw.split(","))

    opt = dict(zip(cmd[2::2], cmd[3::2]))
    if cmd[0] == "profit":
        holds = oracle.brute_profitable(fw, ids(opt["--s1"]), ids(opt["--s2"]))
        return {"exit": 0 if holds else 1, "holds": holds}
    if cmd[0] == "formability":
        sets = oracle.brute_formability(fw, opt["--kind"], ids(opt["--set"]))
    else:
        kind = opt["--kind"]
        if kind == "c-preferred":
            sets = oracle.brute_c_preferred(fw)
        else:
            test = (oracle.brute_conflict_eliminable if kind == "conflict-eliminable"
                    else oracle.brute_c_admissible)
            sets = [s for s in _powerset(fw.arguments) if test(fw, s)]
    clear_oracle()
    return {"exit": 0, "sets": workloads.encode(frozenset(sets), {})}


def main() -> int:
    memoise_oracle()
    report: list = []
    expected = {"generator": {}}
    for workload in ("formation", "enumeration"):
        answers, digests = in_process(workload, report)
        expected[workload] = answers
        expected["generator"].update(digests)
    expected["cli-fixtures"] = cli_answers(report)
    expected["library_disagreements"] = report
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"{len(report)} disagreement(s) between the library and the oracle")
    for line in report:
        print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
