"""Benchmark for ceaf: cold-process workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see README.md for why each):

``cli-fixtures``
    about forty ``ceaf`` command lines on ``fixtures/*.json``, one
    interpreter each, plus ``ceaf random -o`` and two reads of its output.
``formation``
    coalition queries (formability of all four kinds, profitability, maximal
    sets, continuity) on 8-argument generated documents, in one process.
``enumeration``
    the coalition semantics enumerations at 12 arguments, axiom validation,
    the reduction check and the plain semantics, in one process.

Closed loop, one client: the workload is repeated in fresh child processes,
one at a time, until ``--seconds`` have passed (at least twice).  The seed
renames the generated documents and picks the ``ceaf random`` seed; every
answer is compared with ``expected.json``.  With ``--trace 0`` the last line
holds the end-to-end metrics; with ``--trace 1``, traced and untraced
repetitions alternate and it holds the per-layer metrics.  Timings are
medians over the repetitions of the run; query latencies are pooled over them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("cli-fixtures", "formation", "enumeration")
SETUP_PER_REPETITION = 3
MIN_RUNS = 2
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
CEAF = [sys.executable, "-m", "ceaf.cli"]
CHILD = [sys.executable, str(HERE / "child.py")]


class BenchError(Exception):
    """The benchmark cannot run here."""


def spawn(argv: list, work: Path) -> dict:
    """Run one child to completion; its wall time, and CPU time and peak
    resident set size from its own rusage."""
    with open(work / "stderr", "w+b") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=err,
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        errors = err.read().decode(errors="replace")
    return dict(
        code=proc.returncode,
        out=out.decode(errors="replace"),
        err=errors,
        spawned=spawned,
        wall=ended - spawned,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
    )


class Tally:
    """Answers checked so far, and the disagreements found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: dict = {}

    def check(self, qid: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.setdefault(qid, detail)


def _last_json(out: str):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_in_process(name, seed, seconds, trace, work, expected, tally) -> dict:
    docs, queries = workloads.plan(name)
    paths, names = {}, {}
    for key, (kind, params) in docs.items():
        base = workloads.base_document(kind, params)
        if gen.digest(base) != expected["generator"][key]:
            raise BenchError(f"document {key} is not the one expected.json was made for")
        doc, names[key] = gen.relabel(base, seed, key)
        paths[key] = str(work / f"{key}.json")
        Path(paths[key]).write_text(gen.dumps(doc))
    plan = work / "plan.json"
    plan.write_text(json.dumps({"docs": paths, "names": names, "queries": queries}))
    answers = expected[name]

    def child(extra: list):
        proc = spawn(CHILD + ["run", str(plan)] + extra, work)
        result = _last_json(proc["out"]) if proc["code"] == 0 else None
        if result is None:
            raise BenchError(f"{name} child failed (exit {proc['code']}):\n{proc['err']}")
        return proc, result

    def setup_sample():
        proc, result = child(["--setup-only"])
        return result["ready"] - proc["spawned"]

    def repeat(traced_index):
        extra = [] if traced_index is None else ["--spans", str(work / f"spans-{traced_index}")]
        proc, result = child(extra)
        got = {qid: (dt, ans) for qid, dt, ans in result["answers"]}
        durations = []
        for q in queries:
            exp = answers[q["id"]]
            dt, ans = got.get(q["id"], (None, {"error": "no answer"}))
            tally.check(q["id"], ans == exp["answer"],
                        f"got {json.dumps(ans)[:300]}, expected ({exp['source']}) "
                        f"{json.dumps(exp['answer'])[:300]}")
            if dt is not None:
                durations.append(dt)
        out = dict(wall=proc["wall"], cpu=proc["cpu"], rss_mb=proc["rss_mb"],
                   setup=result["ready"] - proc["spawned"], durations=durations)
        if traced_index is not None:
            out["layers"] = _layers([extra[1]], [result["enter"] - proc["spawned"]],
                                    [result["import_s"]])
        return out

    return _loop(seconds, trace, repeat, setup_sample)


def run_cli(seed, seconds, trace, work, expected, tally) -> dict:
    rseed = random.Random(f"perfbench/cli/{seed}").choice(workloads.RANDOM_SEEDS)
    calls = workloads.cli_calls(rseed)
    rel = str(work.relative_to(ROOT))
    answers = expected["cli-fixtures"]

    def setup_sample():
        proc = spawn(CEAF + ["--help"], work)
        if proc["code"] != 0:
            raise BenchError(f"ceaf --help failed (exit {proc['code']}):\n{proc['err']}")
        return proc["wall"]

    def repeat(traced_index):
        started = time.monotonic()
        out = dict(cpu=0.0, rss_mb=0.0, durations=[], setup=None)
        span_files, interpreter, import_s = [], [], []
        for i, call in enumerate(calls):
            argv = [a.replace("{work}", rel) for a in call["argv"]]
            if traced_index is None:
                proc = spawn(CEAF + argv, work)
            else:
                span_file = str(work / f"spans-{traced_index}-{i}")
                proc = spawn(CHILD + ["cli", span_file] + argv, work)
                if Path(span_file).exists():
                    header = spans.header(span_file)
                    span_files.append(span_file)
                    interpreter.append(header["enter"] - proc["spawned"])
                    import_s.append(header["import_s"])
            out["durations"].append(proc["wall"])
            out["cpu"] += proc["cpu"]
            out["rss_mb"] = max(out["rss_mb"], proc["rss_mb"])
            ok, detail = _check_cli(call, argv, proc, answers[call["id"]])
            tally.check(call["id"], ok, detail)
        out["wall"] = time.monotonic() - started
        if traced_index is not None:
            out["layers"] = _layers(span_files, interpreter, import_s)
        return out

    return _loop(seconds, trace, repeat, setup_sample)


def _check_cli(call: dict, argv: list, proc: dict, exp: dict):
    detail = f"exit {proc['code']} (expected {exp['exit']}, {exp['source']})"
    if proc["code"] != exp["exit"]:
        return False, detail + ": " + proc["err"][-200:]
    kind = call["check"]
    if kind == "text":
        return proc["out"] == exp["stdout"], detail + ": stdout differs"
    if kind == "file":
        written = ROOT / argv[argv.index("-o") + 1]
        digest = hashlib.sha256(written.read_bytes()).hexdigest() if written.exists() else None
        return digest == exp["sha256"], detail + ": written document differs"
    try:
        value = json.loads(proc["out"])[call["key"]]
    except (ValueError, KeyError) as exc:
        return False, f"{detail}: unreadable output ({exc})"
    if kind == "sets":
        value = workloads.encode(frozenset(frozenset(f"{i}:{c}" for i, c in s) for s in value), {})
    return value == exp[kind], f"{detail}: got {json.dumps(value)[:300]}"


def _median(values):
    return statistics.median(values) if values else 0.0


def _loop(seconds, trace, repeat, setup_sample) -> dict:
    """Repeat until ``seconds`` have passed, and at least ``MIN_RUNS`` times.
    Set-up samples are spread over the run, a few before each repetition, so
    their median covers the same stretch of time as the repetitions.  With
    tracing, every untraced repetition is followed by a traced one."""
    setup_sample()  # writes the bytecode cache; not counted
    plain, traced, setup = [], [], []
    deadline = time.monotonic() + seconds
    while len(plain) < MIN_RUNS or time.monotonic() < deadline:
        setup += [setup_sample() for _ in range(SETUP_PER_REPETITION)]
        plain.append(repeat(None))
        if trace:
            traced.append(repeat(len(traced)))
    return dict(plain=plain, traced=traced, setup=setup)


def end_to_end(runs: dict) -> dict:
    plain = runs["plain"]
    durations = [d for r in plain for d in r["durations"]]
    setup = runs["setup"] + [r["setup"] for r in plain if r["setup"] is not None]
    return {
        "setup_s": (_median(setup), "s"),
        "wall_s": (_median([r["wall"] for r in plain]), "s"),
        "queries_per_s": (len(durations) / sum(durations), "1/s"),
        "query_s.p50": (statistics.median(durations), "s"),
        "query_s.p90": (statistics.quantiles(durations, n=10, method="inclusive")[8], "s"),
        "cpu_s": (_median([r["cpu"] for r in plain]), "s"),
        "peak_rss_mb": (_median([r["rss_mb"] for r in plain]), "MB"),
    }


def _layers(span_files: list, interpreter: list, import_s: list) -> dict:
    """Per-layer metrics of one traced repetition; its span files go."""
    row = spans.per_layer(span_files)
    row["cli.import_s"] = _median(import_s)
    row["cli.interpreter_s"] = _median(interpreter)
    for path in span_files:
        os.remove(path)
    return row


def per_layer(runs: dict) -> dict:
    rows = [r["layers"] for r in runs["traced"]]
    # counts are equal in every traced repetition; keep them whole numbers
    out = {
        k: ((statistics.median_low if k.endswith(".calls") else _median)(
            [row[k] for row in rows]), _unit(k))
        for k in rows[0]
    }
    overhead = _median([r["wall"] for r in runs["traced"]]) - _median(
        [r["wall"] for r in runs["plain"]]
    )
    out["trace.overhead_s"] = (overhead, "s")
    return out


def _unit(metric: str) -> str:
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("per_call"):
        return "lookups/call"
    return "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ceaf" / "cli.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: no ceaf sources (src/ceaf, fixtures) under {ROOT}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        if args.workload == "cli-fixtures":
            runs = run_cli(args.seed, args.seconds, args.trace, work, expected, tally)
        else:
            runs = run_in_process(args.workload, args.seed, args.seconds, args.trace, work,
                                  expected, tally)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    metrics = per_layer(runs) if args.trace else end_to_end(runs)
    samples = sum(len(r["durations"]) for r in runs["plain"])
    print(f"# workload {args.workload}, seed {args.seed}: {len(runs['plain'])} untraced and "
          f"{len(runs['traced'])} traced repetitions; query latencies over {samples} samples")
    print(f"# failed_ratio {tally.failed / tally.attempted:.6f} "
          f"({tally.failed} of {tally.attempted} answers wrong, unexpected exit or crash)")
    for qid, detail in sorted(tally.problems.items()):
        print(f"# disagreement {qid}: {detail}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
