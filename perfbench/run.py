#!/usr/bin/env python3
"""Run one workload of the fockdec pipeline benchmark.

    python3 perfbench/run.py --workload factorize-l3 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; fockdec is imported from ``src``
and nothing needs installing.  The process imports fockdec once, then
issues the workload's operations one at a time through
``fockdec.cli.main(argv)`` with stdout captured: a closed loop with one
caller and no threads.  Whole rounds of the workload repeat until
``--seconds`` have passed, so every run attempts the same operations in the
same proportions.

After the timed rounds every distinct output is checked by ``checks.py``,
which shares no arithmetic with fockdec.  An operation fails when an
exception escapes ``cli.main``, when it exits nonzero, or when its output
fails a check; ``correct`` is false when a completed operation's output
fails a check or differs between rounds.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
untraced rounds alternate with rounds whose spans are recorded (see
``spans.py``), and the per-module metrics are reported, each per round and
the median over the traced rounds.

The last line of stdout is the result object; the line before it holds the
run's metadata (commit, interpreter, kernel, cores, seed, failures and a
digest of each operation's stdout).  Both also go to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import zlib
from collections import Counter
from functools import partial
from pathlib import Path

from checks import CHECKS, CheckFailed, check_antisymmetric, check_same_output
from spans import SELF_TIME_METRICS, Tracer
from workloads import WORKLOADS, build

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_SAMPLES = 11
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import fockdec.cli\n"
    "fockdec.cli.build_parser()\n"
    "print(time.perf_counter() - t, fockdec.__file__)\n"
)
COUNT_METRICS = (
    "canonical.vectors", "canonical.corrections", "canonical.support",
    "fock.peel_terms", "crystal.vertices", "combinatorics.rows", "abacus.calls",
)


def import_fockdec():
    """Import fockdec from this checkout's source tree, and nowhere else."""
    package = SRC / "fockdec"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no fockdec sources at {package}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fockdec
    import fockdec.abacus
    import fockdec.canonical
    import fockdec.cli
    import fockdec.factorize
    import fockdec.laurent

    if Path(fockdec.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported fockdec from {fockdec.__file__}, not {package}")
    return fockdec


def measure_setup() -> float:
    """Median time, in fresh interpreters, to import fockdec and build the parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, path = proc.stdout.split(maxsplit=1)
        if Path(path.strip()).resolve().parent != (SRC / "fockdec").resolve():
            sys.exit(f"perfbench: set-up imported fockdec from {path.strip()}")
        times.append(float(seconds))
    return statistics.median(times)


def _first_line(text: str) -> str:
    return (text.strip().splitlines() or [""])[0][:200]


class Runner:
    """Executes operations and keeps what the checks and metrics need."""

    def __init__(self, fockdec, ops):
        self.fockdec = fockdec
        self.cli = fockdec.cli
        self.ops = ops
        self.outputs: dict[int, bytes] = {}  # op -> zlib'd first stdout
        self.digests: dict[int, str] = {}
        self.problems: dict[int, str] = {}  # op -> reason its output is wrong
        self.execs: list[dict] = []  # one per execution, in order

    def execute(self, argv, tracer=None):
        out, err = io.StringIO(), io.StringIO()
        reason = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    with tracer.span("cli.main"):
                        rc = self.cli.main(argv)
            except Exception as exc:
                rc = None
                reason = f"{type(exc).__name__}: {_first_line(str(exc))}"
            elapsed = time.perf_counter() - start
        if reason is None and rc != 0:
            reason = f"exit code {rc}: {_first_line(err.getvalue())}"
        return elapsed, out.getvalue(), reason

    def round(self, rnd: int, tracer=None) -> None:
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = len(self.execs)
            elapsed, text, reason = self.execute(op["argv"], tracer)
            data = text.encode()
            digest = hashlib.sha256(data).hexdigest()[:16]
            if i not in self.digests:
                self.digests[i] = digest
                if reason is None:
                    self.outputs[i] = zlib.compress(data)
            elif digest != self.digests[i] and i not in self.problems:
                self.problems[i] = "stdout differs between rounds"
            self.execs.append({"round": rnd, "op": i, "seconds": elapsed,
                               "bytes": len(data), "reason": reason})

    def run_for(self, seconds: float) -> int:
        """Repeat whole rounds until `seconds` have passed; return the count."""
        start = time.perf_counter()
        rnd = 0
        while rnd == 0 or time.perf_counter() - start < seconds:
            self.round(rnd)
            rnd += 1
        return rnd

    def run_traced_for(self, seconds: float, tracer) -> set[int]:
        """Alternate untraced and traced rounds until `seconds` have passed,
        so both kinds sample the same stretch of machine time; return the
        traced round numbers."""
        start = time.perf_counter()
        rnd = 0
        while rnd == 0 or time.perf_counter() - start < seconds:
            self.round(rnd)
            tracer.install(self.fockdec)
            try:
                self.round(rnd + 1, tracer)
            finally:
                tracer.remove()
            rnd += 2
        return set(range(1, rnd, 2))

    def check(self, references, tau_forward) -> dict[int, dict]:
        """Check every distinct output; return the summaries by op index."""
        summaries = {}
        checks = dict(CHECKS, abacus=partial(CHECKS["abacus"], tau_forward=tau_forward))

        def summarize(op, text):
            try:
                obj = json.loads(text)
            except ValueError as exc:
                raise CheckFailed(f"output is not JSON: {exc}") from None
            return checks[op["cmd"]](obj, op)

        for i, blob in self.outputs.items():
            try:
                summaries[i] = summarize(self.ops[i], zlib.decompress(blob).decode())
            except CheckFailed as exc:
                self.problems.setdefault(i, f"check failed: {exc}")
        ref_summary = {}
        for ref in references:
            _, text, reason = self.execute(ref["argv"])
            try:
                if reason is not None:
                    raise CheckFailed(f"reference {' '.join(ref['argv'])}: {reason}")
                ref_summary[ref["pair"]] = summarize(ref, text)
            except CheckFailed as exc:
                for i, op in enumerate(self.ops):
                    if op.get("pair") == ref["pair"]:
                        self.problems.setdefault(i, f"check failed: {exc}")
        by_pair: dict[str, list[int]] = {}
        for i, op in enumerate(self.ops):
            if "pair" in op and i in summaries:
                by_pair.setdefault(op["pair"], []).append(i)
        for pair, members in by_pair.items():
            try:
                if pair.startswith("order:") and len(members) == 2:
                    check_antisymmetric(summaries[members[0]], summaries[members[1]])
                elif pair in ref_summary:
                    check_same_output(summaries[members[0]], ref_summary[pair])
            except CheckFailed as exc:
                for i in members:
                    self.problems.setdefault(i, f"check failed: {exc}")
        return summaries

    def failure(self, ex: dict):
        return ex["reason"] or self.problems.get(ex["op"])

    def completed(self) -> list[float]:
        """Wall times of the executions that did not fail."""
        return [ex["seconds"] for ex in self.execs if not self.failure(ex)]


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fockdec").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, setup_s, peak_rss_mb):
    every = [ex["seconds"] for ex in runner.execs]
    done = runner.completed()
    return {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(len(done) / sum(every), "1/s"),
        "op_p50_s": _metric(statistics.median(done or every), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def per_layer(runner, tracer, traced_rounds, summaries):
    selfs = tracer.self_times()
    by_round: dict[int, Counter] = {}
    round_seconds = Counter()
    for n, ex in enumerate(runner.execs):
        round_seconds[ex["round"]] += ex["seconds"]
        if ex["round"] not in traced_rounds:
            continue
        acc = by_round.setdefault(ex["round"], Counter())
        for metric, span in SELF_TIME_METRICS.items():
            acc[metric] += selfs[n][span]
        acc.update(tracer.counts[n])
        acc["cli.stdout_bytes"] += ex["bytes"]

    def median(name):
        # median_low keeps counts, equal in every round, whole numbers
        return statistics.median_low(acc[name] for acc in by_round.values())

    metrics = {m: _metric(median(m), "s") for m in SELF_TIME_METRICS}
    for name in COUNT_METRICS:
        metrics[name] = _metric(median(name), "count")
    # sizes of the outputs, summed over one round of distinct operations
    sizes = Counter()
    for summary in summaries.values():
        sizes.update({k: summary.get(k, 0) for k in ("cells", "nonzeros", "extract_steps")})
    for name in ("cells", "nonzeros", "extract_steps"):
        metrics[f"factorize.{name}"] = _metric(sizes[name], "count")
    metrics["factorize.density"] = _metric(
        sizes["nonzeros"] / sizes["cells"] if sizes["cells"] else 0.0, "ratio"
    )
    metrics["cli.stdout_bytes"] = _metric(median("cli.stdout_bytes"), "bytes")
    for name in ("max_coeff", "max_span"):
        metrics[f"laurent.{name}"] = _metric(
            max((s.get(name, 0) for s in summaries.values()), default=0), "count"
        )
    traced = [t for rnd, t in round_seconds.items() if rnd in traced_rounds]
    untraced = [t for rnd, t in round_seconds.items() if rnd not in traced_rounds]
    metrics["trace.overhead_s"] = _metric(
        statistics.median(traced) - statistics.median(untraced), "s"
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fockdec = import_fockdec()
    setup_s = None if args.trace else measure_setup()
    ops, references = build(args.workload, args.seed)
    runner = Runner(fockdec, ops)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        traced_rounds = runner.run_traced_for(args.seconds, tracer)
    else:
        runner.run_for(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    summaries = runner.check(references, getattr(fockdec.abacus, "tau_forward", None))
    if args.trace:
        metrics = per_layer(runner, tracer, traced_rounds, summaries)
    else:
        metrics = end_to_end(runner, setup_s, peak_rss_mb)

    failures = Counter()
    for ex in runner.execs:
        reason = runner.failure(ex)
        if reason:
            failures[(ex["op"], reason)] += 1
    done = runner.completed()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "kernel": fockdec.laurent.KERNEL,
        "nproc": os.cpu_count(),
        "rounds": 1 + max(ex["round"] for ex in runner.execs),
        "ops_per_round": len(ops),
        "attempted": len(runner.execs),
        "failed": sum(failures.values()),
        "failures": [
            {"argv": " ".join(ops[i]["argv"]), "reason": reason, "count": n}
            for (i, reason), n in sorted(failures.items())
        ],
        "completed_samples": len(done),
        "digests": [[" ".join(op["argv"]), runner.digests[i]] for i, op in enumerate(ops)],
    }
    if len(done) >= 40:
        meta["op_p90_s"] = statistics.quantiles(done, n=10)[-1]
    result = {
        "correct": not runner.problems,
        "attempted": meta["attempted"],
        "failed": meta["failed"],
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    record = {"run": meta, "result": result}
    if tracer is not None:
        record["spans"] = tracer.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record) + "\n")
    print(json.dumps({"run": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
