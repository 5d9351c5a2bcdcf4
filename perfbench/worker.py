"""Child process of the benchmark: set up one workload, or time its passes.

run.py starts one process per set-up sample (``--mode setup``) and then
one that measures (``--mode measure``), so that the set-up time and the
peak memory belong to one workload alone. The process writes what it
saw as JSON to ``--result``; run.py turns that into metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "measure"], required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports the program from the checkout's src/

    work = Path(".bench_work") / args.workload
    workload = workloads.WORKLOADS[args.workload](args.seed, work, workloads.SIZES[args.size])
    if args.mode == "setup":
        workload.setup()
        result = {"ready": time.monotonic()}
    else:
        workload.open()
        result = measure(workload, args, workloads)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def measure(workload, args, workloads) -> dict:
    """Run passes until ``--seconds`` of pass time is spent.

    With tracing, untraced and traced passes alternate and the run has at
    least three, so it also measures what the tracing itself costs. The
    first pass is untraced and left out of that comparison: a process's
    first pass pays one-time costs, such as faulting in the heap that later
    passes reuse.
    """
    reference, reference_note = workloads.load_reference(args.workload, args.seed, args.size)
    book = workloads.DigestBook(reference)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    passes = []
    spent = 0.0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        workload.prepare()
        gc.collect()
        if traced:
            tracer.begin_pass(len(passes))
            tracer.install()
        start = time.perf_counter()
        raw = workload.timed()
        wall = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        outcome = workload.check(raw)
        del raw
        entry = {"traced": traced, "wall_s": wall}
        if traced:
            entry["layers"], problems = tracer.pass_metrics(wall)
            for problem in problems:
                outcome.fail(problem)
            if tracer.matched_pairs:
                outcome.digest["pairs"] = workloads.pairs_digest(tracer.matched_pairs)
        for problem in book.problems(outcome.digest):
            outcome.fail(problem)
        for problem in outcome.problems:
            print(f"pass {len(passes)}: {problem}", file=sys.stderr)
        entry.update(
            calls_ms=outcome.calls_ms,
            attempted=outcome.attempted,
            failed=outcome.failed,
            problems=outcome.problems,
            extra=outcome.extra,
        )
        passes.append(entry)
        spent += wall
        if spent >= args.seconds and (tracer is None or len(passes) >= 3):
            break

    result = {
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digests": book.first,
        "reference": reference_note,
        "numpy": workloads.np.__version__,
        "platform": workloads.platform_key(),
        "seeds": workload.seeds,
    }
    if tracer is not None:
        spans = Path(".bench_work") / f"spans-{args.workload}-{args.seed}.csv.gz"
        tracer.write_spans(spans)
        result["spans"] = str(spans)
        untraced = statistics.median(p["wall_s"] for p in passes[1:] if not p["traced"])
        for p in passes:
            if p["traced"]:
                p["layers"]["trace.overhead_s"] = p["wall_s"] - untraced
    return result


if __name__ == "__main__":
    sys.exit(main())
