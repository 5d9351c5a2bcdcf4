#!/usr/bin/env python3
"""Benchmark of the cohort -> contract -> simulation pipeline.

    python3 perfbench/run.py --workload reproduce|estimate|certify \
        --seed N --seconds S --trace 0|1

Run it from the root of a carecontracts checkout; it imports the program
from the checkout's ``src/``. Each run starts three set-up processes (the
median of their times is ``setup_s``) and then one process that runs
passes of the workload for ``--seconds`` seconds and checks every output.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run. Human-readable lines come first;
the last line of standard output is one JSON object. Scratch files go to
``.bench_work/``. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402

SETUPS = 3
TIME_LIMIT_S = 170.0
# BLAS and OpenMP pools in the child are pinned to one thread: the
# benchmark is one process with no extra threads, steady on two cores.
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
CHILD_ENV = {**THREAD_PINS, "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("call_p50_ms", "ms"),
]
# Stages whose share of the traced pass the human-readable output lists.
STAGES = [
    "synthetic.generate_cohort.s",
    "estimation.save_cohort.s",
    "estimation.load_cohort.s",
    "estimation.fit_propensity.s",
    "estimation.match_one_to_one.s",
    "estimation.fit_cox.s",
    "estimation.response_scores.s",
    "estimation.outcome_rates.s",
    "lp.solve_lp.s",
    "solvers.closed_form.s",
    "simulation.s",
]


class ChildFailed(Exception):
    pass


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def run_child(args, mode: str, index: int, deadline: float) -> tuple[dict, float]:
    """Start one worker process and wait for it; return its result and
    the monotonic time it was started at."""
    work = Path(".bench_work") / args.workload
    result_path = work / f"{mode}-{index}.json"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--result", str(result_path),
    ]
    log_path = work / "child.log"
    with open(log_path, "a", encoding="utf-8") as log:
        started = time.monotonic()
        try:
            proc = subprocess.run(
                command, stdout=log, stderr=log, env={**os.environ, **CHILD_ENV},
                timeout=max(1.0, deadline - started),
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} process ran past the {TIME_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8").strip().splitlines()[-15:]
        raise ChildFailed(f"{mode} process exited with {proc.returncode}:\n" + "\n".join(tail))
    return json.loads(result_path.read_text(encoding="utf-8")), started


def machine_block(root: Path, child: dict) -> dict:
    """Where and on what the run was made; read-only probes only."""
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    commit = None
    if (root / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
        commit = probe.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "numpy_platform": child["platform"],
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seeds": child["seeds"],
        "child_env": CHILD_ENV,
    }


def end_to_end(passes: list[dict], setups: list[float], peak_rss_kb: int) -> tuple[dict, dict]:
    """The gated metrics, and the workload-specific ones that are printed."""
    walls = [p["wall_s"] for p in passes]
    calls = [c for p in passes for c in p["calls_ms"]]
    wall = statistics.median(walls)
    gated = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "call_p50_ms": statistics.median(calls),
    }
    extra = passes[0]["extra"]
    printed = {"call_p95_ms": (percentile(calls, 95), "ms")}
    if "rows" in extra:
        printed["rows_per_s"] = (extra["rows"] / wall, "1/s")
    if "draws" in extra:
        printed["verify_p50_ms"] = (gated["call_p50_ms"], "ms")
        printed["verify_p95_ms"] = printed["call_p95_ms"]
        draws = sum(p["extra"]["draws"] for p in passes)
        printed["draws_per_s"] = (draws / sum(p["extra"]["sweep_s"] for p in passes), "1/s")
    return gated, printed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["reproduce", "estimate", "certify"])
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--size", choices=["full", "tiny"], default="full", help="tiny: self-test sizes"
    )
    args = parser.parse_args()
    # a terminated run stops its child too: subprocess.run kills it on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "carecontracts" / "__init__.py").is_file():
        print("error: run from the root of a carecontracts checkout (no src/carecontracts)", file=sys.stderr)
        return 2
    work = Path(".bench_work") / args.workload
    work.mkdir(parents=True, exist_ok=True)
    (work / "child.log").unlink(missing_ok=True)

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = []
        for index in range(SETUPS):
            ready, started = run_child(args, "setup", index, deadline)
            setups.append(ready["ready"] - started)
        child, _ = run_child(args, "measure", 0, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = child["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        values = {
            name: statistics.median(p["layers"][name] for p in traced) for name, _, _ in LAYER_METRICS
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    else:
        gated, printed = end_to_end(untraced, setups, child["peak_rss_kb"])
        metrics = {name: {"value": gated[name], "unit": unit} for name, unit in END_TO_END}

    print(
        f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}"
        f"  passes {len(untraced)} untraced + {len(traced)} traced"
    )
    print(f"  operations {attempted}  failed {failed}")
    print(f"  output digests: reference {child['reference']}")
    for name, entry in metrics.items():
        print(f"  {name:<42} {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        printed["error_rate"] = (failed / attempted, "ratio")
        for name in ("call_p95_ms", "rows_per_s", "verify_p50_ms", "verify_p95_ms", "draws_per_s", "error_rate"):
            value, unit = printed.get(name, (None, "not defined on this workload"))
            print(f"  {name:<42} {'' if value is None else f'{value:.6g} '}{unit}")
    else:
        wall = values["trace.wall_s"]
        print(f"  stage shares of the traced pass ({wall:.4g} s):")
        for name in STAGES:
            if values[name] > 0:
                print(f"    {name:<40} {100 * values[name] / wall:5.1f} %")
        print("  layer self-time shares (they add up with the untracked time):")
        for name, _, _ in LAYER_METRICS:
            if name.endswith(".self_s") and name.count(".") == 1 or name == "trace.untracked_s":
                print(f"    {name:<40} {100 * values[name] / wall:5.1f} %")
        print(f"  spans -> {child['spans']}")
    machine = machine_block(root, child)
    print("machine " + json.dumps(machine, sort_keys=True))
    (work / "result.json").write_text(
        json.dumps({"args": vars(args), "setups_s": setups, "child": child, "machine": machine}, indent=1),
        encoding="utf-8",
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
