#!/usr/bin/env python3
"""Time ``carecontracts reproduce`` at fixed cohort sizes and write BENCH_<label>.json.

Each run is a fresh ``python -m carecontracts.cli reproduce --n N`` child
in its own temporary directory, with BLAS and OpenMP pinned to one thread.
A run's wall time spans spawn to reap. Its peak RSS is the ``ru_maxrss``
that ``os.wait4`` returns for that child, which covers the child and the
CSV workers it reaped (the larger of the two), and no earlier run:
``RUSAGE_CHILDREN`` would be a running maximum over every run so far.
The SHA-256 of each run's ``cohort.csv`` is recorded too.

With ``--parent DIR`` the same sizes also run from a second checkout,
alternating run for run and which side goes first, so one file holds
both sides of a comparison made in one session:

    python scripts/bench.py --label 98e8843 --sizes 100000 1000000 \\
        --repeats 3 --parent ../parent-checkout

The file is written to the current directory.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_PINS = dict.fromkeys(
    (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ),
    "1",
)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def checkout_block(root: Path) -> dict:
    """The checkout's git commit (None outside git), whether its sources differ
    from that commit, and a digest of its sources."""

    def git(*args: str) -> str | None:
        run = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return run.stdout.strip() if run.returncode == 0 else None

    sources = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        sources.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    commit = git("rev-parse", "HEAD")
    return {
        "commit": commit,
        "src_modified": None if commit is None else bool(git("status", "--porcelain", "--", "src")),
        "src_sha256": sources.hexdigest(),
    }


def machine_block() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        cpu = next(
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
    }


def run_once(root: Path, n: int) -> dict:
    """One ``reproduce --n n`` child from checkout ``root``."""
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        out = Path(tmp) / "out"
        env = {**os.environ, **THREAD_PINS, "PYTHONPATH": str(root / "src"),
               "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "carecontracts.cli", "reproduce", "--n", str(n),
                "--out", str(out)]
        log = Path(tmp) / "log.txt"
        with open(log, "wb") as fh:
            started = time.perf_counter()
            child = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=tmp)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - started
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        # 1 means a verdict missed its published figure: the run itself completed
        if child.returncode not in (0, 1):
            tail = log.read_text(errors="replace").strip().splitlines()[-10:]
            raise RuntimeError(f"{' '.join(argv)} exited {child.returncode}:\n" + "\n".join(tail))
        return {
            "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # KiB on Linux
            "exit_code": child.returncode,
            "cohort_sha256": sha256(out / "cohort.csv"),
        }


def summary(runs: list[dict]) -> dict:
    def spread(key: str) -> dict:
        values = [run[key] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        return {"median": statistics.median(values), "q1": q1, "q3": q3,
                "min": min(values), "max": max(values)}

    digests = sorted({run["cohort_sha256"] for run in runs})
    return {"wall_s": spread("wall_s"), "peak_rss_mb": spread("peak_rss_mb"),
            "cohort_sha256": digests[0] if len(digests) == 1 else digests, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--sizes", type=int, nargs="+", default=[100_000, 1_000_000])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--parent", type=Path, help="a second checkout to alternate runs with")
    args = parser.parse_args(argv)
    if args.repeats < 1 or min(args.sizes) < 1:
        parser.error("--repeats and every size must be at least 1")

    sides = {"change": ROOT}
    if args.parent is not None:
        sides["parent"] = args.parent.resolve()
    runs: dict = {side: {str(n): [] for n in args.sizes} for side in sides}
    for n in args.sizes:
        for repeat in range(args.repeats):
            order = list(sides) if repeat % 2 == 0 else list(sides)[::-1]
            for side in order:
                run = run_once(sides[side], n)
                runs[side][str(n)].append(run)
                print(f"{side:>6} n={n:<8} run {repeat + 1}/{args.repeats}: "
                      f"{run['wall_s']:.2f} s, {run['peak_rss_mb']:.1f} MB", flush=True)

    result = {
        "label": args.label,
        # the parent checkout is named by its commit and source digest, not its path
        "command": ["scripts/bench.py", "--label", args.label, "--sizes", *map(str, args.sizes),
                    "--repeats", str(args.repeats), *(["--parent", "DIR"] if args.parent else [])],
        "workload": "python -m carecontracts.cli reproduce --n N (default seeds and --sim-n)",
        "machine": machine_block(),
        "checkouts": {side: checkout_block(root) for side, root in sides.items()},
        "results": {side: {n: summary(r) for n, r in by_n.items()} for side, by_n in runs.items()},
    }
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path.resolve()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
