#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Run it from the root of a checkout; it takes about a minute. It checks
that

1. a tiny run of each workload (40 000 rows, 3 oracle trials, a 2x2
   sweep), untraced and traced, prints exactly the metrics BENCHMARK.json
   names, each with its unit, and fails no operation;
2. tampered outputs are counted as failed operations, not passed;
3. run.py in a directory that holds only the benchmark exits non-zero
   without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = Path(".bench_work") / "selftest"

results: list[tuple[str, bool, str]] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    results.append((name, ok, detail))
    print(f"{'PASS' if ok else 'FAIL'}  {name}{'  ' + detail if detail and not ok else ''}")


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), "--workload", workload, "--seed", "13",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            name = f"tiny {workload} --trace {trace}"
            proc = run_bench(ROOT, workload, trace)
            if proc.returncode != 0:
                check(name, False, proc.stderr.strip()[-500:])
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in spec[section]}
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(f"{name}: result keys", sorted(result) == ["attempted", "correct", "failed", "metrics"])
            check(f"{name}: every named metric with its unit", units == expected,
                  f"missing or wrong: {set(expected.items()) ^ set(units.items())}")
            check(f"{name}: no failed operation", result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, proc.stderr.strip()[-500:])


def tamper_checks() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    sizes = workloads.SIZES["tiny"]

    def fresh(cls):
        workload = cls(13, WORK / cls.__name__.lower(), sizes)
        workload.setup()
        workload.open()
        workload.prepare()
        return workload, workload.timed()

    def edit_json(path: Path, change) -> None:
        data = json.loads(path.read_text(encoding="utf-8"))
        change(data)
        path.write_text(json.dumps(data), encoding="utf-8")

    workload, raw = fresh(workloads.Reproduce)
    book = workloads.DigestBook({})
    clean = workload.check(raw)
    check("reproduce: clean outputs pass", clean.failed == 0 and not book.problems(clean.digest))
    edit_json(workload.out / "report.json", lambda d: d["verdicts"][0].update(passed=False))
    tampered = workload.check(raw)
    check("reproduce: a failed verdict counts as a failure", tampered.failed == 1)
    check("reproduce: a changed report.json is caught by its digest",
          any("report.json" in p for p in book.problems(tampered.digest)))

    workload, raw = fresh(workloads.Estimate)
    book = workloads.DigestBook({})
    clean = workload.check(raw)
    check("estimate: clean outputs pass", clean.failed == 0 and not book.problems(clean.digest))
    edit_json(workload.out / "params.json", lambda d: d["pi"].update({"00": d["pi"]["00"] + 0.1}))
    tampered = workload.check(raw)
    check("estimate: an estimate off the planted truth counts as a failure", tampered.failed == 1)
    check("estimate: a changed params.json is caught by its digest",
          any("params.json" in p for p in book.problems(tampered.digest)))
    reference = workloads.DigestBook({"params.json": clean.digest["params.json"]})
    check("estimate: a digest unlike the recorded reference is caught",
          any("reference" in p for p in reference.problems(tampered.digest)))

    workload, (trials, points) = fresh(workloads.Certify)
    check("certify: clean outputs pass", workload.check((trials, points)).failed == 0)
    code, out, seconds = trials[0]
    bad_trial = [(code, out.replace("total agreements: 4/4", "total agreements: 3/4"), seconds)]
    check("certify: a disagreeing oracle trial counts as a failure",
          workload.check((bad_trial + trials[1:], points)).failed == 1)
    check("certify: a non-zero exit counts as a failure",
          workload.check(([(1, out, seconds)] + trials[1:], points)).failed == 1)
    params, (solution, report, costlier), seconds = points[0]
    skewed = dataclasses.replace(report, mean_payment=report.mean_payment + 0.05)
    bad_point = [(params, (solution, skewed, costlier), seconds)]
    check("certify: a simulated payment off the exact value counts as a failure",
          workload.check((trials, bad_point + points[1:])).failed == 1)


def bare_directory() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(bare, "reproduce", 0)
    lines = proc.stdout.strip().splitlines()
    check("bare directory: non-zero exit and no result",
          proc.returncode != 0 and not (lines and lines[-1].startswith("{")), proc.stdout[-300:])


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    smoke_runs()
    tamper_checks()
    bare_directory()
    failed = [name for name, ok, _ in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} self-test checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
