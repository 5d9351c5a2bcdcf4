#!/usr/bin/env python3
"""Record the output digests that default-seed runs are checked against.

    python3 perfbench/record_reference.py

Run it from the root of a checkout whose outputs are the accepted ones.
It makes one traced run of ``reproduce`` and of ``estimate`` at the
default seed and full size, so the digests include the matched pairs,
and writes them with the platform they were made on to reference.json.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(Path.cwd() / "src")]

from workloads import DEFAULT_SEED, REFERENCE  # noqa: E402


def main() -> int:
    digests = {}
    platform = None
    for workload in ("reproduce", "estimate"):
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(DEFAULT_SEED),
             "--seconds", "1", "--trace", "1"],
            check=True, stdout=subprocess.DEVNULL,
        )
        child = json.loads((Path(".bench_work") / workload / "result.json").read_text())["child"]
        digests[workload] = child["digests"]
        platform = child["platform"]
    REFERENCE.write_text(
        json.dumps({"seed": DEFAULT_SEED, "platform": platform, "digests": digests}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"reference digests -> {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
