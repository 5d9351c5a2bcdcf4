#!/usr/bin/env python3
"""Write the bundled synthetic cohort to CSV.

The generated file follows the documented schema (id,e,t,los,event,z1..zp)
and is bit-reproducible from the seed; the planted ground truth is printed
so downstream estimates can be judged against it.
"""

import argparse
from pathlib import Path

from carecontracts.estimation import save_cohort
from carecontracts.synthetic import BETA_CONTROL, BETA_TREATED, SyntheticCohortSpec, generate_cohort


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="cohort.csv", help="output CSV path")
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--treated-fraction", type=float, default=0.10)
    args = parser.parse_args()

    spec = SyntheticCohortSpec(n=args.n, treated_fraction=args.treated_fraction)
    cohort, _ = generate_cohort(spec, args.seed)
    save_cohort(cohort, args.out)

    planted = spec.planted
    print(f"wrote {len(cohort)} records -> {Path(args.out).resolve()}")
    print(f"treated: {cohort.e.sum()}")
    print(
        f"planted survival cells: pi00={planted.pi00} pi01={planted.pi01}"
        f" pi10={planted.pi10} pi11={planted.pi11}"
    )
    print(f"planted good-responder share: {planted.gamma}")
    print(f"planted Cox coefficients: control={BETA_CONTROL} treated={BETA_TREATED}")


if __name__ == "__main__":
    main()
