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


def at_least(low: int):
    """An argparse type for an integer flag of at least ``low``."""

    def integer(text: str) -> int:
        if int(text) < low:  # a ValueError reads "invalid integer value"
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    return integer


def fraction(text: str) -> float:
    """An argparse type for a share strictly between 0 and 1."""
    if not 0.0 < float(text) < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return float(text)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="cohort.csv", help="output CSV path")
    parser.add_argument("--n", type=at_least(1), default=100_000)
    parser.add_argument("--seed", type=at_least(0), default=13)
    parser.add_argument("--treated-fraction", type=fraction, default=0.10)
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
