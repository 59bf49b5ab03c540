#!/usr/bin/env python3
"""Table of exact Airy-curve correlators for all stable (g, k) in range.

Lists every genus/leg pair with 1 <= 2g - 2 + k <= the chosen bound together
with its exact Laurent coefficient.
"""

import argparse

from lrq.airy import airy_correlator


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-euler", type=int, default=3,
                    help="bound on 2g - 2 + k")
    args = ap.parse_args()

    for chi in range(1, args.max_euler + 1):
        for g in range((chi + 1) // 2 + 1):
            k = chi + 2 - 2 * g
            if k < 1:
                continue
            corr = airy_correlator(g, k)
            print(f"g={g} k={k}:  {corr}")


if __name__ == "__main__":
    main()
