#!/usr/bin/env python3
"""Table of exact Airy-curve correlators for all stable (g, k) in range.

Lists every genus/leg pair with 1 <= 2g - 2 + k <= the chosen bound together
with its exact Laurent coefficient, written one monomial at a time.  A bound
beyond the recursion's own (``lrq.airy.MAX_NEG_EULER``) is refused before
anything is computed.
"""

import argparse
import sys

from lrq.airy import MAX_NEG_EULER, airy_correlator


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-euler", type=int, default=3,
                    help=f"bound on 2g - 2 + k (at most {MAX_NEG_EULER})")
    args = ap.parse_args()
    if args.max_euler > MAX_NEG_EULER:
        print(f"error: --max-euler {args.max_euler} is beyond the recursion "
              f"bound 2g-2+k <= {MAX_NEG_EULER}", file=sys.stderr)
        sys.exit(2)

    for chi in range(1, args.max_euler + 1):
        for g in range((chi + 1) // 2 + 1):
            k = chi + 2 - 2 * g
            if k < 1:
                continue
            sys.stdout.write(f"g={g} k={k}:  ")
            sys.stdout.writelines(airy_correlator(g, k).text_chunks())
            print()


if __name__ == "__main__":
    main()
