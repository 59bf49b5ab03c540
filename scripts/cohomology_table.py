#!/usr/bin/env python3
"""Exact cohomology dimensions of the three complexes across small bidegrees.

Prints dim H^(n,g) for the full graph complex, the regular quotient, and the
word subcomplex, for all n up to the chosen bound and all genera 0..n.  A
bound beyond the routine's own (``lrq.complexes.MAX_COHOMOLOGY_ORDER``) is
refused before anything is computed.
"""

import argparse
import sys

from lrq.complexes import MAX_COHOMOLOGY_ORDER, cohomology_dim


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=4,
                    help=f"largest order n (at most {MAX_COHOMOLOGY_ORDER})")
    args = ap.parse_args()
    if args.max_order > MAX_COHOMOLOGY_ORDER:
        print(f"error: --max-order {args.max_order} is beyond the cohomology "
              f"bound n <= {MAX_COHOMOLOGY_ORDER}", file=sys.stderr)
        sys.exit(2)

    print(f"{'n':>3} {'g':>3} {'full':>6} {'reg':>6} {'toprec':>8}")
    for n in range(args.max_order + 1):
        for g in range(n + 1):
            dims = [
                cohomology_dim(n, g, space) for space in ("full", "reg", "toprec")
            ]
            print(f"{n:>3} {g:>3} {dims[0]:>6} {dims[1]:>6} {dims[2]:>8}")


if __name__ == "__main__":
    main()
