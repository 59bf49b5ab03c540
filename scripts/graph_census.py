#!/usr/bin/env python3
"""Census of loop graphs and words by order and genus.

Tabulates, for each order n and genus g: all graphs, regular graphs, and the
valid words of that shape, alongside the closed-form count Catalan(n) *
binomial(n, g).  Every graph counted is interned and kept, so a bound beyond
the CLI's enumerate bound (``lrq.cli.MAX_ENUMERATE_ORDER``) is refused before
anything is built.
"""

import argparse
import sys

from lrq.cli import MAX_ENUMERATE_ORDER
from lrq.loopgraphs import count_graphs, enumerate_graphs
from lrq.subalgebras import enumerate_words


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=5,
                    help=f"largest order n (at most {MAX_ENUMERATE_ORDER})")
    args = ap.parse_args()
    if args.max_order > MAX_ENUMERATE_ORDER:
        print(f"error: --max-order {args.max_order} is beyond the enumerate "
              f"bound n <= {MAX_ENUMERATE_ORDER}", file=sys.stderr)
        sys.exit(2)

    print(f"{'n':>3} {'g':>3} {'graphs':>8} {'closed':>8} {'regular':>8} {'words':>6}")
    for n in range(args.max_order + 1):
        for g in range(n + 1):
            total = len(enumerate_graphs(n, g))
            regular = len(enumerate_graphs(n, g, regular_only=True))
            words = len(enumerate_words(n, g))
            print(
                f"{n:>3} {g:>3} {total:>8} {count_graphs(n, g):>8} "
                f"{regular:>8} {words:>6}"
            )


if __name__ == "__main__":
    main()
