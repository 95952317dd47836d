#!/usr/bin/env python3
"""Sample random members of the two-parameter dim-2 family and tabulate
their normal forms.

Draws (a_h, b_h) with constant terms forced into one of the three admissible
limit shapes, normalizes each pair, re-checks equivalence against the
canonical representative, and prints one row per sample plus a histogram of
the kinds seen.
"""

import argparse
import random
from fractions import Fraction

from tpalg import TruncSeries, family2d_equiv, format_scalar, normalize_family

F = Fraction
MAX_ABS = 3  # largest |coefficient| drawn


def sample_pair(rng, order, shape):
    def coeff():
        return F(rng.randint(-2 * MAX_ABS, 2 * MAX_ABS), 2)

    def nonzero():
        c = coeff()
        while c == 0:
            c = coeff()
        return c

    acs = [coeff() for _ in range(order)]
    bcs = [coeff() for _ in range(order)]
    if shape == "zero":
        acs[0], bcs[0] = F(0), F(0)
    elif shape == "unital":
        acs[0], bcs[0] = F(0), nonzero()
    else:
        acs[0], bcs[0] = nonzero(), F(0)
    return TruncSeries(order, tuple(acs)), TruncSeries(order, tuple(bcs))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=30)
    parser.add_argument("--order", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    shapes = ("zero", "unital", "lambda")
    kinds = {}
    widths = (28, 28, 8, 34)
    header = ("a_h", "b_h", "kind", "canonical (a, b)")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    print("  ".join("-" * w for w in widths))
    for trial in range(args.count):
        a, b = sample_pair(rng, args.order, shapes[trial % 3])
        nf = normalize_family(a, b)
        verdict = family2d_equiv(a, b, *nf.as_pair())
        assert verdict.is_equivalent, "canonical form must stay in the class"
        kinds[nf.kind] = kinds.get(nf.kind, 0) + 1
        canon = f"({format_scalar(nf.canonical_a)}, {format_scalar(nf.canonical_b)})"
        row = (format_scalar(a), format_scalar(b), nf.kind, canon)
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    print()
    print("kinds:", ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())))


if __name__ == "__main__":
    main()
