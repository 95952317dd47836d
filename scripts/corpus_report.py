#!/usr/bin/env python3
"""Run the standing verification corpus and print one verdict line per
structure.

Covers: quantization of each catalog dot against the compatible circ family
at several rational points, the Euler-derivation algebras on Q[t]/(t^n), and
a timed sweep of the degree-5 alternating identity on their commutator
brackets.
"""

import argparse
import time

from tpalg import (
    AlgebraPresentation,
    QQ,
    check_identity,
    check_novikov_deformation,
    classical_limit,
    deform_from_np,
    default_labels,
    euler_gelfand,
)
from tpalg.corpus import AB_POINTS, catalog_dots, circ_family


def quantization_sweep(order):
    structures = []
    for name, dot in sorted(catalog_dots().items()):
        for a, b in AB_POINTS:
            pres = AlgebraPresentation(
                2, QQ, default_labels(2), {"dot": dot, "circ": circ_family(a, b)}
            )
            structures.append((f"{name} @ (a,b)=({a},{b})", pres))
    for n in range(3, 7):
        structures.append((f"euler dim {n}", euler_gelfand(n, QQ)))

    failures = 0
    for name, pres in structures:
        d = deform_from_np(pres, order)
        nov = check_novikov_deformation(d)
        lim = classical_limit(d)
        ok = nov.passed and lim.passed
        failures += not ok
        print(f"  {'ok  ' if ok else 'FAIL'} {name}")
    print(f"quantization sweep: {len(structures) - failures}/{len(structures)} ok")
    return failures


def s5_sweep(max_dim):
    print(f"S5 sweep on Euler commutator brackets, dims 2..{max_dim}:")
    for n in range(2, max_dim + 1):
        pres = euler_gelfand(n, QQ)
        alg = AlgebraPresentation(
            n, QQ, pres.basis_labels, {"bracket": pres.op("bracket")}
        )
        start = time.perf_counter()
        passed = check_identity(alg, "S5").passed
        elapsed = time.perf_counter() - start
        print(f"  dim {n}: {'PASS' if passed else 'FAIL'} ({elapsed:.2f}s)")
        if not passed:
            return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--order", type=int, default=3, help="truncation order")
    parser.add_argument("--max-dim", type=int, default=7, help="S5 sweep bound")
    args = parser.parse_args()

    failures = quantization_sweep(args.order)
    failures += s5_sweep(args.max_dim)
    raise SystemExit(1 if failures else 0)


if __name__ == "__main__":
    main()
