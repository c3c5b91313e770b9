#!/usr/bin/env python3
"""Measure the near-orthogonality ratio R*(2 -> q) |S|^{1/2} |F|^{-n/q}.

Boundedness of this ratio across fields would say the surface characters
behave like a nearly orthogonal system at exponent q.  The ratio is measured
from power-iteration lower certificates, each rechecked by direct summation
(the script stops if a recheck disagrees), and reported per field; whether
the ratio stays bounded is exactly what is not known, so nothing about it is
asserted.
"""

import argparse
import sys

from fflab.certificates import parse_exponent
from fflab.field import make_field
from fflab.restriction import lambda_q_ratio, rstar_lower_power, verify_lower
from fflab.surfaces import build_surface


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fields", default="3,5,7,11,13", help="comma-separated primes")
    ap.add_argument("--surface", default="paraboloid")
    ap.add_argument("--dim", type=int, default=2)
    ap.add_argument("--q", default="4")
    ap.add_argument("--restarts", type=int, default=8)
    ap.add_argument("--iters", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    q = parse_exponent(args.q)
    print(f"near-orthogonality ratio at q = {args.q}, {args.surface}, n = {args.dim}")
    print(f"{'field':>6}  {'lower R*(2->q)':>15}  {'ratio':>10}")
    for token in args.fields.split(","):
        char = int(token)
        field = make_field(char)
        surface = build_surface(args.surface, field, args.dim)
        cert = rstar_lower_power(
            surface, 2, q, restarts=args.restarts, max_iters=args.iters, seed=args.seed
        )
        if not verify_lower(cert):
            sys.exit(f"F_{char}: lower bound {cert.value!r} failed its direct-summation recheck")
        print(f"{char:>6}  {cert.value:>15.8f}  {lambda_q_ratio(cert):>10.6f}")


if __name__ == "__main__":
    main()
