"""Command line entry point: run one n-point route and print its payload.

    tcore closed_Ft --t 3 --s 4 9/4 --order 6 --q2 1
    tcore closed_Ft_r --t 3 --s 4 9/4 --order 6 --r 1
    tcore brute_force_Ft --t 3 --s 4 9/4 --order 20

The output is the JSON of ``NPointResult.as_payload()``, with the wall time
of the route in ``elapsed_ms``.
"""

from __future__ import annotations

import argparse
import json
import time

from tcore._rat import parse_rat
from tcore.npoint import NPointResult, brute_force_Ft, closed_Ft, closed_Ft_r, s_vector

ROUTES = ("closed_Ft", "closed_Ft_r", "brute_force_Ft")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcore", description="Exact n-point function of t-cores as a Q-series."
    )
    parser.add_argument("route", choices=ROUTES)
    parser.add_argument("--t", type=int, required=True, help="the core parameter t >= 2")
    parser.add_argument(
        "--s", type=parse_rat, nargs="+", required=True,
        help="the s-values, squares of rationals greater than 1, as p or p/q",
    )
    parser.add_argument("--order", type=int, required=True, help="the Q-order of the result")
    parser.add_argument("--q2", type=parse_rat, help="the free parameter of closed_Ft")
    parser.add_argument("--r", type=int, help="the size of the marked subset of closed_Ft_r")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.route == "closed_Ft" and args.q2 is None:
        parser.error("closed_Ft needs --q2")
    if args.route == "closed_Ft_r" and args.r is None:
        parser.error("closed_Ft_r needs --r")
    try:
        svals = s_vector(args.s)
        start = time.perf_counter()
        if args.route == "closed_Ft":
            value = closed_Ft(args.t, svals, args.q2, args.order)
        elif args.route == "closed_Ft_r":
            value = closed_Ft_r(args.t, svals, args.r, args.order)
        else:
            value = brute_force_Ft(args.t, svals, args.order)
        elapsed_ms = (time.perf_counter() - start) * 1000
    except ValueError as exc:
        parser.error(str(exc))
    result = NPointResult(
        method=args.route,
        t=args.t,
        n=len(svals),
        s=svals,
        value=value,
        order2=value.trunc2,
        q2=args.q2 if args.route == "closed_Ft" else None,
        r=args.r if args.route == "closed_Ft_r" else None,
        elapsed_ms=elapsed_ms,
    )
    print(json.dumps(result.as_payload()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
