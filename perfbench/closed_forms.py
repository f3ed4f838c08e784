r"""The closed-forms workload: evaluations that no CLI path reaches.

Each terminating hypergeometric sum is compared with its Kummer closed form
(2F1[-m, a; 2a | 2]) or with Gauss's second theorem (2F1[-n, b; (b-n+1)/2
| 1/2]), and each Legendre moment's Gamma route with its expansion oracle.
One JSON record per compared evaluation goes to stdout, in the shape of the
CLI's records; the exit code is 0 when every comparison agrees.

    PYTHONPATH=src python3 perfbench/closed_forms.py --kummer-a=1,1/3 --kummer-n-max 10 \
        --gauss-b=-7/2 --gauss-n-max 10 --moment-p=1/2 --moment-n-max 10

Calls go through the module attributes (`hyper.eval_terminating`, ...), so
the traced run can wrap them.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from knuthsums import gammaprod, hyper, legendre
from knuthsums.core import format_rational, parse_rational

HALF = Fraction(1, 2)


def _values(text: str) -> list[Fraction]:
    return [parse_rational(s) for s in text.split(",") if s.strip()]


def _rational(value: gammaprod.GammaValue) -> Fraction | None:
    """The value of a reduced Gamma product when it is rational, else None."""
    if isinstance(value, gammaprod.Zero):
        return Fraction(0)
    if isinstance(value, gammaprod.Finite) and value.s == 0:
        return value.q
    return None


def comparisons(args):
    """(name, params, brute-force value, closed-form value) per evaluation."""
    for n in range(args.kummer_n_max + 1):
        for a in args.kummer_a:
            even = hyper.HyperSeries((-2 * n, a), (2 * a,), 2)
            yield "kummer-even", {"n": n, "a": a}, hyper.eval_terminating(even), hyper.kummer_even(n, a)
            odd = hyper.HyperSeries((-(2 * n + 1), a), (2 * a,), 2)
            yield "kummer-odd", {"n": n, "a": a}, hyper.eval_terminating(odd), hyper.kummer_odd_zero(n, a)
    for n in range(args.gauss_n_max + 1):
        for b in args.gauss_b:
            series = hyper.HyperSeries((-n, b), ((b - n + 1) / 2,), HALF)
            closed = _rational(gammaprod.gauss_second_rhs(-n, b))
            yield "gauss-second", {"n": n, "b": b}, hyper.eval_terminating(series), closed
    for n in range(args.moment_n_max + 1):
        for p in args.moment_p:
            closed = _rational(legendre.moment(p, n))
            yield "legendre-moment", {"n": n, "p": p}, legendre.moment_by_expansion(p, n), closed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for family in ("kummer-a", "gauss-b", "moment-p"):
        parser.add_argument(f"--{family}", type=_values, default=[])
    for family in ("kummer", "gauss", "moment"):
        parser.add_argument(f"--{family}-n-max", type=int, default=0)
    return parser


def main(argv=None, out=None) -> int:
    args = build_parser().parse_args(argv)
    out = out or sys.stdout
    ok = True
    for name, params, lhs, rhs in comparisons(args):
        status = "pass" if rhs is not None and lhs == rhs else "fail"
        ok = ok and status == "pass"
        rec = {
            "identity": name,
            "params": {k: v if isinstance(v, int) else format_rational(v) for k, v in params.items()},
            "lhs": format_rational(lhs),
            "rhs": None if rhs is None else format_rational(rhs),
            "status": status,
        }
        out.write(json.dumps(rec) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
