"""A fixed amount of work that gauges the speed of the machine at the moment.

It starts an interpreter, imports the standard modules the program imports,
and sums shifted binomial rows over exact rationals, as the program does,
with code of its own: nothing of `src/` runs, so no change to the program
moves its time.  run.py launches it between the program's runs and scales
every time it reports by how fast this ran (see `measure_end_to_end`).

    python3 perfbench/reference.py

By Vandermonde's identity each row sums to C(2n, n); the exit code is 0
when the total agrees.
"""

from __future__ import annotations

import argparse  # noqa: F401  (imported for its cost, as the program does)
import json  # noqa: F401
import math
import sys
from fractions import Fraction

SHIFTS = (Fraction(1, 3), Fraction(-5, 7), Fraction(3, 2), Fraction(2, 5))
N_MAX = 28


def falling(a: Fraction, m: int) -> Fraction:
    out = Fraction(1)
    for i in range(m):
        out *= a - i
    return out


def rows() -> Fraction:
    """Sum over the shifts l and n <= N_MAX of sum_k C(n+l, k) C(n-l, n-k)."""
    total = Fraction(0)
    for ell in SHIFTS:
        for n in range(N_MAX + 1):
            for k in range(n + 1):
                total += falling(n + ell, k) * falling(n - ell, n - k) / (
                    math.factorial(k) * math.factorial(n - k)
                )
    return total


if __name__ == "__main__":
    expected = len(SHIFTS) * sum(math.comb(2 * n, n) for n in range(N_MAX + 1))
    sys.exit(0 if rows() == expected else 1)
