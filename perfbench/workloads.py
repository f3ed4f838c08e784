"""Seeded inputs and the commands that run each benchmark workload.

Every workload is a closed loop of one benchmark process: it starts
one command, waits for it to exit, and starts the next.  The program sees
only the literals generated here, never the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

# The twelve registry keys present when the benchmark was defined.  The
# wide-pool workload names them instead of `all`, so its work stays fixed
# when later changes add identities to the registry.
IDENTITIES = (
    "abel-first",
    "abel-second",
    "corollary-intermediate",
    "corollary-odd-harmonic",
    "example-3hk-2h2k",
    "gf-polynomial",
    "knuth-old-sum",
    "legendre-log-moment",
    "odd-knuth-sum",
    "prop1-general-ell",
    "prop2-general-ell",
    "tauraso-h2n",
)
SHIFTED = ("prop1-general-ell", "prop2-general-ell", "abel-first")
CERTIFICATES = ("prop1", "prop2", "negative-control")

# Sizes of one run of each workload: under a second each on a 2-core
# machine, so that a measurement holds about twenty runs.  The smoke test
# substitutes tiny ones.
SIZES = {
    "shifted-deep": {"n_max": 32, "shifts": 8},
    "wide-pool": {"n_max": 24, "shifts": 8, "jobs": 2},
    "wz-grid": {"n_max": 10, "shifts": 6},
    "closed-forms": {
        "kummer_n_max": 20, "kummer_a": 8,
        "gauss_n_max": 20, "gauss_b": 16,
        "moment_n_max": 16, "moment_p": 10,
    },
}
WORKLOADS = tuple(SIZES)

# Negative integers where every shifted identity and WZ pair takes its
# validity-skip path.  -1 is left out because `wz` raises an uncaught
# ZeroDivisionError there (G's boundary term 1/(2n+l+1) at n = 0), and
# -4, -5 because the negative control's residual vanishes on a whole row
# there (at n = 2 and n = 3), so it stops being a control.
SKIP_POINTS = (-2, -3)
GENERIC_DENOMINATORS = (3, 4, 5, 7)


@dataclass(frozen=True)
class Workload:
    """One workload instance: the timed command, its smallest-input twin
    (for set-up time), the exit code both must return, and what the
    checker needs to know about the output."""

    name: str
    kind: str  # "verify", "wz" or "closed-forms"
    argv: tuple[str, ...]  # arguments after the interpreter
    setup_argv: tuple[str, ...]
    expected_rc: int
    expected_records: int
    # The same sweep in a process pool: its output must equal the serial
    # output, and the traced run times it to split out the pool overhead.
    pool_argv: tuple[str, ...] | None = None
    jobs: int = 1


def literal(q: Fraction | int) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _generic(rng: random.Random, q: int, bound: int) -> Fraction:
    while True:
        p = rng.randint(-bound * q, bound * q)
        if p and math.gcd(p, q) == 1:
            return Fraction(p, q)


def shift_grid(rng: random.Random, count: int) -> list[Fraction]:
    """`count` distinct shifts: one validity-skip point, two nonnegative
    integers, two half-integers, and generic rationals over fixed
    denominators, so that the size of the arithmetic (and so the run time)
    varies little from seed to seed."""
    grid = [Fraction(rng.choice(SKIP_POINTS))]
    grid += [Fraction(i) for i in rng.sample(range(4), 2)]
    grid += [Fraction(2 * m + 1, 2) for m in rng.sample(range(-3, 3), 2)]
    i = 0
    while len(grid) < count:
        q = _generic(rng, GENERIC_DENOMINATORS[i % len(GENERIC_DENOMINATORS)], 2)
        if q not in grid:
            grid.append(q)
            i += 1
    return grid[:count]


def kummer_draws(rng: random.Random, count: int) -> list[Fraction]:
    """Parameters a for 2F1[-m, a; 2a | 2] (acceptance criterion 3):
    positive integers and half-integers plus generic rationals; negative
    integers and half-integers would make 2a a vanishing lower parameter."""
    draws = [Fraction(i) for i in rng.sample(range(1, 5), 2)]
    draws += [Fraction(2 * m + 1, 2) for m in rng.sample(range(4), 2)]
    i = 0
    while len(draws) < count:
        a = _generic(rng, GENERIC_DENOMINATORS[i % len(GENERIC_DENOMINATORS)], 5)
        if a not in draws:
            draws.append(a)
            i += 1
    return draws[:count]


def gauss_draws(rng: random.Random, count: int) -> list[Fraction]:
    """Non-integer b = p/q, |p| <= 40, as in acceptance criterion 4; the
    denominators cycle so every seed draws the same mix."""
    denominators = (2, 3, 4, 5, 7, 9)
    draws: list[Fraction] = []
    while len(draws) < count:
        b = Fraction(rng.randint(-40, 40), denominators[len(draws) % len(denominators)])
        if b.denominator > 1 and b not in draws:
            draws.append(b)
    return draws


def moment_draws(rng: random.Random, count: int) -> list[Fraction]:
    """Exponents p in (-1, 10] with denominators 1, 2 and 3 in turn, as in
    acceptance criterion 9 (which uses the half-integer lattice)."""
    draws: list[Fraction] = []
    while len(draws) < count:
        d = (1, 2, 3)[len(draws) % 3]
        p = Fraction(rng.randint(-d + 1, 10 * d), d)
        if p not in draws:
            draws.append(p)
    return draws


def _grid_arg(grid) -> str:
    # `--ell=` keeps argparse from reading a leading minus as a flag.
    return "--ell=" + ",".join(literal(q) for q in grid)


def _verify(identities, n_max, grid, jobs) -> tuple[str, ...]:
    return (
        "-m", "knuthsums", "verify", "--identity", ",".join(identities),
        "--n-max", str(n_max), _grid_arg(grid), "--jobs", str(jobs), "--format", "json",
    )


def _wz(n_max, grid) -> tuple[str, ...]:
    return (
        "-m", "knuthsums", "wz", "--certificate", ",".join(CERTIFICATES),
        "--n-max", str(n_max), _grid_arg(grid), "--format", "json",
    )


def closed_forms_argv(draws: dict) -> tuple[str, ...]:
    argv = [str(HERE / "closed_forms.py")]
    for key, value in draws.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, list):
            argv.append(f"{flag}=" + ",".join(literal(q) for q in value))
        else:
            argv += [flag, str(value)]
    return tuple(argv)


def closed_forms_records(draws: dict) -> int:
    return (
        2 * (draws["kummer_n_max"] + 1) * len(draws["kummer_a"])
        + (draws["gauss_n_max"] + 1) * len(draws["gauss_b"])
        + (draws["moment_n_max"] + 1) * len(draws["moment_p"])
    )


def build(name: str, seed: int, sizes: dict = SIZES) -> Workload:
    """The workload `name` with every input drawn from `seed`."""
    size = sizes[name]
    rng = random.Random(f"{name}:{seed}")
    if name == "shifted-deep":
        grid = shift_grid(rng, size["shifts"])
        n = size["n_max"]
        return Workload(
            name, "verify", _verify(SHIFTED, n, grid, 1), _verify(SHIFTED, 0, grid, 1),
            0, len(SHIFTED) * (n + 1) * len(grid),
        )
    if name == "wide-pool":
        grid = shift_grid(rng, size["shifts"])
        n, jobs = size["n_max"], size["jobs"]
        # per n: 8 one-parameter identities, 3 shifted ones over the grid,
        # and gf-polynomial at 2n+1 points
        records = (n + 1) * (8 + len(SHIFTED) * len(grid) + (n + 1))
        return Workload(
            name, "verify", _verify(IDENTITIES, n, grid, 1), _verify(IDENTITIES, 0, grid, 1),
            0, records, pool_argv=_verify(IDENTITIES, n, grid, jobs), jobs=jobs,
        )
    if name == "wz-grid":
        grid = shift_grid(rng, size["shifts"])
        n = size["n_max"]
        # exit 1 by design: the negative control fails
        return Workload(
            name, "wz", _wz(n, grid), _wz(0, grid), 1,
            2 * len(CERTIFICATES) * (n + 1) * len(grid),
        )
    if name == "closed-forms":
        draws = {
            "kummer_a": kummer_draws(rng, size["kummer_a"]),
            "kummer_n_max": size["kummer_n_max"],
            "gauss_b": gauss_draws(rng, size["gauss_b"]),
            "gauss_n_max": size["gauss_n_max"],
            "moment_p": moment_draws(rng, size["moment_p"]),
            "moment_n_max": size["moment_n_max"],
        }
        empty = {key: [] if isinstance(v, list) else v for key, v in draws.items()}
        return Workload(
            name, "closed-forms", closed_forms_argv(draws), closed_forms_argv(empty),
            0, closed_forms_records(draws),
        )
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
