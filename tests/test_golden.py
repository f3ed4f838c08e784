"""Golden output: five canonical runs must keep printing the same records.

Four runs go through `cli.main` in-process.  The `micros` field of every
record (wall-clock timing) is dropped before hashing, so what is pinned is
exactly the "same results" of the design rule: every record's identity,
parameters, both sides, status and reason, in order, plus the exit code.
The fifth runs `main` of `perfbench/closed_forms.py`, whose records carry
no timing, over Kummer, Gauss-second and Legendre-moment draws: the only
golden run that reaches `hyper`, `gammaprod` and `legendre`.  The
`verify --n-max 40` and `wz --n-max 20` runs are pinned once more in
`--format tsv` (micros column dropped) and `--format summary`.

When a change moves one of these hashes, find the first differing record
by running the same command on the parent commit and on the change, e.g.

    PYTHONPATH=src python -m knuthsums wz --n-max 20 --format json > after.jsonl

and diffing the two outputs with `micros` removed.  Update a constant only
when the change to the output is intended and argued.  To print each run's
exit code and digest, for comparing two checkouts at a glance, run

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import os

import pytest

from knuthsums import cli

IDENTITIES = ",".join((
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
))

GOLDEN = [
    (
        ("verify", "--identity", IDENTITIES, "--n-max", "40", "--format", "json"),
        0,
        "c17630bc46d0077c85abcc26bb02126acd64838db61236598c3c90dfa4027340",
    ),
    (
        ("wz", "--n-max", "20", "--format", "json"),
        1,
        "207ef59ba7a15f3d29b4e70da6bf5158b44d225c86e633506ca3e1a0cc799f4e",
    ),
    (
        ("wz", "--n-max", "6", "--ell=-1,-2,-3,-4,-5,1/2,0,-1/2,-3/2", "--format", "json"),
        1,
        "269bdbf7e141dd2ae6614ed5ff28b850158751f87594d81499aef1dbb7bfc725",
    ),
    (
        # negative integer and half-integer shifts, where the pairs'
        # binomials or boundary factors vanish: 287 of the 1242 records
        # are reasoned skips
        (
            "wz", "--n-max", "8",
            "--ell=-1,-2,-3,-4,-5,-6,-7,-8,-9,-10,-11,-12,-13,-14,-15,-16,-17,-18,"
            "-1/2,-3/2,-5/2,-7/2,-17/2",
            "--format", "json",
        ),
        1,
        "2ea6ebef06632f3f1a024c914192badc110c97394f557d8dbb28e58304a5bbdb",
    ),
]
IDS = ("verify-n40", "wz-n20", "wz-n6-poles", "wz-n8-pole-grid")

# `--format tsv` and `--format summary` of the first two runs, which the
# JSON digests above do not reach: the tsv digest drops each line's last
# column (micros), the summary digest is of the output as printed.  The
# summary of `wz --n-max 20` lists its 410 failing cases, reasons included.
TEXT_GOLDEN = [
    (
        ("verify", "--identity", IDENTITIES, "--n-max", "40", "--format", "tsv"),
        0,
        "291749cb07b9ccd419469d3dc310b5de07c11dd3329b5ffc0d5068ec42ef05f4",
    ),
    (
        ("verify", "--identity", IDENTITIES, "--n-max", "40", "--format", "summary"),
        0,
        "e006e951b90413fd4ba55e3667dab450cc0554e69ed6a36d200b1eb50f5365b0",
    ),
    (
        ("wz", "--n-max", "20", "--format", "tsv"),
        1,
        "28cf676635b8308c7c5342639c00aa9ae1ce99cdc6b1df6f5b6c962478174b01",
    ),
    (
        ("wz", "--n-max", "20", "--format", "summary"),
        1,
        "a3491f0ced0b6fd03c79f8170b4db4c8fd73b407cc5a653b05d856e36ba2789e",
    ),
]
TEXT_IDS = ("verify-n40-tsv", "verify-n40-summary", "wz-n20-tsv", "wz-n20-summary")

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
# the draws of the benchmark's closed-forms workload at seed 1: 2F1(2)
# Kummer series for n <= 20, Gauss-second series for n <= 20 and Legendre
# moments for n <= 16; 842 records, all passing
CLOSED_FORMS = (
    (
        "--kummer-a=1,4,1/2,5/2,-1/3,-13/4,1/5,-17/7", "--kummer-n-max", "20",
        "--gauss-b=1/2,-28/3,7/4,-18/5,32/7,-31/9,25/2,-5/3,-35/4,3/5,23/7,-29/9,7/2,2/3,-7/2,6/5",
        "--gauss-n-max", "20",
        "--moment-p=8,1/2,25/3,2,11/2,-2/3,4,10,1,0", "--moment-n-max", "16",
    ),
    0,
    "5100340dfb9c2953d0a34a8604169808c97b4a1eaa97d36fbd1edc0c0efacc23",
)


def output_digest(out: str) -> str:
    records = []
    for line in out.splitlines():
        rec = json.loads(line)
        rec.pop("micros")
        records.append(json.dumps(rec))
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


def text_digest(out: str, fmt: str) -> str:
    """sha256 of tsv output without its micros column, or of summary output."""
    if fmt == "tsv":
        out = "".join(line.rsplit("\t", 1)[0] + "\n" for line in out.splitlines())
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=IDS)
def test_output_matches_golden(capsys, argv, code, digest):
    got_code = cli.main(list(argv))
    got = output_digest(capsys.readouterr().out)
    command = "PYTHONPATH=src python -m knuthsums " + " ".join(argv)
    assert (got_code, got) == (code, digest), (
        f"output of `{command}` changed; run it on the parent commit and on "
        f"this change and diff the two (micros dropped) to find the first "
        f"differing record"
    )


@pytest.mark.parametrize("argv, code, digest", TEXT_GOLDEN, ids=TEXT_IDS)
def test_text_output_matches_golden(capsys, argv, code, digest):
    got_code = cli.main(list(argv))
    got = text_digest(capsys.readouterr().out, argv[-1])
    command = "PYTHONPATH=src python -m knuthsums " + " ".join(argv)
    assert (got_code, got) == (code, digest), (
        f"output of `{command}` changed; diff it against the parent commit's "
        f"(for tsv, with the micros column cut)"
    )


def closed_forms_run(closed_forms, argv) -> tuple[int, str]:
    """Exit code and sha256 of the closed-forms driver's output."""
    out = io.StringIO()
    code = closed_forms.main(list(argv), out)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_closed_forms_match_golden(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import closed_forms

    argv, code, digest = CLOSED_FORMS
    assert closed_forms_run(closed_forms, argv) == (code, digest), (
        "output of `PYTHONPATH=src python perfbench/closed_forms.py "
        + " ".join(argv)
        + "` changed; diff it against the parent commit's"
    )


if __name__ == "__main__":
    import contextlib
    import sys

    for name, (argv, _, _) in zip(IDS, GOLDEN):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        print(name, code, output_digest(out.getvalue()))
    for name, (argv, _, _) in zip(TEXT_IDS, TEXT_GOLDEN):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        print(name, code, text_digest(out.getvalue(), argv[-1]))
    sys.path.insert(0, PERFBENCH)
    import closed_forms

    print("closed-forms", *closed_forms_run(closed_forms, CLOSED_FORMS[0]))
