"""Golden stdout digests of the command line.

Each case is one ``cli.main`` call, its exit code and the first 16 hex
digits of the sha256 of its stdout.  Together they cover all five
commands, every output format, levels 1-3, e in {2, 3, 4, inf}, dominant
and non-dominant charges, and e=2, charge (0,0), rank 9, where a peeling
monomial first has a term gamma-greater than its vertex.  A change that
moves any output byte of these calls fails here.  Each failing case also
pins the one line fockdec writes to stderr.

To print the table for the current code (for example after a deliberate
output change), run ``PYTHONPATH=src python tests/test_golden_digests.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from fockdec.cli import main

# (argv, exit code, sha256(stdout)[:16])
CASES = [
    # crystal: every format, levels 1-3
    ("crystal --e 2 --charge 0 --rank 5 --format text", 0, "3d20842756a58e00"),
    ("crystal --e 3 --charge 0,0 --rank 4 --format json", 0, "3f6e2b54016d9019"),
    ("crystal --e inf --charge 0,1 --rank 4 --format dot", 0, "67a870609b9dfb15"),
    ("crystal --e 2 --charge 1,0 --rank 5 --format dot", 0, "93407a8d6972f8ff"),
    ("crystal --e 4 --charge 0,1,2 --rank 3 --format json", 0, "2c01b312cdff7f4b"),
    ("crystal --e 2 --charge 2,0,1 --rank 3 --format text", 0, "bb3ce0cb9da26bbd"),
    # canonical: every format, levels 1-3, e in {2, 3, 4, inf}
    ("canonical --e 2 --charge 0 --rank 6 --format text", 0, "066730f092064ab1"),
    ("canonical --e 3 --charge 0 --rank 6 --format csv", 0, "ce2bb81620960053"),
    ("canonical --e 4 --charge 0 --rank 7 --format latex", 0, "1637c213f0fa5fef"),
    ("canonical --e inf --charge 0 --rank 5 --format json", 0, "9788802ddbdcb35c"),
    ("canonical --e 2 --charge 0,0 --rank 5 --format json", 0, "4277260c8f94a007"),
    ("canonical --e 2 --charge 0,0 --rank 7 --format csv", 0, "7452af8ce1724e73"),
    ("canonical --e 2 --charge 0,0 --rank 9 --format json", 0, "3828acd53a8a49a2"),
    ("canonical --e 2 --charge 0,0 --rank 9 --format text", 0, "7b9439316ea10795"),
    ("canonical --e inf --charge 0,0 --rank 9 --format latex", 0, "cb5a075d775f39bc"),
    ("canonical --e 3 --charge 0,1 --rank 6 --format latex", 0, "70ea4ba0ec1ff5f4"),
    ("canonical --e 3 --charge 1,0 --rank 5 --format text", 0, "cf8779f8ff5c7108"),
    ("canonical --e 4 --charge 0,2 --rank 6 --format json", 0, "8a06c574d57e535c"),
    ("canonical --e 4 --charge 3,0 --rank 5 --format csv", 0, "b35da87bdcc1ec37"),
    ("canonical --e inf --charge 0,0 --rank 7 --format csv", 0, "2e015fb11feac2e7"),
    ("canonical --e inf --charge=0,-2 --rank 5 --format latex", 0, "7dd67b677b9f7124"),
    ("canonical --e 2 --charge 0,0,0 --rank 5 --format json", 0, "c65f7f1f1173f28e"),
    ("canonical --e 3 --charge 0,1,2 --rank 5 --format text", 0, "d58e5ea38204bb9f"),
    ("canonical --e 2 --charge 2,0,1 --rank 4 --format csv", 0, "bb209ca8f3682f59"),
    ("canonical --e 4 --charge=1,-1,2 --rank 4 --format latex", 0, "ceaa9edff2a8e9aa"),
    ("canonical --e inf --charge=0,0,-1 --rank 4 --format json", 0, "ded05a7d9a3a959c"),
    ("canonical --e 3 --charge 0,0 --rank 0 --format text", 0, "55e441063f5961eb"),
    # factorize: every format, levels 1-3, finite e
    ("factorize --e 2 --charge 0 --rank 6 --format text", 0, "ccf2ea648a71b23d"),
    ("factorize --e 3 --charge 0 --rank 6 --format json", 0, "18d58bf30472254e"),
    ("factorize --e 2 --charge 0,0 --rank 6 --format json", 0, "7d03be295cdef1dd"),
    ("factorize --e 2 --charge 0,0 --rank 9 --format csv", 0, "0137acdb4d0ca3ac"),
    ("factorize --e 2 --charge 0,0 --rank 8 --format text", 0, "d38f7d46e3427826"),
    ("factorize --e 2 --charge 1,0 --rank 6 --format latex", 0, "667e5d6d75e53a61"),
    ("factorize --e 3 --charge 0,1 --rank 6 --format text", 0, "b7a07b6aa11d24f9"),
    ("factorize --e 3 --charge 2,0 --rank 5 --format csv", 0, "52fb5ecf1bcae90c"),
    ("factorize --e 4 --charge 0,0 --rank 6 --format json", 0, "5fbcb6755e8331fe"),
    ("factorize --e 4 --charge=0,-3 --rank 5 --format text", 0, "0cad0996a21c65d3"),
    ("factorize --e 2 --charge 0,0,0 --rank 5 --format latex", 0, "9708e5dfd21cba8d"),
    ("factorize --e 2 --charge 0,1,2 --rank 4 --format json", 0, "f0136a6a3a07e543"),
    ("factorize --e 3 --charge 2,0,1 --rank 5 --format csv", 0, "5796c6da859402fd"),
    ("factorize --e 4 --charge=1,-1,2 --rank 4 --format text", 0, "442dfdd295f7e0ed"),
    ("factorize --e 3 --charge 0,0,0 --rank 4 --format json", 0, "f5009df155f6d1ed"),
    # abacus: both formats, levels 1-3, --r and --stable-for
    ("abacus --multipartition 3.1 --charge 0 --e 2 --r 6", 0, "4d32a4e148b6b030"),
    ("abacus --multipartition 2.1|1 --charge 0,1 --e 3 --r 8 --format json", 0, "d49a7eb99111a6bd"),
    ("abacus --multipartition 1.1|1.1|1 --charge 0,0,-1 --e 2 --r 7", 0, "26d390cd81c5b0cd"),
    ("abacus --multipartition 2|-|1.1 --charge 1,0,2 --e 4 --stable-for 2 --format json", 0, "9a2d7069af7fc8d4"),
    ("abacus --multipartition 3|2 --charge 0,0 --e 2 --stable-for 3", 0, "8df81b5fa4387959"),
    # order: both formats, with and without charge
    ("order --left 3 --right 2.1", 0, "8d7ba4205d56ad93"),
    ("order --left 2|1 --right 1|2 --format json", 0, "fab995fe9843a93e"),
    ("order --left 2.1 --right 3 --charge 1", 0, "7a5c6f962dd8fb0a"),
    ("order --left 4.1.1 --right 3.3 --format json", 0, "973f8013ef3d09a4"),
    ("order --left 2|1|- --right 1|1|1 --charge 0,1,2 --format json", 0, "12b5f3717a0a46fe"),
    ("order --left 3|1 --right 2|2 --charge 0,0", 0, "8d7ba4205d56ad93"),
    # documented failures: usage (2), guard and bead cut (3)
    ("factorize --e inf --charge 0,0 --rank 3", 2, "e3b0c44298fc1c14"),
    ("canonical --e 2 --charge 0,0 --rank 4 --format dot", 2, "e3b0c44298fc1c14"),
    ("crystal --e 2 --charge 0,0 --rank 4 --format csv", 2, "e3b0c44298fc1c14"),
    ("canonical --e 2 --charge 0,0 --rank 13", 3, "e3b0c44298fc1c14"),
    ("factorize --e 2 --charge 0,0 --rank 5 --guard 4", 3, "e3b0c44298fc1c14"),
    ("abacus --multipartition 3.1 --charge 0 --e 2 --r 1", 3, "e3b0c44298fc1c14"),
    ("order --left 3 --right 2|1", 2, "e3b0c44298fc1c14"),
    ("order --left 3|1 --right 2|2 --charge 0,0 --pad 3", 2, "e3b0c44298fc1c14"),
    # two faults at once: the one checked first is reported
    ("factorize --e inf --charge 0,0 --rank 13 --format dot", 2, "e3b0c44298fc1c14"),
    ("crystal --e 2 --charge 0,0 --rank 13 --format csv", 2, "e3b0c44298fc1c14"),
]

# the one stderr line fockdec writes for each failing case
STDERR = {
    "factorize --e inf --charge 0,0 --rank 3": "fockdec: factorize needs a finite --e",
    "canonical --e 2 --charge 0,0 --rank 4 --format dot":
        "fockdec: canonical cannot be written as dot",
    "crystal --e 2 --charge 0,0 --rank 4 --format csv":
        "fockdec: crystal cannot be written as csv",
    "canonical --e 2 --charge 0,0 --rank 13":
        "fockdec: rank 13 exceeds the guard 12; raise --guard to confirm a computation this large",
    "factorize --e 2 --charge 0,0 --rank 5 --guard 4":
        "fockdec: rank 5 exceeds the guard 4; raise --guard to confirm a computation this large",
    "abacus --multipartition 3.1 --charge 0 --e 2 --r 1":
        "fockdec: r=1 is too small; the least valid choice is 3 (use --r 3 or more)",
    "order --left 3 --right 2|1": "fockdec: levels differ: 1 vs 2",
    "order --left 3|1 --right 2|2 --charge 0,0 --pad 3":
        "fockdec: unrecognized arguments: --pad 3",
    "factorize --e inf --charge 0,0 --rank 13 --format dot":
        "fockdec: factorize needs a finite --e",
    "crystal --e 2 --charge 0,0 --rank 13 --format csv":
        "fockdec: crystal cannot be written as csv",
}
FAILURES = [(argv, rc) for argv, rc, _ in CASES if rc != 0]


def _run(argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv.split())
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16], err.getvalue()


@pytest.mark.parametrize("argv, rc, digest", CASES, ids=[c[0] for c in CASES])
def test_stdout_digest(argv, rc, digest):
    assert _run(argv)[:2] == (rc, digest)


@pytest.mark.parametrize("argv, rc", FAILURES, ids=[c[0] for c in FAILURES])
def test_stderr_line(argv, rc):
    got_rc, _, err = _run(argv)
    assert got_rc == rc
    assert err == STDERR[argv] + "\n"


if __name__ == "__main__":
    runs = [(argv, *_run(argv)) for argv, _, _ in CASES]
    for argv, rc, digest, _ in runs:
        print(f'    ("{argv}", {rc}, "{digest}"),')
    for argv, rc, _, err in runs:
        if rc != 0:
            print(f'    "{argv}": {err.rstrip()!r},')
