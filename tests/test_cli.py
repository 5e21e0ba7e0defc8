"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockdec.cli
from fockdec.canonical import (
    InvariantViolated,
    MissingPredecessor,
    OrderViolation,
    PeelingUnitriangularityViolated,
    canonical_basis,
)
from fockdec.cli import main
from fockdec.factorize import (
    NonTermination,
    NotInBInfinity,
    basis_matrix,
    extract_relative,
    verify,
)
from fockdec.reference import matrix_to_json_obj

GOLDEN_CANONICAL_CSV = (
    ",-|3,1|2,-|2.1\n"
    "-|3,1*v^0,.,.\n"
    "3|-,1*v^1,.,.\n"
    "1|2,1*v^1,1*v^0,.\n"
    "-|2.1,.,.,1*v^0\n"
    "2|1,1*v^2,1*v^1,.\n"
    "2.1|-,.,.,1*v^1\n"
    "1|1.1,1*v^1,1*v^2,.\n"
    "1.1|1,1*v^2,1*v^3,.\n"
    "-|1.1.1,1*v^2,.,.\n"
    "1.1.1|-,1*v^3,.,.\n"
)

ABACUS_ARGS = [
    "abacus",
    "--multipartition",
    "1.1|1.1|1",
    "--charge",
    "0,0,-1",
    "--e",
    "2",
]


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_canonical_csv_golden(capsys):
    rc, out, err = run(
        capsys, "canonical", "--e", "2", "--charge", "0,0", "--rank", "3",
        "--format", "csv",
    )
    assert rc == 0
    assert out == GOLDEN_CANONICAL_CSV
    assert err == ""


def test_golden_comparison_has_teeth(capsys):
    rc, out, _ = run(
        capsys, "canonical", "--e", "2", "--charge", "0,0", "--rank", "3",
        "--format", "csv",
    )
    corrupted = GOLDEN_CANONICAL_CSV.replace("1*v^3", "1*v^4", 1)
    assert corrupted != GOLDEN_CANONICAL_CSV
    assert out != corrupted


def test_output_is_deterministic(capsys):
    args = ["canonical", "--e", "2", "--charge", "0,0", "--rank", "4",
            "--format", "json"]
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_canonical_json_shape(capsys):
    rc, out, _ = run(
        capsys, "canonical", "--e", "inf", "--charge", "0,0", "--rank", "2",
        "--format", "json",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["e"] == "inf"
    assert obj["charge"] == [0, 0]
    assert obj["rank"] == 2
    assert obj["matrix"]["col_labels"] == ["-|2", "1|1", "-|1.1"]


def test_factorize_text(capsys):
    rc, out, _ = run(
        capsys, "factorize", "--e", "2", "--charge", "0,0", "--rank", "3",
    )
    assert rc == 0
    assert "== basis matrix (e=2) ==" in out
    assert "== basis matrix (e=inf) ==" in out
    assert "== relative matrix ==" in out
    assert "product: PASS" in out
    assert "specialization: PASS" in out
    assert out.rstrip().endswith("all checks passed")


def test_factorize_json(capsys):
    rc, out, _ = run(
        capsys, "factorize", "--e", "3", "--charge", "0,1", "--rank", "3",
        "--format", "json",
    )
    assert rc == 0
    obj = json.loads(out)
    assert set(obj) == {
        "e", "charge", "rank", "basis_e", "basis_inf", "relative",
        "report", "all_pass",
    }
    assert obj["all_pass"] is True
    assert [item["check"] for item in obj["report"]] == [
        "product", "unitriangular", "order", "positivity", "specialization",
    ]
    assert obj["relative"]["row_labels"] == obj["basis_inf"]["col_labels"]


def test_factorize_at_a_million_charge_matches_its_uniform_shift(capsys):
    # a uniform shift by an even amount is an isomorphism at e=2; with the
    # gamma sequences cut at the rank, the charge of a million costs no
    # more than a charge of zero
    outs = []
    for charge in ("1000000,0", "0,-1000000"):
        rc, out, _ = run(
            capsys, "factorize", "--e", "2", f"--charge={charge}", "--rank", "3",
            "--format", "json",
        )
        assert rc == 0
        obj = json.loads(out)
        outs.append([obj[k] for k in ("basis_e", "basis_inf", "relative", "report")])
        assert obj["all_pass"] is True
    assert outs[0] == outs[1]


def test_factorize_csv_sections(capsys):
    rc, out, _ = run(
        capsys, "factorize", "--e", "2", "--charge", "0,0", "--rank", "3",
        "--format", "csv",
    )
    assert rc == 0
    assert "# basis matrix (e=2)\n" in out
    assert "# basis matrix (e=inf)\n" in out
    assert "# relative matrix\n" in out
    assert "# product,pass\n" in out
    assert GOLDEN_CANONICAL_CSV in out  # the e=2 block is the golden matrix


def test_factorize_failure_exit_code(capsys, monkeypatch):
    def fake_verify(de, dinf, drel, charge):
        return [{"check": "product", "pass": False, "detail": "forced"}]

    monkeypatch.setattr(fockdec.cli, "verify", fake_verify)
    rc, out, _ = run(
        capsys, "factorize", "--e", "2", "--charge", "0,0", "--rank", "2",
    )
    assert rc == 1
    assert "product: FAIL" in out
    assert "verification FAILED" in out


def test_factorize_rejects_no_modulus(capsys):
    rc, _, err = run(
        capsys, "factorize", "--e", "inf", "--charge", "0,0", "--rank", "2",
    )
    assert rc == 2
    assert "finite" in err


def test_guard_refuses_large_ranks(capsys):
    rc, _, err = run(
        capsys, "canonical", "--e", "2", "--charge", "0,0", "--rank", "13",
    )
    assert rc == 3
    assert "--guard" in err
    rc, out, _ = run(
        capsys, "crystal", "--e", "2", "--charge", "0", "--rank", "13",
        "--guard", "13",
    )
    assert rc == 0
    assert "rank 13:" in out


def test_a_usage_error_is_one_line_even_with_a_line_break_in_an_argument(capsys):
    rc, out, err = run(capsys, "order", "--left", "3", "--right", "2", "--x\ny")
    assert (rc, out, err) == (2, "", "fockdec: unrecognized arguments: --x y\n")


def test_usage_errors_exit_two(capsys):
    cases = [
        ["canonical", "--e", "1", "--charge", "0", "--rank", "2"],
        ["canonical", "--e", "oops", "--charge", "0", "--rank", "2"],
        ["canonical", "--e", "2", "--charge", "0", "--rank", "-1"],
        ["canonical", "--e", "2", "--charge", "0", "--rank", "2",
         "--format", "dot"],
        ["crystal", "--e", "2", "--charge", "0", "--rank", "2",
         "--format", "csv"],
        ABACUS_ARGS + ["--r", "7", "--stable-for", "3"],
        ABACUS_ARGS,
        ABACUS_ARGS + ["--r", "7", "--format", "latex"],
        ["abacus", "--multipartition", "1|1", "--charge", "0,0,-1",
         "--e", "2", "--r", "7"],
        ["abacus", "--multipartition", "1|1", "--charge", "0,0",
         "--e", "inf", "--r", "7"],
        ["order", "--left=3", "--right=2|1"],
        ["order", "--left=3", "--right=2"],
        ["order", "--left=3", "--right=2.1", "--charge", "0,0"],
        ["canonical", "--e", "2", "--charge", "0,0", "--rank", "2",
         "--threads", "4"],
        ["canonical", "--e", "2", "--charge", "0,0", "--rank", "2",
         "--pad", "1"],
        ["order", "--left=3|1", "--right=2|2", "--charge", "0,0", "--pad", "3"],
    ]
    for argv in cases:
        rc, _, err = run(capsys, *argv)
        assert rc == 2, argv
        assert err != "", argv


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--e", ["abacus", "--multipartition", "1", "--charge", "0", "--e", "1",
                 "--r", "7"]),
        ("--stable-for", ABACUS_ARGS + ["--stable-for", "1"]),
    ],
)
def test_finite_period_flags_reject_one_without_offering_inf(capsys, flag, argv):
    # abacus takes no 'inf', so its message must not offer it
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.splitlines()[-1].endswith(
        f"argument {flag}: e must be an integer >= 2, not 1"
    ), err


def test_abacus_text_golden(capsys):
    rc, out, _ = run(capsys, *ABACUS_ARGS, "--r", "7")
    assert rc == 0
    assert out == (
        "r    = 7\n"
        "k    = 3, 1, 0, -2, -4, -6, -7\n"
        "w    = 0, -6, -7, 3, -2, 1, -4\n"
        "c    = 1, 1, 2, 2, 2, 2, 1\n"
        "d    = 2, 1, 3, 2, 1, 3, 3\n"
        "m    = 0, 0, -1, -1, -1, -2, -2\n"
        "phi  = 1, 1, 0, 0, 0, -2, -3\n"
        "a    = 1, 1, 1, 2, 2, 2, 2\n"
        "b    = 3, 3, 3, 2, 2, 1, 1\n"
        "zeta = 0, -2, -3, 1, 0, 1, 0\n"
        "\n"
        "phi:  1  0 -1 -2 -3\n"
        "  1:  o  o  .  .  .\n"
        "  2:  o  o  .  .  .\n"
        "  3:  .  o  .  o  o\n"
    )


def test_abacus_json(capsys):
    rc, out, _ = run(capsys, *ABACUS_ARGS, "--r", "7", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["r"] == 7
    assert obj["k"] == [3, 1, 0, -2, -4, -6, -7]
    assert obj["w"] == [0, -6, -7, 3, -2, 1, -4]
    assert obj["b"] == [3, 3, 3, 2, 2, 1, 1]


def test_abacus_stable_cut(capsys):
    rc, out, _ = run(capsys, *ABACUS_ARGS, "--stable-for", "3")
    assert rc == 0
    assert out.startswith("r    = 17\n")
    rc, out, _ = run(
        capsys, *ABACUS_ARGS, "--stable-for", "3", "--format", "json",
    )
    obj = json.loads(out)
    assert obj["r"] == 17 and obj["k"][-1] == -17


def test_abacus_r_too_small(capsys):
    rc, _, err = run(capsys, *ABACUS_ARGS, "--r", "5")
    assert rc == 3
    assert "r=5 is too small" in err
    assert "use --r 6 or more" in err


def test_order_text_and_json(capsys):
    rc, out, _ = run(capsys, "order", "--left=3", "--right=2.1")
    assert rc == 0 and out == "Greater\n"
    rc, out, _ = run(capsys, "order", "--left=2.1", "--right=3")
    assert rc == 0 and out == "Less\n"
    rc, out, _ = run(
        capsys, "order", "--left=-|2.1", "--right=2|1", "--charge", "0,0",
    )
    assert rc == 0 and out == "Incomparable\n"
    rc, out, _ = run(
        capsys, "order", "--left=-|2.1", "--right=2|1", "--format", "json",
    )
    assert rc == 0
    assert json.loads(out) == {
        "left": "-|2.1",
        "right": "2|1",
        "charge": [0, 0],
        "relation": "Incomparable",
    }


def test_crystal_outputs(capsys):
    rc, out, _ = run(
        capsys, "crystal", "--e", "2", "--charge", "0,0", "--rank", "0",
    )
    assert rc == 0 and out == "rank 0: -|-\n"
    rc, out, _ = run(
        capsys, "crystal", "--e", "2", "--charge", "0,0", "--rank", "2",
    )
    assert rc == 0
    assert "rank 2: -|2 1|1" in out
    assert "-|1 -0-> 1|1" in out
    rc, out, _ = run(
        capsys, "crystal", "--e", "2", "--charge", "0,0", "--rank", "1",
        "--format", "json",
    )
    obj = json.loads(out)
    assert obj["vertices"] == [["-|-"], ["-|1"]]
    rc, out, _ = run(
        capsys, "crystal", "--e", "2", "--charge", "0", "--rank", "1",
        "--format", "dot",
    )
    assert rc == 0 and out.startswith("digraph crystal {")


# one small valid input per command, without --format
SMALL_INPUTS = {
    "crystal": ["--e", "2", "--charge", "0,0", "--rank", "2"],
    "canonical": ["--e", "2", "--charge", "0,0", "--rank", "2"],
    "factorize": ["--e", "2", "--charge", "0,0", "--rank", "2"],
    "abacus": ["--multipartition", "2.1|1", "--charge", "0,1", "--e", "3", "--r", "8"],
    "order": ["--left", "3", "--right", "2.1"],
}


@pytest.mark.parametrize("cmd", sorted(SMALL_INPUTS))
def test_help_names_exactly_the_formats_that_work(capsys, cmd):
    assert main([cmd, "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    named = re.search(r"one of: ((?:\w+, )*\w+)", help_text).group(1).split(", ")
    working = []
    for fmt in ("json", "csv", "latex", "text", "dot", "yaml", "JSON"):
        rc, out, err = run(capsys, cmd, *SMALL_INPUTS[cmd], "--format", fmt)
        assert rc in (0, 2), (fmt, rc, err)
        if rc == 0:
            working.append(fmt)
        else:
            assert out == "" and err == f"fockdec: {cmd} cannot be written as {fmt}\n"
    assert sorted(named) == sorted(working)


def test_missing_subcommand_exits_two(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_module_execution_matches_function():
    proc = subprocess.run(
        [sys.executable, "-m", "fockdec", "order", "--left=3", "--right=2.1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "Greater\n"


def test_import_leaves_dataclasses_unloaded():
    # importing dataclasses (with inspect, ast and dis) is a large share of
    # the CLI's start-up time, and nothing in the package needs it
    code = "import sys, fockdec.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_dash_values_accept_the_space_form(capsys):
    # (option, value) pairs whose value starts with '-', with the rest of
    # each command line; the space form must match the equals form
    cases = [
        (["crystal", "--e", "2", "--rank", "2"], [("--charge", "-1,-2")]),
        (["canonical", "--e", "inf", "--rank", "2"], [("--charge", "-2,-2")]),
        (["factorize", "--e", "2", "--rank", "2"], [("--charge", "-1,-1")]),
        (["abacus", "--e", "2", "--r", "7"],
         [("--multipartition", "-|1"), ("--charge", "-1,0")]),
        (["order"], [("--left", "-|2.1"), ("--right", "-|1.1.1"),
                     ("--charge", "-1,0")]),
    ]
    for rest, pairs in cases:
        spaced = list(rest)
        joined = list(rest)
        for option, value in pairs:
            spaced += [option, value]
            joined.append(f"{option}={value}")
        rc_spaced, out_spaced, err_spaced = run(capsys, *spaced)
        rc_joined, out_joined, _ = run(capsys, *joined)
        assert rc_spaced == rc_joined == 0, (spaced, err_spaced)
        assert out_spaced == out_joined, spaced
        assert out_spaced != ""


# calls that exercise the parser's error, help and success paths, in order
PARSER_REUSE_CALLS = [
    ["canonical", "--e", "2", "--rank", "2"],  # missing --charge
    ["--help"],
    ["crystal", "--e", "2", "--charge", "0,0", "--rank", "3"],
    ["canonical", "--e", "inf", "--charge", "0,1", "--rank", "3",
     "--format", "csv"],
    ["factorize", "--e", "2", "--charge", "0,0", "--rank", "2",
     "--format", "json"],
    ABACUS_ARGS + ["--r", "7"],
    ["order", "--left=-|2.1", "--right=2|1", "--charge", "0,0"],
    ["canonical", "--e", "inf", "--charge", "-1,0", "--rank", "2"],
]


def test_repeated_main_calls_match_a_fresh_parser(capsys, monkeypatch):
    assert fockdec.cli.build_parser() is not fockdec.cli.build_parser()
    assert fockdec.cli._parser() is fockdec.cli._parser()
    shared = [run(capsys, *argv) for argv in PARSER_REUSE_CALLS]
    monkeypatch.setattr(fockdec.cli, "_parser", fockdec.cli.build_parser)
    fresh = [run(capsys, *argv) for argv in PARSER_REUSE_CALLS]
    assert shared == fresh
    assert [rc for rc, _, _ in shared] == [2, 0, 0, 0, 0, 0, 0, 0]
    assert "--charge" in shared[0][2]
    assert shared[1][1].startswith("usage: fockdec")


def _reference_json(cmd, e_text, charge_text, n):
    """The JSON text of a canonical/factorize call, built with json.dumps."""
    e = None if e_text == "inf" else int(e_text)
    charge = tuple(int(c) for c in charge_text.split(","))
    basis = canonical_basis(e, charge, n)
    if cmd == "canonical":
        obj = {"e": e_text, "charge": list(charge), "rank": n,
               "matrix": matrix_to_json_obj(basis_matrix(basis))}
    else:
        ginf = canonical_basis(None, charge, n)
        de, dinf, drel = basis_matrix(basis), basis_matrix(ginf), extract_relative(basis, ginf)
        report = verify(de, dinf, drel, charge)
        obj = {"e": e, "charge": list(charge), "rank": n,
               "basis_e": matrix_to_json_obj(de), "basis_inf": matrix_to_json_obj(dinf),
               "relative": matrix_to_json_obj(drel), "report": report,
               "all_pass": all(item["pass"] for item in report)}
    return json.dumps(obj, indent=2) + "\n"


JSON_SWEEP = [
    (cmd, e, charge, n)
    for cmd in ("canonical", "factorize")
    for e in ("2", "3", "inf")
    if not (cmd == "factorize" and e == "inf")
    for charge, ranks in (("0", (0, 1, 4)), ("0,1", (0, 2, 4)), ("-1,-1", (3,)),
                          ("2,0,1", (0, 3)))
    for n in ranks
]


def test_json_output_is_json_dumps_of_the_structure(capsys):
    for cmd, e, charge, n in JSON_SWEEP:
        argv = [cmd, "--e", e, f"--charge={charge}", "--rank", str(n), "--format", "json"]
        rc, out, err = run(capsys, *argv)
        assert rc == 0 and err == "", argv
        assert out == _reference_json(cmd, e, charge, n), argv


def test_internal_failures_exit_one_with_one_line(capsys, monkeypatch):
    failures = [OrderViolation, PeelingUnitriangularityViolated, MissingPredecessor,
                InvariantViolated, NotInBInfinity, NonTermination]
    targets = [("canonical_basis", "canonical"), ("canonical_basis", "factorize"),
               ("extract_relative", "factorize")]
    for exc_type in failures:

        def boom(*args, **kwargs):
            raise exc_type("first line\nsecond line")

        for attr, cmd in targets:
            with monkeypatch.context() as patch:
                patch.setattr(fockdec.cli, attr, boom)
                rc, out, err = run(capsys, cmd, "--e", "2", "--charge", "0,0", "--rank", "2")
            assert rc == 1, (exc_type, attr, cmd)
            assert out == ""
            assert err == f"fockdec: {exc_type.__name__}: first line\n"


# every elimination step made to subtract nothing, so the reduction of the
# first vertex with an offender never clears it, then the CLI run
SUBTRACT_NOTHING = """
import sys
from fockdec import cli
from fockdec.fock import FockVector

FockVector.sub_scaled = lambda self, other, m: self
sys.exit(cli.main(sys.argv[1:]))
"""


def test_an_unfinished_reduction_exits_one_with_one_line():
    argv = ["canonical", "--e", "2", "--charge=0,0", "--rank", "5", "--format", "json"]
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", SUBTRACT_NOTHING, *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, (flags, proc.stderr)
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("fockdec: InvariantViolated: "), proc.stderr


# abacus._bead_labels returning labels that are no beta-sequence, then the CLI run
BAD_BEADS = """
import sys
from fockdec import abacus, cli

abacus._bead_labels = lambda mp, charge, e, count: [-5] * count
sys.exit(cli.main(sys.argv[1:]))
"""


def test_a_broken_bead_invariant_exits_one_with_one_line():
    argv = ["abacus", "--multipartition", "2.1|1", "--charge", "0,0", "--e", "2",
            "--stable-for", "3"]
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", BAD_BEADS, *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, (flags, proc.stderr)
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("fockdec: InvariantViolated: "), proc.stderr


# -- failures at the process boundary --------------------------------------

# one small command line per command whose write the tests make fail
WRITES = {
    "crystal": ["crystal", "--e", "2", "--charge", "0,0", "--rank", "3"],
    "factorize": ["factorize", "--e", "3", "--charge", "0,1,2", "--rank", "6"],
    "order": ["order", "--left", "2", "--right", "1.1", "--charge", "0"],
}


# stdout buffered, as in a shell without PYTHONUNBUFFERED: the document
# then stays in the buffer after a failed flush, for the flush at exit
BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def _full_device(argv):
    with open("/dev/full", "w") as full:
        return subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True,
                              env=BUFFERED)


def _closed_stdout(argv):
    # the shell closes descriptor 1 before Python starts, so sys.stdout is None
    return subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *argv],
                          stderr=subprocess.PIPE, text=True, env=BUFFERED)


def _closed_pipe(argv):
    # the read end is closed before the child starts, so no reader is ever
    # there and the write meets a closed pipe every time
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=BUFFERED)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("cmd", sorted(WRITES))
@pytest.mark.parametrize(
    "target, reason",
    [
        pytest.param(
            _full_device, "No space left on device",
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                     reason="no /dev/full on this system"),
        ),
        (_closed_stdout, "stdout is closed"),
        (_closed_pipe, "Broken pipe"),
    ],
    ids=["full-device", "closed-stdout", "closed-pipe"],
)
def test_a_failed_write_exits_four_with_one_line(target, reason, cmd):
    proc = target([sys.executable, "-m", "fockdec", *WRITES[cmd]])
    assert (proc.returncode, proc.stderr) == (4, f"fockdec: cannot write output: {reason}\n")


# a stage that sends its own process SIGINT, then the CLI run
INTERRUPTED = """
import os, signal, sys, time
from fockdec import cli

def interrupted(*args):
    os.kill(os.getpid(), signal.SIGINT)
    time.sleep(60)

cli.extract_relative = interrupted
sys.exit(cli.main(sys.argv[1:]))
"""


def test_an_interrupt_exits_130_with_one_line():
    argv = ["factorize", "--e", "2", "--charge=0,0", "--rank", "3", "--format", "json"]
    proc = subprocess.run([sys.executable, "-c", INTERRUPTED, *argv],
                          capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (130, "", "fockdec: interrupted\n")


# -- fuzzing main over small arguments -----------------------------------

FORMATS = {
    "crystal": ["text", "json", "dot"],
    "canonical": ["text", "json", "csv", "latex"],
    "factorize": ["text", "json", "csv", "latex"],
    "abacus": ["text", "json"],
    "order": ["text", "json"],
}


def _partition_text(parts):
    return ".".join(map(str, sorted(parts, reverse=True))) or "-"


def _valid(kind, level):
    """Text of a valid option value; charges and multipartitions of one level."""
    if kind == "e":
        return st.sampled_from(["2", "3", "5", "inf", "Infinity"])
    if kind == "finite e":
        return st.sampled_from(["2", "3", "5"])
    if kind == "charge":
        return st.lists(st.integers(-3, 3), min_size=level, max_size=level).map(
            lambda xs: ",".join(map(str, xs))
        )
    if kind == "rank":
        return st.integers(0, 4).map(str)
    if kind == "mp":
        part = st.lists(st.integers(1, 2), max_size=2).map(_partition_text)
        return st.lists(part, min_size=level, max_size=level).map("|".join)
    return st.integers(0, 12).map(str)


INVALID = {
    "e": ["1", "0", "-2", "x", ""],
    "finite e": ["inf", "1", "x"],
    "charge": ["", "a", "0,,1", "0;1", " ", "1.5", "0,0,0,0"],
    "rank": ["-1", "x", "2.5", ""],
    "mp": ["1.2", "0", "a", "-1", "|", "2.1|-|x", "", "1|1|1|1"],
    "small": ["-1", "x"],
}

# one draw in eight is the rare case (an invalid value, a missing option)
RARE = st.sampled_from([False] * 7 + [True])


@st.composite
def cli_argvs(draw):
    """argv for one of the five commands; each option is usually valid,
    sometimes invalid, sometimes missing, in either the space or = form."""
    cmd = draw(st.sampled_from(sorted(FORMATS)))
    level = draw(st.integers(1, 3))

    def value(kind):
        if draw(RARE):
            return draw(st.sampled_from(INVALID[kind]))
        return draw(_valid(kind, level))

    fmt = "yaml" if draw(RARE) else draw(st.sampled_from(FORMATS[cmd]))
    if cmd in ("crystal", "canonical", "factorize"):
        opts = [("--e", value("e")), ("--charge", value("charge")),
                ("--rank", value("rank")), ("--format", fmt)]
        optional = [("--guard", "small")]
    elif cmd == "abacus":
        opts = [("--multipartition", value("mp")), ("--charge", value("charge")),
                ("--e", value("finite e")), ("--format", fmt)]
        cut = draw(st.sampled_from(["--r", "--stable-for"]))
        opts.append((cut, value("small" if cut == "--r" else "finite e")))
        optional = [("--r", "small"), ("--stable-for", "finite e")]
    else:
        opts = [("--left", value("mp")), ("--right", value("mp")), ("--format", fmt)]
        optional = [("--charge", "charge")]
    for name, kind in optional:
        if draw(RARE):
            opts.append((name, value(kind)))
    argv = [cmd]
    for name, text in opts:
        if not draw(RARE):
            argv += [f"{name}={text}"] if draw(st.booleans()) else [name, text]
    return argv


def _captured_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(cli_argvs())
def test_main_gives_an_exit_code_for_any_small_input(argv):
    rc, out, err = _captured_main(argv)
    assert rc in (0, 1, 2, 3), (argv, rc, err)
    if rc != 0:
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    assert _captured_main(argv) == (rc, out, err), argv


# -- the README's command lines --------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_section(title: str) -> str:
    text = README.read_text()
    start = text.index(f"## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_readme_command_lines_run_cleanly(capsys):
    section = _readme_section("Command line")
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("fockdec ")]
    assert len(lines) == 6, lines
    for line in lines:
        rc, out, err = run(capsys, *shlex.split(line)[1:])
        assert (rc, err) == (0, ""), line
        assert out, line
    # the stated usage error comes before the tripped guard
    prose = " ".join(section.split())
    stated = re.search(r"before a tripped guard \(3\): `([^`]+)` exits 2", prose)
    assert stated, "the exit-2 example is gone from the README"
    rc, out, err = run(capsys, *shlex.split(stated.group(1)))
    assert (rc, out) == (2, "")
    assert err == "fockdec: crystal cannot be written as csv\n"
    # a negative charge after a space or an equals sign: the same result
    assert "(`--charge -2,-2`)" in prose and "(`--charge=-2,-2`)" in prose
    base = ["canonical", "--e", "2", "--rank", "3", "--format", "csv"]
    spaced = run(capsys, *base, "--charge", "-2,-2")
    joined = run(capsys, *base, "--charge=-2,-2")
    assert spaced == joined and spaced[0] == 0 and spaced[1]
