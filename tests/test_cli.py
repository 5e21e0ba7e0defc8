"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json
import subprocess
import sys

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
    NotInBInfinity,
    basis_matrix,
    extract_relative,
    matrix_to_json_obj,
    verify,
)
from fockdec.laurent import DivisionNotExact

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
    ]
    for argv in cases:
        rc, _, err = run(capsys, *argv)
        assert rc == 2, argv
        assert err != "", argv


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
    rc, out, _ = run(
        capsys, "order", "--left=-|2.1", "--right=2|1", "--charge", "0,0",
        "--pad", "3",
    )
    assert rc == 0 and out == "Incomparable\n"


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
                InvariantViolated, NotInBInfinity, DivisionNotExact]
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


# canonical._reduce cut short after its first correction, then the CLI run
REDUCE_ONCE = """
import sys
from fockdec import canonical, cli
from fockdec.combinatorics import gamma_sequence
from fockdec.laurent import bar_symmetric_part

def reduce_once(x, label, charge, resolve):
    offenders = [mp for mp, c in x.entries.items() if mp != label and not c.in_v_ztimes()]
    if not offenders:
        return x, {}
    mp = max(offenders, key=lambda m: gamma_sequence(m, charge))
    m = bar_symmetric_part(x.coeff(mp))
    return x - resolve(mp).scale(m), {mp: m}

canonical._reduce = reduce_once
sys.exit(cli.main(sys.argv[1:]))
"""


def test_an_unfinished_reduction_exits_one_with_one_line():
    argv = ["canonical", "--e", "2", "--charge=0,0", "--rank", "5", "--format", "json"]
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", REDUCE_ONCE, *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, (flags, proc.stderr)
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("fockdec: InvariantViolated: "), proc.stderr
