"""Command-line surface for crystals, canonical bases, factorization,
abacus inspection, and dominance-order queries.

Subcommands

  crystal    connected crystal component from the empty multipartition
  canonical  canonical-basis coefficient matrix for one (e, charge, rank)
  factorize  both basis matrices, the relative matrix, and the check report
  abacus     bead labels and reading sequences of a charged multipartition
  order      dominance relation between two multipartitions

``COMMANDS`` maps each subcommand to its handler and the formats it
writes; ``--format`` help is written from it.  Before a handler runs, the
shared checks run once, in this order: ``factorize`` needs a finite
``--e`` (exit 2), then the format must be one the command writes (exit
2), then the rank guard of ``crystal``, ``canonical`` and ``factorize``
(exit 3).  The handler then makes its own input checks, so a usage error
is reported before a tripped guard.

Each handler returns ``(document, exit code)`` and writes nothing; a
refusal is raised with its message and code, and ``--help`` hands over
its text as the document.  ``main`` alone writes stdout and stderr
(argparse writes its usage errors from inside ``main``): the document in
one write and one flush, or one line on stderr.

Exit codes: 0 success (factorize: all checks pass), 1 a verification
check failed or an internal consistency check raised (one line on stderr,
``fockdec: <ExceptionName>: <message>``; every such check raises a
subclass of combinatorics.InvariantViolated), 2 usage error, 3 a size
guard tripped or the bead cut was too small, 4 the document could not be
written (stdout closed or full, or a closed pipe: ``fockdec: cannot write
output: <reason>``), 130 interrupted (``fockdec: interrupted``).  Every
nonzero exit writes one line on stderr, argparse's usage errors included.
Output is deterministic: identical invocations produce byte-identical bytes.
``main`` may be called repeatedly in one process; it builds its parser on
the first call and reuses it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from typing import NoReturn, Optional, Sequence

from .abacus import RTooSmall, ascii_art, reading_word, stable_r, tau_inverse
from .canonical import canonical_basis
from .combinatorics import (
    Charge,
    InvariantViolated,
    Multipartition,
    compare_dominance,
    format_multipartition,
    parse_charge,
    parse_multipartition,
)
from .crystal import generate_component
from .factorize import (
    PolyMatrix,
    all_pass,
    append_matrix_json,
    basis_matrix,
    extract_relative,
    matrix_to_csv,
    matrix_to_latex,
    matrix_to_text,
    verify,
)

__all__ = [
    "COMMANDS",
    "cmd_crystal",
    "cmd_canonical",
    "cmd_factorize",
    "cmd_abacus",
    "cmd_order",
    "build_parser",
    "main",
]

GUARD_DEFAULT = 12


class _Refusal(Exception):
    """A command refused to run; ``args`` is (message, exit code)."""


def _render_json(fields: dict) -> str:
    """``json.dumps(fields, indent=2)`` plus a newline, byte for byte.

    PolyMatrix values are written by append_matrix_json, sharing one
    label -> JSON string map, so a label that heads rows or columns of
    several matrices is formatted once; the whole document is collected as
    pieces and joined once.
    """
    parts = []
    quoted: dict = {}
    sep = "{\n  "
    for key, value in fields.items():
        parts.append(sep + json.dumps(key) + ": ")
        if isinstance(value, PolyMatrix):
            append_matrix_json(parts, value, depth=1, quoted=quoted)
        else:
            parts.append(json.dumps(value, indent=2).replace("\n", "\n  "))
        sep = ",\n  "
    parts.append("\n}\n")
    return "".join(parts)


def _fail(message: str, code: int) -> int:
    print(f"fockdec: {message}", file=sys.stderr)
    return code


def cmd_crystal(args: argparse.Namespace) -> tuple[str, int]:
    """The crystal component in dot, json, or text form."""
    graph = generate_component(args.e, args.charge, args.rank)
    if args.format == "json":
        return json.dumps(graph.to_json_obj(), indent=2), 0
    if args.format == "dot":
        return graph.to_dot(), 0
    lines = []
    for n, layer in enumerate(graph.layers):
        names = " ".join(format_multipartition(mp) for mp in layer)
        lines.append(f"rank {n}: {names}")
    for (src, i), dst in sorted(
        graph.edges.items(),
        key=lambda kv: (kv[0][1], kv[0][0]),
    ):
        lines.append(
            f"{format_multipartition(src)} -{i}-> {format_multipartition(dst)}"
        )
    return "\n".join(lines), 0


# the non-JSON layouts of one matrix
_MATRIX_RENDERERS = {
    "csv": matrix_to_csv,
    "latex": matrix_to_latex,
    "text": matrix_to_text,
}


def cmd_canonical(args: argparse.Namespace) -> tuple[str, int]:
    """The canonical-basis coefficient matrix."""
    m = basis_matrix(canonical_basis(args.e, args.charge, args.rank))
    if args.format == "json":
        e = "inf" if args.e is None else str(args.e)
        fields = {"e": e, "charge": list(args.charge), "rank": args.rank, "matrix": m}
        return _render_json(fields), 0
    return _MATRIX_RENDERERS[args.format](m), 0


def cmd_factorize(args: argparse.Namespace) -> tuple[str, int]:
    """Both basis matrices, the relative matrix, and the report; exit
    code 1 when a check fails."""
    ge = canonical_basis(args.e, args.charge, args.rank)
    ginf = canonical_basis(None, args.charge, args.rank)
    de = basis_matrix(ge)
    dinf = basis_matrix(ginf)
    drel = extract_relative(ge, ginf)
    report = verify(de, dinf, drel, args.charge)
    ok = all_pass(report)

    sections = [
        (f"basis matrix (e={args.e})", de),
        ("basis matrix (e=inf)", dinf),
        ("relative matrix", drel),
    ]
    if args.format == "json":
        doc = _render_json(
            {
                "e": args.e,
                "charge": list(args.charge),
                "rank": args.rank,
                "basis_e": de,
                "basis_inf": dinf,
                "relative": drel,
                "report": report,
                "all_pass": ok,
            }
        )
    elif args.format == "csv":
        parts = []
        for title, m in sections:
            parts += [f"# {title}\n", matrix_to_csv(m)]
        parts.append("# verification\n")
        for item in report:
            parts.append(f"# {item['check']},{'pass' if item['pass'] else 'FAIL'}\n")
        doc = "".join(parts)
    elif args.format == "latex":
        blocks = []
        for title, m in sections:
            blocks += [f"% {title}", matrix_to_latex(m)]
        for item in report:
            blocks.append(f"% {item['check']}: {'pass' if item['pass'] else 'FAIL'}")
        doc = "\n".join(blocks)
    else:
        blocks = []
        for title, m in sections:
            blocks += [f"== {title} ==", matrix_to_text(m), ""]
        blocks.append("== verification ==")
        for item in report:
            status = "PASS" if item["pass"] else "FAIL"
            blocks.append(f"{item['check']}: {status} ({item['detail']})")
        blocks.append("all checks passed" if ok else "verification FAILED")
        doc = "\n".join(blocks)
    return doc, 0 if ok else 1


def cmd_abacus(args: argparse.Namespace) -> tuple[str, int]:
    """The bead labels, reading sequences, and drawing."""
    mp, charge, e = args.multipartition, args.charge, args.e
    if len(mp) != len(charge):
        raise _Refusal(
            f"level {len(mp)} multipartition with level {len(charge)} charge", 2
        )
    if (args.r is None) == (args.stable_for is None):
        raise _Refusal("give exactly one of --r and --stable-for", 2)
    r = args.r if args.stable_for is None else stable_r(mp, charge, e, args.stable_for)
    try:
        ks = tau_inverse(mp, charge, e, r)
    except RTooSmall as exc:
        raise _Refusal(f"{exc} (use --r {exc.suggested} or more)", 3) from exc
    data = reading_word(ks, e, len(charge))
    if args.format == "json":
        return json.dumps({"r": r, **data.to_json_obj()}, indent=2), 0
    rows = [("r", (r,))] + [
        (name, getattr(data, name))
        for name in ("k", "w", "c", "d", "m", "phi", "a", "b", "zeta")
    ]
    width = max(len(name) for name, _ in rows)
    lines = [
        f"{name.ljust(width)} = {', '.join(str(x) for x in seq)}"
        for name, seq in rows
    ]
    lines.append("")
    lines.append(ascii_art(ks, e, len(charge)))
    return "\n".join(lines), 0


def cmd_order(args: argparse.Namespace) -> tuple[str, int]:
    """The dominance relation between two multipartitions."""
    left, right, charge = args.left, args.right, args.charge
    if len(left) != len(right):
        raise _Refusal(f"levels differ: {len(left)} vs {len(right)}", 2)
    if charge is None:
        charge = (0,) * len(left)
    if len(charge) != len(left):
        raise _Refusal(
            f"level {len(left)} multipartitions with level {len(charge)} charge", 2
        )
    try:
        rel = compare_dominance(left, right, charge)
    except ValueError as exc:
        raise _Refusal(str(exc), 2) from exc
    if args.format == "json":
        obj = {
            "left": format_multipartition(left),
            "right": format_multipartition(right),
            "charge": list(charge),
            "relation": rel.value,
        }
        return json.dumps(obj, indent=2), 0
    return rel.value, 0


# command name -> (handler, the formats it writes, in --help order)
COMMANDS = {
    "crystal": (cmd_crystal, ("json", "dot", "text")),
    "canonical": (cmd_canonical, ("json", "csv", "latex", "text")),
    "factorize": (cmd_factorize, ("json", "csv", "latex", "text")),
    "abacus": (cmd_abacus, ("json", "text")),
    "order": (cmd_order, ("json", "text")),
}


def _e_value(text: str) -> Optional[int]:
    if text.strip().lower() in ("inf", "infinity"):
        return None
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"e must be an integer >= 2 or 'inf', not {text!r}"
        ) from exc
    if value < 2:
        raise argparse.ArgumentTypeError(f"e must be >= 2 or 'inf', not {value}")
    return value


def _finite_e_value(text: str) -> int:
    if text.strip().lower() in ("inf", "infinity"):
        raise argparse.ArgumentTypeError("this command needs a finite period")
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"e must be an integer >= 2, not {text!r}"
        ) from exc
    if value < 2:
        raise argparse.ArgumentTypeError(f"e must be an integer >= 2, not {value}")
    return value


def _charge_value(text: str) -> Charge:
    try:
        return parse_charge(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _mp_value(text: str) -> Multipartition:
    try:
        return parse_multipartition(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _nonneg_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {value}")
    return value


def _positive_value(text: str) -> int:
    value = _nonneg_value(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, not {value}")
    return value


def _add_format_flag(sub: argparse.ArgumentParser, command: str) -> None:
    formats = ", ".join(COMMANDS[command][1])
    sub.add_argument("--format", default="text", help=f"one of: {formats}")


def _add_run_flags(sub: argparse.ArgumentParser, command: str) -> None:
    sub.add_argument("--e", type=_e_value, required=True,
                     help="modulus >= 2, or 'inf' for none")
    sub.add_argument("--charge", type=_charge_value, required=True,
                     help="comma-separated charge, e.g. 0,0 or 0,-1")
    sub.add_argument("--rank", type=_nonneg_value, required=True,
                     help="total number of boxes")
    _add_format_flag(sub, command)
    sub.add_argument("--guard", type=_nonneg_value, default=GUARD_DEFAULT,
                     help=f"refuse ranks above this bound (default {GUARD_DEFAULT})")


class _Help(Exception):
    """--help was given; ``args`` is (help text,)."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are one 'fockdec: ...' line,
    like every other failure, and whose help is handed to ``main`` as the
    document; its subparsers are of this class too.  A line break in the
    message (an unrecognized argument may hold one) becomes a space."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"fockdec: {' '.join(message.splitlines())}\n")

    def print_help(self, file=None) -> NoReturn:
        raise _Help(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fockdec",
        description="Canonical bases of higher-level Fock spaces, "
        "their factorization, and the underlying combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("crystal", help="connected crystal component")
    _add_run_flags(p, "crystal")

    p = sub.add_parser("canonical", help="canonical-basis matrix")
    _add_run_flags(p, "canonical")

    p = sub.add_parser("factorize", help="factorized matrices plus checks")
    _add_run_flags(p, "factorize")

    p = sub.add_parser("abacus", help="bead labels and reading sequences")
    p.add_argument("--multipartition", type=_mp_value, required=True,
                   help="components split by '|', parts by '.', '-' for empty")
    p.add_argument("--charge", type=_charge_value, required=True)
    p.add_argument("--e", type=_finite_e_value, required=True,
                   help="runner period (finite)")
    p.add_argument("--r", type=_positive_value, default=None,
                   help="number of beads to keep")
    p.add_argument("--stable-for", type=_finite_e_value, default=None,
                   dest="stable_for",
                   help="second period; picks the least cut faithful for both")
    _add_format_flag(p, "abacus")

    p = sub.add_parser("order", help="dominance relation of two multipartitions")
    p.add_argument("--left", type=_mp_value, required=True,
                   help="first multipartition")
    p.add_argument("--right", type=_mp_value, required=True)
    p.add_argument("--charge", type=_charge_value, default=None)
    _add_format_flag(p, "order")

    return parser


# parse_args leaves the parser unchanged, so every call in a process can
# share one; it is built on first use, not at import
@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


# options whose value may begin with '-': a negative charge, or a
# multipartition with an empty first component
_DASH_VALUE_OPTIONS = ("--charge", "--left", "--right", "--multipartition")


def _join_dash_values(argv: Sequence[str]) -> list[str]:
    """Rewrite '--charge -2,-2' as '--charge=-2,-2'.

    argparse reads a separate token that starts with '-' as an option
    (bare negative numbers such as '-1' excepted), so without this the
    space form of such a value is a usage error.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if (
            token in _DASH_VALUE_OPTIONS
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and not argv[i + 1].startswith("--")
        ):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            doc, code = _dispatch(_parser().parse_args(_join_dash_values(argv)))
        except _Help as exc:
            doc, code = exc.args[0], 0
        out = sys.stdout
        if out is None:
            raise OSError("stdout is closed")
        out.write(doc if doc.endswith("\n") else doc + "\n")
        out.flush()
        return code
    except SystemExit as exc:
        # argparse has written its one-line usage error
        return exc.code if isinstance(exc.code, int) else 2
    except _Refusal as exc:
        return _fail(*exc.args)
    except InvariantViolated as exc:
        # raised only when the construction contradicts itself; exit code 1
        first = (str(exc).splitlines() or [""])[0]
        return _fail(f"{type(exc).__name__}: {first}", 1)
    except OSError as exc:
        # the handlers do no I/O, so the write or the flush failed; point
        # the descriptor at the null device, so that the flush at
        # interpreter exit has nothing left to fail on
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        return _fail(f"cannot write output: {exc.strerror or exc}", 4)
    except KeyboardInterrupt:
        return _fail("interrupted", 130)


def _dispatch(args: argparse.Namespace) -> tuple[str, int]:
    handler, formats = COMMANDS[args.command]
    if args.command == "factorize" and args.e is None:
        raise _Refusal("factorize needs a finite --e", 2)
    if args.format not in formats:
        raise _Refusal(f"{args.command} cannot be written as {args.format}", 2)
    # only crystal, canonical and factorize take --guard
    if "guard" in args and args.rank > args.guard:
        raise _Refusal(
            f"rank {args.rank} exceeds the guard {args.guard}; "
            "raise --guard to confirm a computation this large",
            3,
        )
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
