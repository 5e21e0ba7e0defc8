"""Command-line surface for crystals, canonical bases, factorization,
abacus inspection, and dominance-order queries.

Subcommands

  crystal    connected crystal component from the empty multipartition
  canonical  canonical-basis coefficient matrix for one (e, charge, rank)
  factorize  both basis matrices, the relative matrix, and the check report
  abacus     bead labels and reading sequences of a charged multipartition
  order      dominance relation between two multipartitions

Exit codes: 0 success (factorize: all checks pass), 1 a verification
check failed or an internal consistency check raised (one line on stderr,
``fockdec: <ExceptionName>: <message>``), 2 usage error, 3 a size guard
tripped or the bead cut was too small.  Output is deterministic:
identical invocations produce byte-identical bytes.  ``main`` may be called repeatedly in one process;
it builds its parser on the first call and reuses it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .abacus import RTooSmall, ascii_art, reading_word, stable_r, tau_inverse
from .canonical import (
    InvariantViolated,
    MissingPredecessor,
    OrderViolation,
    PeelingUnitriangularityViolated,
    canonical_basis,
)
from .combinatorics import (
    Charge,
    Multipartition,
    compare_dominance,
    format_charge,
    format_multipartition,
    parse_charge,
    parse_multipartition,
)
from .crystal import generate_component
from .factorize import (
    NonTermination,
    NotInBInfinity,
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
from .laurent import DivisionNotExact

__all__ = [
    "RunConfig",
    "cmd_crystal",
    "cmd_canonical",
    "cmd_factorize",
    "cmd_abacus",
    "cmd_order",
    "build_parser",
    "main",
]

GUARD_DEFAULT = 12

# raised only when the construction contradicts itself; exit code 1
INTERNAL_FAILURES = (
    OrderViolation,
    PeelingUnitriangularityViolated,
    MissingPredecessor,
    InvariantViolated,
    NotInBInfinity,
    DivisionNotExact,
)


@dataclass(frozen=True)
class RunConfig:
    """Everything a matrix-producing subcommand needs."""

    e: Optional[int]  # None means no modulus
    charge: Charge
    rank: int
    format: str = "text"
    pad: int = 0
    guard: int = GUARD_DEFAULT


def _out(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _out_json(fields: dict) -> None:
    """Write ``json.dumps(fields, indent=2)`` plus a newline, byte for byte.

    PolyMatrix values are written by append_matrix_json; the whole document
    is collected as pieces and joined once.
    """
    parts = []
    sep = "{\n  "
    for key, value in fields.items():
        parts.append(sep + json.dumps(key) + ": ")
        if isinstance(value, PolyMatrix):
            append_matrix_json(parts, value, depth=1)
        else:
            parts.append(json.dumps(value, indent=2).replace("\n", "\n  "))
        sep = ",\n  "
    parts.append("\n}\n")
    sys.stdout.write("".join(parts))


def _fail(message: str, code: int) -> int:
    print(f"fockdec: {message}", file=sys.stderr)
    return code


def _guard_tripped(cfg: RunConfig) -> bool:
    return cfg.rank > cfg.guard


def _guard_message(cfg: RunConfig) -> str:
    return (
        f"rank {cfg.rank} exceeds the guard {cfg.guard}; "
        "raise --guard to confirm a computation this large"
    )


def _e_text(e: Optional[int]) -> str:
    return "inf" if e is None else str(e)


def cmd_crystal(cfg: RunConfig) -> int:
    """Emit the crystal component in dot, json, or text form."""
    if cfg.format not in ("json", "dot", "text"):
        return _fail(f"crystal cannot be written as {cfg.format}", 2)
    if _guard_tripped(cfg):
        return _fail(_guard_message(cfg), 3)
    graph = generate_component(cfg.e, cfg.charge, cfg.rank)
    if cfg.format == "json":
        _out(json.dumps(graph.to_json_obj(), indent=2))
    elif cfg.format == "dot":
        _out(graph.to_dot())
    else:
        lines = []
        for n, layer in enumerate(graph.layers):
            names = " ".join(format_multipartition(mp) for mp in layer)
            lines.append(f"rank {n}: {names}")
        for (src, i), dst in sorted(
            graph.edges.items(),
            key=lambda kv: (len(kv[1]), kv[0][1], kv[0][0]),
        ):
            lines.append(
                f"{format_multipartition(src)} -{i}-> {format_multipartition(dst)}"
            )
        _out("\n".join(lines))
    return 0


def cmd_canonical(cfg: RunConfig) -> int:
    """Emit the canonical-basis coefficient matrix."""
    if cfg.format not in ("json", "csv", "latex", "text"):
        return _fail(f"canonical cannot be written as {cfg.format}", 2)
    if _guard_tripped(cfg):
        return _fail(_guard_message(cfg), 3)
    basis = canonical_basis(cfg.e, cfg.charge, cfg.rank)
    m = basis_matrix(basis, cfg.pad)
    if cfg.format == "json":
        _out_json(
            {"e": _e_text(cfg.e), "charge": list(cfg.charge), "rank": cfg.rank, "matrix": m}
        )
    elif cfg.format == "csv":
        sys.stdout.write(matrix_to_csv(m))
    elif cfg.format == "latex":
        _out(matrix_to_latex(m))
    else:
        _out(matrix_to_text(m))
    return 0


def cmd_factorize(cfg: RunConfig) -> int:
    """Emit both basis matrices, the relative matrix, and the report."""
    if cfg.e is None:
        return _fail("factorize needs a finite --e", 2)
    if cfg.format not in ("json", "csv", "latex", "text"):
        return _fail(f"factorize cannot be written as {cfg.format}", 2)
    if _guard_tripped(cfg):
        return _fail(_guard_message(cfg), 3)
    ge = canonical_basis(cfg.e, cfg.charge, cfg.rank)
    ginf = canonical_basis(None, cfg.charge, cfg.rank)
    de = basis_matrix(ge, cfg.pad)
    dinf = basis_matrix(ginf, cfg.pad)
    try:
        drel = extract_relative(ge, ginf)
    except NonTermination as exc:
        return _fail(str(exc), 3)
    report = verify(de, dinf, drel, cfg.charge)
    ok = all_pass(report)

    e_name = f"e={cfg.e}"
    if cfg.format == "json":
        _out_json(
            {
                "e": cfg.e,
                "charge": list(cfg.charge),
                "rank": cfg.rank,
                "basis_e": de,
                "basis_inf": dinf,
                "relative": drel,
                "report": report,
                "all_pass": ok,
            }
        )
    elif cfg.format == "csv":
        parts = [
            f"# basis matrix ({e_name})\n",
            matrix_to_csv(de),
            "# basis matrix (e=inf)\n",
            matrix_to_csv(dinf),
            "# relative matrix\n",
            matrix_to_csv(drel),
            "# verification\n",
        ]
        for item in report:
            parts.append(f"# {item['check']},{'pass' if item['pass'] else 'FAIL'}\n")
        sys.stdout.write("".join(parts))
    elif cfg.format == "latex":
        blocks = [
            f"% basis matrix ({e_name})",
            matrix_to_latex(de),
            "% basis matrix (e=inf)",
            matrix_to_latex(dinf),
            "% relative matrix",
            matrix_to_latex(drel),
        ]
        for item in report:
            blocks.append(
                f"% {item['check']}: {'pass' if item['pass'] else 'FAIL'}"
            )
        _out("\n".join(blocks))
    else:
        blocks = [
            f"== basis matrix ({e_name}) ==",
            matrix_to_text(de),
            "",
            "== basis matrix (e=inf) ==",
            matrix_to_text(dinf),
            "",
            "== relative matrix ==",
            matrix_to_text(drel),
            "",
            "== verification ==",
        ]
        for item in report:
            status = "PASS" if item["pass"] else "FAIL"
            blocks.append(f"{item['check']}: {status} ({item['detail']})")
        blocks.append("all checks passed" if ok else "verification FAILED")
        _out("\n".join(blocks))
    return 0 if ok else 1


def cmd_abacus(
    mp: Multipartition,
    charge: Charge,
    e: int,
    r: Optional[int],
    stable_for: Optional[int],
    fmt: str,
) -> int:
    """Emit the bead labels, reading sequences, and drawing."""
    if fmt not in ("json", "text"):
        return _fail(f"abacus cannot be written as {fmt}", 2)
    if len(mp) != len(charge):
        return _fail(
            f"level {len(mp)} multipartition with level {len(charge)} charge", 2
        )
    if (r is None) == (stable_for is None):
        return _fail("give exactly one of --r and --stable-for", 2)
    if stable_for is not None:
        r = stable_r(mp, charge, e, stable_for)
    assert r is not None
    try:
        ks = tau_inverse(mp, charge, e, r)
    except RTooSmall as exc:
        return _fail(f"{exc} (use --r {exc.suggested} or more)", 3)
    data = reading_word(ks, e, len(charge))
    if fmt == "json":
        obj = {"r": r, **data.to_json_obj()}
        _out(json.dumps(obj, indent=2))
    else:
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
        lines.append(ascii_art(mp, charge, e, r))
        _out("\n".join(lines))
    return 0


def cmd_order(
    left: Multipartition,
    right: Multipartition,
    charge: Optional[Charge],
    pad: int,
    fmt: str,
) -> int:
    """Emit the dominance relation between two multipartitions."""
    if fmt not in ("json", "text"):
        return _fail(f"order cannot be written as {fmt}", 2)
    if len(left) != len(right):
        return _fail(
            f"levels differ: {len(left)} vs {len(right)}", 2
        )
    if charge is None:
        charge = (0,) * len(left)
    if len(charge) != len(left):
        return _fail(
            f"level {len(left)} multipartitions with level {len(charge)} charge", 2
        )
    try:
        rel = compare_dominance(left, right, charge, pad)
    except ValueError as exc:
        return _fail(str(exc), 2)
    if fmt == "json":
        _out(
            json.dumps(
                {
                    "left": format_multipartition(left),
                    "right": format_multipartition(right),
                    "charge": list(charge),
                    "relation": rel.value,
                },
                indent=2,
            )
        )
    else:
        _out(rel.value)
    return 0


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
    value = _e_value(text)
    if value is None:
        raise argparse.ArgumentTypeError("this command needs a finite period")
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


def _add_run_flags(sub: argparse.ArgumentParser, formats: str) -> None:
    sub.add_argument("--e", type=_e_value, required=True,
                     help="modulus >= 2, or 'inf' for none")
    sub.add_argument("--charge", type=_charge_value, required=True,
                     help="comma-separated charge, e.g. 0,0 or 0,-1")
    sub.add_argument("--rank", type=_nonneg_value, required=True,
                     help="total number of boxes")
    sub.add_argument("--format", default="text", help=f"one of: {formats}")
    sub.add_argument("--pad", type=_nonneg_value, default=0,
                     help="extra dominance-comparison depth")
    sub.add_argument("--guard", type=_nonneg_value, default=GUARD_DEFAULT,
                     help=f"refuse ranks above this bound (default {GUARD_DEFAULT})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockdec",
        description="Canonical bases of higher-level Fock spaces, "
        "their factorization, and the underlying combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("crystal", help="connected crystal component")
    _add_run_flags(p, "json, dot, text")

    p = sub.add_parser("canonical", help="canonical-basis matrix")
    _add_run_flags(p, "json, csv, latex, text")

    p = sub.add_parser("factorize", help="factorized matrices plus checks")
    _add_run_flags(p, "json, csv, latex, text")

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
    p.add_argument("--format", default="text", help="one of: json, text")

    p = sub.add_parser("order", help="dominance relation of two multipartitions")
    p.add_argument("--left", type=_mp_value, required=True,
                   help="first multipartition")
    p.add_argument("--right", type=_mp_value, required=True)
    p.add_argument("--charge", type=_charge_value, default=None)
    p.add_argument("--pad", type=_nonneg_value, default=0)
    p.add_argument("--format", default="text", help="one of: json, text")

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
        args = _parser().parse_args(_join_dash_values(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return _dispatch(args)
    except INTERNAL_FAILURES as exc:
        first = (str(exc).splitlines() or [""])[0]
        return _fail(f"{type(exc).__name__}: {first}", 1)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command in ("crystal", "canonical", "factorize"):
        cfg = RunConfig(
            e=args.e,
            charge=args.charge,
            rank=args.rank,
            format=args.format,
            pad=args.pad,
            guard=args.guard,
        )
        handler = {
            "crystal": cmd_crystal,
            "canonical": cmd_canonical,
            "factorize": cmd_factorize,
        }[args.command]
        return handler(cfg)
    if args.command == "abacus":
        return cmd_abacus(
            args.multipartition,
            args.charge,
            args.e,
            args.r,
            args.stable_for,
            args.format,
        )
    if args.command == "order":
        return cmd_order(args.left, args.right, args.charge, args.pad, args.format)
    return _fail(f"unknown command {args.command!r}", 2)


if __name__ == "__main__":
    sys.exit(main())
