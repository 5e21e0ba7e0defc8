"""Decomposition matrices and the relative factor between two bases.

The matrix of a canonical basis set has one row per rank-n multipartition
(descending gamma order) and one column per basis vector.  A PolyMatrix
stores only the nonzero cells of each row, in column order; the dense
table is built by fockdec.reference, for its cross-checks and the tests.
The finite-e matrix factors through the no-modulus one: column by column,
repeatedly strip the greatest remaining support term by subtracting that
multiple of the corresponding no-modulus basis vector; the multiples
assemble into the relative matrix, which is unitriangular with
off-diagonal entries in v*Z[v] and nonnegative coefficients.  verify()
rechecks all of that from the nonzero cells of the finished matrices,
including the v=1 specialization, and reports one entry per row of
_CHECKS, the table of its five checks' names and details.
back_substitution_oracle in fockdec.reference solves for the relative
matrix independently, on the dense tables.

Rendering: all four formats walk the nonzero cells and format each
distinct cell once per matrix; matrix_to_text also pads each distinct
(cell, width) pair once.  append_matrix_json() writes the JSON text of a
matrix directly: the documented structure (row_labels, col_labels, and
entries as [exponent, coefficient] pairs), laid out as json.dumps(obj,
indent=2) nested ``depth`` levels deep (every newline followed by 2*depth
more spaces).  fockdec.reference.matrix_to_json_obj builds that structure
as Python objects, the oracle the text is tested against.
"""

from __future__ import annotations

from typing import Optional

from .canonical import CanonicalBasisSet
from .combinatorics import (
    Charge,
    InvariantViolated,
    Multipartition,
    Ordering,
    compare_prefix_sums,
    format_multipartition,
    gamma_prefix_sums,
)
from .laurent import ONE, ZERO, LaurentPoly

__all__ = [
    "PolyMatrix",
    "NotInBInfinity",
    "NonTermination",
    "basis_matrix",
    "extract_relative",
    "verify",
    "format_cell",
    "matrix_to_csv",
    "matrix_to_latex",
    "append_matrix_json",
    "matrix_to_text",
]


class NotInBInfinity(InvariantViolated):
    """A support term survived that is not a no-modulus basis label."""


class NonTermination(InvariantViolated):
    """Column extraction exceeded the rank-layer size.

    That happens only if a no-modulus basis vector is not unitriangular,
    so it is an internal failure, not a size guard.
    """


class PolyMatrix:
    """A labeled matrix of Laurent polynomials, stored by its nonzero cells.

    ``row_nonzeros[i]`` holds row i's (column index, entry) pairs in
    ascending column order, with no zero entry; this sparse form is the
    only one stored.  Immutable.
    """

    row_labels: tuple[Multipartition, ...]
    col_labels: tuple[Multipartition, ...]
    row_nonzeros: tuple[tuple[tuple[int, LaurentPoly], ...], ...]

    def __init__(self, row_labels, col_labels, row_nonzeros):
        if len(row_nonzeros) != len(row_labels):
            raise ValueError("row count mismatch")
        width = len(col_labels)
        for cells in row_nonzeros:
            if cells and not (0 <= cells[0][0] and cells[-1][0] < width):
                raise ValueError("column index out of range")
        self.__dict__.update(
            row_labels=row_labels, col_labels=col_labels, row_nonzeros=row_nonzeros
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"PolyMatrix is immutable; cannot set {name}")

    def matmul(self, other: "PolyMatrix") -> "PolyMatrix":
        """The product, summed over nonzero cell pairs only."""
        if self.col_labels != other.row_labels:
            raise ValueError("inner labels do not match")
        right = other.row_nonzeros
        rows = []
        for left in self.row_nonzeros:
            acc: dict[int, LaurentPoly] = {}
            for k, a in left:
                for j, b in right[k]:
                    acc[j] = acc.get(j, ZERO).add_product(a, b)
            rows.append(tuple((j, p) for j, p in sorted(acc.items()) if p.coeffs))
        return PolyMatrix(self.row_labels, other.col_labels, tuple(rows))

    def eval_one(self) -> tuple[tuple[int, ...], ...]:
        """The dense integer table at v=1."""
        width = len(self.col_labels)
        out = []
        for cells in self.row_nonzeros:
            row = [0] * width
            for j, p in cells:
                row[j] = p.eval_one()
            out.append(tuple(row))
        return tuple(out)


def basis_matrix(basis: CanonicalBasisSet) -> PolyMatrix:
    """Expand a basis set over all rank-n multipartitions.

    Rows run over the basis's rank layer (descending gamma order at the
    basis charge), columns over the basis labels in their stored order.
    Each vector's entries go to the rows at their positions, column by
    column, so every row's cells come out in column order.
    """
    cols = basis.labels
    rows: list[list[tuple[int, LaurentPoly]]] = [[] for _ in basis.layer]
    position = basis.position
    for j, lam in enumerate(cols):
        for mp, c in basis.vectors[lam].entries.items():
            rows[position[mp]].append((j, c))
    return PolyMatrix(basis.layer, cols, tuple(map(tuple, rows)))


def extract_relative(ge: CanonicalBasisSet, ginf: CanonicalBasisSet) -> PolyMatrix:
    """Expand each finite-e basis vector over the no-modulus basis.

    Rows are the no-modulus labels, columns the finite-e labels, both in
    descending gamma order; the entry at (row nu, col lam) is the
    coefficient of the nu vector inside the lam vector.
    """
    if ge.charge != ginf.charge:
        raise ValueError(f"charge mismatch: {ge.charge} vs {ginf.charge}")
    if ge.rank != ginf.rank:
        raise ValueError(f"rank mismatch: {ge.rank} vs {ginf.rank}")
    if ginf.e is not None:
        raise ValueError("second argument must be a no-modulus basis")
    # the greatest support term of a residual is the one with the least
    # position in the rank layer
    position = ge.position
    inf_row = {nu: i for i, nu in enumerate(ginf.labels)}
    rows: list[list[tuple[int, LaurentPoly]]] = [[] for _ in ginf.labels]
    for j, lam in enumerate(ge.labels):
        if lam not in inf_row:
            raise NotInBInfinity(format_multipartition(lam))
        coeffs: dict[Multipartition, LaurentPoly] = {lam: ONE}
        resid = ge.vectors[lam] - ginf.vectors[lam]
        steps = 0
        while not resid.is_zero():
            steps += 1
            if steps > len(position):
                raise NonTermination(f"column {format_multipartition(lam)}")
            mu = min(resid.entries, key=position.__getitem__)
            if mu not in inf_row:
                raise NotInBInfinity(format_multipartition(mu))
            d = resid.coeff(mu)
            coeffs[mu] = d
            resid = resid.sub_scaled(ginf.vectors[mu], d)
        for nu, c in coeffs.items():
            rows[inf_row[nu]].append((j, c))
    return PolyMatrix(ginf.labels, ge.labels, tuple(map(tuple, rows)))


# verify's report rows, in report order: (check name, detail)
_CHECKS = (
    ("product", "finite-e matrix equals no-modulus matrix times relative matrix"),
    ("unitriangular", "unit diagonal, off-diagonal entries in v*Z[v]"),
    ("order", "nonzero entries only where the column label dominates the row label"),
    ("positivity", "all entries have nonnegative coefficients and exponents"),
    ("specialization", "the identity also holds for the integer matrices at v=1"),
)


def verify(
    de: PolyMatrix,
    dinf: PolyMatrix,
    drel: PolyMatrix,
    charge: Charge,
) -> list[dict]:
    """Structural checks on a finished factorization, as a report list.

    The report has one {"check", "pass", "detail"} entry per row of the
    module's _CHECKS table, in its order; each check is one boolean.  The
    product dinf*drel is formed once, over nonzero cells only; the
    "product" check compares it with de over Z[v, 1/v] and the
    "specialization" check compares it with de at v=1, together with an
    independent integer product of the v=1 matrices.  The dominance
    condition of the "order" check depends on the charge of the
    underlying module, so the charge is required, and a charge whose
    level differs from the labels' raises ValueError.
    """
    levels = {
        len(label)
        for m in (de, dinf, drel)
        for label in m.row_labels + m.col_labels
    }
    if levels != {len(charge)}:
        found = ", ".join(map(str, sorted(levels)))
        raise ValueError(
            f"charge {charge} has level {len(charge)} but the labels have level {found}"
        )
    prod = dinf.matmul(drel)
    prod_ok = (
        de.row_labels == dinf.row_labels
        and len(de.col_labels) == len(prod.col_labels)
        and prod.row_nonzeros == de.row_nonzeros
    )

    # the row of each column's diagonal cell, None when its label is no row
    row_index = {label: i for i, label in enumerate(drel.row_labels)}
    diag_row = [row_index.get(lam) for lam in drel.col_labels]
    diagonal = [ZERO] * len(diag_row)
    off_diagonal = []
    for i, cells in enumerate(drel.row_nonzeros):
        for j, c in cells:
            if diag_row[j] == i:
                diagonal[j] = c
            else:
                off_diagonal.append((i, j, c))
    tri_ok = all(c == ONE for c in diagonal) and all(
        c.in_v_ztimes() for _, _, c in off_diagonal
    )

    # one prefix-sum key per distinct label, not two per nonzero cell
    cols = [drel.col_labels[j] for _, j, _ in off_diagonal]
    rows = [drel.row_labels[i] for i, _, _ in off_diagonal]
    key = {lab: gamma_prefix_sums(lab, charge) for lab in {*cols, *rows}}
    order_ok = all(
        compare_prefix_sums(key[lam], key[nu]) is Ordering.GREATER
        for lam, nu in zip(cols, rows)
    )

    pos_ok = all(
        p.in_nonneg_v_poly()
        for m in (de, dinf, drel)
        for row in m.row_nonzeros
        for _, p in row
    )

    lhs = de.eval_one()
    spec_ok = lhs == prod.eval_one() and _int_matmul(
        _int_rows(dinf), _int_rows(drel), len(drel.col_labels)
    ) == lhs
    passes = (prod_ok, tri_ok, order_ok, pos_ok, spec_ok)
    return [
        {"check": name, "pass": bool(ok), "detail": detail}
        for (name, detail), ok in zip(_CHECKS, passes)
    ]


def all_pass(report: list[dict]) -> bool:
    return all(item["pass"] for item in report)


def _int_rows(m: PolyMatrix) -> list[list[tuple[int, int]]]:
    """The (column index, value) cells of each row at v=1."""
    return [[(j, p.eval_one()) for j, p in cells] for cells in m.row_nonzeros]


def _int_matmul(a, b, width: int) -> tuple[tuple[int, ...], ...]:
    """Product of two integer matrices given as sparse rows of (index, value)
    cells, as dense rows of ``width`` columns."""
    out = []
    for row in a:
        acc = [0] * width
        for k, x in row:
            for j, y in b[k]:
                acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


# -- rendering -----------------------------------------------------------


def format_cell(p: LaurentPoly) -> str:
    """Machine cell grammar: '.' for zero, else 'c*v^k' terms joined by '+'."""
    if p.is_zero():
        return "."
    return "+".join(f"{c}*v^{e}" for e, c in p.items())


def _latex_poly(p: LaurentPoly) -> str:
    parts = []
    for e, c in p.items():
        if e == 0:
            body = str(abs(c))
        else:
            vp = "v" if e == 1 else f"v^{{{e}}}"
            body = vp if abs(c) == 1 else f"{abs(c)}{vp}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+{body}" if c > 0 else f"-{body}")
    return "".join(parts)


def _cell_texts(m: PolyMatrix, render, zero: str):
    """Each row of m as a list of cell texts: a copy of a row of ``zero``
    strings with every nonzero cell rendered, each distinct one once."""
    blank = [zero] * len(m.col_labels)
    texts: dict[LaurentPoly, str] = {}
    for cells in m.row_nonzeros:
        row = blank.copy()
        for j, p in cells:
            text = texts.get(p)
            if text is None:
                text = texts[p] = render(p)
            row[j] = text
        yield row


def matrix_to_csv(m: PolyMatrix) -> str:
    lines = ["," + ",".join(format_multipartition(c) for c in m.col_labels)]
    for lab, row in zip(m.row_labels, _cell_texts(m, format_cell, ".")):
        lines.append(format_multipartition(lab) + "," + ",".join(row))
    return "\n".join(lines) + "\n"


def matrix_to_latex(m: PolyMatrix) -> str:
    cols = "c" * len(m.col_labels)
    lines = [f"\\begin{{array}}{{l|{cols}}}"]
    head = " & ".join(format_multipartition(c) for c in m.col_labels)
    lines.append(f" & {head} \\\\")
    lines.append("\\hline")
    for lab, row in zip(m.row_labels, _cell_texts(m, _latex_poly, "\\cdot")):
        lines.append(f"{format_multipartition(lab)} & {' & '.join(row)} \\\\")
    lines.append("\\end{array}")
    return "\n".join(lines) + "\n"


def _json_list(items, inner: str, outer: str) -> str:
    """A JSON list of already-rendered items, laid out as json.dumps(indent=2)."""
    if not items:
        return "[]"
    return "[" + inner + ("," + inner).join(items) + outer + "]"


def append_matrix_json(
    parts: list[str], m: PolyMatrix, depth: int = 0, quoted: Optional[dict] = None
) -> None:
    """Append the JSON text of m to ``parts``.

    The pieces join to ``json.dumps(obj, indent=2)``, where obj is the
    documented structure (fockdec.reference.matrix_to_json_obj builds it),
    with every newline followed by ``2 * depth`` more spaces, which is how
    json.dumps lays the object out as a value ``depth`` levels down.
    ``quoted`` maps labels to their JSON strings; a document that writes
    several matrices passes one dict to all of them, so each label is
    formatted once.  A label's text is digits, '.', '|' and '-', which JSON
    writes between quotes unescaped.

    >>> m = PolyMatrix((((1,),),), (((1,),),), (((0, ONE),),))
    >>> parts = []
    >>> append_matrix_json(parts, m)
    >>> print("".join(parts).replace(" ", "").replace("\\n", ""))
    {"row_labels":["1"],"col_labels":["1"],"entries":[[[[0,1]]]]}
    """
    if quoted is None:
        quoted = {}
    i0, i1, i2, i3 = ("\n" + "  " * (depth + k) for k in range(4))

    def labels(labs) -> str:
        texts = []
        for x in labs:
            text = quoted.get(x)
            if text is None:
                text = quoted[x] = '"' + format_multipartition(x) + '"'
            texts.append(text)
        return _json_list(texts, i2, i1)

    # a cell sits three levels below the matrix object, each [exponent,
    # coefficient] pair one more and its ints two more
    pair_open, pair_mid, pair_close = i3 + "  [" + i3 + "    ", "," + i3 + "    ", i3 + "  ]"

    def cell(p: LaurentPoly) -> str:
        return "[" + ",".join(
            [pair_open + str(e) + pair_mid + str(c) + pair_close for e, c in p.items()]
        ) + i3 + "]"

    parts.append("{" + i1 + '"row_labels": ' + labels(m.row_labels))
    parts.append("," + i1 + '"col_labels": ' + labels(m.col_labels))
    parts.append("," + i1 + '"entries": ')
    if not m.row_nonzeros:
        parts.append("[]")
    else:
        row_sep = "[" + i2
        for row in _cell_texts(m, cell, "[]"):
            parts.append(row_sep + _json_list(row, i3, i2))
            row_sep = "," + i2
        parts.append(i1 + "]")
    parts.append(i0 + "}")


def matrix_to_text(m: PolyMatrix) -> str:
    """Aligned columns, each as wide as its widest label or cell, '.' for zero.

    Widths come from the labels and the nonzero cells; each column's padded
    '.' and each distinct (cell, width) pair is padded once.
    """
    heads = [format_multipartition(c) for c in m.col_labels]
    names = [format_multipartition(r) for r in m.row_labels]
    texts: dict[LaurentPoly, str] = {}
    # a zero cell is '.', one character, in every column of a matrix with rows
    widths = [max(len(h), 1) for h in heads] if names else list(map(len, heads))
    for cells in m.row_nonzeros:
        for j, p in cells:
            text = texts.get(p)
            if text is None:
                text = texts[p] = str(p)
            if len(text) > widths[j]:
                widths[j] = len(text)
    first = max(map(len, names), default=0)
    lines = ["  ".join([" " * first] + list(map(str.ljust, heads, widths))).rstrip()]
    blank = [".".ljust(w) for w in widths]
    padded: dict[tuple[LaurentPoly, int], str] = {}
    for name, cells in zip(names, m.row_nonzeros):
        row = [name.ljust(first)] + blank
        for j, p in cells:
            w = widths[j]
            text = padded.get((p, w))
            if text is None:
                text = padded[p, w] = texts[p].ljust(w)
            row[j + 1] = text
        lines.append("  ".join(row).rstrip())
    return "\n".join(lines) + "\n"
