"""Tests for labeled polynomial matrices, extraction, and verification."""

from __future__ import annotations

import json
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockdec.canonical import canonical_basis
from fockdec.cli import _render_json
from fockdec.combinatorics import (
    InvariantViolated,
    Ordering,
    compare_dominance,
    format_multipartition,
    parse_multipartition,
)
from fockdec.factorize import (
    NonTermination,
    NotInBInfinity,
    PolyMatrix,
    _int_matmul,
    _latex_poly,
    all_pass,
    append_matrix_json,
    basis_matrix,
    extract_relative,
    format_cell,
    matrix_to_csv,
    matrix_to_latex,
    matrix_to_text,
    verify,
)
from fockdec.laurent import ONE, V, ZERO, LaurentPoly
from fockdec.reference import (
    InconsistentSystem,
    back_substitution_oracle,
    dense_entries,
    from_dense,
    matrix_entry,
    matrix_to_json_obj,
    qint,
)

GOLDEN_REL_CSV = (
    ",-|3,1|2,-|2.1\n"
    "-|3,1*v^0,.,.\n"
    "1|2,1*v^1,1*v^0,.\n"
    "-|2.1,.,.,1*v^0\n"
    "1|1.1,1*v^1,1*v^2,.\n"
    "-|1.1.1,1*v^2,.,.\n"
)


def mp(text):
    return parse_multipartition(text)


def poly(*pairs):
    return LaurentPoly.from_pairs(pairs)


def small_matrix():
    rows = (mp("2"), mp("1.1"))
    cols = (mp("2"), mp("1.1"))
    return from_dense(rows, cols, ((ONE, ZERO), (poly((1, 1)), ONE)))


def rank3_triple():
    ge = canonical_basis(2, (0, 0), 3)
    gi = canonical_basis(None, (0, 0), 3)
    return basis_matrix(ge), basis_matrix(gi), extract_relative(ge, gi)


def test_shape_validation():
    rows = (mp("2"), mp("1.1"))
    with pytest.raises(ValueError):
        from_dense(rows, rows, ((ONE, ZERO),))  # one row short
    with pytest.raises(ValueError):
        from_dense(rows, rows, ((ONE,), (ZERO,)))  # one column short


def test_sparse_shape_validation():
    rows = (mp("2"), mp("1.1"))
    with pytest.raises(ValueError):
        PolyMatrix(rows, rows, (((0, ONE),),))  # one row short
    with pytest.raises(ValueError):
        PolyMatrix(rows, rows, (((2, ONE),), ()))  # column index past the last
    with pytest.raises(ValueError):
        PolyMatrix(rows, rows, (((-1, ONE),), ()))
    with pytest.raises(AttributeError):
        small_matrix().row_labels = rows


def test_entry_and_column_access():
    m = small_matrix()
    assert matrix_entry(m, mp("1.1"), mp("2")) == poly((1, 1))
    assert matrix_entry(m, mp("2"), mp("1.1")) == ZERO


def test_entry_and_column_reject_unknown_labels():
    m = small_matrix()
    with pytest.raises(ValueError):
        matrix_entry(m, mp("3"), mp("2"))
    with pytest.raises(ValueError):
        matrix_entry(m, mp("2"), mp("3"))


def test_matmul():
    m = small_matrix()
    eye = from_dense(m.col_labels, m.col_labels, ((ONE, ZERO), (ZERO, ONE)))
    assert dense_entries(m.matmul(eye)) == dense_entries(m)
    sq = m.matmul(m)
    assert matrix_entry(sq, mp("1.1"), mp("2")) == poly((1, 2))
    with pytest.raises(ValueError):
        m.matmul(from_dense((mp("3"),), (mp("3"),), ((ONE,),)))


small_polys = st.builds(
    LaurentPoly.from_pairs,
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-4, 4)), min_size=1, max_size=3),
)


def _sparse_cells(draw, rows, cols, cell, zero):
    """A rows x cols grid, at least half zero, sometimes with a zero row and column."""
    flat = draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))
    nonzero = [i for i, x in enumerate(flat) if x]
    for i in nonzero[rows * cols // 2 :]:
        flat[i] = zero
    grid = [flat[r * cols : (r + 1) * cols] for r in range(rows)]
    zero_row = draw(st.none() | st.integers(0, rows - 1))
    zero_col = draw(st.none() | st.integers(0, cols - 1))
    for r in range(rows):
        for c in range(cols):
            if r == zero_row or c == zero_col:
                grid[r][c] = zero
    return tuple(tuple(row) for row in grid)


def _labels(n):
    return tuple(((i + 1,),) for i in range(n))


@st.composite
def poly_matrix_pairs(draw):
    m, k, n = (draw(st.integers(1, 5)) for _ in range(3))
    cell = st.one_of(st.just(ZERO), st.builds(LaurentPoly), small_polys)
    a = from_dense(_labels(m), _labels(k), _sparse_cells(draw, m, k, cell, ZERO))
    b = from_dense(_labels(k), _labels(n), _sparse_cells(draw, k, n, cell, ZERO))
    return a, b


@st.composite
def int_matrix_pairs(draw):
    m, k, n = (draw(st.integers(1, 5)) for _ in range(3))
    cell = st.one_of(st.just(0), st.integers(-5, 5))
    return _sparse_cells(draw, m, k, cell, 0), _sparse_cells(draw, k, n, cell, 0)


@given(poly_matrix_pairs())
@settings(max_examples=100, deadline=None)
def test_matmul_matches_dense_triple_loop(pair):
    a, b = pair
    inner = len(b.row_labels)
    ta, tb = dense_entries(a), dense_entries(b)
    dense = tuple(
        tuple(
            sum((ta[i][k] * tb[k][j] for k in range(inner)), ZERO)
            for j in range(len(b.col_labels))
        )
        for i in range(len(a.row_labels))
    )
    prod = a.matmul(b)
    assert prod.row_labels == a.row_labels
    assert prod.col_labels == b.col_labels
    assert dense_entries(prod) == dense
    _assert_sparse_rows(prod)


def _assert_sparse_rows(m):
    """Stored rows hold exactly the nonzero cells, in column order, and the
    dense view fills every other cell with the ZERO object."""
    for stored, dense in zip(m.row_nonzeros, dense_entries(m)):
        assert [j for j, _ in stored] == [j for j, p in enumerate(dense) if p]
        assert all(dense[j] is p for j, p in stored)
        assert all(p is ZERO for p in dense if not p)


@given(int_matrix_pairs())
@settings(max_examples=100, deadline=None)
def test_int_matmul_matches_dense_product(pair):
    a, b = pair
    dense = tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )
    sparse = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    assert _int_matmul([[(k, x) for k, x in enumerate(row)] for row in a], sparse, len(b[0])) == dense


def test_int_matmul_empty_inner_dimension():
    assert _int_matmul([[]], [], 0) == ((),)
    assert _int_matmul([[], []], [], 3) == ((0, 0, 0), (0, 0, 0))
    # a 1 x 0 no-modulus matrix times a 0 x 1 relative matrix
    row, col = (mp("2"),), (mp("1.1"),)
    dinf = PolyMatrix(row, (), ((),))
    drel = PolyMatrix((), col, ())
    de = PolyMatrix(row, col, ((),))
    report = {r["check"]: r["pass"] for r in verify(de, dinf, drel, (0,))}
    assert report["product"] and report["specialization"]
    assert not report["unitriangular"]


def test_eval_one():
    m = small_matrix()
    assert m.eval_one() == ((1, 0), (1, 1))
    de, _, _ = rank3_triple()
    assert de.eval_one() == (
        (1, 0, 0),
        (1, 0, 0),
        (1, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (1, 1, 0),
        (1, 0, 0),
        (1, 0, 0),
    )


def test_basis_matrix_shape():
    de, di, _ = rank3_triple()
    assert len(de.row_labels) == 10 and len(de.col_labels) == 3
    assert len(di.row_labels) == 10 and len(di.col_labels) == 5
    assert de.row_labels == di.row_labels


def test_level_one_no_modulus_matrix_is_identity():
    for n in range(6):
        m = basis_matrix(canonical_basis(None, (0,), n))
        assert m.row_labels == m.col_labels
        table = dense_entries(m)
        for i, r in enumerate(m.row_labels):
            for j, c in enumerate(m.col_labels):
                assert table[i][j] == (ONE if r == c else ZERO)


def test_extract_relative_golden():
    _, _, rel = rank3_triple()
    assert matrix_to_csv(rel) == GOLDEN_REL_CSV


def test_extract_relative_input_validation():
    ge = canonical_basis(2, (0, 0), 3)
    gi = canonical_basis(None, (0, 0), 3)
    with pytest.raises(ValueError):
        extract_relative(ge, canonical_basis(None, (0, 1), 3))  # charge mismatch
    with pytest.raises(ValueError):
        extract_relative(ge, canonical_basis(None, (0, 0), 2))  # rank mismatch
    with pytest.raises(ValueError):
        extract_relative(ge, canonical_basis(3, (0, 0), 3))  # finite second basis


def test_factorization_identity_small_sweep():
    for level, charge in [(1, (0,)), (2, (0, 1))]:
        for e in (2, 3):
            for n in range(5):
                ge = canonical_basis(e, charge, n)
                gi = canonical_basis(None, charge, n)
                de, di = basis_matrix(ge), basis_matrix(gi)
                rel = extract_relative(ge, gi)
                assert dense_entries(di.matmul(rel)) == dense_entries(de)


def test_oracle_equivalence_small_sweep():
    for level, charge in [(1, (0,)), (2, (0, 1))]:
        for e in (2, 3):
            for n in range(5):
                ge = canonical_basis(e, charge, n)
                gi = canonical_basis(None, charge, n)
                rel = extract_relative(ge, gi)
                orc = back_substitution_oracle(basis_matrix(ge), basis_matrix(gi))
                assert orc.row_labels == rel.row_labels
                assert orc.col_labels == rel.col_labels
                assert dense_entries(orc) == dense_entries(rel)


def test_oracle_rejects_inconsistent_system():
    rows = (mp("2"), mp("1.1"))
    dinf = from_dense(rows, (mp("2"),), ((ONE,), (poly((1, 1)),)))
    de = from_dense(rows, (mp("1.1"),), ((ONE,), (ONE,)))
    with pytest.raises(InconsistentSystem):
        back_substitution_oracle(de, dinf)


def test_oracle_rejects_cyclic_support():
    rows = (mp("2"), mp("1.1"))
    dinf = from_dense(rows, rows, ((ONE, poly((1, 1))), (poly((1, 1)), ONE)))
    de = from_dense(rows, (mp("2"),), ((ONE,), (ZERO,)))
    with pytest.raises(ValueError):
        back_substitution_oracle(de, dinf)


def test_verify_all_pass_on_golden():
    de, di, rel = rank3_triple()
    report = verify(de, di, rel, (0, 0))
    assert [item["check"] for item in report] == [
        "product",
        "unitriangular",
        "order",
        "positivity",
        "specialization",
    ]
    assert all_pass(report)


def test_verify_requires_the_charge():
    de, di, rel = rank3_triple()
    with pytest.raises(TypeError):
        verify(de, di, rel)


@pytest.mark.parametrize("n, charge", [(1, (0, 5, 7)), (3, (0,))])
def test_verify_rejects_a_charge_of_another_level(n, charge):
    # level-2 labels; a level-3 charge used to pass every check at rank 1,
    # and a level-1 charge failed inside gamma_sequence at rank 3
    ge = canonical_basis(2, (0, 0), n)
    gi = canonical_basis(None, (0, 0), n)
    de, di, rel = basis_matrix(ge), basis_matrix(gi), extract_relative(ge, gi)
    with pytest.raises(ValueError, match=r"has level \d but the labels have level 2$"):
        verify(de, di, rel, charge)


@pytest.mark.parametrize("charge", [(0, 2), (0, 1, 2)])
def test_verify_passes_at_a_nonzero_charge(charge):
    # the zero charge orders these labels differently, so an order check
    # made at the zero charge instead of the module's own would fail
    ge = canonical_basis(3, charge, 5)
    gi = canonical_basis(None, charge, 5)
    de, di, rel = basis_matrix(ge), basis_matrix(gi), extract_relative(ge, gi)
    assert all_pass(verify(de, di, rel, charge))
    zero = {r["check"]: r["pass"] for r in verify(de, di, rel, (0,) * len(charge))}
    assert not zero["order"]


def _with_entry(m, row, col, value):
    i = m.row_labels.index(row)
    j = m.col_labels.index(col)
    table = dense_entries(m)
    entries = tuple(
        tuple(value if (a, b) == (i, j) else table[a][b] for b in range(len(r)))
        for a, r in enumerate(table)
    )
    return from_dense(m.row_labels, m.col_labels, entries)


def test_verify_detects_broken_diagonal():
    de, di, rel = rank3_triple()
    bad = _with_entry(rel, mp("1|2"), mp("1|2"), poly((1, 1)))
    report = {r["check"]: r["pass"] for r in verify(de, di, bad, (0, 0))}
    assert not report["unitriangular"]
    assert not report["product"]
    assert not all_pass(verify(de, di, bad, (0, 0)))


def test_verify_detects_corrupted_finite_e_matrix():
    de, di, rel = rank3_triple()
    # a column's leading cell is 1; adding v changes its value at v=1
    lam = de.col_labels[0]
    before = matrix_entry(de, lam, lam)
    bad = _with_entry(de, lam, lam, before + poly((1, 1)))
    assert matrix_entry(bad, lam, lam).eval_one() != before.eval_one()
    report = {r["check"]: r["pass"] for r in verify(bad, di, rel, (0, 0))}
    assert not report["product"]
    assert not report["specialization"]


def test_verify_detects_negative_coefficient():
    de, di, rel = rank3_triple()
    bad = _with_entry(rel, mp("1|1.1"), mp("-|3"), poly((1, -1)))
    report = {r["check"]: r["pass"] for r in verify(de, di, bad, (0, 0))}
    assert not report["positivity"]
    assert not report["product"]


def test_verify_detects_order_violation():
    de, di, rel = rank3_triple()
    # -|3 strictly dominates 1|2, so a nonzero cell in this position
    # points the wrong way up the order
    bad = _with_entry(rel, mp("-|3"), mp("1|2"), poly((1, 1)))
    report = {r["check"]: r["pass"] for r in verify(de, di, bad, (0, 0))}
    assert not report["order"]


@lru_cache(maxsize=None)
def _charged_triple(e, charge, n):
    ge, gi = canonical_basis(e, charge, n), canonical_basis(None, charge, n)
    return basis_matrix(ge), basis_matrix(gi), extract_relative(ge, gi)


@given(
    st.sampled_from([(2, (0, 0), 4), (3, (0, 1, 2), 3), (2, (1, 0, 2), 3), (3, (0,), 5)]),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_verify_order_check_is_the_dominance_order(config, data):
    """A new off-diagonal cell passes the order check exactly when its column
    label dominates its row label."""
    charge = config[1]
    de, di, rel = _charged_triple(*config)
    nu = data.draw(st.sampled_from(rel.row_labels))
    lam = data.draw(st.sampled_from([c for c in rel.col_labels if c != nu]))
    bad = _with_entry(rel, nu, lam, poly((1, 1)))
    report = {r["check"]: r["pass"] for r in verify(de, di, bad, charge)}
    assert report["order"] == (compare_dominance(lam, nu, charge) is Ordering.GREATER)


def test_verify_detects_constant_off_diagonal():
    de, di, rel = rank3_triple()
    bad = _with_entry(rel, mp("1|1.1"), mp("-|3"), ONE)
    report = {r["check"]: r["pass"] for r in verify(de, di, bad, (0, 0))}
    assert not report["unitriangular"]


def test_format_cell():
    assert format_cell(ZERO) == "."
    assert format_cell(qint(3)) == "1*v^-2+1*v^0+1*v^2"
    assert format_cell(poly((1, 2), (3, 1))) == "2*v^1+1*v^3"


def test_matrix_renderings():
    _, _, rel = rank3_triple()
    obj = matrix_to_json_obj(rel)
    assert obj["row_labels"] == ["-|3", "1|2", "-|2.1", "1|1.1", "-|1.1.1"]
    assert obj["col_labels"] == ["-|3", "1|2", "-|2.1"]
    assert obj["entries"][0][0] == [[0, 1]]
    assert obj["entries"][0][1] == []
    text = matrix_to_text(rel)
    assert text.splitlines()[0].split() == ["-|3", "1|2", "-|2.1"]
    assert "-|1.1.1  v^2  .    ." in text
    latex = matrix_to_latex(rel)
    assert latex.startswith("\\begin{array}")
    assert "\\cdot" in latex and "\\hline" in latex
    assert "v^{2}" in latex


MP_LABELS = [((), ()), ((1,), ()), ((), (1,)), ((2,), (1,)), ((1, 1), (3,)), ((), (2, 1, 1))]
big_coeffs = st.integers(-(2**70), 2**70).filter(bool)
wide_polys = st.builds(
    LaurentPoly.from_pairs,
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-4, 4) | big_coeffs), max_size=4),
)


@st.composite
def dense_tables(draw):
    """(rows, cols, cells) with empty shapes, negative and huge coefficients,
    and equal cells that are distinct objects (including zeros other than
    ZERO)."""
    rows = draw(st.lists(st.sampled_from(MP_LABELS), max_size=4, unique=True))
    cols = draw(st.lists(st.sampled_from(MP_LABELS), max_size=4, unique=True))
    pool = draw(st.lists(wide_polys, min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool)), min_size=len(rows) * len(cols),
                          max_size=len(rows) * len(cols)))
    cells = [ZERO if k == len(pool) else LaurentPoly(pool[k].val, pool[k].coeffs)
             for k in picks]
    entries = tuple(tuple(cells[r * len(cols):(r + 1) * len(cols)]) for r in range(len(rows)))
    return tuple(rows), tuple(cols), entries


def json_matrices():
    return dense_tables().map(lambda table: from_dense(*table))


@given(json_matrices(), st.integers(0, 2))
@example(from_dense((((), ()),), (((), ()),), ((ONE,),)), 1)
@settings(max_examples=200, deadline=None)
def test_matrix_json_text_matches_json_dumps(m, depth):
    """The direct text equals json.dumps(indent=2) of the documented
    structure, placed ``depth`` levels deep in enclosing objects."""
    parts = []
    append_matrix_json(parts, m, depth)
    text = "".join(parts)
    nested = matrix_to_json_obj(m)
    for _ in range(depth):
        nested = {"m": nested}
    head = "".join('{\n' + "  " * (k + 1) + '"m": ' for k in range(depth))
    tail = "".join("\n" + "  " * k + "}" for k in reversed(range(depth)))
    assert head + text + tail == json.dumps(nested, indent=2)


@st.composite
def label_sharing_triples(draw):
    """Matrices rows x cols, rows x inner and inner x cols, like a
    factorization's D_e, D_inf and D_rel, over labels they share."""
    rows, inner, cols = (
        tuple(draw(st.lists(st.sampled_from(MP_LABELS), max_size=4, unique=True)))
        for _ in range(3)
    )

    def matrix(r, c):
        cells = draw(st.lists(
            st.lists(wide_polys, min_size=len(c), max_size=len(c)),
            min_size=len(r), max_size=len(r),
        ))
        return from_dense(r, c, tuple(map(tuple, cells)))

    return matrix(rows, cols), matrix(rows, inner), matrix(inner, cols)


WIDE_CELL = LaurentPoly(-3, (-(2**65), 0, 2**64 + 1))


@given(label_sharing_triples(), st.integers(0, 2))
@example(
    (
        from_dense(MP_LABELS[:2], MP_LABELS[1:3], ((WIDE_CELL, ZERO), (V, WIDE_CELL))),
        from_dense(MP_LABELS[:2], MP_LABELS[2:4], ((ONE, ZERO), (ZERO, -V))),
        from_dense(MP_LABELS[2:4], MP_LABELS[1:3], ((ZERO, WIDE_CELL), (ONE, ZERO))),
    ),
    2,
)
@settings(max_examples=150, deadline=None)
def test_documents_of_matrices_sharing_labels_match_json_dumps(triple, depth):
    de, dinf, drel = triple
    fields = {
        "e": 2, "charge": [0, 0], "rank": 3,
        "basis_e": de, "basis_inf": dinf, "relative": drel,
        "report": [{"check": "product", "pass": True, "detail": "d"}], "all_pass": True,
    }
    obj = {k: matrix_to_json_obj(v) if isinstance(v, PolyMatrix) else v for k, v in fields.items()}
    assert _render_json(fields) == json.dumps(obj, indent=2) + "\n"
    # the same label map serves each matrix at any depth
    quoted = {}
    for m in triple:
        parts = []
        append_matrix_json(parts, m, depth, quoted)
        want = json.dumps(matrix_to_json_obj(m), indent=2)
        assert "".join(parts) == want.replace("\n", "\n" + "  " * depth)
    assert set(quoted) == {lab for m in triple for lab in m.row_labels + m.col_labels}


@given(dense_tables(), st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_dense_construction_keeps_only_nonzero_cells(table, depth):
    rows, cols, cells = table
    m = from_dense(rows, cols, cells)
    assert dense_entries(m) == cells
    _assert_sparse_rows(m)
    eye = from_dense(cols, cols, tuple(
        tuple(ONE if a == b else ZERO for b in range(len(cols))) for a in range(len(cols))
    ))
    assert m.matmul(eye).row_nonzeros == m.row_nonzeros
    # the JSON text is json.dumps of the dense input table itself
    obj = {
        "row_labels": [format_multipartition(r) for r in rows],
        "col_labels": [format_multipartition(c) for c in cols],
        "entries": [[p.to_pairs() for p in row] for row in cells],
    }
    parts = []
    append_matrix_json(parts, m, depth)
    assert "".join(parts) == json.dumps(obj, indent=2).replace("\n", "\n" + "  " * depth)


# the dense renderers the sparse ones replaced, kept as references: each
# walks every cell of the dense table
def _dense_csv(rows, cols, entries):
    lines = ["," + ",".join(format_multipartition(c) for c in cols)]
    for lab, row in zip(rows, entries):
        lines.append(
            format_multipartition(lab) + "," + ",".join(format_cell(p) for p in row)
        )
    return "\n".join(lines) + "\n"


def _dense_latex(rows, cols, entries):
    lines = [f"\\begin{{array}}{{l|{'c' * len(cols)}}}"]
    head = " & ".join(format_multipartition(c) for c in cols)
    lines.append(f" & {head} \\\\")
    lines.append("\\hline")
    for lab, row in zip(rows, entries):
        cells = " & ".join("\\cdot" if p.is_zero() else _latex_poly(p) for p in row)
        lines.append(f"{format_multipartition(lab)} & {cells} \\\\")
    lines.append("\\end{array}")
    return "\n".join(lines) + "\n"


def _dense_text(rows, cols, entries):
    heads = [""] + [format_multipartition(c) for c in cols]
    body = [
        [format_multipartition(lab)] + ["." if p.is_zero() else str(p) for p in row]
        for lab, row in zip(rows, entries)
    ]
    widths = [
        max(len(r[i]) for r in [heads] + body) for i in range(len(heads))
    ]
    lines = []
    for r in [heads] + body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


@given(dense_tables())
@settings(max_examples=200, deadline=None)
def test_sparse_renderers_match_dense_references(table):
    m = from_dense(*table)
    assert matrix_to_csv(m) == _dense_csv(*table)
    assert matrix_to_latex(m) == _dense_latex(*table)
    assert matrix_to_text(m) == _dense_text(*table)


@pytest.mark.parametrize("render", [
    pytest.param(lambda m: append_matrix_json([], m, 1), id="json"),
    pytest.param(matrix_to_csv, id="csv"),
    pytest.param(matrix_to_latex, id="latex"),
    pytest.param(matrix_to_text, id="text"),
])
def test_matrix_json_formats_each_distinct_cell_once(monkeypatch, render):
    # every format reads a nonzero cell's terms through LaurentPoly.items
    calls = []
    items = LaurentPoly.items
    monkeypatch.setattr(LaurentPoly, "items", lambda p: calls.append(p) or items(p))
    labels = tuple(MP_LABELS[:3])
    cells = (
        (LaurentPoly(1, (1,)), LaurentPoly(0, ()), LaurentPoly(1, (1,))),
        (LaurentPoly(0, ()), LaurentPoly(1, (1,)), LaurentPoly(-2, (2**65, 0, -1))),
        (LaurentPoly(1, (1,)), LaurentPoly(-2, (2**65, 0, -1)), ZERO),
    )
    render(from_dense(labels, labels, cells))
    assert sorted(calls, key=lambda p: p.val) == [LaurentPoly(-2, (2**65, 0, -1)), V]


def test_error_types():
    for exc_type in (NotInBInfinity, NonTermination):
        assert issubclass(exc_type, InvariantViolated)
        assert issubclass(exc_type, RuntimeError)
    assert issubclass(InconsistentSystem, RuntimeError)
