"""Independent routes that cross-check what the commands compute.

No command runs this module, and no other module of the package imports
it; the tests and the doctests do.  Each route recomputes a result of the
runtime another way:

- the Node toolkit (Node, content, residue, node_key, node_less,
  add_node, remove_node, addable_nodes, removable_nodes) states the
  residue rule and the node order on (row, col, comp) triples, where the
  runtime reads node keys and positions off the one scan
  combinatorics.i_nodes; the routes below are built on it;
- the good-node signature rule (signature_blocks and the functions built
  on it) writes the addable and removable i-nodes as one word and cancels
  removable-addable pairs; crystal.generate_component finds the same good
  nodes by a merge pass over combinatorics.i_nodes;
- peeling_sequence reads a vertex's maximal good-node peeling word off
  signatures, one good removable node at a time, where canonical_basis
  reads the words crystal.generate_component records while it generates
  the graph (CrystalGraph.peeling_words); build_A applies it, and
  brute_force_basis solves for the canonical basis coordinate-wise in the
  span of the peeling monomials, reusing no basis vector;
- back_substitution_oracle solves dinf * X = de on the dense tables
  (from_dense, dense_entries), dividing each pivot out with exact_div,
  where factorize.extract_relative strips support terms basis vector by
  basis vector; matrix_to_json_obj builds a matrix's JSON structure from
  the dense table, where factorize.append_matrix_json writes its text from
  the nonzero cells;
- count_N gives the node counts of one box insertion, apply_e and apply_t
  are the lowering and diagonal operators, and check_compatibility
  verifies on concrete vectors that the finite-e operators expand through
  the content operators (e=None); apply_f and apply_f_divided are the
  raising operators, the runtime kernel fock.apply_divided_power with a
  fresh table, and qint and qfactorial the quantum integers the operator
  identities are stated with.

brute_force_basis shares one ingredient with canonical_basis on purpose:
the operator kernel canonical.apply_peelings, which the tests check
against f_i with its exponents counted on each new multipartition.

>>> good_node(((), ()), 2, 0, (0, 0))
Node(row=1, col=1, comp=2)
>>> epsilon(((1,), (1,)), 2, 0, (0, 0))
2
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .canonical import PeelingUnitriangularityViolated, apply_peeling, apply_peelings
from .combinatorics import (
    Charge,
    InvariantViolated,
    Multipartition,
    empty,
    format_multipartition,
    gamma_sequence,
)
from .crystal import generate_component
from .factorize import PolyMatrix
from .fock import FockVector, apply_divided_power
from .laurent import ONE, ZERO, LaurentPoly, bar_symmetric_part

__all__ = [
    "Node",
    "content",
    "residue",
    "node_key",
    "node_less",
    "add_node",
    "remove_node",
    "addable_nodes",
    "removable_nodes",
    "NotInCrystal",
    "InvalidPair",
    "InconsistentSystem",
    "signature_blocks",
    "good_node",
    "good_removable_node",
    "epsilon",
    "apply_good",
    "remove_good",
    "peeling_sequence",
    "build_A",
    "brute_force_basis",
    "DivisionNotExact",
    "qint",
    "qfactorial",
    "exact_div",
    "from_dense",
    "dense_entries",
    "matrix_entry",
    "matrix_to_json_obj",
    "back_substitution_oracle",
    "apply_f",
    "apply_f_divided",
    "NodeCounts",
    "count_N",
    "apply_e",
    "apply_t",
    "compatibility_rhs_f",
    "compatibility_rhs_e",
    "compatibility_rhs_t",
    "check_compatibility",
]


class NotInCrystal(ValueError):
    """A multipartition outside the generated component."""


class InvalidPair(ValueError):
    """count_N called on multipartitions not differing by the named node."""


class InconsistentSystem(RuntimeError):
    """Back substitution left a nonzero residual."""


# -- the Node toolkit: nodes as (row, col, comp) triples ----------------


class Node(NamedTuple):
    row: int
    col: int
    comp: int


def add_node(mp: Multipartition, node: Node) -> Multipartition:
    """Insert one box; the position must be addable."""
    row, col, comp = node
    part = mp[comp - 1]
    if row == len(part) + 1:
        if col != 1:
            raise ValueError(f"{node} is not addable on {mp}")
        new = part + (1,)
    else:
        if not (1 <= row <= len(part)) or col != part[row - 1] + 1:
            raise ValueError(f"{node} is not addable on {mp}")
        if row > 1 and part[row - 2] < col:
            raise ValueError(f"{node} is not addable on {mp}")
        new = part[: row - 1] + (col,) + part[row:]
    return mp[: comp - 1] + (new,) + mp[comp:]


def remove_node(mp: Multipartition, node: Node) -> Multipartition:
    """Delete one box; the position must be removable."""
    row, col, comp = node
    part = mp[comp - 1]
    if not (1 <= row <= len(part)) or col != part[row - 1]:
        raise ValueError(f"{node} is not removable on {mp}")
    if row < len(part) and part[row] >= col:
        raise ValueError(f"{node} is not removable on {mp}")
    if col == 1:
        new = part[: row - 1] + part[row:]
    else:
        new = part[: row - 1] + (col - 1,) + part[row:]
    return mp[: comp - 1] + (new,) + mp[comp:]


def content(node: Node, charge: Charge) -> int:
    return node.col - node.row + charge[node.comp - 1]


def residue(c: int, e: Optional[int]) -> int:
    """Reduce a content mod e; with no modulus the content stands."""
    return c if e is None else c % e


def node_key(node: Node, charge: Charge) -> tuple[int, int]:
    """Sort key for the node order: content first, then component index."""
    return (content(node, charge), node.comp)


def node_less(a: Node, b: Node, charge: Charge) -> bool:
    """Strict node order used in all operator exponent counts.

    >>> node_less(Node(1, 1, 1), Node(1, 1, 2), (0, 0))
    True
    """
    return node_key(a, charge) < node_key(b, charge)


def _match(c: int, e: Optional[int], i: Optional[int]) -> bool:
    """The residue rule: content c has residue i (every c when i is None)."""
    if i is None:
        return True
    if e is None:
        return c == i
    return (c - i) % e == 0


def addable_nodes(
    mp: Multipartition, charge: Charge, e: Optional[int] = None, i: Optional[int] = None
) -> list[Node]:
    """Addable nodes, optionally filtered to residue i, ascending in the node order.

    >>> addable_nodes(((1,), ()), (0, 0), 2, 0)
    [Node(row=1, col=1, comp=2)]
    >>> addable_nodes(((1,), ()), (0, 0), 2, 1)
    [Node(row=2, col=1, comp=1), Node(row=1, col=2, comp=1)]
    """
    out = []
    for ci, part in enumerate(mp, start=1):
        for row in range(1, len(part) + 2):
            here = part[row - 1] if row <= len(part) else 0
            above = part[row - 2] if row >= 2 else None
            if above is not None and above <= here:
                continue
            node = Node(row, here + 1, ci)
            if _match(content(node, charge), e, i):
                out.append(node)
    out.sort(key=lambda nd: node_key(nd, charge))
    return out


def removable_nodes(
    mp: Multipartition, charge: Charge, e: Optional[int] = None, i: Optional[int] = None
) -> list[Node]:
    """Removable nodes, optionally filtered to residue i, ascending in the node order."""
    out = []
    for ci, part in enumerate(mp, start=1):
        for row in range(1, len(part) + 1):
            below = part[row] if row < len(part) else 0
            if part[row - 1] == below:
                continue
            node = Node(row, part[row - 1], ci)
            if _match(content(node, charge), e, i):
                out.append(node)
    out.sort(key=lambda nd: node_key(nd, charge))
    return out


# -- the signature rule and the peeling words it gives -------------------


def signature_blocks(
    mp: Multipartition, e: Optional[int], i: int, charge: Charge
) -> tuple[list[Node], list[Node]]:
    """The surviving (addable block, removable block) of the i-word."""
    word = [(n, True) for n in addable_nodes(mp, charge, e, i)]
    word += [(n, False) for n in removable_nodes(mp, charge, e, i)]
    word.sort(key=lambda t: node_key(t[0], charge))
    stack: list[tuple[Node, bool]] = []
    for item in word:
        if item[1] and stack and not stack[-1][1]:
            stack.pop()
        else:
            stack.append(item)
    cut = sum(1 for t in stack if t[1])
    return [t[0] for t in stack[:cut]], [t[0] for t in stack[cut:]]


def good_node(
    mp: Multipartition, e: Optional[int], i: int, charge: Charge
) -> Optional[Node]:
    """The good addable i-node, or None when the addable block is empty."""
    adds, _ = signature_blocks(mp, e, i, charge)
    return adds[-1] if adds else None


def good_removable_node(
    mp: Multipartition, e: Optional[int], i: int, charge: Charge
) -> Optional[Node]:
    """The good removable i-node, or None when the removable block is empty."""
    _, rems = signature_blocks(mp, e, i, charge)
    return rems[0] if rems else None


def epsilon(mp: Multipartition, e: Optional[int], i: int, charge: Charge) -> int:
    """The size of the surviving removable block."""
    _, rems = signature_blocks(mp, e, i, charge)
    return len(rems)


def apply_good(
    mp: Multipartition, e: Optional[int], i: int, charge: Charge
) -> Optional[Multipartition]:
    """Add the good addable i-node, or None."""
    node = good_node(mp, e, i, charge)
    return None if node is None else add_node(mp, node)


def remove_good(
    mp: Multipartition, e: Optional[int], i: int, charge: Charge
) -> Optional[Multipartition]:
    """Remove the good removable i-node, or None."""
    node = good_removable_node(mp, e, i, charge)
    return None if node is None else remove_node(mp, node)


def peeling_sequence(
    mp: Multipartition, e: Optional[int], charge: Charge
) -> tuple[tuple[int, int], ...]:
    """The maximal good-node peeling word for a crystal vertex.

    Entries are (residue, multiplicity) pairs, first entry peeling mp
    itself.  Raises NotInCrystal when peeling dead-ends before the empty
    multipartition, which happens exactly off the component.

    This is the signature route, kept as the cross-check of
    CrystalGraph.peeling_words (which canonical_basis uses): every step
    recomputes the good removable node of each residue that a removable
    node of the current multipartition carries.
    """
    seq: list[tuple[int, int]] = []
    cur = mp
    vac = empty(len(charge))
    while cur != vac:
        best: Optional[tuple[tuple[int, int], int]] = None
        present = {residue(content(n, charge), e) for n in removable_nodes(cur, charge)}
        for i in present:
            node = good_removable_node(cur, e, i, charge)
            if node is not None:
                key = node_key(node, charge)
                if best is None or key > best[0]:
                    best = (key, i)
        if best is None:
            raise NotInCrystal(f"{format_multipartition(mp)} peels to a dead end")
        i = best[1]
        u = epsilon(cur, e, i, charge)
        seq.append((i, u))
        for _ in range(u):
            nxt = remove_good(cur, e, i, charge)
            if nxt is None:
                raise InvariantViolated(
                    f"{format_multipartition(cur)} has no good {i}-node left "
                    f"of the {u} that epsilon counted"
                )
            cur = nxt
    return tuple(seq)


def build_A(mp: Multipartition, e: Optional[int], charge: Charge) -> FockVector:
    """The bar-invariant peeling monomial vector for one crystal vertex.

    The coefficient at mp is checked to be exactly 1.
    """
    x = apply_peeling(peeling_sequence(mp, e, charge), e, charge)
    if x.coeff(mp) != ONE:
        raise PeelingUnitriangularityViolated(
            f"coefficient of {format_multipartition(mp)} is {x.coeff(mp)}"
        )
    return x


def brute_force_basis(
    e: Optional[int], charge: Charge, n: int
) -> dict[Multipartition, FockVector]:
    """Independent solver for the same basis, for cross-checking.

    Works coordinate-wise in the span of the peeling monomial vectors: for
    each vertex, start from the unit coordinate vector and repeatedly
    re-expand the full combination in the standard basis, cancelling the
    bar-symmetric part of the greatest off-label coefficient by adjusting
    the coordinate at that label.  No intermediate basis vectors are
    reused, so the only shared ingredients with canonical_basis are the
    monomial vectors themselves.
    """
    graph = generate_component(e, charge, n)
    verts = list(graph.vertices(n))
    seqs = [peeling_sequence(lam, e, charge) for lam in verts]
    amat = dict(zip(verts, apply_peelings(seqs, e, charge)))
    out: dict[Multipartition, FockVector] = {}
    for lam in verts:
        coords: dict[Multipartition, LaurentPoly] = {lam: ONE}
        rounds = 0
        while True:
            rounds += 1
            if rounds > 8 * len(verts) + 64:
                raise InvariantViolated("coordinate adjustment failed to terminate")
            y = FockVector(charge, {})
            for kap, c in coords.items():
                y = y + amat[kap].scale(c)
            offender = None
            for mp, c in y.entries.items():
                if mp == lam:
                    continue
                if not bar_symmetric_part(c).is_zero():
                    if offender is None or gamma_sequence(mp, charge) > gamma_sequence(
                        offender, charge
                    ):
                        offender = mp
            if offender is None:
                if y.coeff(lam) != ONE:
                    raise InvariantViolated(
                        f"coefficient of {format_multipartition(lam)} at its own "
                        f"label is {y.coeff(lam)}, not 1"
                    )
                out[lam] = y
                break
            if offender not in amat:
                raise InvariantViolated(
                    f"offender {format_multipartition(offender)} is not a vertex"
                )
            m = bar_symmetric_part(y.coeff(offender))
            coords[offender] = coords.get(offender, LaurentPoly()) - m
    return out


# -- quantum integers and exact division ---------------------------------


class DivisionNotExact(ArithmeticError):
    """Raised when a quotient does not exist over Z[v, 1/v]."""


def qint(n: int) -> LaurentPoly:
    """The balanced quantum integer [n] = v^(n-1) + v^(n-3) + ... + v^(1-n).

    >>> str(qint(1)), str(qint(2)), str(qint(3))
    ('1', 'v^-1 + v', 'v^-2 + 1 + v^2')
    """
    if n <= 0:
        raise ValueError(f"quantum integer needs n >= 1, got {n}")
    coeffs = [0] * (2 * n - 1)
    coeffs[0::2] = [1] * n
    return LaurentPoly(1 - n, tuple(coeffs))


def qfactorial(n: int) -> LaurentPoly:
    """The quantum factorial [n]! = [1][2]...[n], with [0]! = 1."""
    if n < 0:
        raise ValueError(f"quantum factorial needs n >= 0, got {n}")
    out = ONE
    for k in range(2, n + 1):
        out = out * qint(k)
    return out


def exact_div(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """The exact quotient p / q, raising DivisionNotExact when none exists.

    >>> str(exact_div(qint(2) * qint(3), qint(3)))
    'v^-1 + v'
    >>> exact_div(ONE + LaurentPoly(1, (1,)), qint(2))
    Traceback (most recent call last):
        ...
    fockdec.reference.DivisionNotExact: (1 + v) / (v^-1 + v)
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    bc = q.coeffs
    n = max(len(p.coeffs) - len(bc) + 1, 0)
    rem = list(p.coeffs)
    quo = [0] * n
    for k in range(n):
        quo[k], r = divmod(rem[k], bc[0])
        if r:
            break
        for j in range(1, len(bc)):
            rem[k + j] -= quo[k] * bc[j]
    else:
        if not any(rem[n:]):
            return LaurentPoly.from_terms(dict(enumerate(quo, p.val - q.val)))
    raise DivisionNotExact(f"({p}) / ({q})")


# -- the dense view of a matrix and back substitution on it --------------


def from_dense(row_labels, col_labels, entries) -> PolyMatrix:
    """The matrix of a dense row-major table; its zero cells are dropped."""
    if len(entries) != len(row_labels):
        raise ValueError("row count mismatch")
    if any(len(row) != len(col_labels) for row in entries):
        raise ValueError("column count mismatch")
    return PolyMatrix(
        row_labels,
        col_labels,
        tuple(tuple((j, p) for j, p in enumerate(row) if p.coeffs) for row in entries),
    )


def dense_entries(m: PolyMatrix) -> tuple[tuple[LaurentPoly, ...], ...]:
    """The dense row-major table of m, with ZERO in every empty cell."""
    out = []
    for cells in m.row_nonzeros:
        row = [ZERO] * len(m.col_labels)
        for j, p in cells:
            row[j] = p
        out.append(tuple(row))
    return tuple(out)


def matrix_entry(m: PolyMatrix, row: Multipartition, col: Multipartition) -> LaurentPoly:
    """The entry of m at a row and a column label; ValueError for any other label."""
    cells = m.row_nonzeros[m.row_labels.index(row)]
    j = m.col_labels.index(col)
    return next((p for k, p in cells if k == j), ZERO)


def matrix_to_json_obj(m: PolyMatrix) -> dict:
    """The documented JSON structure of m, built from its dense table.

    >>> import json
    >>> from fockdec.factorize import append_matrix_json
    >>> m = from_dense((((1,),),), (((1,),),), ((ONE,),))
    >>> parts = []
    >>> append_matrix_json(parts, m)
    >>> "".join(parts) == json.dumps(matrix_to_json_obj(m), indent=2)
    True
    """
    return {
        "row_labels": [format_multipartition(r) for r in m.row_labels],
        "col_labels": [format_multipartition(c) for c in m.col_labels],
        "entries": [[p.to_pairs() for p in row] for row in dense_entries(m)],
    }



def back_substitution_oracle(de: PolyMatrix, dinf: PolyMatrix) -> PolyMatrix:
    """Solve dinf * X = de by back substitution on the raw matrices.

    Independent of the basis machinery: the elimination order is read off
    the support structure of dinf alone (a column is eliminated once its
    pivot row is clear of every other remaining column), and each pivot is
    divided out with exact_div.  Raises InconsistentSystem when a column of
    de is not in the span.
    """
    if de.row_labels != dinf.row_labels:
        raise ValueError("row labels do not match")
    table, rhs = dense_entries(dinf), dense_entries(de)
    ncols = len(dinf.col_labels)
    pivot_row = [dinf.row_labels.index(c) for c in dinf.col_labels]
    remaining = set(range(ncols))
    order: list[int] = []
    while remaining:
        free = [
            j
            for j in remaining
            if all(
                table[pivot_row[j]][k].is_zero()
                for k in remaining
                if k != j
            )
        ]
        if not free:
            raise ValueError("matrix is not unitriangular in any column order")
        free.sort()
        order.append(free[0])
        remaining.discard(free[0])
    out_cols = []
    for cj in range(len(de.col_labels)):
        resid = [row[cj] for row in rhs]
        x = [ZERO] * ncols
        for j in order:
            pr = pivot_row[j]
            if resid[pr].is_zero():
                continue
            xj = exact_div(resid[pr], table[pr][j])
            x[j] = xj
            for i in range(len(resid)):
                if not table[i][j].is_zero():
                    resid[i] = resid[i] - table[i][j] * xj
        if any(not r.is_zero() for r in resid):
            raise InconsistentSystem(format_multipartition(de.col_labels[cj]))
        out_cols.append(x)
    entries = tuple(
        tuple(out_cols[cj][j] for cj in range(len(de.col_labels)))
        for j in range(ncols)
    )
    return from_dense(dinf.col_labels, de.col_labels, entries)


# -- node counts and the raising, lowering and diagonal operators --------


def apply_f(x: FockVector, e: Optional[int], i: int) -> FockVector:
    """The raising operator f_i: the runtime kernel at u = 1, with a fresh table."""
    return apply_divided_power(x, e, i, 1, {})


def apply_f_divided(x: FockVector, e: Optional[int], i: int, u: int) -> FockVector:
    """The divided power f_i^(u): the runtime kernel with a fresh table."""
    return apply_divided_power(x, e, i, u, {})



class NodeCounts:
    """The three signed node counts attached to one box insertion.

    n_above: addable i-nodes of the smaller shape strictly above the box,
    minus removable i-nodes of the larger shape strictly above it (the
    f_i exponent).  n_below: the same with "strictly below" (negated, this
    is the e_i exponent).  n_total: addable minus removable i-nodes of the
    smaller shape.
    """

    __slots__ = ("n_above", "n_below", "n_total")

    def __init__(self, n_above: int, n_below: int, n_total: int):
        self.n_above = n_above
        self.n_below = n_below
        self.n_total = n_total

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NodeCounts)
            and (self.n_above, self.n_below, self.n_total)
            == (other.n_above, other.n_below, other.n_total)
        )

    def __repr__(self) -> str:
        return f"NodeCounts(n_above={self.n_above}, n_below={self.n_below}, n_total={self.n_total})"


def count_N(
    lam: Multipartition,
    mu: Multipartition,
    gamma: Node,
    e: Optional[int],
    i: int,
    charge: Charge,
) -> NodeCounts:
    """Node counts for the pair mu = lam + gamma, where gamma has residue i."""
    try:
        if add_node(lam, gamma) != mu:
            raise InvalidPair(f"{mu} is not {lam} plus {gamma}")
    except ValueError as err:
        raise InvalidPair(str(err)) from None
    if not _match(content(gamma, charge), e, i):
        raise InvalidPair(f"{gamma} does not have residue {i}")
    key = node_key(gamma, charge)
    add_keys = [node_key(n, charge) for n in addable_nodes(lam, charge, e, i)]
    rem_keys = [node_key(n, charge) for n in removable_nodes(mu, charge, e, i)]
    above = sum(1 for k in add_keys if k > key) - sum(1 for k in rem_keys if k > key)
    below = sum(1 for k in add_keys if k < key) - sum(1 for k in rem_keys if k < key)
    total = len(add_keys) - len(removable_nodes(lam, charge, e, i))
    return NodeCounts(above, below, total)


def apply_e(x: FockVector, e: Optional[int], i: int) -> FockVector:
    """The lowering operator for residue i."""
    charge = x.charge
    out: dict[Multipartition, LaurentPoly] = {}
    for mp, c in x.entries.items():
        rems = removable_nodes(mp, charge, e, i)
        keys = [node_key(n, charge) for n in rems]
        for pos, gamma in enumerate(rems):
            mu = remove_node(mp, gamma)
            below_add = sum(
                1
                for n in addable_nodes(mu, charge, e, i)
                if node_key(n, charge) < keys[pos]
            )
            below_rem = pos
            term = c.shift(-(below_add - below_rem))
            got = out.get(mu)
            out[mu] = term if got is None else got + term
    return FockVector(charge, out)


def apply_t(x: FockVector, e: Optional[int], i: int) -> FockVector:
    """The diagonal operator: v to the net addable-minus-removable count."""
    charge = x.charge
    out = {}
    for mp, c in x.entries.items():
        net = len(addable_nodes(mp, charge, e, i)) - len(removable_nodes(mp, charge, e, i))
        out[mp] = c.shift(net)
    return FockVector(charge, out)


# -- compatibility between the finite-e and content operator families ----


def _content_bounds(mp: Multipartition, charge: Charge) -> tuple[int, int]:
    """Inclusive content range containing every addable/removable node."""
    lo = min(s - len(part) for part, s in zip(mp, charge))
    hi = max(s + (part[0] if part else 0) for part, s in zip(mp, charge))
    return lo, hi


def _net(mp: Multipartition, charge: Charge, j: int) -> int:
    return len(addable_nodes(mp, charge, None, j)) - len(
        removable_nodes(mp, charge, None, j)
    )


def _tail_up(mp: Multipartition, charge: Charge, j: int, e: int) -> int:
    """Sum of net counts at contents j+e, j+2e, ... (finitely many nonzero)."""
    _, hi = _content_bounds(mp, charge)
    total = 0
    jj = j + e
    while jj <= hi:
        total += _net(mp, charge, jj)
        jj += e
    return total


def _tail_down(mp: Multipartition, charge: Charge, j: int, e: int) -> int:
    lo, _ = _content_bounds(mp, charge)
    total = 0
    jj = j - e
    while jj >= lo:
        total += _net(mp, charge, jj)
        jj -= e
    return total


def _window(x: FockVector, i: int, e: int) -> list[int]:
    """Contents congruent to i mod e that can carry a node for supp(x)."""
    if x.is_zero():
        return []
    los, his = zip(*(_content_bounds(mp, x.charge) for mp in x.entries))
    lo, hi = min(los), max(his)
    start = lo + (i - lo) % e
    return list(range(start, hi + 1, e))


def compatibility_rhs_f(x: FockVector, e: int, i: int) -> FockVector:
    """f_i rebuilt from content operators: sum over contents j = i mod e of
    the content raising operator followed by the diagonal tail above j."""
    out = FockVector(x.charge, {})
    for j in _window(x, i, e):
        y = apply_f(x, None, j)
        shifted = {
            mp: c.shift(_tail_up(mp, x.charge, j, e)) for mp, c in y.entries.items()
        }
        out = out + FockVector(x.charge, shifted)
    return out


def compatibility_rhs_e(x: FockVector, e: int, i: int) -> FockVector:
    """e_i rebuilt from content operators, with inverse diagonal tails below."""
    out = FockVector(x.charge, {})
    for j in _window(x, i, e):
        y = apply_e(x, None, j)
        shifted = {
            mp: c.shift(-_tail_down(mp, x.charge, j, e)) for mp, c in y.entries.items()
        }
        out = out + FockVector(x.charge, shifted)
    return out


def compatibility_rhs_t(x: FockVector, e: int, i: int) -> FockVector:
    """t_i rebuilt as the product of all content diagonal operators j = i mod e."""
    out = {}
    for mp, c in x.entries.items():
        lo, hi = _content_bounds(mp, x.charge)
        total = sum(_net(mp, x.charge, j) for j in range(lo, hi + 1) if (j - i) % e == 0)
        out[mp] = c.shift(total)
    return FockVector(x.charge, out)


def check_compatibility(x: FockVector, e: int, i: int) -> bool:
    """Verify the three operator expansions on the concrete vector x."""
    return (
        apply_f(x, e, i) == compatibility_rhs_f(x, e, i)
        and apply_e(x, e, i) == compatibility_rhs_e(x, e, i)
        and apply_t(x, e, i) == compatibility_rhs_t(x, e, i)
    )
