"""Bar-invariant canonical bases of the charged Fock space.

For each crystal vertex of the requested rank, a monomial in divided powers
of the raising operators is read off by maximal good-node peeling: starting
from the vertex, repeatedly pick the residue whose good removable node is
greatest in the node order, remove good nodes epsilon many times, and
recurse until the empty multipartition.  canonical_basis reads these words
off the reverse edges of the crystal graph it already holds
(CrystalGraph.peeling_words); peeling_sequence computes the same word from
good-node signatures and is the independent route of build_A and
brute_force_basis.  Applying the reversed monomial to the vacuum yields a
bar-invariant vector supported at the vertex.  A Gaussian pass then
subtracts bar-symmetric multiples of other basis vectors until every
off-diagonal coefficient lies in v*Z[v]; the result is the unique
bar-invariant basis vector congruent to its vertex modulo v.

canonical_basis enumerates the rank layer once, in descending gamma order,
and gives each multipartition its position in it.  The Gaussian pass
clears the offender with the least position (the gamma-greatest) first,
and the layer and positions stay on the result for the matrix layer.

The monomial usually has unit coefficient at its vertex and support below
it, but not always: from rank 9 on (first at e=2, charge (0,0), vertex
(3.1|4.1)) a monomial can contain a gamma-greater vertex with bar-symmetric
coefficient, and then its own coefficient picks up the matching excess.
The Gaussian pass handles this by building the basis vector of such an
offender on demand, recursively; subtracting it removes the excess as well,
and the diagonal coefficient is checked to be exactly 1 only after
reduction.  A dependency cycle between vertices would make the system
unsolvable by this route and raises OrderViolation; none has been
observed.  Every other internal check (peeling runs out of good nodes,
elimination does not terminate or leaves an off-label coefficient outside
v*Z[v], brute_force_basis fails to settle a vertex) raises
InvariantViolated, so it holds under python -O as well.

The construction never uses dominance of the charge, so it runs at any
charge directly.  All peeling words of a rank are applied in one pass
(apply_peelings) that shares the partial products of common prefixes and
one transition table of the operator kernel, so the moves of f_i^(u) from
a multipartition are computed once per call however many words reach it.
Each elimination step is one FockVector.sub_scaled.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .combinatorics import (
    Charge,
    Multipartition,
    content,
    empty,
    enumerate_multipartitions,
    format_multipartition,
    gamma_sequence,
    node_key,
    removable_nodes,
    residue,
)
from .crystal import (
    NotInCrystal,
    epsilon,
    generate_component,
    good_removable_node,
    remove_good,
)
from .fock import FockVector, _apply_f_divided, basis_vector
from .laurent import ONE, LaurentPoly, bar_symmetric_part

__all__ = [
    "PeelingUnitriangularityViolated",
    "MissingPredecessor",
    "OrderViolation",
    "InvariantViolated",
    "CanonicalBasisSet",
    "peeling_sequence",
    "build_A",
    "apply_peeling",
    "apply_peelings",
    "canonical_basis",
    "brute_force_basis",
]


class PeelingUnitriangularityViolated(RuntimeError):
    """A reduced vector failed to have unit coefficient at its label."""


class MissingPredecessor(RuntimeError):
    """Elimination needs a basis vector at a label that is not a vertex."""


class OrderViolation(RuntimeError):
    """Basis vectors depend on each other in a cycle."""


class InvariantViolated(RuntimeError):
    """Peeling or elimination reached a state that its invariants rule out."""


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


def apply_peeling(
    seq: tuple[tuple[int, int], ...], e: Optional[int], charge: Charge
) -> FockVector:
    """Apply the reversed peeling word to the vacuum of the given charge."""
    return apply_peelings([seq], e, charge)[0]


def apply_peelings(
    seqs: list[tuple[tuple[int, int], ...]], e: Optional[int], charge: Charge
) -> list[FockVector]:
    """apply_peeling for each word, in input order, sharing common prefixes.

    Words are taken in the order of their reversed forms (the order their
    divided powers are applied in), so words with a common leading run of
    steps are adjacent.  A stack holds the partial product after each
    step of the current word; the next word pops back to its common
    prefix with the current one and applies only the rest.  One transition
    table (see fockdec.fock) serves every step of the call and is dropped
    with it.
    """
    words = [tuple(reversed(seq)) for seq in seqs]
    table: dict = {}
    out: list[Optional[FockVector]] = [None] * len(words)
    stack = [basis_vector(empty(len(charge)), charge)]
    prev: tuple[tuple[int, int], ...] = ()
    for k in sorted(range(len(words)), key=words.__getitem__):
        word = words[k]
        common = 0
        while common < min(len(prev), len(word)) and prev[common] == word[common]:
            common += 1
        del stack[common + 1 :]
        for i, u in word[common:]:
            stack.append(_apply_f_divided(stack[-1], e, i, u, table))
        out[k] = stack[-1]
        prev = word
    return out


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


class CanonicalBasisSet(NamedTuple):
    """All canonical basis vectors of one rank, with their provenance.

    ``labels`` is in descending gamma order (the matrix column order);
    ``vectors``/``avectors``/``peelings``/``corrections`` are keyed by
    label.  ``corrections[lam]`` holds the bar-symmetric coefficients m
    with A(lam) = G(lam) + sum m[mu] G(mu).  The labels are the rank-n
    crystal vertices.  ``layer`` is every rank-n multipartition in
    descending gamma order (the matrix row order) and ``position`` maps
    each to its index there.
    """

    e: Optional[int]
    charge: Charge
    rank: int
    labels: tuple[Multipartition, ...]
    vectors: dict[Multipartition, FockVector]
    avectors: dict[Multipartition, FockVector]
    peelings: dict[Multipartition, tuple[tuple[int, int], ...]]
    corrections: dict[Multipartition, dict[Multipartition, LaurentPoly]]
    layer: tuple[Multipartition, ...]
    position: dict[Multipartition, int]


def _reduce(
    x: FockVector,
    label: Multipartition,
    position: dict[Multipartition, int],
    resolve,
) -> tuple[FockVector, dict[Multipartition, LaurentPoly]]:
    """Subtract resolved basis vectors until off-label coefficients sit in v*Z[v].

    Offenders are cleared greatest-gamma first, i.e. least ``position``
    in the rank layer; ``resolve(mp)`` must return the finished basis
    vector at mp, building it first if necessary.  An offender
    gamma-greater than the label is legitimate: the peeling monomials are
    not always triangular, and subtracting the offender's basis vector
    also removes the excess it contributed on the label.
    """
    corrections: dict[Multipartition, LaurentPoly] = {}
    guard = 0
    limit = 4 * len(x.entries) + 64
    while True:
        offenders = [
            mp for mp, c in x.entries.items() if mp != label and not c.in_v_ztimes()
        ]
        if not offenders:
            return x, corrections
        offender = min(offenders, key=position.__getitem__)
        m = bar_symmetric_part(x.coeff(offender))
        if m.is_zero() or not m.is_bar_symmetric():
            raise InvariantViolated(
                f"bar-symmetric part {m} of the coefficient "
                f"{x.coeff(offender)} of {format_multipartition(offender)}"
            )
        g = resolve(offender)
        corrections[offender] = corrections.get(offender, LaurentPoly()) + m
        x = x.sub_scaled(g, m)
        guard += 1
        if guard > limit:
            raise InvariantViolated(
                f"elimination for {format_multipartition(label)} failed to "
                f"terminate within {limit} steps"
            )


def canonical_basis(e: Optional[int], charge: Charge, n: int) -> CanonicalBasisSet:
    """The canonical basis vectors labeled by rank-n crystal vertices.

    Peeling words are read off the crystal graph generated here.
    Vertices are processed in ascending gamma order; when a peeling
    monomial carries a gamma-greater vertex, that vertex's basis vector is
    built first, recursively.
    """
    graph = generate_component(e, charge, n)
    layer = tuple(enumerate_multipartitions(len(charge), n, charge))
    position = {mp: k for k, mp in enumerate(layer)}
    verts_desc = list(graph.vertices(n))
    vert_set = set(verts_desc)
    words = graph.peeling_words
    peelings = {lam: words[lam] for lam in verts_desc}
    avectors = dict(zip(peelings, apply_peelings(list(peelings.values()), e, charge)))
    table: dict[Multipartition, FockVector] = {}
    corrections: dict[Multipartition, dict[Multipartition, LaurentPoly]] = {}
    building: list[Multipartition] = []

    def resolve(mp: Multipartition) -> FockVector:
        if mp not in vert_set:
            raise MissingPredecessor(
                f"no crystal vertex at {format_multipartition(mp)}"
            )
        return build(mp)

    def build(lam: Multipartition) -> FockVector:
        if lam in table:
            return table[lam]
        if lam in building:
            chain = " <- ".join(
                format_multipartition(m) for m in building + [lam]
            )
            raise OrderViolation(f"basis vectors depend on each other: {chain}")
        building.append(lam)
        try:
            g, corr = _reduce(avectors[lam], lam, position, resolve)
            _check_reduced(g, lam)
            corrections[lam] = corr
            table[lam] = g
        finally:
            building.pop()
        return g

    for lam in reversed(verts_desc):
        build(lam)
    return CanonicalBasisSet(
        e=e,
        charge=charge,
        rank=n,
        labels=tuple(verts_desc),
        vectors=table,
        avectors=avectors,
        peelings=peelings,
        corrections=corrections,
        layer=layer,
        position=position,
    )


def _check_reduced(g: FockVector, label: Multipartition) -> None:
    if g.coeff(label) != ONE:
        raise PeelingUnitriangularityViolated(
            f"coefficient of {format_multipartition(label)} is {g.coeff(label)} "
            "after reduction"
        )
    for mp, c in g.entries.items():
        if mp != label and not c.in_v_ztimes():
            raise InvariantViolated(
                f"coefficient of {format_multipartition(mp)} is {c} after reducing "
                f"{format_multipartition(label)}, not in v*Z[v]"
            )


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
