"""Bar-invariant canonical bases of the charged Fock space.

For each crystal vertex of the requested rank, a monomial in divided powers
of the raising operators is read off by maximal good-node peeling: starting
from the vertex, repeatedly pick the residue whose good removable node is
greatest in the node order, remove good nodes epsilon many times, and
recurse until the empty multipartition.  canonical_basis takes these
words from the crystal graph it generates, which records them while it
generates the layers (CrystalGraph.peeling_words).  fockdec.reference
holds the independent routes: peeling_sequence computes the same words
from good-node signatures, and brute_force_basis solves for the same
basis without reusing basis vectors.  Applying the reversed monomial to
the vacuum yields a bar-invariant vector supported at the vertex.  A
Gaussian pass then subtracts bar-symmetric multiples of other basis
vectors until every off-diagonal coefficient lies in v*Z[v]; the result
is the unique bar-invariant basis vector congruent to its vertex modulo v.

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
observed.  Every other internal check (elimination does not terminate or
leaves an off-label coefficient outside v*Z[v]) raises InvariantViolated,
so it holds under python -O as well.

The construction never uses dominance of the charge, so it runs at any
charge directly.  All peeling words of a rank are applied in one pass,
apply_peelings.  It keeps the vector of every word suffix it meets, so a
suffix that several words share is applied once.  It also keeps one
transition table of the operator kernel, so the moves of f_i^(u) from a
multipartition are computed once per call however many words reach it.
Each elimination step is one FockVector.sub_scaled.  The driver is one
module-level recursive function, _build, that takes all its state as
arguments, so it holds no reference cycle and each basis is freed by
reference counting when its command ends.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .combinatorics import (
    Charge,
    InvariantViolated,
    Multipartition,
    empty,
    enumerate_multipartitions,
    format_multipartition,
)
from .crystal import generate_component
from .fock import FockVector, apply_divided_power, basis_vector
from .laurent import ONE, ZERO, LaurentPoly, bar_symmetric_part

__all__ = [
    "PeelingUnitriangularityViolated",
    "MissingPredecessor",
    "OrderViolation",
    "CanonicalBasisSet",
    "apply_peeling",
    "apply_peelings",
    "canonical_basis",
]


class PeelingUnitriangularityViolated(InvariantViolated):
    """A reduced vector failed to have unit coefficient at its label."""


class MissingPredecessor(InvariantViolated):
    """Elimination needs a basis vector at a label that is not a vertex."""


class OrderViolation(InvariantViolated):
    """Basis vectors depend on each other in a cycle."""


def apply_peeling(
    seq: tuple[tuple[int, int], ...], e: Optional[int], charge: Charge
) -> FockVector:
    """Apply the reversed peeling word to the vacuum of the given charge.

    No command calls it: canonical_basis applies all words of a rank at
    once.  fockdec.reference.build_A and the benchmark's tracer use it.
    """
    return apply_peelings([seq], e, charge)[0]


def apply_peelings(
    seqs: list[tuple[tuple[int, int], ...]], e: Optional[int], charge: Charge
) -> list[FockVector]:
    """apply_peeling for each word, in input order, sharing common suffixes.

    A word lists its steps last-applied first, so its vector is its first
    step applied to the vector of the rest: A(w) = f_i^(u) A(w[1:]).  The
    vector of every suffix met is kept, keyed by the suffix, with the
    vacuum at (); each word is walked back to its longest suffix already
    there and extended one step at a time.  So each distinct nonempty
    suffix costs one apply_divided_power call; the crystal's words share
    many, since each is a step followed by the word of a lower vertex.
    One transition table (see fockdec.fock) serves every step of the call
    and is dropped with it.
    """
    vectors = {(): basis_vector(empty(len(charge)), charge)}
    table: dict = {}
    for seq in seqs:
        k = 0
        while seq[k:] not in vectors:
            k += 1
        for j in reversed(range(k)):
            i, u = seq[j]
            vectors[seq[j:]] = apply_divided_power(vectors[seq[j + 1 :]], e, i, u, table)
    return [vectors[seq] for seq in seqs]


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


def _build(
    lam: Multipartition,
    avectors: dict[Multipartition, FockVector],
    position: dict[Multipartition, int],
    vectors: dict[Multipartition, FockVector],
    corrections: dict[Multipartition, dict[Multipartition, LaurentPoly]],
    building: list[Multipartition],
) -> FockVector:
    """The basis vector at lam, built and stored in vectors if not there yet.

    Reduces lam's monomial avectors[lam] by subtracting basis vectors until
    every off-label coefficient sits in v*Z[v], clearing offenders
    greatest-gamma first, i.e. least ``position`` in the rank layer, and
    records the coefficients used in corrections[lam].  An offender
    gamma-greater than lam is legitimate: the peeling monomials are not
    always triangular, and subtracting the offender's basis vector, built
    first by recursion, also removes the excess it contributed on lam.
    ``building`` holds the labels whose reduction is under way; an
    offender among them is a dependency cycle (OrderViolation), and an
    offender without a monomial is no vertex (MissingPredecessor).
    """
    if lam in vectors:
        return vectors[lam]
    if lam not in avectors:
        raise MissingPredecessor(f"no crystal vertex at {format_multipartition(lam)}")
    if lam in building:
        chain = " <- ".join(format_multipartition(m) for m in building + [lam])
        raise OrderViolation(f"basis vectors depend on each other: {chain}")
    building.append(lam)
    x = avectors[lam]
    corr: dict[Multipartition, LaurentPoly] = {}
    guard = 0
    limit = 4 * len(x.entries) + 64
    while True:
        offenders = [
            mp for mp, c in x.entries.items() if mp != lam and not c.in_v_ztimes()
        ]
        if not offenders:
            break
        offender = min(offenders, key=position.__getitem__)
        m = bar_symmetric_part(x.coeff(offender))
        if m.is_zero() or not m.is_bar_symmetric():
            raise InvariantViolated(
                f"bar-symmetric part {m} of the coefficient "
                f"{x.coeff(offender)} of {format_multipartition(offender)}"
            )
        g = _build(offender, avectors, position, vectors, corrections, building)
        corr[offender] = corr.get(offender, ZERO) + m
        x = x.sub_scaled(g, m)
        guard += 1
        if guard > limit:
            raise InvariantViolated(
                f"elimination for {format_multipartition(lam)} failed to "
                f"terminate within {limit} steps"
            )
    building.pop()
    _check_reduced(x, lam)
    corrections[lam] = corr
    vectors[lam] = x
    return x


def canonical_basis(e: Optional[int], charge: Charge, n: int) -> CanonicalBasisSet:
    """The canonical basis vectors labeled by rank-n crystal vertices.

    Peeling words are the ones the crystal graph generated here recorded.
    Vertices are processed in ascending gamma order by _build; when a
    peeling monomial carries a gamma-greater vertex, _build builds that
    vertex's basis vector first, recursively.
    """
    graph = generate_component(e, charge, n)
    layer = tuple(enumerate_multipartitions(n, charge))
    position = {mp: k for k, mp in enumerate(layer)}
    verts_desc = list(graph.vertices(n))
    words = graph.peeling_words
    peelings = {lam: words[lam] for lam in verts_desc}
    avectors = dict(zip(peelings, apply_peelings(list(peelings.values()), e, charge)))
    vectors: dict[Multipartition, FockVector] = {}
    corrections: dict[Multipartition, dict[Multipartition, LaurentPoly]] = {}
    building: list[Multipartition] = []
    for lam in reversed(verts_desc):
        _build(lam, avectors, position, vectors, corrections, building)
    return CanonicalBasisSet(
        e=e,
        charge=charge,
        rank=n,
        labels=tuple(verts_desc),
        vectors=vectors,
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


