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
with its keys.  The Gaussian pass clears the gamma-greatest offender
first, and the layer and each multipartition's position in it stay on
the result for the matrix layer.

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
charge directly.  Inside it each multipartition is its bead mask, the
gamma key of the layer (combinatorics.bead_layout), decoded once at the
end.  All peeling words of a rank are applied in one pass, _peel, which
applies a suffix that several words share once and keeps one transition
table of the mask kernel for the call.  The driver is one module-level
recursive function, _build, that reduces a private dict per vertex in
place and takes all its state as arguments, so it holds no reference
cycle and each basis is freed by reference counting when its command ends.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .combinatorics import (
    Charge,
    InvariantViolated,
    Multipartition,
    bead_layout,
    enumerate_multipartitions,
    format_multipartition,
    gamma_keys,
    layer_keys,
)
from .crystal import generate_component
from .fock import FockVector, apply_divided_power, subtract_scaled
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

    The words run through _peel at their greatest rank, and each vector is
    decoded through its own rank's layer.  fockdec.reference calls it.
    """
    ranks = [sum(u for _, u in seq) for seq in seqs]
    n = max(ranks, default=0)
    label: dict[int, Multipartition] = {}
    for k in set(ranks):
        keys = gamma_keys(enumerate_multipartitions(k, charge), charge, n)
        label.update(zip(keys.values(), keys))
    return [_decode(x, label, charge) for x in _peel(seqs, e, charge, n)]


def _peel(
    seqs: list[tuple[tuple[int, int], ...]], e: Optional[int], charge: Charge, n: int
) -> list[dict[int, LaurentPoly]]:
    """The vector of each word, keyed by bead masks of the rank-n layout.

    A word lists its steps last-applied first, so its vector is its first
    step applied to the vector of the rest: A(w) = f_i^(u) A(w[1:]).  The
    vector of every suffix met is kept, keyed by the suffix, with the
    vacuum at (); each word is walked back to its longest suffix already
    there and extended one step at a time.  So each distinct nonempty
    suffix costs one apply_divided_power call; the crystal's words share
    many, since each is a step followed by the word of a lower vertex.
    One transition table (see fockdec.fock) serves every step of the call
    and is dropped with it.  Words of rank at most n only.
    """
    vacuum, masks = bead_layout(charge, n, e)
    lv = len(charge)
    vectors: dict[tuple, dict[int, LaurentPoly]] = {(): {vacuum: ONE}}
    table: dict = {}
    for seq in seqs:
        k = 0
        while seq[k:] not in vectors:
            k += 1
        for j in reversed(range(k)):
            i, u = seq[j]
            vectors[seq[j:]] = apply_divided_power(vectors[seq[j + 1 :]], i, u, lv, masks, table)
    return [vectors[seq] for seq in seqs]


def _decode(x: dict[int, LaurentPoly], label: dict[int, Multipartition], charge: Charge) -> FockVector:
    return FockVector._of(charge, {label[m]: c for m, c in x.items()})


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
    lam: int,
    monomials: dict[int, dict[int, LaurentPoly]],
    label: dict[int, Multipartition],
    vectors: dict[int, dict[int, LaurentPoly]],
    corrections: dict[int, dict[int, LaurentPoly]],
    building: list[int],
) -> dict[int, LaurentPoly]:
    """The basis vector at the key lam, built and stored in vectors if not
    there yet; keys are bead masks, and label names them in messages.

    Reduces a copy of monomials[lam] in place until every off-label
    coefficient sits in v*Z[v], clearing offenders greatest key (gamma)
    first, and records the coefficients used in corrections[lam].  An
    offender gamma-greater than lam is legitimate: the peeling monomials
    are not always triangular, and subtracting the offender's basis
    vector, built first by recursion, also removes the excess it
    contributed on lam.  ``building`` holds the keys whose reduction is
    under way; an offender among them is a dependency cycle
    (OrderViolation), and one without a monomial is no vertex
    (MissingPredecessor).
    """
    if lam in vectors:
        return vectors[lam]
    if lam not in monomials:
        raise MissingPredecessor(f"no crystal vertex at {format_multipartition(label[lam])}")
    if lam in building:
        chain = " <- ".join(format_multipartition(label[k]) for k in building + [lam])
        raise OrderViolation(f"basis vectors depend on each other: {chain}")
    building.append(lam)
    x = dict(monomials[lam])
    corr: dict[int, LaurentPoly] = {}
    guard = 0
    limit = 4 * len(x) + 64
    while True:
        offender = max(
            (k for k, c in x.items() if k != lam and not c.in_v_ztimes()), default=None
        )
        if offender is None:
            break
        m = bar_symmetric_part(x[offender])
        if m.is_zero() or not m.is_bar_symmetric():
            raise InvariantViolated(
                f"bar-symmetric part {m} of the coefficient "
                f"{x[offender]} of {format_multipartition(label[offender])}"
            )
        g = _build(offender, monomials, label, vectors, corrections, building)
        corr[offender] = corr.get(offender, ZERO) + m
        subtract_scaled(x, g, m)
        guard += 1
        if guard > limit:
            raise InvariantViolated(
                f"elimination for {format_multipartition(label[lam])} failed to "
                f"terminate within {limit} steps"
            )
    building.pop()
    _check_reduced(x, lam, label)
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
    keys = layer_keys(n, charge)
    layer = tuple(keys)
    label = dict(zip(keys.values(), layer))
    verts_desc = list(graph.vertices(n))
    words = graph.peeling_words
    peelings = {lam: words[lam] for lam in verts_desc}
    monomials = dict(zip(map(keys.get, verts_desc), _peel(list(peelings.values()), e, charge, n)))
    vectors: dict[int, dict[int, LaurentPoly]] = {}
    corrections: dict[int, dict[int, LaurentPoly]] = {}
    building: list[int] = []
    for lam in reversed(verts_desc):
        _build(keys[lam], monomials, label, vectors, corrections, building)
    return CanonicalBasisSet(
        e=e,
        charge=charge,
        rank=n,
        labels=tuple(verts_desc),
        vectors={lam: _decode(vectors[keys[lam]], label, charge) for lam in verts_desc},
        avectors={lam: _decode(monomials[keys[lam]], label, charge) for lam in verts_desc},
        peelings=peelings,
        corrections={
            lam: {label[k]: m for k, m in corrections[keys[lam]].items()} for lam in verts_desc
        },
        layer=layer,
        position={mp: k for k, mp in enumerate(layer)},
    )


def _check_reduced(g: dict[int, LaurentPoly], lam: int, label: dict[int, Multipartition]) -> None:
    if g.get(lam, ZERO) != ONE:
        raise PeelingUnitriangularityViolated(
            f"coefficient of {format_multipartition(label[lam])} is {g.get(lam, ZERO)} "
            "after reduction"
        )
    for k, c in g.items():
        if k != lam and not c.in_v_ztimes():
            raise InvariantViolated(
                f"coefficient of {format_multipartition(label[k])} is {c} after reducing "
                f"{format_multipartition(label[lam])}, not in v*Z[v]"
            )
