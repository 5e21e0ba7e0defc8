"""Multipartitions, the i-node scan, and the charge-shifted dominance order.

A partition is a weakly decreasing tuple of positive ints, a multipartition
an l-tuple of partitions, and a charge an l-tuple of ints.  The node in
row r, column c of component k (all 1-based) has content
c - r + charge[k-1], and for a finite modulus e its residue is the
content mod e (e=None throughout the package means "no modulus", i.e. the
content itself is the residue).  The runtime meets nodes only through
i_nodes, which names each by its key (content, k) in the node order; the
Node triples and the one-node-at-a-time functions on them are in
fockdec.reference.

The dominance comparison never takes a modulus: it is computed from a
charge-and-level-shifted beta-sequence, identical for every e.  Each
component's sequence is cut at the rank, whatever the charge: deeper
entries are shared by every multipartition of that rank and charge, so
they change no comparison.

>>> mp = parse_multipartition("1.1|1.1|1")
>>> format_multipartition(mp), rank(mp)
('1.1|1.1|1', 5)
>>> compare_dominance(((3,),), ((2, 1),), (0,)).value
'Greater'
"""

from __future__ import annotations

import enum
from functools import lru_cache
from itertools import accumulate, product
from operator import ge, le
from typing import Iterable, Iterator, Optional

Partition = tuple[int, ...]
Multipartition = tuple[Partition, ...]
Charge = tuple[int, ...]

__all__ = [
    "Partition",
    "Multipartition",
    "Charge",
    "Ordering",
    "RankMismatch",
    "InvariantViolated",
    "partitions",
    "parse_multipartition",
    "format_multipartition",
    "parse_charge",
    "rank",
    "empty",
    "i_nodes",
    "add_boxes",
    "gamma_sequence",
    "gamma_prefix_sums",
    "compare_prefix_sums",
    "compare_dominance",
    "gamma_keys",
    "gamma_lex_sorted",
    "enumerate_multipartitions",
]


class RankMismatch(ValueError):
    """Dominance comparison of multipartitions of different rank."""


class InvariantViolated(RuntimeError):
    """A computation reached a state that its invariants rule out.

    Every internal consistency check raises this or a subclass naming the
    check, so the CLI reports all of them as exit 1 with one except clause.
    """


class Ordering(enum.Enum):
    GREATER = "Greater"
    LESS = "Less"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"


def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, each a weakly decreasing tuple.

    >>> partitions(4)[0], len(partitions(4)), len(partitions(0))
    ((4,), 5, 1)
    """
    if n < 0:
        raise ValueError(f"negative rank {n}")
    return tuple(_partitions_below(n, n))


@lru_cache(maxsize=None)
def _partitions_below(n: int, cap: int) -> tuple[Partition, ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions_below(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def parse_multipartition(text: str) -> Multipartition:
    """Parse '1.1|1.1|1' syntax; '-' is the empty component.

    >>> parse_multipartition("-|2.1")
    ((), (2, 1))
    """
    comps = []
    for chunk in text.split("|"):
        chunk = chunk.strip()
        if chunk in ("-", ""):
            comps.append(())
            continue
        parts = tuple(int(p) for p in chunk.split("."))
        if any(p <= 0 for p in parts):
            raise ValueError(f"nonpositive part in {chunk!r}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not weakly decreasing in {chunk!r}")
        comps.append(parts)
    return tuple(comps)


def format_multipartition(mp: Multipartition) -> str:
    return "|".join([".".join(map(str, comp)) if comp else "-" for comp in mp])


def parse_charge(text: str) -> Charge:
    """Parse '0,0,-1' syntax."""
    return tuple(int(c) for c in text.split(","))


def rank(mp: Multipartition) -> int:
    return sum(sum(comp) for comp in mp)


def empty(level: int) -> Multipartition:
    return ((),) * level


def i_nodes(
    mp: Multipartition, charge: Charge, e: Optional[int], i: int
) -> tuple[list[tuple[tuple[int, int], int, int]], list[tuple[int, int]]]:
    """The addable and removable i-nodes of mp, found in one scan.

    Addable nodes come as (node key, component index, row index), both
    indices 0-based; removable nodes as node keys.  Both lists ascend in
    the node order.  This is the scan behind the Fock operators and the
    crystal's good nodes; reference.addable_nodes and
    reference.removable_nodes list the same nodes as Node triples, and
    reference._match states the residue rule the scan inlines.

    Modulo e=1 every node is a 0-node, so i_nodes(mp, charge, 1, 0) lists
    every addable and every removable node of mp; at e=inf the crystal
    groups that scan's nodes by content in one pass.

    >>> i_nodes(((1,), ()), (0, 0), 2, 0)
    ([((0, 2), 1, 0)], [(0, 1)])
    >>> i_nodes(((1,), ()), (0, 0), 1, 0)
    ([((-1, 1), 0, 1), ((0, 2), 1, 0), ((1, 1), 0, 0)], [(0, 1)])
    """
    adds = []
    rems = []
    # the residue test is _match's rule, written inline on this hot path
    for ci, (part, s) in enumerate(zip(mp, charge)):
        comp = ci + 1
        n = len(part)
        for r in range(n + 1):
            here = part[r] if r < n else 0
            if r == 0 or part[r - 1] > here:
                c = here - r + s
                if (c == i) if e is None else ((c - i) % e == 0):
                    adds.append(((c, comp), ci, r))
            if r < n and here > (part[r + 1] if r + 1 < n else 0):
                c = here - 1 - r + s
                if (c == i) if e is None else ((c - i) % e == 0):
                    rems.append((c, comp))
    adds.sort()
    rems.sort()
    return adds, rems


def add_boxes(mp: Multipartition, picks: list[tuple[int, int]]) -> Multipartition:
    """Insert boxes given as (component index, row index) pairs, 0-based.

    The pairs are i_nodes' addable entries without their key; each must be
    addable when its turn comes.
    """
    comps = list(mp)
    for ci, r in picks:
        part = comps[ci]
        if r < len(part):
            comps[ci] = part[:r] + (part[r] + 1,) + part[r + 1 :]
        else:
            comps[ci] = part + (1,)
    return tuple(comps)


def gamma_sequence(mp: Multipartition, charge: Charge) -> tuple[int, ...]:
    """The descending comparison sequence behind the dominance order.

    Component i contributes parts[j] - j + charge[i] - (l+1-i)/(l+1) for
    j = 1 .. rank, scaled by l+1 so everything stays an exact int.  The
    rank is deep enough at any charge: no component has more than rank
    parts, so the entries a deeper cut would add are the same for every
    multipartition of that rank and charge, and adding the same entries to
    two equal-sum sequences changes neither the prefix-sum rule nor the
    lexicographic order of the sorted sequences.
    """
    lv = len(mp)
    if lv != len(charge):
        raise ValueError(f"level {lv} multipartition with level {len(charge)} charge")
    n = rank(mp)
    scale = lv + 1
    out = []
    for i, (part, s) in enumerate(zip(mp, charge), start=1):
        frac = scale - i
        for j in range(1, n + 1):
            pj = part[j - 1] if j <= len(part) else 0
            out.append(scale * (pj - j + s) - frac)
    out.sort(reverse=True)
    return tuple(out)


def gamma_prefix_sums(mp: Multipartition, charge: Charge) -> tuple[int, ...]:
    """The running sums of gamma_sequence: the key the dominance order compares."""
    return tuple(accumulate(gamma_sequence(mp, charge)))


def compare_prefix_sums(a: tuple[int, ...], b: tuple[int, ...]) -> Ordering:
    """The dominance rule on two equal-rank gamma_prefix_sums keys.

    Greater means every prefix sum of a is at least b's, and some exceeds.
    """
    if len(a) != len(b):
        raise RankMismatch(f"prefix sums of length {len(a)} vs {len(b)}")
    if all(map(ge, a, b)):
        return Ordering.EQUAL if a == b else Ordering.GREATER
    return Ordering.LESS if all(map(le, a, b)) else Ordering.INCOMPARABLE


def compare_dominance(a: Multipartition, b: Multipartition, charge: Charge) -> Ordering:
    """Compare in the charged dominance order (no modulus involved).

    Greater means a dominates b: every prefix sum of a's gamma sequence is
    at least b's.  Equal-rank inputs only.
    """
    na, nb = rank(a), rank(b)
    if na != nb:
        raise RankMismatch(f"rank {na} vs rank {nb}")
    if a == b:
        return Ordering.EQUAL
    order = compare_prefix_sums(gamma_prefix_sums(a, charge), gamma_prefix_sums(b, charge))
    if order is Ordering.EQUAL:
        raise ValueError(f"distinct multipartitions {a} and {b} share a gamma sequence")
    return order


def gamma_keys(mps: list[Multipartition], charge: Charge) -> dict[Multipartition, int]:
    """One int per multipartition, ordered as the gamma sequences are.

    Keys from one call compare like the gamma_sequence tuples of their
    multipartitions, each cut at its own rank; keys from different calls
    do not compare.  A key is at most 2 * l * l * top bits wide, for top
    the greatest rank, whatever the charge.  gamma_lex_sorted states why.
    """
    lv = len(charge)
    ranks = []
    for m in mps:
        if len(m) != lv:
            raise ValueError(f"level {len(m)} multipartition with level {lv} charge")
        ranks.append(sum(map(sum, m)))
    top = max(ranks, default=0)
    # base[ci] is the bit of v = 0 in component ci; components in order of
    # charge, each window joining the block of the last one if they overlap
    base = [0] * lv
    hi = None
    for s, ci in sorted(zip(charge, range(lv))):
        if hi is None or s - top > hi:
            off = (0 if hi is None else hi + off + 1) - (s - top)
        hi = s + top - 1
        base[ci] = (s + off) * lv + ci
    stride = (1 << lv) - 1
    keys = {}
    for m, n in zip(mps, ranks):
        key = 0
        for b, part in zip(base, m):
            # row j (from 1) with part p is the bit b + (p - j) * lv
            bit = b - lv
            for p in part:
                key |= 1 << (bit + p * lv)
                bit -= lv
            # the rows past the part, down to row n, are the bits from
            # here down to b - n * lv, every lv-th one
            low = b - n * lv
            if bit >= low:
                key |= ((1 << (bit - low + lv)) - 1) // stride << low
        keys[m] = key
    return keys


def gamma_lex_sorted(mps: Iterable[Multipartition], charge: Charge) -> list[Multipartition]:
    """Sort by the gamma sequence, lexicographically descending.

    This is the deterministic total order used for matrix rows and columns:
    it refines the dominance order (a Greater comparison always sorts
    first), and puts incomparable pairs in a fixed, reproducible place.
    The result equals sorted(mps, key=gamma_sequence, reverse=True), each
    multipartition's sequence cut at its own rank, and mismatched levels
    raise ValueError the same way.

    The sort key is one int per multipartition (gamma_keys).  A gamma
    sequence is a set of distinct ints listed in descending order: within
    a component the entries fall strictly, and components differ mod l+1.
    For two such lists, of equal length or not, lexicographic order is the
    numeric order of their bitmasks: at the first difference the larger
    entry is a bit that only the larger list holds, above it the two
    agree, and a list that is a proper prefix of the other has the smaller
    mask.  The entry of row j in component ci is ordered by (v, ci), with
    v = part_j - j + charge[ci], so it becomes the bit v*l + ci, shifted
    by a per-component offset.  The offsets compress the gaps between the
    components' windows of v (charge - top .. charge + top - 1, for top
    the greatest rank): windows that overlap share one offset, and
    disjoint ones are packed next to each other, which keeps the order of
    the bits and bounds a key's width by 2 * l * l * top whatever the
    charge.  The rows past a part's length are one strided run of bits,
    set in one step.

    >>> [format_multipartition(m) for m in gamma_lex_sorted([((1,), (1,)), ((), (2,))], (0, 0))]
    ['-|2', '1|1']
    """
    mps = list(mps)
    if len(mps) == 1 and len(mps[0]) == len(charge):
        return mps
    keys = gamma_keys(mps, charge)
    return sorted(mps, key=keys.__getitem__, reverse=True)


def enumerate_multipartitions(n: int, charge: Charge) -> list[Multipartition]:
    """All multipartitions of rank n and of the charge's level, in
    descending gamma-lex order.

    The order depends on the charge, which is why the charge is accepted
    here: matrix rows for a charged module must be ordered with that same
    charge.

    >>> [format_multipartition(m) for m in enumerate_multipartitions(3, (0,))]
    ['3', '2.1', '1.1.1']
    """
    out: list[Multipartition] = []
    for sizes in _compositions(n, len(charge)):
        for combo in product(*(partitions(k) for k in sizes)):
            out.append(tuple(combo))
    return gamma_lex_sorted(out, charge)


def _compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest
