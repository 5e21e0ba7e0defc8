"""Good nodes and crystal components of the charged Fock space.

For a residue i, write the addable and removable i-nodes of a
multipartition in one word, ascending in the node order, then repeatedly
delete a removable node standing immediately before an addable one.  What
survives is a block of addable nodes followed by a block of removable
ones.  The good addable node is the last survivor of the addable block,
the good removable node the first survivor of the removable block, and
epsilon counts the removable block.

generate_component does not build that word.  It reads the i-nodes from
combinatorics.i_nodes, the scan the Fock operators run, as two lists
ascending in the node order, and finds the good addable node in one merge
pass over them: a removable node adds one pending removable; an addable
node cancels one pending removable, or becomes the candidate if none is
pending; the last candidate is the good addable node.  The word form
(signature_blocks and the functions built on it) is the independent route
in fockdec.reference.

Adding the good addable node is injective with inverse "remove the good
removable node", which makes the set of multipartitions reachable from the
empty one a combinatorial component that this module generates rank by
rank.  It records each vertex's maximal good-node peeling word on the
way (CrystalGraph.peeling_words): an edge adds a good node that is the
good removable node of the vertex it reaches, so the merge pass already
holds the key of every good removable node.  A vertex's word starts with
the residue of the greatest of them and epsilon, the length of the
i-string back along its i-predecessors, then goes on with the word of the
vertex that string reaches.

At finite e every residue mod e gets its own i-node scan.  At e=inf a
vertex is scanned once, modulo 1, which lists all its addable and
removable nodes in the node order, and one pass groups them by content:
the contents of its addable nodes are the residues to visit, and the
node order puts them in ascending order.
"""

from __future__ import annotations

from typing import Optional

from .combinatorics import (
    Charge,
    Multipartition,
    add_boxes,
    empty,
    format_multipartition,
    gamma_lex_sorted,
    i_nodes,
)

__all__ = [
    "CrystalGraph",
    "generate_component",
]


def _good_addable(
    adds: list[tuple[tuple[int, int], int, int]], rems: list[tuple[int, int]]
) -> Optional[tuple[tuple[int, int], int, int]]:
    """The good addable entry of i_nodes' lists, by one merge pass, or None."""
    good = None
    pending = j = 0
    n = len(rems)
    for add in adds:
        while j < n and rems[j] < add[0]:
            j += 1
            pending += 1
        if pending:
            pending -= 1
        else:
            good = add
    return good


def _good_nodes(
    mp: Multipartition, e: Optional[int], charge: Charge
) -> list[tuple[int, tuple[tuple[int, int], int, int]]]:
    """(residue, good addable entry) of mp for each residue that has one,
    by ascending residue.

    At finite e every residue in range(e) gets its own i_nodes scan.  At
    e=inf one scan modulo 1 lists every node, both lists ascending in the
    node order and so by content, and one pass groups them by content:
    each addable node opens or joins the group of its content, each
    removable node joins its content's group if there is one.  The groups
    keep node order, and open in ascending content.
    """
    if e is not None:
        return [
            (i, good)
            for i in range(e)
            if (good := _good_addable(*i_nodes(mp, charge, e, i))) is not None
        ]
    adds, rems = i_nodes(mp, charge, 1, 0)
    groups: dict[int, tuple[list, list]] = {}
    for add in adds:
        groups.setdefault(add[0][0], ([], []))[0].append(add)
    for rem in rems:
        if rem[0] in groups:
            groups[rem[0]][1].append(rem)
    return [
        (i, good)
        for i, group in groups.items()
        if (good := _good_addable(*group)) is not None
    ]


class CrystalGraph:
    """A component generated from the empty multipartition, rank by rank.

    ``layers[n]`` lists the rank-n vertices in descending gamma order;
    ``edges`` maps (vertex, residue) to the vertex above it, ordered by
    source in layer order, then by ascending residue (generate_component
    inserts them so); to_json_obj and to_dot list them in that order.
    ``peeling_words`` maps every vertex to its maximal good-node peeling
    word, as reference.peeling_sequence gives it.  Immutable.
    """

    e: Optional[int]
    charge: Charge
    max_rank: int
    layers: tuple[tuple[Multipartition, ...], ...]
    edges: dict[tuple[Multipartition, int], Multipartition]
    peeling_words: dict[Multipartition, tuple[tuple[int, int], ...]]

    def __init__(self, e, charge, max_rank, layers, edges, peeling_words):
        self.__dict__.update(
            e=e, charge=charge, max_rank=max_rank, layers=layers, edges=edges,
            peeling_words=peeling_words,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"CrystalGraph is immutable; cannot set {name}")

    def vertices(self, n: int) -> tuple[Multipartition, ...]:
        if not (0 <= n <= self.max_rank):
            raise ValueError(f"rank {n} outside 0..{self.max_rank}")
        return self.layers[n]

    def to_json_obj(self) -> dict:
        return {
            "e": "inf" if self.e is None else self.e,
            "charge": list(self.charge),
            "max_rank": self.max_rank,
            "vertices": [
                [format_multipartition(mp) for mp in layer] for layer in self.layers
            ],
            "edges": [
                {
                    "source": format_multipartition(src),
                    "target": format_multipartition(dst),
                    "residue": i,
                }
                for (src, i), dst in self.edges.items()
            ],
        }

    def to_dot(self) -> str:
        lines = ["digraph crystal {", "  rankdir=BT;"]
        for layer in self.layers:
            for mp in layer:
                lines.append(f'  "{format_multipartition(mp)}";')
        for (src, i), dst in self.edges.items():
            lines.append(
                f'  "{format_multipartition(src)}" -> '
                f'"{format_multipartition(dst)}" [label="{i}"];'
            )
        lines.append("}")
        return "\n".join(lines)


def generate_component(e: Optional[int], charge: Charge, max_rank: int) -> CrystalGraph:
    """Generate the component of the empty multipartition up to max_rank,
    with the peeling word of every vertex."""
    if max_rank < 0:
        raise ValueError(f"negative rank {max_rank}")
    layers = [[empty(len(charge))]]
    edges: dict[tuple[Multipartition, int], Multipartition] = {}
    down: dict[Multipartition, dict[int, Multipartition]] = {}
    words = {layers[0][0]: ()}
    for _ in range(max_rank):
        # new vertex -> (greatest good removable node key, its residue)
        peel: dict[Multipartition, tuple[tuple[int, int], int]] = {}
        for mp in layers[-1]:
            for i, good in _good_nodes(mp, e, charge):
                up = add_boxes(mp, [good[1:]])
                edges[(mp, i)] = up
                down.setdefault(up, {})[i] = mp
                best = peel.get(up)
                if best is None or best[0] < good[0]:
                    peel[up] = (good[0], i)
        layer = gamma_lex_sorted(peel, charge)
        for mp in layer:
            i = peel[mp][1]
            cur, u = mp, 0
            while i in down.get(cur, ()):
                cur = down[cur][i]
                u += 1
            words[mp] = ((i, u),) + words[cur]
        layers.append(layer)
    return CrystalGraph(
        e=e,
        charge=charge,
        max_rank=max_rank,
        layers=tuple(map(tuple, layers)),
        edges=edges,
        peeling_words=words,
    )
