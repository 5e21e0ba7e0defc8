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
rank.  Its reverse edges carry each vertex's maximal good-node peeling
word (CrystalGraph.peeling_words): the i-predecessor of a vertex is the
vertex minus its good removable i-node, and epsilon is the length of the
i-string back from it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from .combinatorics import (
    Charge,
    Multipartition,
    Node,
    add_boxes,
    addable_nodes,
    content,
    empty,
    format_multipartition,
    gamma_lex_sorted,
    i_nodes,
    node_key,
)

__all__ = [
    "residue_alphabet",
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


def residue_alphabet(mp: Multipartition, e: Optional[int], charge: Charge) -> list[int]:
    """Residues that could possibly carry a good addable node of mp."""
    if e is not None:
        return list(range(e))
    return sorted({content(n, charge) for n in addable_nodes(mp, charge)})


class CrystalGraph:
    """A component generated from the empty multipartition, rank by rank.

    ``layers[n]`` lists the rank-n vertices in descending gamma order;
    ``edges`` maps (vertex, residue) to the vertex above it, ordered by
    source in layer order, then by ascending residue (generate_component
    inserts them so); to_json_obj and to_dot list them in that order.
    Immutable; cached views go straight into the instance dict.
    """

    e: Optional[int]
    charge: Charge
    max_rank: int
    layers: tuple[tuple[Multipartition, ...], ...]
    edges: dict[tuple[Multipartition, int], Multipartition]

    def __init__(self, e, charge, max_rank, layers, edges):
        self.__dict__.update(
            e=e, charge=charge, max_rank=max_rank, layers=layers, edges=edges
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"CrystalGraph is immutable; cannot set {name}")

    def vertices(self, n: int) -> tuple[Multipartition, ...]:
        if not (0 <= n <= self.max_rank):
            raise ValueError(f"rank {n} outside 0..{self.max_rank}")
        return self.layers[n]

    def __contains__(self, mp: Multipartition) -> bool:
        r = sum(sum(c) for c in mp)
        return r <= self.max_rank and mp in self.layers[r]

    @cached_property
    def peeling_words(self) -> dict[Multipartition, tuple[tuple[int, int], ...]]:
        """The maximal good-node peeling word of every vertex, off the edges.

        Entries are (residue, multiplicity) pairs, first entry peeling the
        vertex itself, as in reference.peeling_sequence.  A vertex's
        i-predecessors are its good removable i-nodes taken away one at a
        time, so the residue to peel is the one whose removed box is
        greatest by node_key, epsilon is the length of the i-string back,
        and the rest of the word is that of the vertex the string reaches.
        Computed bottom-up, once per graph.
        """
        down: dict[Multipartition, dict[int, Multipartition]] = {}
        for (src, i), dst in self.edges.items():
            down.setdefault(dst, {})[i] = src
        words = {self.layers[0][0]: ()}
        for layer in self.layers[1:]:
            for mp in layer:
                preds = down[mp]
                i = max(
                    preds,
                    key=lambda r: node_key(_removed_box(mp, preds[r]), self.charge),
                )
                cur, u = mp, 0
                while i in down.get(cur, ()):
                    cur = down[cur][i]
                    u += 1
                words[mp] = ((i, u),) + words[cur]
        return words

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


def _removed_box(upper: Multipartition, lower: Multipartition) -> Node:
    """The one box of upper that lower lacks."""
    comp = next(k for k, (a, b) in enumerate(zip(upper, lower)) if a != b)
    a, b = upper[comp], lower[comp] + (0,)
    row = next(r for r, part in enumerate(a) if part != b[r])
    return Node(row + 1, a[row], comp + 1)


def generate_component(e: Optional[int], charge: Charge, max_rank: int) -> CrystalGraph:
    """Generate the component of the empty multipartition up to max_rank."""
    if max_rank < 0:
        raise ValueError(f"negative rank {max_rank}")
    layers = [[empty(len(charge))]]
    edges: dict[tuple[Multipartition, int], Multipartition] = {}
    for _ in range(max_rank):
        nxt = set()
        for mp in layers[-1]:
            for i in residue_alphabet(mp, e, charge):
                good = _good_addable(*i_nodes(mp, charge, e, i))
                if good is not None:
                    up = add_boxes(mp, [good[1:]])
                    edges[(mp, i)] = up
                    nxt.add(up)
        layers.append(gamma_lex_sorted(nxt, charge))
    return CrystalGraph(
        e=e,
        charge=charge,
        max_rank=max_rank,
        layers=tuple(map(tuple, layers)),
        edges=edges,
    )
