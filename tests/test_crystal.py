"""Tests for the signature rule, good nodes, and component generation."""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fockdec.combinatorics
import fockdec.crystal
import fockdec.reference
from fockdec.combinatorics import (
    add_boxes,
    empty,
    format_multipartition,
    gamma_lex_sorted,
    i_nodes,
    parse_multipartition,
    rank,
)
from fockdec.crystal import CrystalGraph, _good_addable, _good_nodes, generate_component
from fockdec.reference import (
    Node,
    addable_nodes,
    apply_good,
    content,
    epsilon,
    good_node,
    good_removable_node,
    node_key,
    remove_good,
    removable_nodes,
    signature_blocks,
)


def mp(text):
    return parse_multipartition(text)


def _oracle_residues(lam, e, charge):
    """The residues the oracles scan: all of them mod e, or at e=inf the
    content of every addable and every removable node, from the Node
    toolkit."""
    if e is not None:
        return list(range(e))
    nodes = addable_nodes(lam, charge) + removable_nodes(lam, charge)
    return sorted({content(node, charge) for node in nodes})


def test_signature_blocks_fixture():
    adds, rems = signature_blocks(mp("2.1|1"), 2, 0, (0, 0))
    assert adds == [Node(3, 1, 1), Node(2, 2, 1)]
    assert rems == []
    assert good_node(mp("2.1|1"), 2, 0, (0, 0)) == Node(2, 2, 1)
    assert good_removable_node(mp("2.1|1"), 2, 0, (0, 0)) is None
    assert epsilon(mp("2.1|1"), 2, 0, (0, 0)) == 0
    assert epsilon(mp("2.1|1"), 2, 1, (0, 0)) == 0


def test_signature_cancellation():
    # for 1|1 at charge (0,0) the two removable 0-nodes both survive
    adds, rems = signature_blocks(mp("1|1"), 2, 0, (0, 0))
    assert adds == []
    assert rems == [Node(1, 1, 1), Node(1, 1, 2)]
    assert epsilon(mp("1|1"), 2, 0, (0, 0)) == 2
    assert good_removable_node(mp("1|1"), 2, 0, (0, 0)) == Node(1, 1, 1)
    assert good_node(mp("1|1"), 2, 0, (0, 0)) is None
    # the vacuum has only addable 0-nodes
    adds, rems = signature_blocks(mp("-|-"), 2, 0, (0, 0))
    assert [n.comp for n in adds] == [1, 2] and rems == []


def test_oracle_residues():
    assert _oracle_residues(mp("2.1|1"), 2, (0, 0)) == [0, 1]
    assert _oracle_residues(mp("2.1|1"), 5, (0, 0)) == [0, 1, 2, 3, 4]
    # addable contents -2, 0, 2, -1, 1 and removable contents -1, 1, 0
    assert _oracle_residues(mp("2.1|1"), None, (0, 0)) == [-2, -1, 0, 1, 2]
    assert _oracle_residues(mp("-|-"), None, (0, 1)) == [0, 1]
    assert _oracle_residues(mp("2|-"), None, (0, 5)) == [-1, 1, 2, 5]


def test_component_shape_fixtures():
    g = generate_component(2, (0, 0), 3)
    assert [len(layer) for layer in g.layers] == [1, 1, 2, 3]
    assert [format_multipartition(m) for m in g.vertices(2)] == ["-|2", "1|1"]
    assert [format_multipartition(m) for m in g.vertices(3)] == ["-|3", "1|2", "-|2.1"]
    gi = generate_component(None, (0, 0), 3)
    assert [len(layer) for layer in gi.layers] == [1, 1, 3, 5]
    assert [format_multipartition(m) for m in gi.vertices(3)] == [
        "-|3",
        "1|2",
        "-|2.1",
        "1|1.1",
        "-|1.1.1",
    ]


def test_component_membership_and_errors():
    g = generate_component(2, (0, 0), 3)
    with pytest.raises(ValueError):
        g.vertices(4)
    with pytest.raises(ValueError):
        g.vertices(-1)
    with pytest.raises(ValueError):
        generate_component(2, (0, 0), -1)


def test_graph_is_immutable():
    g = generate_component(2, (0, 0), 2)
    for name in ("layers", "edges", "peeling_words", "colour"):
        with pytest.raises(AttributeError, match="CrystalGraph is immutable"):
            setattr(g, name, None)
    assert g.layers[2] == (mp("-|2"), mp("1|1"))


def test_rank_zero_component():
    g = generate_component(3, (0,), 0)
    assert g.layers == ((((),),),)
    assert g.edges == {}


def test_good_operations_are_inverse():
    for e, charge in [(2, (0, 0)), (3, (0, 1)), (None, (0, 0)), (2, (1, 3))]:
        g = generate_component(e, charge, 4)
        for (src, i), dst in g.edges.items():
            assert rank(dst) == rank(src) + 1
            assert apply_good(src, e, i, charge) == dst
            assert remove_good(dst, e, i, charge) == src
            assert epsilon(dst, e, i, charge) >= 1
        # every non-empty vertex has exactly one way down
        for n in range(1, 5):
            for vert in g.vertices(n):
                downs = [
                    i
                    for i in _oracle_residues(vert, e, charge)
                    if epsilon(vert, e, i, charge) > 0
                ]
                down_layer = {
                    remove_good(vert, e, i, charge) for i in downs
                }
                assert down_layer <= set(g.vertices(n - 1))


def test_edges_land_in_next_layer():
    g = generate_component(2, (0, 1), 4)
    for (src, i), dst in g.edges.items():
        assert src in g.layers[rank(src)]
        assert dst in g.layers[rank(src) + 1]


def test_json_form():
    g = generate_component(2, (0, 0), 2)
    obj = g.to_json_obj()
    assert obj["e"] == 2
    assert obj["charge"] == [0, 0]
    assert obj["max_rank"] == 2
    assert obj["vertices"] == [["-|-"], ["-|1"], ["-|2", "1|1"]]
    assert {"source": "-|-", "target": "-|1", "residue": 0} in obj["edges"]
    json.dumps(obj)  # serializable as-is
    gi = generate_component(None, (0,), 1)
    assert gi.to_json_obj()["e"] == "inf"


def test_dot_form():
    g = generate_component(2, (0, 0), 2)
    dot = g.to_dot()
    assert dot.startswith("digraph crystal {")
    assert dot.endswith("}")
    assert '"-|1" -> "-|2" [label="1"];' in dot
    assert '"-|1" -> "1|1" [label="0"];' in dot
    assert '"1|1";' in dot


def _reference_edges(g):
    # the per-source scan over every edge, kept as the reference listing
    return [
        (src, i, g.edges[(src, i)])
        for layer in g.layers
        for src in layer
        for i in sorted(j for (m, j) in g.edges if m == src)
    ]


@pytest.mark.parametrize("e", [2, 3, None, 4, 5])
@pytest.mark.parametrize("charge", [(0,), (1, 0), (0, 2, 1), (0, 0, 0, 0)])
def test_edge_listing_matches_per_source_reference(e, charge):
    g = generate_component(e, charge, 5)
    expected = _reference_edges(g)
    assert len(expected) == len(g.edges) > 0
    # the stored order is the listing order: to_json_obj and to_dot do not sort
    assert list(g.edges) == [(src, i) for src, i, _ in expected]
    assert g.to_json_obj()["edges"] == [
        {
            "source": format_multipartition(src),
            "target": format_multipartition(dst),
            "residue": i,
        }
        for src, i, dst in expected
    ]
    dot_edges = [line for line in g.to_dot().splitlines() if " -> " in line]
    assert dot_edges == [
        f'  "{format_multipartition(src)}" -> '
        f'"{format_multipartition(dst)}" [label="{i}"];'
        for src, i, dst in expected
    ]


def test_graph_is_frozen():
    g = generate_component(2, (0,), 1)
    with pytest.raises(Exception):
        g.max_rank = 5
    assert isinstance(g, CrystalGraph)


def _signature_component(e, charge, max_rank):
    # the per-residue generation by the signature rule, kept as the oracle:
    # apply_good for every residue of _oracle_residues, then the layer sort
    layers = [[empty(len(charge))]]
    edges = {}
    for _ in range(max_rank):
        nxt = set()
        for src in layers[-1]:
            for i in _oracle_residues(src, e, charge):
                up = apply_good(src, e, i, charge)
                if up is not None:
                    edges[(src, i)] = up
                    nxt.add(up)
        layers.append(gamma_lex_sorted(nxt, charge))
    return tuple(map(tuple, layers)), edges


@st.composite
def crystal_configs(draw):
    """(e, charge, rank): level 1-3, charges in [-3, 3], ascending or not."""
    e = draw(st.sampled_from((2, 3, 5, None)))
    level = draw(st.integers(1, 3))
    charge = draw(st.lists(st.integers(-3, 3), min_size=level, max_size=level))
    if draw(st.booleans()):
        charge.sort()
    return e, tuple(charge), draw(st.integers(0, 5))


@given(crystal_configs())
@settings(max_examples=80, deadline=None)
@example((2, (0, 0), 5))
@example((None, (0, 1, 2), 5))
@example((3, (3, -3, 0), 5))
def test_merge_pass_component_matches_signature_oracle(config):
    e, charge, max_rank = config
    g = generate_component(e, charge, max_rank)
    layers, edges = _signature_component(e, charge, max_rank)
    assert g.layers == layers
    assert g.edges == edges


@st.composite
def residue_cases(draw):
    """(multipartition, e, i, charge), i possibly carrying no node at all."""
    e = draw(st.sampled_from((2, 3, 5, None)))
    level = draw(st.integers(1, 3))
    charge = tuple(draw(st.lists(st.integers(-3, 3), min_size=level, max_size=level)))
    parts = st.lists(st.integers(1, 5), max_size=4).map(
        lambda p: tuple(sorted(p, reverse=True))
    )
    lam = tuple(draw(st.lists(parts, min_size=level, max_size=level)))
    i = draw(st.integers(0, e - 1) if e else st.integers(-12, 12))
    return lam, e, i, charge


@given(residue_cases())
@settings(max_examples=300, deadline=None)
@example((((),), 5, 3, (0,)))  # no 3-node on the empty partition
@example((((1,), (1,)), None, 9, (0, 0)))  # no node of content 9
@example((((1,), (1,)), 2, 0, (0, 0)))  # removable 0-nodes only
def test_merge_pass_finds_the_signature_good_node(case):
    lam, e, i, charge = case
    good = _good_addable(*i_nodes(lam, charge, e, i))
    node = good_node(lam, e, i, charge)
    if node is None:
        assert good is None
    else:
        assert good == (node_key(node, charge), node.comp - 1, node.row - 1)


@st.composite
def inf_grouping_cases(draw):
    """(multipartition, charge) at levels 1-4; the charge's entries are
    multiples of 100, so components of different charge share no content,
    or small, so their contents interleave."""
    level = draw(st.integers(1, 4))
    step = draw(st.sampled_from((1, 100)))
    charge = tuple(step * s for s in draw(
        st.lists(st.integers(-3, 3), min_size=level, max_size=level)
    ))
    parts = st.lists(st.integers(1, 6), max_size=5).map(
        lambda p: tuple(sorted(p, reverse=True))
    )
    return tuple(draw(st.lists(parts, min_size=level, max_size=level))), charge


@given(inf_grouping_cases())
@settings(max_examples=200, deadline=None)
@example((((1,), ()), (0, 0)))  # a removable 0-node cancels the addable one
@example((((2, 1), (1,), (3,), ()), (0, 100, -100, 200)))
def test_inf_grouping_matches_one_scan_per_content(case):
    # the e=inf grouping of one modulo-1 scan gives, content by content,
    # the good node of that content's own scan, in ascending content
    lam, charge = case
    contents = sorted({content(node, charge) for node in addable_nodes(lam, charge)})
    assert _good_nodes(lam, None, charge) == [
        (i, good)
        for i in contents
        if (good := _good_addable(*i_nodes(lam, charge, None, i))) is not None
    ]


def test_finite_e_generation_reads_no_node_lists(monkeypatch):
    # at finite e and at e=inf the edges and the words come from the i-node
    # scan alone
    def refuse(*args):
        raise AssertionError("Node-based scan called")

    for module in (fockdec.crystal, fockdec.combinatorics, fockdec.reference):
        for name in ("addable_nodes", "removable_nodes", "signature_blocks"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for e in (3, None):
        g = generate_component(e, (0, 1), 5)
        assert sum(map(len, g.layers)) > 1
        assert len(g.peeling_words) == sum(map(len, g.layers))


def test_inf_generation_scans_each_vertex_once(monkeypatch):
    # at e=inf each vertex below the top rank is scanned once, modulo 1,
    # and that scan's nodes, grouped by content, give the edges that one
    # scan per addable content gives, in the same order
    charge = (0, 0)
    calls = []
    scan = fockdec.crystal.i_nodes
    monkeypatch.setattr(
        fockdec.crystal, "i_nodes", lambda *args: calls.append(args) or scan(*args)
    )
    g = generate_component(None, charge, 10)
    assert len(calls) == sum(map(len, g.layers[:-1])) == 300
    assert {args[2:] for args in calls} == {(1, 0)}
    expected = []
    for layer in g.layers[:-1]:
        for src in layer:
            for i in sorted({key[0] for key, _, _ in scan(src, charge, 1, 0)[0]}):
                good = _good_addable(*scan(src, charge, None, i))
                if good is not None:
                    expected.append(((src, i), add_boxes(src, [good[1:]])))
    assert len(expected) == 1135
    assert list(g.edges.items()) == expected
