"""Tests for the DOM model (repro.html.dom)."""

import pickle
import random

from hypothesis import given
from hypothesis import strategies as st

from repro.datasets import m2h
from repro.html.dom import DomNode, lowest_common_ancestor, tree_distance
from repro.html.parser import parse_html

SAMPLE = """
<html><body>
  <table>
    <tr><td>AIR</td></tr>
    <tr><td>Depart:</td><td>8:18 PM</td></tr>
  </table>
  <div><span id="who">Alice</span></div>
</body></html>
"""


def sample():
    return parse_html(SAMPLE)


def find(doc, text):
    return doc.find_by_text(text)[0]


class TestXPaths:
    def test_indexed_xpath(self):
        doc = sample()
        node = find(doc, "8:18 PM")
        assert node.xpath() == (
            "document/html[1]/body[1]/table[1]/tr[2]/td[2]"
        )

    def test_simplified_xpath_drops_indices(self):
        doc = sample()
        node = find(doc, "8:18 PM")
        assert node.simplified_xpath() == "document/html/body/table/tr/td"

    def test_path_to_base(self):
        doc = sample()
        node = find(doc, "8:18 PM")
        table = find(doc, "AIR").parent.parent
        assert node.path_to(table) == "tr/td"

    def test_path_to_non_ancestor_is_none(self):
        doc = sample()
        node = find(doc, "8:18 PM")
        other = find(doc, "Alice")
        assert node.path_to(other) is None


class TestStructure:
    def test_depth(self):
        doc = sample()
        assert doc.root.depth == 0
        assert find(doc, "8:18 PM").depth == 5

    def test_index(self):
        doc = sample()
        node = find(doc, "8:18 PM")
        assert node.index == 1

    def test_ancestor_at_hops(self):
        doc = sample()
        node = find(doc, "8:18 PM")
        assert node.ancestor_at_hops(0) is node
        assert node.ancestor_at_hops(1).tag == "tr"
        assert node.ancestor_at_hops(99) is None

    def test_iter_preorder(self):
        root = DomNode("a")
        b = root.append(DomNode("b"))
        b.append(DomNode("c"))
        root.append(DomNode("d"))
        assert [n.tag for n in root.iter()] == ["a", "b", "c", "d"]


class TestTextContent:
    def test_concatenates_and_normalizes(self):
        doc = parse_html("<div><span>a</span>  <span>b   c</span></div>")
        assert doc.elements()[1].text_content() == "a b c"

    def test_document_order_is_preorder_position(self):
        doc = sample()
        air = find(doc, "AIR")
        depart = find(doc, "Depart:")
        assert doc.document_order(air) < doc.document_order(depart)


class TestPickle:
    def test_order_survives_round_trip_after_use(self):
        """The id()-keyed order index is rebuilt, not carried over stale."""
        doc = m2h.generate_document(
            "delta", random.Random(3), m2h.CONTEMPORARY
        ).doc
        before = [doc.document_order(node) for node in doc.elements()]
        assert doc._order is not None
        copy = pickle.loads(pickle.dumps(doc))
        after = [copy.document_order(node) for node in copy.elements()]
        assert after == before == list(range(len(before)))
        by_id = copy.order_index()
        assert [by_id[id(node)] for node in copy.elements()] == before


class TestLcaAndDistance:
    def test_lca_of_siblings(self):
        doc = sample()
        a = find(doc, "Depart:")
        b = find(doc, "8:18 PM")
        assert lowest_common_ancestor([a, b]).tag == "tr"

    def test_lca_of_node_with_itself(self):
        doc = sample()
        a = find(doc, "AIR")
        assert lowest_common_ancestor([a, a]) is a

    def test_lca_with_ancestor(self):
        doc = sample()
        a = find(doc, "8:18 PM")
        assert lowest_common_ancestor([a, a.parent]) is a.parent

    def test_tree_distance_symmetry(self):
        doc = sample()
        a = find(doc, "Depart:")
        b = find(doc, "Alice")
        assert tree_distance(a, b) == tree_distance(b, a)

    def test_tree_distance_zero(self):
        doc = sample()
        a = find(doc, "AIR")
        assert tree_distance(a, a) == 0

    def test_tree_distance_siblings(self):
        doc = sample()
        assert tree_distance(find(doc, "Depart:"), find(doc, "8:18 PM")) == 2


class TestFindByText:
    def test_minimal_node_returned(self):
        doc = sample()
        nodes = doc.find_by_text("Depart:")
        assert len(nodes) == 1
        assert nodes[0].tag == "td"

    def test_multiple_occurrences(self):
        doc = parse_html(
            "<div><p>Depart: a</p></div><div><p>Depart: b</p></div>"
        )
        assert len(doc.find_by_text("Depart:")) == 2

    def test_missing_text(self):
        assert sample().find_by_text("nope") == []


@given(st.lists(st.integers(0, 3), min_size=1, max_size=6))
def test_property_lca_is_common_ancestor(path_choices):
    """Any two nodes' LCA is an ancestor (or self) of both."""
    root = DomNode("root")
    # Build a small random tree deterministically from the draw.
    nodes = [root]
    for choice in path_choices:
        parent = nodes[choice % len(nodes)]
        nodes.append(parent.append(DomNode(f"t{len(nodes)}")))
    a, b = nodes[len(nodes) // 2], nodes[-1]
    lca = lowest_common_ancestor([a, b])
    for node in (a, b):
        chain = [node] + list(node.ancestors())
        assert any(x is lca for x in chain)
