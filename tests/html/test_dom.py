"""Tests for the DOM model (repro.html.dom)."""

import pickle
import random

from hypothesis import given
from hypothesis import strategies as st

from repro.datasets import m2h
from repro.html.blueprint import _short_text_values, document_blueprint
from repro.html.dom import (
    TEXT_TAG,
    DomNode,
    HtmlDocument,
    lowest_common_ancestor,
    tree_distance,
)
from repro.html.domain import HtmlDomain
from repro.html.landmarks import _leaf_texts
from repro.html.parser import parse_html
from repro.html.region import HtmlRegion

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


def ref_iter(node):
    """Recursive pre-order: the reference the stack-based walks replace."""
    yield node
    for child in node.children:
        yield from ref_iter(child)


def ref_text(node):
    pieces = [n.text for n in ref_iter(node) if n.is_text and n.text]
    return " ".join(" ".join(pieces).split())


def ref_depth(node):
    return 0 if node.parent is None else ref_depth(node.parent) + 1


def ref_xpath(node):
    if node.parent is None:
        return node.tag
    same_tag = [c for c in node.parent.children if c.tag == node.tag]
    return f"{ref_xpath(node.parent)}/{node.tag}[{same_tag.index(node) + 1}]"


TEXTS = ["", " ", "  \n\t ", "a", " b  c ", "x\u00a0y", "d\n"]


def random_tree(rng, size=60):
    """A random tree with empty, whitespace-only and adjacent text nodes."""
    root = DomNode("document")
    elements = [root]
    for _ in range(size):
        parent = rng.choice(elements)
        if rng.random() < 0.45:
            for _ in range(rng.randint(1, 3)):  # often adjacent
                parent.append(DomNode(TEXT_TAG, text=rng.choice(TEXTS)))
        else:
            elements.append(parent.append(DomNode(rng.choice("abc"))))
    return root


class TestWalksMatchRecursiveReference:
    SEEDS = range(40)

    def test_iter_and_iter_elements(self):
        for seed in self.SEEDS:
            root = random_tree(random.Random(seed))
            for node in ref_iter(root):
                expected = list(ref_iter(node))
                assert list(node.iter()) == expected
                assert list(node.iter_elements()) == [
                    n for n in expected if not n.is_text
                ]
                assert node.element_count() == sum(
                    not n.is_text for n in expected
                )

    def test_text_content_depth_and_xpath(self):
        for seed in self.SEEDS:
            rng = random.Random(seed)
            root = random_tree(rng)
            nodes = list(ref_iter(root))
            # Query in random order so fills start from partial caches.
            for node in rng.sample(nodes, len(nodes)):
                assert node.text_content() == ref_text(node)
                assert node.depth == ref_depth(node)
                assert node.xpath() == ref_xpath(node)

    def test_region_locations_and_text(self):
        for seed in self.SEEDS:
            rng = random.Random(seed)
            root = random_tree(rng)
            for parent in ref_iter(root):
                count = len(parent.children)
                if not count:
                    continue
                start = rng.randrange(count)
                end = rng.randrange(start, count)
                region = HtmlRegion(parent=parent, start=start, end=end)
                roots = [
                    c
                    for c in parent.children[start : end + 1]
                    if not c.is_text
                ]
                assert region.locations() == [
                    n
                    for r in roots
                    for n in ref_iter(r)
                    if not n.is_text
                ]
                assert region.text_content() == " ".join(
                    ref_text(r) for r in roots
                )

    def test_deep_chain_needs_no_recursion(self):
        root = node = DomNode("document")
        for _ in range(20_000):
            node = node.append(DomNode("div"))
        node.append(DomNode(TEXT_TAG, text=" deep "))
        assert sum(1 for _ in root.iter()) == 20_002
        assert root.element_count() == 20_001
        assert node.depth == 20_000
        assert root.text_content() == "deep"


def generated_doc():
    return m2h.generate_document(
        "delta", random.Random(3), m2h.CONTEMPORARY
    ).doc


def preorder(doc):
    return [(node.tag, node.attrs, node.text) for node in doc.root.iter()]


def use_every_memo(doc):
    doc.root.text_content()
    doc.find_by_text("Depart")
    doc.elements()
    doc.order_index()
    doc.node_order()
    document_blueprint(doc)
    _leaf_texts(doc)
    _short_text_values(doc)
    root = doc.root
    region = HtmlRegion(root, 0, len(root.children) - 1)
    HtmlDomain().region_blueprint(doc, region, frozenset({"Depart:"}))
    doc.fingerprint()


class TestPickle:
    def test_parsed_document_pickles_as_its_source(self):
        """Filling the memos leaves the pickle byte-identical and small."""
        doc = generated_doc()
        before = pickle.dumps(doc)
        use_every_memo(doc)
        assert doc._text_matches and doc._leaf_texts is not None
        assert doc._region_blueprints
        assert pickle.dumps(doc) == before
        assert len(before) <= len(doc.source) + 256

    def test_parsed_copy_matches_the_original(self):
        doc = generated_doc()
        use_every_memo(doc)
        copy = pickle.loads(pickle.dumps(doc))
        assert copy.source == doc.source
        assert preorder(copy) == preorder(doc)
        assert copy.fingerprint() == doc.fingerprint()
        assert [copy.document_order(node) for node in copy.elements()] == [
            doc.document_order(node) for node in doc.elements()
        ]

    def test_hand_built_document_round_trips(self):
        root = DomNode("document")
        cell = root.append(DomNode("td", {"class": "x"}))
        cell.append(DomNode(TEXT_TAG, text=" 8:18 PM "))
        doc = HtmlDocument(root)
        use_every_memo(doc)
        assert doc._order is not None and doc._region_blueprints
        state = doc.__getstate__()
        assert state["_order"] is None
        assert "_region_blueprints" not in state
        copy = pickle.loads(pickle.dumps(doc))
        assert copy._region_blueprints == {}
        assert copy.source == ""
        assert preorder(copy) == preorder(doc)
        assert copy.fingerprint() == doc.fingerprint()
        assert copy.find_by_text("8:18")[0].attrs == {"class": "x"}
        assert [copy.document_order(node) for node in copy.elements()] == [
            0, 1
        ]

    def test_order_survives_round_trip_after_use(self):
        """The id()-keyed order index is rebuilt, not carried over stale."""
        doc = generated_doc()
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
