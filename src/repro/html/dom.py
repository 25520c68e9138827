"""DOM tree model for the HTML domain.

Locations in the HTML domain are DOM nodes; the data value at a node is the
concatenation of all text elements under it (Example 3.1).  This module
implements the tree, XPaths (indexed and simplified), and the traversal
helpers (LCA, sibling spans) the region DSL needs.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Sequence

from repro.core.caching import cache_enabled

TEXT_TAG = "#text"


class DomNode:
    """A node of the DOM tree (element or text node)."""

    __slots__ = (
        "tag",
        "attrs",
        "children",
        "parent",
        "text",
        "_text_content",
        "_depth",
        "_xpath",
        "_element_count",
        "_children_by_tag",
    )

    def __init__(
        self,
        tag: str,
        attrs: dict[str, str] | None = None,
        text: str = "",
    ):
        self.tag = tag
        self.attrs = attrs or {}
        self.children: list[DomNode] = []
        self.parent: DomNode | None = None
        self.text = text
        self._text_content: str | None = None
        self._depth: int | None = None
        self._xpath: str | None = None
        self._element_count: int | None = None
        self._children_by_tag: dict[str, list["DomNode"]] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def append(self, child: "DomNode") -> "DomNode":
        child.parent = self
        self.children.append(child)
        return child

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    @property
    def is_text(self) -> bool:
        return self.tag == TEXT_TAG

    @property
    def index(self) -> int:
        """Index of this node among its parent's children."""
        if self.parent is None:
            return 0
        return self.parent.children.index(self)

    @property
    def depth(self) -> int:
        if self._depth is None:
            self._depth = 0 if self.parent is None else self.parent.depth + 1
        return self._depth

    def ancestors(self) -> Iterator["DomNode"]:
        """Ancestors from parent to root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def ancestor_at_hops(self, hops: int) -> "DomNode | None":
        """The ancestor ``hops`` levels above this node (0 = the node)."""
        node: DomNode | None = self
        for _ in range(hops):
            if node is None:
                return None
            node = node.parent
        return node

    def iter(self) -> Iterator["DomNode"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.iter()

    def iter_elements(self) -> Iterator["DomNode"]:
        """Pre-order traversal restricted to element nodes."""
        for node in self.iter():
            if not node.is_text:
                yield node

    def children_by_tag(self) -> dict[str, list["DomNode"]]:
        """Element children indexed by tag, in child order (cached).

        The per-tag lists are exactly what a ``tag``-filtered sibling scan
        produces, so selector steps (NDSyn's ``nth-of-type`` matching, the
        positional studies) can replace their repeated linear scans with
        one dictionary lookup.  Valid because trees are immutable after
        parsing, like the other ``_``-prefixed memos.
        """
        if self._children_by_tag is None:
            by_tag: dict[str, list[DomNode]] = {}
            for child in self.children:
                if not child.is_text:
                    by_tag.setdefault(child.tag, []).append(child)
            self._children_by_tag = by_tag
        return self._children_by_tag

    def element_count(self) -> int:
        """Number of element nodes in this subtree (memoized under the
        ``REPRO_CACHE`` knob, like the other perf-layer memos; trees are
        immutable after parsing)."""
        if self._element_count is not None and cache_enabled():
            return self._element_count
        count = 0
        stack = [self]
        while stack:
            node = stack.pop()
            if not node.is_text:
                count += 1
            stack.extend(node.children)
        self._element_count = count
        return count

    # ------------------------------------------------------------------
    # Text
    # ------------------------------------------------------------------
    def text_content(self) -> str:
        """Concatenation of all text under this node, whitespace-normalized."""
        if self._text_content is None:
            pieces = [
                node.text for node in self.iter() if node.is_text and node.text
            ]
            self._text_content = " ".join(
                " ".join(pieces).split()
            )
        return self._text_content

    # ------------------------------------------------------------------
    # XPaths
    # ------------------------------------------------------------------
    def xpath(self) -> str:
        """Indexed XPath from the root, e.g. ``body[1]/table[4]/tr[3]``."""
        if self._xpath is None:
            if self.parent is None:
                self._xpath = self.tag
            else:
                same_tag = [
                    child
                    for child in self.parent.children
                    if child.tag == self.tag
                ]
                position = same_tag.index(self) + 1
                self._xpath = f"{self.parent.xpath()}/{self.tag}[{position}]"
        return self._xpath

    def simplified_xpath(self) -> str:
        """Index-free XPath, e.g. ``body/table/tr`` (Section 5.1 blueprints)."""
        parts = [self.tag]
        for ancestor in self.ancestors():
            parts.append(ancestor.tag)
        return "/".join(reversed(parts))

    def path_to(self, base: "DomNode") -> str | None:
        """Index-free path from ``base`` (exclusive) to this node, or ``None``."""
        parts: list[str] = []
        node: DomNode | None = self
        while node is not None and node is not base:
            parts.append(node.tag)
            node = node.parent
        if node is None:
            return None
        return "/".join(reversed(parts))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_text:
            return f"DomNode(text={self.text!r})"
        return f"DomNode(<{self.tag}> children={len(self.children)})"


def lowest_common_ancestor(nodes: Sequence[DomNode]) -> DomNode:
    """The LCA of a non-empty sequence of nodes of one tree."""
    if not nodes:
        raise ValueError("lowest_common_ancestor of no nodes")
    paths = []
    for node in nodes:
        path = [node]
        path.extend(node.ancestors())
        path.reverse()
        paths.append(path)
    lca = paths[0][0]
    for level in range(min(len(path) for path in paths)):
        candidate = paths[0][level]
        if all(path[level] is candidate for path in paths):
            lca = candidate
        else:
            break
    return lca


def tree_distance(a: DomNode, b: DomNode) -> int:
    """Number of edges on the tree path between two nodes."""
    if a is b:
        return 0
    lca = lowest_common_ancestor([a, b])
    return (a.depth - lca.depth) + (b.depth - lca.depth)


class HtmlDocument:
    """An HTML document: the DOM root plus derived indices."""

    def __init__(self, root: DomNode, source: str = ""):
        self.root = root
        self.source = source
        self._elements: list[DomNode] | None = None
        self._order: dict[int, int] | None = None
        self._node_order: dict[DomNode, int] | None = None
        self._text_matches: dict[str, list[DomNode]] = {}
        # Derived-set memos filled in by repro.html.blueprint / landmarks;
        # valid because the tree is immutable after parsing.
        self._document_blueprint: frozenset[str] | None = None
        self._short_texts: frozenset[str] | None = None
        self._leaf_texts: frozenset[str] | None = None
        self._fingerprint: str | None = None

    def __getstate__(self) -> dict:
        # ``_order`` maps id(element) -> index, and ids are process-local:
        # an unpickled copy carrying the original map would report order 0
        # for every node.  Leave it out; it is rebuilt lazily on first use.
        state = dict(self.__dict__)
        state["_order"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._order = None

    def fingerprint(self) -> str:
        """Stable content hash of the document (persistent-store key).

        Hashes the original source when available; documents built
        programmatically (tests, tools) fall back to a canonical pre-order
        serialization of the tree.  Identical content fingerprints
        identically across runs — the property the cross-run blueprint
        store relies on.
        """
        if self._fingerprint is None:
            hasher = hashlib.sha256()
            if self.source:
                hasher.update(b"src\x00")
                hasher.update(self.source.encode("utf-8", "surrogatepass"))
            else:
                hasher.update(b"tree\x00")
                for node in self.root.iter():
                    if node.is_text:
                        hasher.update(b"t\x00" + node.text.encode("utf-8"))
                    else:
                        hasher.update(b"e\x00" + node.tag.encode("utf-8"))
                        for name in sorted(node.attrs):
                            hasher.update(
                                f"\x00{name}={node.attrs[name]}".encode(
                                    "utf-8"
                                )
                            )
                    hasher.update(f"\x00{node.depth}".encode("ascii"))
            self._fingerprint = hasher.hexdigest()
        return self._fingerprint

    def elements(self) -> list[DomNode]:
        """All element nodes in document order (the document's locations)."""
        if self._elements is None:
            self._elements = list(self.root.iter_elements())
        return self._elements

    def document_order(self, node: DomNode) -> int:
        """Position of ``node`` in pre-order traversal (proxy for rendering
        position; see DESIGN.md on the Euclidean-distance approximation)."""
        return self.order_index().get(id(node), 0)

    def order_index(self) -> dict[int, int]:
        """The cached ``id(element) -> document order`` map."""
        if self._order is None:
            self._order = {
                id(element): i for i, element in enumerate(self.elements())
            }
        return self._order

    def node_order(self) -> dict[DomNode, int]:
        """The cached ``element -> document order`` map."""
        if self._node_order is None:
            self._node_order = {
                element: i for i, element in enumerate(self.elements())
            }
        return self._node_order

    def find_by_text(self, text: str) -> list[DomNode]:
        """Minimal element nodes whose text content contains ``text``.

        "Minimal" means no child element also contains the text, which makes
        the located node as tight as possible around the landmark.

        The search descends top-down, pruning every subtree whose root does
        not contain the text: a node's normalized text is always a
        substring of its parent's (text pieces stay contiguous under the
        whitespace normalization), so a non-containing node can contain no
        match below it.  This visits O(matches × depth) nodes instead of
        scanning every element, and yields exactly the pre-order matches
        the full scan produced.

        Memoized per query string (under the ``REPRO_CACHE`` knob, like
        every other memo of the performance layer): landmark scoring
        probes the same n-grams against the same document from both the
        global and the per-cluster candidate passes, and the tree is
        immutable after parsing.
        """
        memoize = cache_enabled()
        if memoize:
            cached = self._text_matches.get(text)
            if cached is not None:
                return list(cached)
        matches: list[DomNode] = []
        root = self.root
        if not root.is_text and text in root.text_content():
            stack = [root]
            while stack:
                node = stack.pop()
                containing = [
                    child
                    for child in node.children
                    if not child.is_text and text in child.text_content()
                ]
                if not containing:
                    matches.append(node)
                else:
                    # Reversed so the pre-order (document-order) leftmost
                    # subtree is processed first off the stack.
                    stack.extend(reversed(containing))
        if memoize:
            self._text_matches[text] = matches
        return list(matches)
