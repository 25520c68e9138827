"""Regions of HTML documents.

A region is a contiguous set of locations (Section 3.2).  In the DOM we
represent a region as a *sibling span*: a parent node together with a range
of its children; the region's locations are all element nodes in the spanned
subtrees.  The bottom blue rectangles of Figure 1(a) — a label cell plus the
value cell next to it — are exactly such spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.document import Region
from repro.html.dom import DomNode, lowest_common_ancestor


@dataclass(frozen=True)
class HtmlRegion(Region):
    """A span ``parent.children[start..end]`` of sibling subtrees."""

    parent: DomNode
    start: int
    end: int

    def roots(self) -> list[DomNode]:
        """The spanned children (element nodes only)."""
        return [
            child
            for child in self.parent.children[self.start : self.end + 1]
            if not child.is_text
        ]

    def locations(self) -> list[DomNode]:
        nodes: list[DomNode] = []
        for root in self.roots():
            nodes.extend(root.iter_elements())
        return nodes

    def contains(self, node: DomNode) -> bool:
        for root in self.roots():
            candidate: DomNode | None = node
            while candidate is not None:
                if candidate is root:
                    return True
                candidate = candidate.parent
        return False

    def text_content(self) -> str:
        return " ".join(root.text_content() for root in self.roots())


def enclosing_region(locations: Sequence[DomNode]) -> HtmlRegion:
    """``EncRgn``: the smallest sibling span containing all ``locations``."""
    if not locations:
        raise ValueError("enclosing_region of no locations")
    lca = lowest_common_ancestor(list(locations))
    if any(loc is lca for loc in locations) or lca.parent is None:
        # Some location *is* the common ancestor (or the ancestor is the
        # root): the smallest span is the ancestor itself within its parent.
        parent = lca.parent if lca.parent is not None else lca
        if lca.parent is None:
            return HtmlRegion(parent=lca, start=0, end=len(lca.children) - 1)
        index = lca.index
        return HtmlRegion(parent=parent, start=index, end=index)

    indices = []
    for loc in locations:
        node = loc
        while node.parent is not lca:
            node = node.parent
            if node is None:  # pragma: no cover - lca guarantees a path
                raise ValueError("location not under the LCA")
        indices.append(node.index)
    return HtmlRegion(parent=lca, start=min(indices), end=max(indices))
