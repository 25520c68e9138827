"""HTML parsing: build a :class:`repro.html.dom.DomNode` tree.

Built on the standard library's tolerant ``html.parser`` tokenizer; the tree
construction (auto-closing of void elements, implicit root, whitespace
handling) is ours.  No third-party HTML library is required.
"""

from __future__ import annotations

from html.parser import HTMLParser

from repro.html.dom import DomNode, TEXT_TAG

# Elements that never have children (HTML5 void elements).
VOID_ELEMENTS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "param", "source", "track", "wbr",
    }
)

# Deepest element nesting a document may have (the synthetic ``document``
# root is depth 0).  Deeper input is rejected while parsing, so every DOM
# walk downstream stays bounded; real pages nest a few dozen levels.
MAX_DEPTH = 1024


class _TreeBuilder(HTMLParser):
    """Incremental DOM construction from the stdlib tokenizer events."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = DomNode("document")
        self._stack: list[DomNode] = [self.root]

    # -- tokenizer events ------------------------------------------------
    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]):
        node = self._open(tag, attrs)
        if tag not in VOID_ELEMENTS:
            self._stack.append(node)

    def handle_startendtag(self, tag: str, attrs):
        self._open(tag, attrs)

    def _open(self, tag: str, attrs) -> DomNode:
        # The open-element stack holds the root plus every ancestor, so
        # its length is the new element's depth.
        if len(self._stack) > MAX_DEPTH:
            raise ValueError(
                f"document nests deeper than {MAX_DEPTH} elements"
            )
        node = DomNode(tag, {name: value or "" for name, value in attrs})
        self._stack[-1].append(node)
        return node

    def handle_endtag(self, tag: str):
        # Tolerant closing: pop back to the nearest matching open element.
        for i in range(len(self._stack) - 1, 0, -1):
            if self._stack[i].tag == tag:
                del self._stack[i:]
                return
        # Unmatched close tag: ignore (the stdlib parser is tolerant too).

    def handle_data(self, data: str):
        # ``convert_charrefs=True`` has already decoded every entity.
        text = data.strip()
        if text:
            self._stack[-1].append(DomNode(TEXT_TAG, text=text))


def parse_html(source: str) -> "HtmlDocument":
    """Parse HTML source into an :class:`HtmlDocument`."""
    from repro.html.dom import HtmlDocument

    builder = _TreeBuilder()
    builder.feed(source)
    builder.close()
    return HtmlDocument(builder.root, source=source)
