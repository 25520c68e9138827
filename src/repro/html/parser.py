"""HTML parsing: build a :class:`repro.html.dom.DomNode` tree.

Two tokenizers build the same tree; the tree construction (auto-closing of
void elements, implicit root, tolerant end tags, whitespace handling) is
ours.  No third-party HTML library is required.

* **The fast path** (:func:`_fast_tree`) walks the document with one
  compiled token regex over start tags, end tags and text, and builds the
  tree directly.  It accepts only a strict subset of HTML: ASCII tag and
  attribute names, attributes that are double-quoted, single-quoted,
  unquoted or valueless, ASCII whitespace inside tags, ``&`` in attribute
  values only as a ``;``-terminated reference, and no ``<`` in text.
* **The fallback** (:class:`_TreeBuilder`) is the standard library's
  tolerant ``html.parser`` tokenizer.  The whole document goes to it when
  the fast path meets anything outside the subset: ``<!`` (comments,
  doctype) or ``<?``, a ``<script>`` or ``<style>`` element, a ``<title>``
  or ``<textarea>`` whose content up to its own close tag holds ``<`` or
  ``&`` (the stdlib's handling of those raw-text elements differs between
  patch releases), an attribute the strict pattern does not match, or a
  ``<`` left in text.

Within the subset the fast path reproduces the fallback exactly: tags and
attribute names lower-cased, ``html.unescape`` on text and attribute
values, the last duplicate attribute wins, valueless attributes become
``""``, whitespace-only text is dropped, and nesting past
:data:`MAX_DEPTH` raises the same ``ValueError``.
"""

from __future__ import annotations

import functools
import re
from html import unescape
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


def _too_deep() -> ValueError:
    return ValueError(f"document nests deeper than {MAX_DEPTH} elements")


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
            raise _too_deep()
        node = DomNode(tag, {name: value or "" for name, value in attrs})
        self._stack[-1].append(node)
        return node

    def handle_endtag(self, tag: str):
        _close(self._stack, tag)

    def handle_data(self, data: str):
        # ``convert_charrefs=True`` has already decoded every entity.
        text = data.strip()
        if text:
            self._stack[-1].append(DomNode(TEXT_TAG, text=text))


def _close(stack: list[DomNode], tag: str) -> None:
    """Tolerant closing: pop back to the nearest matching open element.
    An unmatched close tag is ignored (the stdlib parser is tolerant too)."""
    for i in range(len(stack) - 1, 0, -1):
        if stack[i].tag == tag:
            del stack[i:]
            return


# -- the fast path --------------------------------------------------------
_WS = r"[ \t\n\r\f]"
# An ``&`` in an attribute value must start a ``;``-terminated reference.
_REF = r"&(?:[a-zA-Z][a-zA-Z0-9]*|#[0-9]+|#[xX][0-9a-fA-F]+);"
_BARE = r"[^&\s\"'=<>`/]"
_VALUE = (
    rf'"[^&"<>]*(?:{_REF}[^&"<>]*)*"'
    rf"|'[^&'<>]*(?:{_REF}[^&'<>]*)*'"
    # Unquoted: never ends in ``/`` right before ``>`` (the stdlib would
    # keep the slash in the value), so whitespace, ``>`` or, in the
    # attribute list cut out of its tag, the end must follow.
    rf"|(?=[^\s\"'=<>`/]){_BARE}*(?:{_REF}{_BARE}*)*(?=[ \t\n\r\f>]|\Z)"
)
# One attribute, with its name and value captured (``g=""``) on its own,
# or not (``g="?:"``) inside ``_TOKEN``'s start tags.
_ATTR = "{ws}+({g}[a-zA-Z_:][-a-zA-Z0-9_:.]*)(?:{ws}*={ws}*({g}{value}))?"
_TOKEN = (
    # 1 tag, 2 attributes, 3 self-closing slash: a start tag
    rf"<([a-zA-Z][a-zA-Z0-9]*)"
    rf"((?:{_ATTR.format(g='?:', ws=_WS, value=_VALUE)})*){_WS}*(/?)>"
    # 4 tag: an end tag
    rf"|</([a-zA-Z][a-zA-Z0-9]*){_WS}*>"
    # 5 text
    r"|([^<]+)"
    # anything else opening with ``<``: the fallback's business
    r"|<"
)
_START, _END, _TEXT = 3, 4, 5
_RAW_TEXT = frozenset({"script", "style"})
_ESCAPABLE_RAW_TEXT = frozenset({"title", "textarea"})


@functools.cache
def _regexes() -> tuple[re.Pattern[str], re.Pattern[str]]:
    """The token and attribute regexes, compiled on the first parse:
    compiling them at import would add ~2 ms to every process start."""
    return (
        re.compile(_TOKEN),
        re.compile(_ATTR.format(g="", ws=_WS, value=_VALUE)),
    )


def _attrs(attribute: re.Pattern[str], source: str) -> dict[str, str]:
    attrs: dict[str, str] = {}
    for name, value in attribute.findall(source):
        if value[:1] in ("'", '"'):
            value = value[1:-1]
        if "&" in value:
            value = unescape(value)
        attrs[name.lower()] = value
    return attrs


def _fast_tree(source: str) -> DomNode | None:
    """The document's tree from the token regex, or ``None`` when the
    document leaves the strict subset and must take the fallback."""
    token, attribute = _regexes()
    root = DomNode("document")
    stack = [root]
    top = root
    for match in token.finditer(source):
        kind = match.lastindex
        if kind == _TEXT:
            text = match.group(_TEXT)
            if "&" in text:
                text = unescape(text)
            text = text.strip()
            if text:
                node = DomNode(TEXT_TAG, text=text)
                node.parent = top
                top.children.append(node)
        elif kind == _START:
            tag, attrs, slash = match.group(1, 2, 3)
            tag = tag.lower()
            if tag in _RAW_TEXT:
                return None
            if tag in _ESCAPABLE_RAW_TEXT and not _plain_content(
                token, source, match.end(), tag
            ):
                return None
            if len(stack) > MAX_DEPTH:
                raise _too_deep()
            node = DomNode(tag, _attrs(attribute, attrs) if attrs else None)
            node.parent = top
            top.children.append(node)
            if not slash and tag not in VOID_ELEMENTS:
                stack.append(node)
                top = node
        elif kind == _END:
            _close(stack, match.group(_END).lower())
            top = stack[-1]
        else:
            return None
    return root


def _plain_content(
    token: re.Pattern[str], source: str, start: int, tag: str
) -> bool:
    """Whether a ``<title>``/``<textarea>`` opened before ``start`` holds
    no ``<`` or ``&`` up to its own close tag."""
    stop = source.find("<", start)
    if stop < 0 or "&" in source[start:stop]:
        return False
    close = token.match(source, stop)
    return close.lastindex == _END and close.group(_END).lower() == tag


def parse_html(source: str) -> "HtmlDocument":
    """Parse HTML source into an :class:`HtmlDocument`."""
    from repro.html.dom import HtmlDocument

    root = _fast_tree(source)
    if root is None:
        builder = _TreeBuilder()
        builder.feed(source)
        builder.close()
        root = builder.root
    return HtmlDocument(root, source=source)
