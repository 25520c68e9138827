"""Tests for the HTML parser (repro.html.parser)."""

from repro.html.parser import parse_html


class TestParsing:
    def test_simple_nesting(self):
        doc = parse_html("<html><body><div><p>hi</p></div></body></html>")
        tags = [node.tag for node in doc.elements()]
        assert tags == ["document", "html", "body", "div", "p"]

    def test_text_nodes_attach_to_parents(self):
        doc = parse_html("<div>hello</div>")
        div = doc.elements()[1]
        assert div.tag == "div"
        assert div.text_content() == "hello"

    def test_attributes(self):
        doc = parse_html('<div id="main" class="a b">x</div>')
        div = doc.elements()[1]
        assert div.attrs["id"] == "main"
        assert div.attrs["class"] == "a b"

    def test_void_elements_do_not_nest(self):
        doc = parse_html("<div><br><img src='x'><span>y</span></div>")
        div = doc.elements()[1]
        child_tags = [c.tag for c in div.children if not c.is_text]
        assert child_tags == ["br", "img", "span"]

    def test_self_closing_tag(self):
        doc = parse_html("<div><br/><span>y</span></div>")
        div = doc.elements()[1]
        assert [c.tag for c in div.children if not c.is_text] == ["br", "span"]

    def test_unmatched_close_tag_is_ignored(self):
        doc = parse_html("<div>x</span></div>")
        assert doc.elements()[1].text_content() == "x"

    def test_implicitly_closed_elements(self):
        # Closing an outer tag pops the inner unclosed one.
        doc = parse_html("<div><span>a<b>bold</div><p>after</p>")
        tags = [node.tag for node in doc.elements()]
        assert "p" in tags
        p = [n for n in doc.elements() if n.tag == "p"][0]
        assert p.parent.tag == "document"

    def test_entities_unescaped(self):
        doc = parse_html("<div>Fish &amp; Chips</div>")
        assert doc.elements()[1].text_content() == "Fish & Chips"

    def test_entities_unescaped_exactly_once(self):
        cases = {
            "<p>a &amp;lt;b&amp;gt;</p>": "a &lt;b&gt;",
            "<p>AT&amp;T</p>": "AT&T",
            "<p>&lt;</p>": "<",
        }
        for source, text in cases.items():
            assert parse_html(source).elements()[1].text_content() == text

    def test_whitespace_only_text_dropped(self):
        doc = parse_html("<div>  \n  </div>")
        assert doc.elements()[1].text_content() == ""

    def test_source_is_kept(self):
        source = "<div>x</div>"
        assert parse_html(source).source == source

    def test_table_structure(self):
        doc = parse_html(
            "<table><tr><td>a</td><td>b</td></tr><tr><td>c</td></tr></table>"
        )
        table = doc.elements()[1]
        rows = [c for c in table.children if not c.is_text]
        assert len(rows) == 2
        assert len([c for c in rows[0].children if not c.is_text]) == 2

    def test_deeply_nested(self):
        source = "<div>" * 30 + "x" + "</div>" * 30
        doc = parse_html(source)
        assert sum(1 for n in doc.elements() if n.tag == "div") == 30
