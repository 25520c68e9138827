"""The regex fast path of ``parse_html`` against the stdlib fallback.

Every generated HTML page must take the fast path and come out node for
node equal to the ``HTMLParser`` tree; fuzzed markup must either come out
equal or take the fallback.  The module needs only the standard library
and ``repro`` (no numpy), and its checks are plain functions, so it also
runs on interpreters that carry nothing but pytest.
"""

import random

from repro.datasets import forge, m2h
from repro.datasets import forge_transforms as transforms
from repro.datasets.base import CONTEMPORARY, LONGITUDINAL
from repro.html.parser import MAX_DEPTH, _TreeBuilder, _fast_tree, parse_html

# The corpus sizes the harness uses at REPRO_SCALE=0.15.
M2H_TRAIN, M2H_TEST = 9, 78
FORGE_TRAIN, FORGE_TEST = 8, 22


def fallback_tree(source):
    builder = _TreeBuilder()
    builder.feed(source)
    builder.close()
    return builder.root


def assert_same_tree(fast, slow):
    """Tag, attributes (with their order), text and child order."""
    pairs = [(fast, slow)]
    while pairs:
        a, b = pairs.pop()
        assert a.tag == b.tag
        assert list(a.attrs.items()) == list(b.attrs.items())
        assert a.text == b.text
        assert len(a.children) == len(b.children)
        for x, y in zip(a.children, b.children):
            assert x.parent is a and y.parent is b
            pairs.append((x, y))


def generated_pages():
    for provider in m2h.PROVIDERS:
        contemporary = m2h.generate_corpus(
            provider, M2H_TRAIN, M2H_TEST, CONTEMPORARY, seed=0
        )
        longitudinal = m2h.generate_corpus(
            provider, M2H_TRAIN, M2H_TEST, LONGITUDINAL, seed=0,
            train=contemporary.train,
        )
        for labeled in contemporary.train + contemporary.test + longitudinal.test:
            yield labeled.doc.source
    for provider in forge.forge_providers():
        for setting in (CONTEMPORARY, LONGITUDINAL):
            corpus = forge.generate_corpus(
                provider, FORGE_TRAIN, FORGE_TEST, setting, seed=0
            )
            for labeled in corpus.train + corpus.test:
                yield labeled.doc.source
        for transform in transforms.HTML_DRIFT_TRANSFORMS.values():
            rng = random.Random(f"drift|{provider}|{transform.__name__}")
            spec = forge.provider_spec(provider)
            layout = forge.build_layout(spec, forge.random_order(rng, spec), rng)
            yield transforms.render_html(transform(layout, rng))


def test_generated_pages_take_the_fast_path_and_equal_the_fallback():
    count = 0
    for source in generated_pages():
        fast = _fast_tree(source)
        assert fast is not None, source[:200]  # no fallback
        assert_same_tree(fast, fallback_tree(source))
        count += 1
    assert count == (
        len(m2h.PROVIDERS) * (M2H_TRAIN + 2 * M2H_TEST)
        + len(forge.forge_providers())
        * (2 * (FORGE_TRAIN + FORGE_TEST) + len(transforms.HTML_DRIFT_TRANSFORMS))
    )


# Markup the fast path accepts, and markup it must hand to the fallback
# (or accept only where the trees come out equal).
PLAIN = [
    "<div>", "</div>", "<p>", "</p>", "<span>", "</span>", "<table>",
    "</table>", "<tr>", "<td>", "</td>", "</tr>", "<h1>", "</h1>", "text",
    "  \n ", "x > y", "<br>", "<br/>", "<br />", "<img src='a.png'>",
    '<DIV CLASS="Up">', "</DIV\t>", "<Span ID=x>", "</P >", "<td class=unq>",
    "<input disabled>", "<input disabled/>", '<a x="1" x="2">',
    '<a X="1" x="2" y=3>', "<div/>", "</br>", '<div\nclass="n"\n>',
    "<i\r\nid=z>", '<p class = "s">', '<a href="?a=1&amp;b=2">',
    "<td x='&#39;q'>", '<td data-f-x="v &lt; w">', "&amp;", "&amp",
    "&lt;x", "&#65;", "&#x41", "&notit;", "&notin", "&bogus;", "AT&T",
    "&nbsp;", "\xa0", "<title>Plain title</title>",
    "<textarea>typed</textarea>",
]
HAZARDS = [
    "<!-- note -->", "<!DOCTYPE html>", "<?xml version='1.0'?>",
    "<script>if (a < b) { go(); }</script>", "<style>p > a { x: 1 }</style>",
    "<title>A &amp; B</title>", "<title><b>x</b></title>",
    "<textarea>a < b</textarea>", "a < b", "<", "</ div>", "< p>",
    '<a href="?a=1&b=2">', "<a b=c/>", "<a title='x>y'>", "<a b==c>",
    '<a b="x"c="y">', "<my-tag>", "</my-tag>", "<td x=a\xa0b>", "<b\x0bx>",
    "<![CDATA[x]]>", "<div", "</SCRIPT>", "<Title>t</TITLE >",
]


def test_fuzzed_markup_equals_the_fallback_or_takes_it():
    rng = random.Random(20_261_019)
    outcomes = {"fast": 0, "fallback": 0}
    for _ in range(4000):
        fragments = [
            rng.choice(HAZARDS if rng.random() < 0.08 else PLAIN)
            for _ in range(rng.randint(1, 14))
        ]
        source = "".join(fragments)
        fast = _fast_tree(source)
        if fast is None:
            outcomes["fallback"] += 1
            continue
        outcomes["fast"] += 1
        assert_same_tree(fast, fallback_tree(source))
    # Both outcomes are exercised often.
    assert min(outcomes.values()) > 1000, outcomes


def test_each_hazard_alone_takes_the_fallback_or_equals_it():
    for hazard in HAZARDS:
        for source in (hazard, f"<div>{hazard}</div>", f"<p>a{hazard}b</p>"):
            fast = _fast_tree(source)
            if fast is not None:
                assert_same_tree(fast, fallback_tree(source))
    for forced in ("<!-- x -->", "<script>x</script>", "<style></style>",
                   "a < b", "<?php ?>", "<title>&amp;</title>"):
        assert _fast_tree(f"<div>{forced}</div>") is None


def _depth_error(parse, source):
    try:
        parse(source)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("nesting past MAX_DEPTH was accepted")


def test_depth_limit_message_is_equal_on_both_paths():
    deep = "<div>" * (MAX_DEPTH + 1)
    fast = _depth_error(_fast_tree, deep)
    slow = _depth_error(fallback_tree, deep)
    assert fast == slow == f"document nests deeper than {MAX_DEPTH} elements"
    # A comment sends the same document to the fallback.
    assert _fast_tree("<!-- x -->" + deep) is None
    assert _depth_error(parse_html, "<!-- x -->" + deep) == fast
    assert _depth_error(parse_html, deep) == fast
    # At the limit both paths accept.
    limit = "<div>" * MAX_DEPTH + "deep"
    assert_same_tree(_fast_tree(limit), fallback_tree(limit))
