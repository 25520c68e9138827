"""NDSyn hot-path memoization must not change observable behavior.

The synthesis loop memoizes selector-prefix frontiers
(:class:`repro.baselines.ndsyn.SelectorEvaluator`, a trie keyed on step
ids) and per-group text programs, and matches steps through the
per-parent tag index (:meth:`DomNode.children_by_tag`); these tests pin
the memoized and indexed paths to the fresh, scan-everything
evaluations they replace.
"""

from repro.baselines.ndsyn import (
    AbsSelector,
    AbsStep,
    GlobalIdSelector,
    SelectorEvaluator,
    _enumerate_group_selectors,
    _node_path,
    synthesize_ndsyn,
)
from repro.core.document import Annotation, AnnotationGroup, TrainingExample
from repro.datasets import m2h
from repro.html.parser import parse_html


def email(time, sections_before=0):
    ads = "".join(
        f"<table><tr><td>ad {i}</td></tr></table>"
        for i in range(sections_before)
    )
    return parse_html(
        f"<html><body>{ads}"
        f"<table><tr><td>Depart:</td><td>{time}</td></tr></table>"
        "</body></html>"
    )


def example(doc, value):
    node = doc.find_by_text(value)[0]
    return TrainingExample(
        doc=doc,
        annotation=Annotation(
            groups=[AnnotationGroup(locations=(node,), value=value)]
        ),
    )


def fresh_select_all(selector, doc):
    """Reference evaluation: the pre-memoization sibling-scan semantics."""
    if isinstance(selector, GlobalIdSelector):
        return [
            node
            for node in doc.elements()
            if node.attrs.get("id") == selector.id_value
        ]
    frontier = [doc.root]
    for step in selector.steps:
        next_frontier = []
        for node in frontier:
            children = [c for c in node.children if not c.is_text]
            next_frontier.extend(step.matches(children))
        frontier = next_frontier
        if not frontier:
            return []
    return frontier


class TestIndexedMatchingEquivalence:
    def test_matches_children_equals_sibling_scan(self):
        doc = email("8:18 PM", sections_before=3)
        steps = [
            AbsStep("table"),
            AbsStep("table", nth=2),
            AbsStep("table", nth_last=1),
            AbsStep("tr", nth=1),
            AbsStep("td", nth_last=2),
            AbsStep("div"),  # absent tag
        ]
        for node in doc.elements():
            children = [c for c in node.children if not c.is_text]
            for step in steps:
                assert step.matches_children(node) == step.matches(children)

    def test_evaluator_equals_fresh_selection(self):
        docs = [email("8:18 PM", sections_before=i) for i in range(3)]
        paths = [_node_path(doc.find_by_text("Depart:")[0]) for doc in docs]
        evaluator = SelectorEvaluator()
        for selector in _enumerate_group_selectors(paths):
            for doc in docs:
                memoized = evaluator.select_all(doc, selector)
                assert memoized == selector.select_all(doc)
                assert memoized == fresh_select_all(selector, doc)
                # Second lookup (served from the frontier memo) too.
                assert evaluator.select_all(doc, selector) == memoized

    def test_equal_but_distinct_steps(self):
        """The memo is keyed on step ids: equal steps built separately get
        their own entries, and both selections stay correct."""
        docs = [email("8:18 PM", sections_before=i) for i in range(3)]

        def chain():
            return AbsSelector(
                (
                    AbsStep("html", nth=1),
                    AbsStep("body", nth=1),
                    AbsStep("table", nth_last=1),
                    AbsStep("tr"),
                    AbsStep("td", nth=2),
                )
            )

        first, second = chain(), chain()
        assert first == second
        assert all(a is not b for a, b in zip(first.steps, second.steps))
        # A prefix shared by object and a tail that is only equal.
        mixed = AbsSelector(first.steps[:2] + second.steps[2:])
        evaluator = SelectorEvaluator()
        for doc in docs:
            expected = fresh_select_all(first, doc)
            assert [n.text_content() for n in expected] == ["8:18 PM"]
            for selector in (first, second, mixed, first):
                assert evaluator.select_all(doc, selector) == expected

    def test_m2h_candidate_pool_on_two_documents(self):
        """Every selector NDSyn enumerates for an m2h field, evaluated
        through one shared evaluator, equals the fresh sibling scan."""
        corpus = m2h.generate_corpus(
            "delta", train_size=6, test_size=2, seed=0
        )
        examples = corpus.training_examples("DTime")
        groups = {}
        for ex in examples:
            for group in ex.annotation.groups:
                path = _node_path(group.locations[0])
                groups.setdefault(tuple(n.tag for n in path), []).append(path)
        pool = [
            selector
            for paths in groups.values()
            for selector in _enumerate_group_selectors(paths)
        ]
        assert len(pool) > 1
        docs = [examples[0].doc, corpus.test[0].doc]
        evaluator = SelectorEvaluator()
        for _ in range(2):  # second pass is served from the memo
            for selector in pool:
                for doc in docs:
                    assert evaluator.select_all(
                        doc, selector
                    ) == fresh_select_all(selector, doc)

    def test_evaluator_global_id_selector(self):
        doc = parse_html(
            "<html><body><p id='when'>8:18 PM</p>"
            "<p id='other'>x</p></body></html>"
        )
        selector = GlobalIdSelector("when")
        evaluator = SelectorEvaluator()
        assert evaluator.select_all(doc, selector) == selector.select_all(doc)
        assert evaluator.select_all(doc, selector) == fresh_select_all(
            selector, doc
        )


class TestSynthesisEquivalence:
    def test_memoized_selector_chains_identical(self):
        """Memoized vs. fresh: every chosen disjunct evaluates identically."""
        examples = [
            example(email("8:18 PM", sections_before=i % 2), "8:18 PM")
            for i in range(4)
        ]
        program = synthesize_ndsyn(examples)
        for disjunct in program.disjuncts:
            for ex in examples:
                fresh = fresh_select_all(disjunct.selector, ex.doc)
                assert disjunct.selector.select_all(ex.doc) == fresh
                assert disjunct.run(ex.doc) == disjunct.run(
                    ex.doc, nodes=fresh
                )

    def test_corpus_program_extractions_stable(self):
        """On a real generated corpus the synthesized program's selectors
        agree with the reference scan on every training document."""
        corpus = m2h.generate_corpus(
            "delta", train_size=5, test_size=3, seed=0
        )
        examples = corpus.training_examples("DTime")
        program = synthesize_ndsyn(examples)
        docs = [ex.doc for ex in examples] + [
            labeled.doc for labeled in corpus.test
        ]
        for disjunct in program.disjuncts:
            for doc in docs:
                assert disjunct.selector.select_all(doc) == fresh_select_all(
                    disjunct.selector, doc
                )
