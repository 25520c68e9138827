"""NDSyn's group-tree coverage must equal the per-selector loop it replaced.

:func:`repro.baselines.ndsyn.ndsyn_candidates` walks each signature group's
option tree once per training page and judges each distinct frontier once.
The reference below is a frozen copy of the loop it replaced: every
enumerated selector runs ``select_all`` and its text program on every
training page.  Both must give the same candidate list, in order:
selector, text program, covered set and size.
"""

from itertools import product

import pytest

from repro.baselines import ndsyn
from repro.baselines.disjunctive import Candidate
from repro.baselines.ndsyn import (
    AbsSelector,
    AbsStep,
    GlobalIdSelector,
    NdsynDisjunct,
    _group_levels,
    _group_selectors,
    _level_options,
    _node_path,
    _positions,
    ndsyn_candidates,
    synthesize_ndsyn,
)
from repro.core.document import (
    Annotation,
    AnnotationGroup,
    SynthesisFailure,
    TrainingExample,
)
from repro.datasets import forge, m2h
from repro.datasets.base import CONTEMPORARY
from repro.html.parser import parse_html
from repro.text.flashfill import synthesize_text_program


def ads(count):
    return "".join(
        f"<table><tr><td>ad {i}</td></tr></table>" for i in range(count)
    )


def email(time, sections_before=0, value_id=None, sections_after=0):
    id_attr = f" id='{value_id}'" if value_id else ""
    return parse_html(
        f"<html><body>{ads(sections_before)}"
        f"<table><tr><td>Depart:</td><td{id_attr}>{time}</td></tr></table>"
        f"{ads(sections_after)}</body></html>"
    )


def nested(time, shape):
    """A value ``span`` under one ``div`` per ``(before, after)`` of
    ``shape``, each with that many filler siblings around it."""
    html = f"<span>{time}</span>"
    for before, after in reversed(shape):
        html = (
            "<div>x</div>" * before
            + f"<div>{html}</div>"
            + "<div>y</div>" * after
        )
    return parse_html(f"<html><body>{html}</body></html>")


def example(doc, value):
    node = doc.find_by_text(value)[-1]
    return TrainingExample(
        doc=doc,
        annotation=Annotation(
            groups=[AnnotationGroup(locations=(node,), value=value)]
        ),
    )


def unannotated(doc):
    return TrainingExample(doc=doc, annotation=Annotation(groups=[]))


# -- the reference: the per-selector loop, frozen ---------------------------


def reference_run(disjunct, doc):
    nodes = disjunct.selector.select_all(doc)
    values = []
    for node in nodes:
        value = disjunct.text_program(node.text_content())
        if value is not None:
            values.append(value)
    seen = set()
    unique = []
    for value in values:
        if value not in seen:
            seen.add(value)
            unique.append(value)
    return unique


def reference_group_selectors(paths):
    per_level = []
    for level in range(len(paths[0])):
        tag = paths[0][level].tag
        positions = [_positions(path[level]) for path in paths]
        classes = [
            path[level].attrs.get("class", "").split() for path in paths
        ]
        per_level.append(_level_options(tag, positions, classes))
    selectors = []
    for combo in product(*per_level):
        selectors.append(AbsSelector(tuple(combo)))
        if len(selectors) >= ndsyn.MAX_SELECTOR_VARIANTS:
            break
    return selectors


def reference_candidates(examples):
    if not examples:
        raise SynthesisFailure("no examples for NDSyn synthesis")
    targets = []
    for ex in examples:
        for group in ex.annotation.groups:
            if len(group.locations) != 1:
                raise SynthesisFailure("NDSyn handles single-node values")
            targets.append((ex.doc, group.locations[0], group.value))
    if not targets:
        raise SynthesisFailure("no annotated nodes for NDSyn synthesis")
    pool = []
    ids = {node.attrs.get("id") for _, node, _ in targets}
    if len(ids) == 1 and None not in ids and ids != {""}:
        pool.append((GlobalIdSelector(ids.pop()), list(range(len(targets)))))
    groups = {}
    for index, (_, node, _) in enumerate(targets):
        signature = tuple(n.tag for n in _node_path(node))
        groups.setdefault(signature, []).append(index)
    for indices in groups.values():
        paths = [_node_path(targets[i][1]) for i in indices]
        for selector in reference_group_selectors(paths):
            pool.append((selector, indices))
    expected = [ex.annotation.aggregate() for ex in examples]
    candidates = []
    for selector, indices in pool:
        try:
            text_program = synthesize_text_program(
                [(targets[i][1].text_content(), targets[i][2])
                 for i in indices]
            )
        except SynthesisFailure:
            continue
        disjunct = NdsynDisjunct(selector=selector, text_program=text_program)
        covered = frozenset(
            doc_index
            for doc_index, ex in enumerate(examples)
            if reference_run(disjunct, ex.doc) == expected[doc_index]
        )
        min_support = 2 if len(examples) >= 4 else 1
        if len(covered) < min_support:
            continue
        candidates.append(
            Candidate(program=disjunct, covered=covered, size=selector.size())
        )
    return candidates


def assert_same_candidates(examples):
    new = ndsyn_candidates(examples)
    old = reference_candidates(examples)
    assert [c.program.selector for c in new] == [
        c.program.selector for c in old
    ]
    assert new == old
    return new


# -- inputs -------------------------------------------------------------------


def m2h_examples(provider="delta", field="DTime", train_size=6):
    corpus = m2h.generate_corpus(
        provider, train_size=train_size, test_size=1, seed=0
    )
    return corpus.training_examples(field)


def forge_examples():
    corpus = forge.generate_corpus(
        "forge000", train_size=6, test_size=1, setting=CONTEMPORARY, seed=0
    )
    return corpus.training_examples(forge.fields_for("forge000")[0])


def drifting_emails():
    """Pages whose value table moves, so several level options select the
    same table (duplicate frontiers) and ``nth-of-type(2)`` finds no table
    on the one-table page (a frontier that empties before the last step)."""
    return [
        example(email("8:18 PM", i % 3, sections_after=(i + 1) % 2), "8:18 PM")
        for i in range(5)
    ]


def nested_pages():
    """Five options at each of three ``div`` levels and two at each pinned
    level: more selectors than :data:`MAX_SELECTOR_VARIANTS`."""
    shapes = [
        [(0, 2), (1, 0), (2, 1)],
        [(1, 0), (0, 1), (0, 0)],
        [(2, 1), (2, 2), (1, 2)],
        [(0, 2), (1, 0), (0, 0)],
    ]
    return [example(nested("8:18 PM", shape), "8:18 PM") for shape in shapes]


def group_paths(examples):
    return [
        _node_path(ex.annotation.groups[0].locations[0]) for ex in examples
    ]


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


class TestGroupCoverage:
    @pytest.mark.parametrize("cap", [1, 5, 37, 200])
    def test_bits_follow_selector_order(self, monkeypatch, cap):
        monkeypatch.setattr(ndsyn, "MAX_SELECTOR_VARIANTS", cap)
        for examples in (drifting_emails(), nested_pages()):
            per_level = _group_levels(group_paths(examples))
            selectors = _group_selectors(per_level)
            for ex in examples:
                bits = ndsyn._group_coverage(per_level, ex.doc, bool)
                assert bits == [bool(s.select_all(ex.doc)) for s in selectors]

    def test_each_distinct_frontier_judged_once(self):
        examples = drifting_emails()
        paths = group_paths(examples)
        per_level = _group_levels(paths)
        selectors = _group_selectors(per_level)
        for ex in examples:
            judged = []
            ndsyn._group_coverage(
                per_level,
                ex.doc,
                lambda nodes: judged.append(tuple(map(id, nodes))) or True,
            )
            frontiers = {
                tuple(map(id, s.select_all(ex.doc))) for s in selectors
            }
            assert sorted(judged) == sorted(frontiers)
        # The inputs really exercise both shortcuts: some page has more
        # selectors than distinct frontiers, and some selector's frontier
        # empties before its last step.
        page = examples[0].doc
        assert len({tuple(map(id, s.select_all(page))) for s in selectors}) < (
            len(selectors)
        )
        assert any(
            not AbsSelector(s.steps[:-1]).select_all(ex.doc)
            for s in selectors
            for ex in examples
        )


class TestCandidateEquivalence:
    def test_m2h_delta_dtime(self):
        assert len(assert_same_candidates(m2h_examples())) > 1

    def test_forge_html_field(self):
        assert assert_same_candidates(forge_examples())

    def test_duplicate_and_emptying_frontiers(self):
        assert assert_same_candidates(drifting_emails())

    def test_unannotated_page_covered_by_empty_frontier(self):
        """A page with no value expects ``[]``, which every selector whose
        frontier empties on it matches, early or at the last step."""
        examples = drifting_emails() + [unannotated(email("x", 0))]
        candidates = assert_same_candidates(examples)
        assert any(5 in c.covered for c in candidates)

    def test_id_selector(self):
        examples = [
            example(email("8:18 PM", i % 3, value_id="when"), "8:18 PM")
            for i in range(4)
        ]
        candidates = assert_same_candidates(examples)
        assert candidates[0].program.selector == GlobalIdSelector("when")

    def test_text_program_failure_drops_group(self):
        examples = [
            example(email("8:18 PM"), "8:18 PM"),
            example(email("Depart: 8:18 PM", 1), "Depart:"),
        ]
        assert_same_candidates(examples)

    def test_errors_match(self):
        with pytest.raises(SynthesisFailure, match="no examples"):
            ndsyn_candidates([])
        with pytest.raises(SynthesisFailure, match="no annotated nodes"):
            ndsyn_candidates([unannotated(email("x"))])

    def test_nested_levels(self):
        examples = nested_pages()
        per_level = _group_levels(group_paths(examples))
        assert [len(options) for options in per_level[2:5]] == [5, 5, 5]
        assert len(_group_selectors(per_level)) == ndsyn.MAX_SELECTOR_VARIANTS
        assert assert_same_candidates(examples)

    @pytest.mark.parametrize("cap", [1, 5, 37])
    def test_variant_cap_mid_tree(self, monkeypatch, cap):
        monkeypatch.setattr(ndsyn, "MAX_SELECTOR_VARIANTS", cap)
        examples = nested_pages()
        per_level = _group_levels(group_paths(examples))
        assert len(_group_selectors(per_level)) == cap
        assert_same_candidates(examples)
        assert_same_candidates(m2h_examples())
        assert_same_candidates(drifting_emails())


class TestSynthesisEquivalence:
    def test_memoized_selector_chains_identical(self):
        """Every chosen disjunct extracts like the reference."""
        examples = drifting_emails()[:4]
        program = synthesize_ndsyn(examples)
        for disjunct in program.disjuncts:
            for ex in examples:
                assert disjunct.run(ex.doc) == reference_run(disjunct, ex.doc)

    def test_corpus_program_extractions_stable(self):
        """On a real generated corpus the synthesized program extracts
        like the reference on every training and test document."""
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
                assert disjunct.run(doc) == reference_run(disjunct, doc)
