"""NDSyn: global structure-driven extraction (the paper's main baseline).

NDSyn (from the HDEF system, Iyer et al. PLDI 2019 [23]) synthesizes
root-anchored selector chains like Figure 2's::

    :nth-child(11) > TABLE > TBODY:nth-child(1):nth-last-child(1)
      > :nth-last-child(6) > :nth-child(2)

followed by a text program, and combines per-format candidates into a
disjunctive program.  Because every step is anchored in the *global*
document structure, the programs break when sections are inserted,
reordered, or wrapped — the failure mode LRSyn is designed to avoid.

Synthesis: annotated nodes are grouped by their root tag-path signature;
within a group, each path step keeps its ``nth-of-type`` index when all
examples agree, falls back to ``nth-last-of-type`` when those agree
(Figure 2's ``:nth-last-child``), and drops to a bare tag otherwise.  A
document-wide ``id`` selector is tried first when every annotated node
carries the same ``id`` (the aeromexico "implicit landmarks").  NDSyn's
greedy selection then builds the disjunction; if the result covers too few
training documents, synthesis fails (the NaN entries of Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.baselines.disjunctive import Candidate, select_disjuncts
from repro.core.caching import cache_enabled
from repro.core.document import SynthesisFailure, TrainingExample
from repro.core.dsl import Extractor
from repro.html.dom import DomNode, HtmlDocument
from repro.text.flashfill import TextProgram, synthesize_text_program

MIN_COVERAGE = 0.6


@dataclass(frozen=True)
class AbsStep:
    """One step of a root-anchored selector chain."""

    tag: str
    nth: int | None = None        # 1-based nth-of-type
    nth_last: int | None = None   # 1-based nth-last-of-type
    class_name: str | None = None

    def matches(self, siblings: Sequence[DomNode]) -> list[DomNode]:
        same_tag = [node for node in siblings if node.tag == self.tag]
        return self._select(same_tag)

    def matches_children(self, parent: DomNode) -> list[DomNode]:
        """Match among ``parent``'s element children via the cached per-tag
        index (:meth:`DomNode.children_by_tag`) instead of a sibling scan.

        Identical to ``matches(parent's element children)`` — the index
        holds the same tag-filtered, order-preserving list the scan would
        build.  The returned list may be the cached one; callers must not
        mutate it.  The index is a document index, not a memo, so it is
        used under ``REPRO_CACHE=0`` too.
        """
        same_tag = parent.children_by_tag().get(self.tag, [])
        return self._select(same_tag)

    def _select(self, same_tag: list[DomNode]) -> list[DomNode]:
        if self.class_name is not None:
            same_tag = [
                node
                for node in same_tag
                if self.class_name in node.attrs.get("class", "").split()
            ]
        if self.nth is not None:
            index = self.nth - 1
            return [same_tag[index]] if index < len(same_tag) else []
        if self.nth_last is not None:
            index = len(same_tag) - self.nth_last
            return [same_tag[index]] if 0 <= index < len(same_tag) else []
        return same_tag

    def __str__(self) -> str:
        base = self.tag
        if self.class_name is not None:
            base = f"{self.tag}.{self.class_name}"
        if self.nth is not None:
            return f"{base}:nth-of-type({self.nth})"
        if self.nth_last is not None:
            return f"{base}:nth-last-of-type({self.nth_last})"
        return base


@dataclass(frozen=True)
class AbsSelector:
    """A chain of absolute steps from the document root."""

    steps: tuple[AbsStep, ...]

    def select_all(self, doc: HtmlDocument) -> list[DomNode]:
        frontier: list[DomNode] = [doc.root]
        for step in self.steps:
            next_frontier: list[DomNode] = []
            for node in frontier:
                next_frontier.extend(step.matches_children(node))
            frontier = next_frontier
            if not frontier:
                return []
        return frontier

    def size(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return " > ".join(str(step) for step in self.steps)


@dataclass(frozen=True)
class GlobalIdSelector:
    """Select by a document-wide unique ``id`` attribute."""

    id_value: str

    def select_all(self, doc: HtmlDocument) -> list[DomNode]:
        return [
            node
            for node in doc.elements()
            if node.attrs.get("id") == self.id_value
        ]

    def size(self) -> int:
        return 1

    def __str__(self) -> str:
        return f"#{self.id_value}"


@dataclass(frozen=True)
class NdsynDisjunct:
    """One selector + text-program pair of the disjunction."""

    selector: AbsSelector | GlobalIdSelector
    text_program: TextProgram

    def run(
        self, doc: HtmlDocument, nodes: Sequence[DomNode] | None = None
    ) -> list[str]:
        """Extract values; ``nodes`` may carry a pre-selected node list.

        Synthesis-time coverage checks pass the memoized selection (see
        :class:`SelectorEvaluator`) — which equals
        ``selector.select_all(doc)`` by construction — so the text-program
        logic here stays the single source of truth for both paths.
        """
        if nodes is None:
            nodes = self.selector.select_all(doc)
        values = []
        for node in nodes:
            value = self.text_program(node.text_content())
            if value is not None:
                values.append(value)
        # Deduplicate exact repeats: a relaxed selector can hit the same
        # value through several structural routes.
        seen: set[str] = set()
        unique = []
        for value in values:
            if value not in seen:
                seen.add(value)
                unique.append(value)
        return unique


@dataclass
class NdsynProgram(Extractor):
    """A disjunction of selector chains: first non-empty disjunct wins."""

    disjuncts: list[NdsynDisjunct]

    def extract(self, doc: HtmlDocument) -> list[str] | None:
        for disjunct in self.disjuncts:
            values = disjunct.run(doc)
            if values:
                return values
        return None

    def size(self) -> int:
        """Average selector-component count per disjunct (Section 7.3)."""
        if not self.disjuncts:
            return 0
        total = sum(d.selector.size() for d in self.disjuncts)
        return total // len(self.disjuncts)

    def mean_selector_components(self) -> float:
        if not self.disjuncts:
            return 0.0
        return sum(d.selector.size() for d in self.disjuncts) / len(
            self.disjuncts
        )


def _node_path(node: DomNode) -> list[DomNode]:
    path = [node]
    path.extend(node.ancestors())
    path.reverse()
    return path[1:]  # drop the synthetic "document" root


def _signature(node: DomNode) -> tuple[str, ...]:
    return tuple(n.tag for n in _node_path(node))


def _positions(node: DomNode) -> tuple[int, int]:
    """(nth-of-type, nth-last-of-type), 1-based, among element siblings."""
    parent = node.parent
    if parent is None:
        same_tag = [node]
    else:
        same_tag = parent.children_by_tag().get(node.tag, [node])
    index = same_tag.index(node)
    return index + 1, len(same_tag) - index


class SelectorEvaluator:
    """Per-synthesis memo of selector evaluations on the training docs.

    The candidate pool enumerates up to :data:`MAX_SELECTOR_VARIANTS`
    step-chains per signature group — a cartesian product whose members
    share almost every prefix — and evaluates each against every training
    document.  Memoizing the frontier per ``(document, step-prefix)``
    collapses that shared work: each distinct prefix walks the DOM once
    per document.  Frontiers are exactly ``AbsSelector.select_all``'s
    intermediate states, so memoized selection is equal to fresh
    evaluation (asserted by the equivalence test).

    The memo is a trie per document keyed on the step objects' ids, not
    on the frozen dataclasses: ``itertools.product`` hands every selector
    of a group the same ``AbsStep`` object per level option, so an id
    lookup finds the shared prefix without hashing the steps.  Equal but
    distinct steps get separate entries, which costs sharing, never
    correctness.  Every entry pins its step and every trie its document,
    so no id is reused while the evaluator lives.  Scoped to one
    ``synthesize_ndsyn`` call.
    """

    def __init__(self) -> None:
        self._tries: dict[int, tuple[HtmlDocument, dict]] = {}
        self._by_id: dict[tuple[int, str], list[DomNode]] = {}

    def select_all(
        self, doc: HtmlDocument, selector: "AbsSelector | GlobalIdSelector"
    ) -> list[DomNode]:
        if isinstance(selector, AbsSelector):
            return list(self._frontier(doc, selector.steps))
        key = (id(doc), selector.id_value)
        nodes = self._by_id.get(key)
        if nodes is None:
            nodes = selector.select_all(doc)
            self._by_id[key] = nodes
        return list(nodes)

    def _frontier(
        self, doc: HtmlDocument, steps: tuple[AbsStep, ...]
    ) -> tuple[DomNode, ...]:
        trie = self._tries.get(id(doc))
        if trie is None:
            trie = self._tries[id(doc)] = (doc, {})
        level = trie[1]
        frontier: tuple[DomNode, ...] = (doc.root,)
        for step in steps:
            # entry: (pinned step, frontier after it, next trie level)
            entry = level.get(id(step))
            if entry is None:
                nodes: list[DomNode] = []
                for node in frontier:
                    nodes.extend(step.matches_children(node))
                entry = level[id(step)] = (step, tuple(nodes), {})
            frontier, level = entry[1], entry[2]
            if not frontier:
                break
        return frontier


# Cap on the number of enumerated selector variants per signature group.
MAX_SELECTOR_VARIANTS = 200


def _level_options(
    tag: str,
    positions: Sequence[tuple[int, int]],
    classes: Sequence[str],
) -> list[AbsStep]:
    """Candidate steps for one path level.

    When all examples agree on an index the level is pinned; otherwise we
    enumerate the most common ``nth`` / ``nth-last`` indices, a bare tag
    step, and a class predicate if every example node shares one.
    """
    from collections import Counter

    nths = Counter(nth for nth, _ in positions)
    lasts = Counter(last for _, last in positions)
    options: list[AbsStep] = []
    if len(nths) == 1:
        options.append(AbsStep(tag, nth=next(iter(nths))))
        if len(lasts) == 1:
            options.append(AbsStep(tag, nth_last=next(iter(lasts))))
        return options
    if len(lasts) == 1:
        options.append(AbsStep(tag, nth_last=next(iter(lasts))))
        return options
    options.extend(AbsStep(tag, nth=k) for k, _ in nths.most_common(2))
    options.extend(AbsStep(tag, nth_last=k) for k, _ in lasts.most_common(2))
    shared = set(classes[0]) if classes else set()
    for node_classes in classes[1:]:
        shared &= set(node_classes)
    for class_name in sorted(shared):
        options.append(AbsStep(tag, class_name=class_name))
    options.append(AbsStep(tag))
    return options


def _enumerate_group_selectors(
    paths: Sequence[list[DomNode]],
) -> list[AbsSelector]:
    """Enumerate selector variants for a group of equal-signature paths.

    Levels where all examples agree contribute a single pinned step; levels
    that disagree contribute several options whose cartesian product (capped
    at :data:`MAX_SELECTOR_VARIANTS`) forms the candidate pool.
    """
    from itertools import product

    depth = len(paths[0])
    per_level: list[list[AbsStep]] = []
    for level in range(depth):
        tag = paths[0][level].tag
        positions = [_positions(path[level]) for path in paths]
        classes = [
            path[level].attrs.get("class", "").split() for path in paths
        ]
        per_level.append(_level_options(tag, positions, classes))

    selectors: list[AbsSelector] = []
    for combo in product(*per_level):
        selectors.append(AbsSelector(tuple(combo)))
        if len(selectors) >= MAX_SELECTOR_VARIANTS:
            break
    return selectors


def synthesize_ndsyn(
    examples: Sequence[TrainingExample],
    min_coverage: float = MIN_COVERAGE,
) -> NdsynProgram:
    """Synthesize an NDSyn extraction program from annotated documents."""
    if not examples:
        raise SynthesisFailure("no examples for NDSyn synthesis")

    # Collect (doc, node, value) targets.
    targets: list[tuple[HtmlDocument, DomNode, str]] = []
    for example in examples:
        for group in example.annotation.groups:
            if len(group.locations) != 1:
                raise SynthesisFailure("NDSyn handles single-node values")
            targets.append((example.doc, group.locations[0], group.value))
    if not targets:
        raise SynthesisFailure("no annotated nodes for NDSyn synthesis")

    candidate_pool: list[tuple[AbsSelector | GlobalIdSelector, list[int]]] = []

    # Document-wide id selector (implicit landmarks).
    ids = {node.attrs.get("id") for _, node, _ in targets}
    if len(ids) == 1 and None not in ids and ids != {""}:
        candidate_pool.append((GlobalIdSelector(ids.pop()), list(range(len(targets)))))

    # Hot-path memoization (selector-prefix frontiers, per-group text
    # programs, per-node root paths) obeys the same knob as every other
    # memo layer: REPRO_CACHE=0 measures the memo-free pipeline.
    memoize = cache_enabled()

    # Signature-grouped path generalizations.  Root paths are memoized per
    # node: each annotated node's path is needed once for its signature and
    # once for selector enumeration.
    paths_of: dict[int, list[DomNode]] = {}

    def node_path(node: DomNode) -> list[DomNode]:
        if not memoize:
            return _node_path(node)
        path = paths_of.get(id(node))
        if path is None:
            path = _node_path(node)
            paths_of[id(node)] = path
        return path

    groups: dict[tuple[str, ...], list[int]] = {}
    for index, (_, node, _) in enumerate(targets):
        signature = tuple(n.tag for n in node_path(node))
        groups.setdefault(signature, []).append(index)
    for indices in groups.values():
        paths = [node_path(targets[i][1]) for i in indices]
        for selector in _enumerate_group_selectors(paths):
            candidate_pool.append((selector, indices))

    # Attach text programs and evaluate coverage per training document.
    # Every selector of one signature group shares the same text examples,
    # so the text program is synthesized once per group, not once per
    # selector variant; selector evaluation goes through the
    # prefix-memoized evaluator; and the expected aggregates are hoisted
    # out of the per-candidate loop.
    text_programs: dict[tuple[int, ...], TextProgram | None] = {}
    evaluator = SelectorEvaluator() if memoize else None
    expected = [example.annotation.aggregate() for example in examples]
    candidates: list[Candidate[NdsynDisjunct]] = []
    for selector, indices in candidate_pool:
        group_key = tuple(indices)
        if not memoize or group_key not in text_programs:
            text_examples = [
                (targets[i][1].text_content(), targets[i][2]) for i in indices
            ]
            try:
                text_programs[group_key] = synthesize_text_program(
                    text_examples
                )
            except SynthesisFailure:
                text_programs[group_key] = None
        text_program = text_programs[group_key]
        if text_program is None:
            continue
        disjunct = NdsynDisjunct(selector=selector, text_program=text_program)
        covered = frozenset(
            doc_index
            for doc_index, example in enumerate(examples)
            if disjunct.run(
                example.doc,
                nodes=(
                    evaluator.select_all(example.doc, selector)
                    if evaluator is not None
                    else None
                ),
            )
            == expected[doc_index]
        )
        # Generalization sanity: a disjunct synthesized from one document
        # only (covering a single example) is over-fit noise; the real
        # NDSyn's F1-driven selection discards such programs.
        min_support = 2 if len(examples) >= 4 else 1
        if len(covered) < min_support:
            continue
        candidates.append(
            Candidate(program=disjunct, covered=covered, size=selector.size())
        )

    try:
        chosen = select_disjuncts(
            candidates, num_examples=len(examples), min_coverage=min_coverage
        )
    except ValueError as error:
        raise SynthesisFailure(f"NDSyn: {error}") from error
    if not chosen:
        raise SynthesisFailure("NDSyn selected no disjuncts")
    return NdsynProgram(disjuncts=chosen)
