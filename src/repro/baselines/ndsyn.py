"""NDSyn: global structure-driven extraction (the paper's main baseline).

NDSyn (from the HDEF system, Iyer et al. PLDI 2019 [23]) synthesizes
root-anchored selector chains like Figure 2's::

    :nth-child(11) > TABLE > TBODY:nth-child(1):nth-last-child(1)
      > :nth-last-child(6) > :nth-child(2)

followed by a text program, and combines per-format candidates into a
disjunctive program.  Because every step is anchored in the *global*
document structure, the programs break when sections are inserted,
reordered, or wrapped — the failure mode LRSyn is designed to avoid.

Synthesis: annotated nodes are grouped by their root tag-path signature.
Each level of a group's path offers step options: its ``nth-of-type`` (and
``nth-last-of-type``, Figure 2's ``:nth-last-child``) when all examples
agree on it, otherwise the most common indices of both kinds, a shared
class and a bare tag.  The group's candidate selectors are the cartesian
product of its levels, all sharing one text program synthesized from the
group's values; their coverage of each training document comes from one
walk of the group's option tree (:func:`_group_coverage`).  A
document-wide ``id`` selector is tried first when every annotated node
carries the same ``id`` (the aeromexico "implicit landmarks").  NDSyn's
greedy selection then builds the disjunction; if the result covers too few
training documents, synthesis fails (the NaN entries of Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from typing import Callable, Sequence

from repro.baselines.disjunctive import Candidate, select_disjuncts
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
        """Extract values; ``nodes`` may carry a pre-selected node list
        equal to ``selector.select_all(doc)``."""
        if nodes is None:
            nodes = self.selector.select_all(doc)
        return _extract_values(self.text_program, nodes)


def _extract_values(
    text_program: TextProgram, nodes: Sequence[DomNode]
) -> list[str]:
    """The text program's values on ``nodes``, exact repeats dropped: a
    relaxed selector can hit the same value through several structural
    routes."""
    seen: set[str] = set()
    unique = []
    for node in nodes:
        value = text_program(node.text_content())
        if value is not None and value not in seen:
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


def _positions(node: DomNode) -> tuple[int, int]:
    """(nth-of-type, nth-last-of-type), 1-based, among element siblings."""
    parent = node.parent
    if parent is None:
        same_tag = [node]
    else:
        same_tag = parent.children_by_tag().get(node.tag, [node])
    index = same_tag.index(node)
    return index + 1, len(same_tag) - index


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


def _group_levels(paths: Sequence[list[DomNode]]) -> list[list[AbsStep]]:
    """Per-level step options for a group of equal-signature paths.

    Levels where all examples agree contribute only their shared indices;
    levels that disagree contribute more options (:func:`_level_options`).
    The group's selectors are the cartesian product of the levels in
    ``itertools.product`` order, capped at :data:`MAX_SELECTOR_VARIANTS`
    (:func:`_group_selectors`).
    """
    per_level: list[list[AbsStep]] = []
    for level in range(len(paths[0])):
        tag = paths[0][level].tag
        positions = [_positions(path[level]) for path in paths]
        classes = [
            path[level].attrs.get("class", "").split() for path in paths
        ]
        per_level.append(_level_options(tag, positions, classes))
    return per_level


def _group_selectors(per_level: Sequence[list[AbsStep]]) -> list[AbsSelector]:
    return [
        AbsSelector(combo)
        for combo in islice(product(*per_level), MAX_SELECTOR_VARIANTS)
    ]


def _group_coverage(
    per_level: Sequence[list[AbsStep]],
    doc: HtmlDocument,
    covers: Callable[[list[DomNode]], bool],
) -> list[bool]:
    """Whether each of the group's selectors (in :func:`_group_selectors`
    order) covers ``doc``, where ``covers`` judges a selected node list.

    The selectors are the leaves of a tree whose level-``k`` edges are the
    options for step ``k``; a depth-first walk in product order computes
    each tree node's frontier from its parent's, which is exactly
    ``AbsSelector.select_all``'s intermediate state for every selector
    below it.  Leaves that share a frontier (the same nodes reached through
    different steps) are judged once, and a tree node whose frontier an
    earlier node already had repeats that node's bits: the frontier fixes
    the level, and every node of a level has the same options below it.
    A frontier that empties decides its whole subtree.  Only bits are
    kept, never the leaf frontiers.
    """
    walk = _CoverageWalk(per_level, covers)
    walk.walk(0, [doc.root])
    return walk.bits


class _CoverageWalk:
    """One walk of :func:`_group_coverage`.  A class rather than a
    recursive closure: a closure that calls itself is a reference cycle,
    which would keep its tables alive until the next cyclic collection."""

    def __init__(
        self,
        per_level: Sequence[list[AbsStep]],
        covers: Callable[[list[DomNode]], bool],
    ) -> None:
        self.per_level = per_level
        self.covers = covers
        # below[k]: leaves under a tree node at depth k.
        self.below = [1] * (len(per_level) + 1)
        for level in range(len(per_level) - 1, -1, -1):
            self.below[level] = self.below[level + 1] * len(per_level[level])
        self.bits: list[bool] = []
        # Both tables key on the frontier's nodes, which hash by identity.
        # A non-empty frontier of level k holds nodes of depth k + 1 only,
        # so the nodes alone tell levels apart.
        self.judged: dict[tuple[DomNode, ...], bool] = {}
        self.subtrees: dict[tuple[DomNode, ...], list[bool]] = {}

    def walk(self, level: int, frontier: list[DomNode]) -> None:
        bits = self.bits
        key = tuple(frontier)
        if level == len(self.per_level) or not frontier:
            hit = self.judged.get(key)
            if hit is None:
                hit = self.judged[key] = self.covers(frontier)
            leaves = min(self.below[level], MAX_SELECTOR_VARIANTS - len(bits))
            bits.extend([hit] * leaves)
            return
        seen = self.subtrees.get(key)
        if seen is not None:
            bits.extend(seen[: MAX_SELECTOR_VARIANTS - len(bits)])
            return
        start = len(bits)
        for step in self.per_level[level]:
            next_frontier: list[DomNode] = []
            for node in frontier:
                next_frontier.extend(step.matches_children(node))
            self.walk(level + 1, next_frontier)
            if len(bits) >= MAX_SELECTOR_VARIANTS:
                return
        self.subtrees[key] = bits[start:]


def ndsyn_candidates(
    examples: Sequence[TrainingExample],
) -> list[Candidate[NdsynDisjunct]]:
    """NDSyn's candidate pool, each disjunct with the training documents
    it is correct on: the id selector first, then each signature group's
    selectors in product order."""
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

    expected = [example.annotation.aggregate() for example in examples]
    # Generalization sanity: a disjunct synthesized from one document
    # only (covering a single example) is over-fit noise; the real
    # NDSyn's F1-driven selection discards such programs.
    min_support = 2 if len(examples) >= 4 else 1
    candidates: list[Candidate[NdsynDisjunct]] = []

    def add_candidates(
        indices: Sequence[int],
        selectors: Sequence[AbsSelector | GlobalIdSelector],
        coverage: Callable[[HtmlDocument, Callable], list[bool]],
    ) -> None:
        """Append the selectors that cover enough training documents, in
        order; every selector of one group shares the group's text
        program."""
        try:
            text_program = synthesize_text_program(
                [(targets[i][1].text_content(), targets[i][2])
                 for i in indices]
            )
        except SynthesisFailure:
            return
        covered: list[list[int]] = [[] for _ in selectors]
        for doc_index, example in enumerate(examples):
            want = expected[doc_index]
            bits = coverage(
                example.doc,
                lambda nodes: _extract_values(text_program, nodes) == want,
            )
            for hits, bit in zip(covered, bits):
                if bit:
                    hits.append(doc_index)
        for selector, hits in zip(selectors, covered):
            if len(hits) >= min_support:
                candidates.append(
                    Candidate(
                        program=NdsynDisjunct(selector, text_program),
                        covered=frozenset(hits),
                        size=selector.size(),
                    )
                )

    # Document-wide id selector (implicit landmarks).
    ids = {node.attrs.get("id") for _, node, _ in targets}
    if len(ids) == 1 and None not in ids and ids != {""}:
        id_selector = GlobalIdSelector(ids.pop())
        add_candidates(
            range(len(targets)),
            [id_selector],
            lambda doc, covers: [covers(id_selector.select_all(doc))],
        )

    # Signature-grouped path generalizations.
    paths = [_node_path(node) for _, node, _ in targets]
    groups: dict[tuple[str, ...], list[int]] = {}
    for index, path in enumerate(paths):
        groups.setdefault(tuple(n.tag for n in path), []).append(index)
    for indices in groups.values():
        per_level = _group_levels([paths[i] for i in indices])
        add_candidates(
            indices,
            _group_selectors(per_level),
            lambda doc, covers: _group_coverage(per_level, doc, covers),
        )
    return candidates


def synthesize_ndsyn(
    examples: Sequence[TrainingExample],
    min_coverage: float = MIN_COVERAGE,
) -> NdsynProgram:
    """Synthesize an NDSyn extraction program from annotated documents."""
    candidates = ndsyn_candidates(examples)
    try:
        chosen = select_disjuncts(
            candidates, num_examples=len(examples), min_coverage=min_coverage
        )
    except ValueError as error:
        raise SynthesisFailure(f"NDSyn: {error}") from error
    if not chosen:
        raise SynthesisFailure("NDSyn selected no disjuncts")
    return NdsynProgram(disjuncts=chosen)
