"""A minimal concrete Domain over "list of labeled cells" documents.

Used by the core tests to exercise the domain-agnostic algorithms without
depending on the HTML or image substrates.  A document is a list of strings;
a location is an index; a region is a contiguous index interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.document import (
    Domain,
    Region,
    RegionProgram,
    ScoredLandmark,
    SynthesisFailure,
    TrainingExample,
    ValueProgram,
)


class FakeDoc:
    def __init__(self, cells: Sequence[str]):
        self.cells = list(cells)


@dataclass(frozen=True)
class FakeRegion(Region):
    doc: FakeDoc
    start: int
    end: int

    def locations(self):
        return list(range(self.start, self.end + 1))

    def texts(self):
        return self.doc.cells[self.start : self.end + 1]


@dataclass(frozen=True)
class FakeRegionProgram(RegionProgram):
    offset: int  # region spans [loc, loc + offset]

    def __call__(self, doc: FakeDoc, loc: int) -> FakeRegion | None:
        end = loc + self.offset
        if end >= len(doc.cells):
            return None
        return FakeRegion(doc, loc, end)

    def size(self) -> int:
        return 1


@dataclass(frozen=True)
class FakeValueProgram(ValueProgram):
    index: int  # which cell of the region carries the value

    def __call__(self, region: FakeRegion):
        texts = region.texts()
        if self.index >= len(texts):
            return None
        return [texts[self.index]]

    def size(self) -> int:
        return 1


class FakeDomain(Domain):
    """Cells containing ``label:`` texts act as landmarks."""

    def locations(self, doc: FakeDoc):
        return list(range(len(doc.cells)))

    def data(self, doc: FakeDoc, loc: int) -> str:
        return doc.cells[loc]

    def locate(self, doc: FakeDoc, landmark: str):
        return [i for i, cell in enumerate(doc.cells) if landmark in cell]

    def enclosing_region(self, doc: FakeDoc, locs):
        return FakeRegion(doc, min(locs), max(locs))

    def document_blueprint(self, doc: FakeDoc):
        return frozenset(
            cell for cell in doc.cells if cell.endswith(":")
        )

    def region_blueprint(self, doc: FakeDoc, region: FakeRegion, common):
        return frozenset(
            text for text in region.texts() if text in common
        )

    def blueprint_distance(self, bp1, bp2) -> float:
        if not bp1 and not bp2:
            return 0.0
        union = len(bp1 | bp2)
        return 1.0 - len(bp1 & bp2) / union if union else 0.0

    def common_values(self, docs):
        common = None
        for doc in docs:
            texts = set(doc.cells)
            common = texts if common is None else common & texts
        return frozenset(common or set())

    def landmark_candidates(self, examples, max_candidates: int = 10):
        docs = [example.doc for example in examples]
        shared = self.common_values(docs)
        values = {
            value
            for example in examples
            for value in example.annotation.values
        }
        candidates = []
        for text in sorted(shared):
            if not text.endswith(":") or text in values:
                continue
            # Score: negative distance from landmark to nearest value.
            total = 0.0
            for example in examples:
                doc = example.doc
                occurrences = self.locate(doc, text)
                if not occurrences:
                    break
                best = min(
                    abs(occ - loc)
                    for occ in occurrences
                    for loc in example.annotation.locations
                )
                total += best
            else:
                candidates.append(
                    ScoredLandmark(value=text, score=-total / len(examples))
                )
        candidates.sort(key=lambda c: (-c.score, c.value))
        return candidates[:max_candidates]

    def synthesize_region_program(self, examples, cluster):
        offsets = set()
        for doc, loc, region in examples:
            offsets.add(region.end - loc)
            if region.start < loc:
                raise SynthesisFailure("fake domain regions grow rightward")
        return FakeRegionProgram(offset=max(offsets))

    def synthesize_value_program(self, examples):
        indices = set()
        for region, groups in examples:
            for locations, value in groups:
                for loc in locations:
                    indices.add(loc - region.start)
        if len(indices) != 1:
            raise SynthesisFailure("inconsistent value positions")
        return FakeValueProgram(index=indices.pop())


def make_example(cells, landmark_value_pairs):
    """Build a TrainingExample annotating value cells by their text."""
    from repro.core.document import Annotation, AnnotationGroup

    doc = FakeDoc(cells)
    groups = [
        AnnotationGroup(locations=(index,), value=cells[index])
        for index in landmark_value_pairs
    ]
    return TrainingExample(doc=doc, annotation=Annotation(groups=groups))
