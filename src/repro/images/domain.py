"""The form-images instantiation of :class:`repro.core.document.Domain`.

Wires box geometry, BoxSummary blueprints, landmark scoring and the Figure 6
region DSL into the interface consumed by the domain-agnostic LRSyn
algorithms.  The string-profiler patterns needed by ``Relative`` motions are
profiled from the cluster whose region program is being synthesized.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.document import Domain, ScoredLandmark, TrainingExample
from repro.images import blueprint as bp
from repro.images import landmarks as lm
from repro.images import region_dsl, value_dsl
from repro.images.boxes import ImageDocument, ImageRegion, TextBox, enclosing_region
from repro.text.profiler import patterns_for_cluster


def region_patterns(cluster: Sequence[TrainingExample]) -> tuple[str, ...]:
    """Stop patterns for the Relative motions of ``cluster``'s region
    programs.  The pattern pool profiles "all the common and field text
    values present in the cluster" (Section 5.2): every box except the ones
    annotated for *this* field — other fields' values (engine numbers,
    dates) are exactly the stop patterns Example 5.3 needs."""
    field_values = [
        value for example in cluster for value in example.annotation.values
    ]
    annotated_ids = {
        id(location)
        for example in cluster
        for location in example.annotation.locations
    }
    common_texts = [
        box.text
        for example in cluster
        for box in example.doc.boxes
        if id(box) not in annotated_ids
    ]
    return tuple(patterns_for_cluster(common_texts, field_values))


class ImageDomain(Domain):
    """Domain adapter for scanned form images.

    ``blueprint_threshold`` guidance: BoxSummaries shift under OCR noise, so
    unlike HTML the experiments run this domain with a small positive
    blueprint threshold (see :class:`repro.harness.images`).
    """

    layout_conditional = False
    # summary_distance matches greedily over its first argument (in
    # sorted order, so the value is a pure function of content), and
    # d(a, b) != d(b, a) in general; the cache must key on orientation.
    symmetric_distance = False

    substrate = "images"

    # -- content fingerprints (persistent-store keys) --------------------
    def document_fingerprint(self, doc: ImageDocument) -> str:
        return doc.fingerprint()

    def location_fingerprint(self, doc: ImageDocument, loc: TextBox) -> str:
        # Boxes are identity-hashed and may collide on content (two equal
        # OCR fragments), so the reading-order index disambiguates.
        return (
            f"{doc.order_of(loc)}:{loc.text}"
            f"@{loc.x:.2f},{loc.y:.2f},{loc.w:.2f},{loc.h:.2f}"
        )

    # -- locations -------------------------------------------------------
    def locations(self, doc: ImageDocument) -> Sequence[TextBox]:
        return doc.boxes

    def data(self, doc: ImageDocument, loc: TextBox) -> str:
        return loc.text

    def locate(self, doc: ImageDocument, landmark: str) -> list[TextBox]:
        return doc.find_by_text(landmark)

    def enclosing_region(
        self, doc: ImageDocument, locs: Sequence[TextBox]
    ) -> ImageRegion:
        return enclosing_region(doc, locs)

    # -- blueprints --------------------------------------------------------
    def document_blueprint(self, doc: ImageDocument) -> frozenset[str]:
        return bp.document_blueprint(doc)

    def region_blueprint(
        self,
        doc: ImageDocument,
        region: ImageRegion,
        common_values: frozenset[str],
    ) -> frozenset:
        return bp.region_blueprint(doc, region, common_values)

    def blueprint_distance(self, bp1: frozenset, bp2: frozenset) -> float:
        # Document blueprints are sets of label strings (Jaccard); region
        # blueprints are sets of BoxSummary tuples (graded matching).
        sample = next(iter(bp1), None) or next(iter(bp2), None)
        if isinstance(sample, tuple):
            return bp.summary_distance(bp1, bp2)
        return bp.jaccard_distance(bp1, bp2)

    # -- landmarks ---------------------------------------------------------
    def common_values(self, docs: Sequence[ImageDocument]) -> frozenset[str]:
        return bp.frequent_ngrams(docs)

    def landmark_candidates(
        self,
        examples: Sequence[TrainingExample],
        max_candidates: int = 10,
    ) -> list[ScoredLandmark]:
        return lm.landmark_candidates(examples, max_candidates)

    # -- synthesis -----------------------------------------------------------
    def synthesize_region_program(
        self,
        examples: Sequence[tuple[ImageDocument, TextBox, ImageRegion]],
        cluster: Sequence[TrainingExample],
    ) -> region_dsl.ImageRegionProgram:
        return region_dsl.synthesize_region_program(
            examples, patterns=region_patterns(cluster)
        )

    def synthesize_value_program(
        self,
        examples,
    ) -> value_dsl.ImageValueProgram:
        return value_dsl.synthesize_value_program(examples)
