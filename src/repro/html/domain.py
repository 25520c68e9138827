"""The HTML instantiation of the generic :class:`repro.core.document.Domain`.

Wires the HTML DOM, blueprints, landmark scoring and the two DSL
synthesizers into the interface consumed by the domain-agnostic LRSyn
algorithms.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.document import Domain, ScoredLandmark, TrainingExample
from repro.html import blueprint as bp
from repro.html import landmarks as lm
from repro.html import region_dsl, value_dsl
from repro.html.dom import DomNode, HtmlDocument
from repro.html.region import HtmlRegion, enclosing_region


class HtmlDomain(Domain):
    """Domain adapter for HTML documents."""

    substrate = "html"

    # -- content fingerprints (persistent-store keys) ------------------
    def document_fingerprint(self, doc: HtmlDocument) -> str:
        return doc.fingerprint()

    def location_fingerprint(self, doc: HtmlDocument, loc: DomNode) -> str:
        # Indexed XPaths are unique per node of one tree.
        return loc.xpath()

    # -- locations -----------------------------------------------------
    def locations(self, doc: HtmlDocument) -> Sequence[DomNode]:
        return doc.elements()

    def data(self, doc: HtmlDocument, loc: DomNode) -> str:
        return loc.text_content()

    def locate(self, doc: HtmlDocument, landmark: str) -> list[DomNode]:
        return doc.find_by_text(landmark)

    def enclosing_region(
        self, doc: HtmlDocument, locs: Sequence[DomNode]
    ) -> HtmlRegion:
        return enclosing_region(locs)

    def location_order(self, doc: HtmlDocument) -> dict[DomNode, int]:
        return doc.node_order()

    def location_order_by_id(self, doc: HtmlDocument) -> dict[int, int]:
        return doc.order_index()

    # -- blueprints ------------------------------------------------------
    def document_blueprint(self, doc: HtmlDocument) -> frozenset[str]:
        return bp.document_blueprint(doc)

    def region_blueprint(
        self,
        doc: HtmlDocument,
        region: HtmlRegion,
        common_values: frozenset[str],
    ) -> frozenset[str]:
        # Memoized on the document (its tree is immutable).  The key holds
        # the common-value set by value: every ``lrsyn`` call builds its
        # own equal set, and an id() key could alias a reused id.
        key = (region, common_values)
        blueprints = doc._region_blueprints
        blueprint = blueprints.get(key)
        if blueprint is None:
            blueprint = blueprints[key] = bp.region_blueprint(
                region, common_values
            )
        return blueprint

    def blueprint_distance(
        self, bp1: frozenset[str], bp2: frozenset[str]
    ) -> float:
        return bp.jaccard_distance(bp1, bp2)

    # -- landmarks -------------------------------------------------------
    def common_values(self, docs: Sequence[HtmlDocument]) -> frozenset[str]:
        return bp.common_text_values(docs)

    def landmark_candidates(
        self,
        examples: Sequence[TrainingExample],
        max_candidates: int = 10,
    ) -> list[ScoredLandmark]:
        return lm.landmark_candidates(examples, max_candidates)

    # -- synthesis ---------------------------------------------------------
    def synthesize_region_program(
        self,
        examples: Sequence[tuple[HtmlDocument, DomNode, HtmlRegion]],
        cluster: Sequence[TrainingExample],
    ) -> region_dsl.HtmlRegionProgram:
        return region_dsl.synthesize_region_program(examples)

    def synthesize_value_program(
        self,
        examples: Sequence[
            tuple[HtmlRegion, Sequence[tuple[tuple[DomNode, ...], str]]]
        ],
    ) -> value_dsl.HtmlValueProgram:
        return value_dsl.synthesize_value_program(examples)
