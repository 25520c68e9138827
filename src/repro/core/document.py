"""Core document abstractions shared by every extraction domain.

The paper (Section 3.1) models a *document* as a set of locations that can be
indexed to look up data values, a *region* as a contiguous set of locations,
and a *domain* as the bundle of operations (locating landmarks, computing
blueprints, synthesizing region/value programs) that instantiate the generic
landmark-based DSL for a concrete document kind (HTML, form images, ...).

This module defines the abstract :class:`Domain` interface consumed by the
domain-agnostic algorithms in :mod:`repro.core.clustering`,
:mod:`repro.core.synthesis` and :mod:`repro.core.dsl`.  Concrete adapters live
in :mod:`repro.html.domain` and :mod:`repro.images.domain`.
"""

from __future__ import annotations

import abc
import hashlib
from dataclasses import dataclass, field
from typing import Any, Hashable, Sequence

# A location is any hashable handle a domain uses to index into a document
# (a DOM node for HTML, a text-box for images).
Location = Any


@dataclass(frozen=True)
class ScoredLandmark:
    """A landmark candidate together with its score (higher is better).

    ``value`` is the n-gram text of the landmark (Section 3.2: a landmark is
    given by a data value ``m``).
    """

    value: str
    score: float

    def __lt__(self, other: "ScoredLandmark") -> bool:
        return (self.score, self.value) < (other.score, other.value)


class Region(abc.ABC):
    """A contiguous set of locations of a document (a "sub-document")."""

    @abc.abstractmethod
    def locations(self) -> Sequence[Location]:
        """Return the locations contained in the region."""

    def __len__(self) -> int:
        return len(self.locations())


class RegionProgram(abc.ABC):
    """A program of the region-extraction DSL ``L_rx``.

    Maps ``(document, landmark location)`` to a :class:`Region` (or ``None``
    when the program does not apply, written ``⊥`` in the paper).
    """

    @abc.abstractmethod
    def __call__(self, doc: Any, loc: Location) -> Region | None:
        """Execute the program on ``doc`` starting from ``loc``."""

    @abc.abstractmethod
    def size(self) -> int:
        """Number of atomic components (used for program-size studies)."""


class ValueProgram(abc.ABC):
    """A program of the value-extraction DSL ``L_vx``: region -> values.

    Algorithm 1 applies the aggregation function to the value program's
    output (``Agg(p_vx(R))``), so a program may return several data values
    from one region — e.g. one table cell per flight leg.  ``None`` denotes
    failure (the paper's ``⊥``).
    """

    @abc.abstractmethod
    def __call__(self, region: Region) -> list[str] | None:
        """Extract the field values from ``region`` (``None`` on failure)."""

    @abc.abstractmethod
    def size(self) -> int:
        """Number of atomic components (used for program-size studies)."""


class SynthesisFailure(Exception):
    """Raised when a synthesizer cannot find a consistent program."""


class Domain(abc.ABC):
    """Operations a concrete document domain must provide.

    These correspond to the per-domain parameters enumerated in Section 4.1:
    region/value program synthesizers, and the blueprinting/locating
    functions of Section 3.

    ``layout_conditional`` controls whether Algorithm 4 synthesizes one
    strategy per distinct ROI layout (value extraction "conditional on ...
    the layout of the identified region of interest").  HTML uses it (exact
    blueprints, cheap selectors); the image domain does not — its region
    DSL is already disjunctive (Figure 6) and its blueprints are compared
    up to OCR noise, so splitting would only fragment the training set.

    ``symmetric_distance`` declares ``blueprint_distance(a, b) ==
    blueprint_distance(b, a)``, letting the cache serve a reversed-order
    lookup from one entry.  Domains with an asymmetric metric (the image
    domain's greedy BoxSummary matching) must set it to ``False`` so cached
    runs stay bit-identical to uncached ones.
    """

    layout_conditional: bool = True
    symmetric_distance: bool = True
    # Substrate name used in persistent-store keys (one namespace per
    # concrete document kind; see repro.store).  Only domains with content
    # fingerprints reach the store; ad-hoc domains (tests, experiments)
    # keep ``None`` and the default fingerprints, which opt them out.
    substrate: str | None = None

    # ------------------------------------------------------------------
    # Locations and data values
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def locations(self, doc: Any) -> Sequence[Location]:
        """All locations of ``doc`` in document order."""

    @abc.abstractmethod
    def data(self, doc: Any, loc: Location) -> str:
        """The text value ``Data[loc]`` at a location."""

    @abc.abstractmethod
    def locate(self, doc: Any, landmark: str) -> list[Location]:
        """All locations whose data contains ``landmark`` (``Locate``)."""

    @abc.abstractmethod
    def enclosing_region(self, doc: Any, locs: Sequence[Location]) -> Region:
        """Smallest region containing all ``locs`` (``EncRgn``)."""

    def location_order(self, doc: Any) -> dict:
        """``location -> document-order index`` map for ``doc``.

        The default rebuilds the map on every call; domains with an
        immutable document model should override it with a per-document
        memo (see :meth:`repro.html.domain.HtmlDomain.location_order`).
        """
        return {loc: i for i, loc in enumerate(self.locations(doc))}

    def location_order_by_id(self, doc: Any) -> dict[int, int]:
        """``id(location) -> document-order index`` map for ``doc``.

        Keyed by identity so it is safe for location types with value
        equality; used by the ``Extract`` interpreter on every document.
        """
        return {id(loc): i for i, loc in enumerate(self.locations(doc))}

    # ------------------------------------------------------------------
    # Content fingerprints (persistent-store keys)
    # ------------------------------------------------------------------
    def document_fingerprint(self, doc: Any) -> str | None:
        """Stable content hash of ``doc``, or ``None`` to opt out.

        Two documents with identical content must fingerprint identically
        across processes and runs; through :meth:`example_fingerprint`
        it keys trained programs in the persistent
        :class:`repro.store.BlueprintStore`, so it must depend only on
        document *content* — never on object identity, corpus position,
        or any ``REPRO_*`` runtime knob.  The default opts the domain out
        of the store entirely.
        """
        return None

    def location_fingerprint(self, doc: Any, loc: Location) -> str | None:
        """Stable per-document identifier of one location (or ``None``).

        Must distinguish every location of one document (an indexed XPath,
        a reading-order index) so annotation fingerprints are collision
        free.
        """
        return None

    def annotation_fingerprint(
        self, doc: Any, annotation: "Annotation"
    ) -> str | None:
        """Content hash of an annotation (via location fingerprints)."""
        parts: list[str] = []
        for group in annotation.groups:
            for loc in group.locations:
                fingerprint = self.location_fingerprint(doc, loc)
                if fingerprint is None:
                    return None
                parts.append(fingerprint)
            parts.append(group.value)
        hasher = hashlib.sha256()
        for part in parts:
            hasher.update(b"\x00")
            hasher.update(part.encode("utf-8"))
        return hasher.hexdigest()

    def example_fingerprint(self, example: "TrainingExample") -> str | None:
        """Content hash of one training example (document + annotation)."""
        doc_fingerprint = self.document_fingerprint(example.doc)
        if doc_fingerprint is None:
            return None
        annotation_fingerprint = self.annotation_fingerprint(
            example.doc, example.annotation
        )
        if annotation_fingerprint is None:
            return None
        return f"{doc_fingerprint}:{annotation_fingerprint}"

    # ------------------------------------------------------------------
    # Blueprints
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def document_blueprint(self, doc: Any) -> Hashable:
        """Blueprint of the whole document (for the initial fine clustering)."""

    @abc.abstractmethod
    def region_blueprint(
        self, doc: Any, region: Region, common_values: frozenset[str]
    ) -> Hashable:
        """Blueprint of ``region`` given the cluster's common values."""

    @abc.abstractmethod
    def blueprint_distance(self, bp1: Hashable, bp2: Hashable) -> float:
        """Distance ``δ`` between two blueprints, in ``[0, 1]``."""

    # ------------------------------------------------------------------
    # Landmarks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def common_values(self, docs: Sequence[Any]) -> frozenset[str]:
        """Data values shared by every document in ``docs``."""

    @abc.abstractmethod
    def landmark_candidates(
        self,
        examples: Sequence["TrainingExample"],
        max_candidates: int = 10,
    ) -> list[ScoredLandmark]:
        """Scored landmark candidates shared by every document of ``examples``."""

    # ------------------------------------------------------------------
    # Synthesis
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def synthesize_region_program(
        self,
        examples: Sequence[tuple[Any, Location, Region]],
        cluster: Sequence["TrainingExample"],
    ) -> RegionProgram:
        """Synthesize from examples of the form ``(doc, loc) -> region``;
        ``cluster`` is the training cluster they come from."""

    @abc.abstractmethod
    def synthesize_value_program(
        self,
        examples: Sequence[
            tuple[Region, Sequence[tuple[tuple[Location, ...], str]]]
        ],
    ) -> ValueProgram:
        """Synthesize from ``region -> values`` examples.

        Each example pairs a region with its annotated value groups: the
        ``(locations, value)`` pairs anchored inside that region (Algorithm
        4's ``ValueSpec``, with the annotated locations passed through so
        the synthesizer need not re-discover them).
        """


@dataclass(frozen=True)
class AnnotationGroup:
    """One annotated value together with the locations that carry it.

    In HTML a value lives in a single DOM node; in form images OCR may split
    one value across several text boxes, so a group may hold many locations.
    """

    locations: tuple[Location, ...]
    value: str


@dataclass
class Annotation:
    """User-provided labels for one document (Section 3.1).

    The aggregation function is fixed to list collection (the paper's running
    examples aggregate multiple data values into a list; a scalar field is
    the 1-element special case).
    """

    groups: list[AnnotationGroup] = field(default_factory=list)

    @property
    def locations(self) -> list[Location]:
        """All annotated locations, flattened across groups."""
        return [loc for group in self.groups for loc in group.locations]

    @property
    def values(self) -> list[str]:
        return [group.value for group in self.groups]

    def aggregate(self) -> list[str]:
        """The field value ``F(doc)`` the annotation denotes."""
        return list(self.values)


@dataclass
class TrainingExample:
    """A document paired with its annotation for one field."""

    doc: Any
    annotation: Annotation
