"""Simulated Azure Form Recognizer (AFR) baseline.

The paper compares LRSyn against AFR [36], a closed cloud service built on
neural form understanding, fine-tuned with the same 10 training images per
field.  We cannot run the product, so this module implements a learned
extractor that reproduces the behaviours the paper reports (Section 7.2):

* strong on stable layouts — it learns where on the page a field's value
  lives (normalized coordinates) together with the value's *content type*
  (regex profiles) and nearby label texts, so clean scans extract well;
* "sensitive to the region coordinates in a given document — if these
  regions are translated, or if the document scan is tilted, AFR produces
  erroneous results";
* unaffected by missing textual anchors ("AFR's semantic understanding of
  the data is not affected by boundary text patterns") — its content-type
  match still fires when LRSyn has no landmark.

Training records the normalized centers of every annotated value, content
profiles of the values, and neighbouring label texts.  Inference scores
candidate box runs by content match, geometric proximity to a trained
center, and label evidence.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.document import SynthesisFailure, TrainingExample
from repro.core.dsl import Extractor
from repro.images.boxes import ImageDocument, LEFT, TOP, TextBox, reading_order
from repro.text.profiler import profile_strings

# Geometric acceptance radius (normalized page units) around trained value
# centers; scans translated/tilted beyond it fall back to weaker evidence.
RADIUS = 0.055
MAX_RUN = 4
PAGE = 1000.0  # normalization constant (pages are ~1000px in our datasets)


@dataclass
class AfrModel(Extractor):
    """A trained per-field AFR extractor."""

    centers: list[tuple[float, float]] = field(default_factory=list)
    profiles: list = field(default_factory=list)
    neighbor_labels: set[str] = field(default_factory=set)
    multi_value: bool = False

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def extract(self, doc: ImageDocument) -> list[str] | None:
        matches = _profile_matcher(
            tuple(profile.pattern for profile in self.profiles)
        )
        scored: list[tuple[float, tuple[TextBox, ...], str]] = []
        for run, text in _candidate_runs(doc):
            if matches(text) is None:
                continue
            cx = sum(box.cx for box in run) / len(run) / PAGE
            cy = sum(box.cy for box in run) / len(run) / PAGE
            distance = min(
                math.hypot(cx - tx, cy - ty) for tx, ty in self.centers
            )
            label_bonus = -0.02 if self._has_label_evidence(doc, run) else 0.0
            scored.append((distance + label_bonus, run, text))
        if not scored:
            return None
        scored.sort(key=lambda item: item[0])

        accepted: list[tuple[tuple[TextBox, ...], str]] = []
        used: set[int] = set()
        for distance, run, text in scored:
            if distance > RADIUS and accepted:
                break
            if distance > RADIUS and not accepted:
                # Semantic fallback: best content+label match regardless of
                # geometry (AFR still "understands" the field type).
                if not self._has_label_evidence(doc, run):
                    break
            if any(id(box) in used for box in run):
                continue
            used.update(id(box) for box in run)
            accepted.append((run, text))
            if not self.multi_value:
                break
        if not accepted:
            return None
        ordered = sorted(
            accepted,
            key=lambda item: (round(item[0][0].cy / 12.0), item[0][0].x),
        )
        return [text for _, text in ordered]

    def _has_label_evidence(
        self, doc: ImageDocument, run: Sequence[TextBox]
    ) -> bool:
        for direction in (LEFT, TOP):
            neighbour = doc.neighbor(run[0], direction)
            if neighbour is not None and neighbour.text in self.neighbor_labels:
                return True
        return False


def _candidate_runs(
    doc: ImageDocument,
) -> list[tuple[tuple[TextBox, ...], str]]:
    """Runs of up to MAX_RUN horizontally adjacent boxes, with their text.

    Every field's model scores the same runs of a page, so they are found
    once per document and kept in ``doc._runs`` (never pickled).
    """
    if doc._runs is not None:
        return doc._runs
    rows: dict[int, list[TextBox]] = {}
    for box in doc.boxes:
        rows.setdefault(round(box.cy / 14.0), []).append(box)
    runs: list[tuple[tuple[TextBox, ...], str]] = []
    for row in rows.values():
        row = sorted(row, key=lambda b: b.x)
        for start in range(len(row)):
            run: list[TextBox] = []
            for offset in range(MAX_RUN):
                index = start + offset
                if index >= len(row):
                    break
                if run and row[index].x - run[-1].x2 > 60.0:
                    break
                run.append(row[index])
                runs.append((tuple(run), " ".join(box.text for box in run)))
    doc._runs = runs
    return runs


@functools.lru_cache(maxsize=1024)
def _profile_matcher(patterns: tuple[str, ...]):
    """``fullmatch`` of one compiled alternation of ``patterns``: a text
    matches it exactly when it fully matches one of them.  Cached here,
    not on the model, so no compiled pattern enters a pickled model."""
    return re.compile("|".join(f"(?:{p})" for p in patterns)).fullmatch


def train_afr(examples: Sequence[TrainingExample]) -> AfrModel:
    """Fine-tune the simulated AFR on annotated images."""
    model = AfrModel()
    values: list[str] = []
    for example in examples:
        doc: ImageDocument = example.doc
        if len(example.annotation.groups) > 1:
            model.multi_value = True
        for group in example.annotation.groups:
            boxes = reading_order(group.locations)
            cx = sum(box.cx for box in boxes) / len(boxes) / PAGE
            cy = sum(box.cy for box in boxes) / len(boxes) / PAGE
            model.centers.append((cx, cy))
            values.append(group.value)
            for direction in (LEFT, TOP):
                neighbour = doc.neighbor(boxes[0], direction)
                if neighbour is not None and not neighbour.tags:
                    model.neighbor_labels.add(neighbour.text)
    if not values:
        raise SynthesisFailure("AFR: no annotated values to fine-tune on")
    model.profiles = profile_strings(values, min_support=1, max_profiles=8)
    model.profiles.append(_alphabet_profile(values))
    return model


@dataclass(frozen=True)
class _AlphabetProfile:
    """Character-class + length generalization of the training values.

    Structured profiles miss e.g. record IDs whose letter/digit alternation
    differs per instance; a neural extractor generalizes over the character
    alphabet instead.
    """

    pattern: str

    def matches(self, text: str) -> bool:
        return re.fullmatch(self.pattern, text) is not None


def _alphabet_profile(values: Sequence[str]) -> _AlphabetProfile:
    classes = set()
    for value in values:
        for ch in value:
            if ch.isdigit():
                classes.add("0-9")
            elif ch.isalpha() and ch.isupper():
                classes.add("A-Z")
            elif ch.isalpha():
                classes.add("a-z")
            elif ch.isspace():
                classes.add(r"\s")
            else:
                classes.add(re.escape(ch))
    lengths = [len(value) for value in values]
    low, high = min(lengths), max(lengths)
    alphabet = "".join(sorted(classes))
    return _AlphabetProfile(pattern=f"[{alphabet}]{{{low},{high}}}")
