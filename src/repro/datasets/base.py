"""Labeled-document containers shared by all dataset generators.

Generators embed ground truth as ``data-f-<field>`` attributes on the DOM
nodes carrying each value (the visual annotation UI of Section 3.1 is
replaced by these machine annotations).  The attributes are invisible to
every synthesizer — selectors only ever inspect ``id`` and ``class`` — so
they cannot leak into learned programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.document import Annotation, AnnotationGroup, TrainingExample
from repro.html.dom import HtmlDocument

CONTEMPORARY = "contemporary"
LONGITUDINAL = "longitudinal"
SETTINGS = (CONTEMPORARY, LONGITUDINAL)


def annotation_attr(field_name: str) -> str:
    """The DOM attribute marking a node as carrying ``field_name``'s value."""
    return f"data-f-{field_name.lower()}"


@dataclass
class LabeledHtmlDocument:
    """A generated HTML document with per-field ground truth."""

    doc: HtmlDocument
    truth: dict[str, list[str]]
    provider: str
    setting: str

    def gold(self, field_name: str) -> list[str]:
        return list(self.truth.get(field_name, []))

    def annotation(self, field_name: str) -> Annotation:
        """Recover the annotation from the embedded ``data-f-*`` attributes."""
        attr = annotation_attr(field_name)
        groups = [
            AnnotationGroup(locations=(node,), value=node.attrs[attr])
            for node in self.doc.elements()
            if attr in node.attrs
        ]
        return Annotation(groups=groups)

    def training_example(self, field_name: str) -> TrainingExample:
        return TrainingExample(
            doc=self.doc, annotation=self.annotation(field_name)
        )


@dataclass
class Corpus:
    """A train/test split of labeled documents for one provider/domain."""

    provider: str
    train: list = field(default_factory=list)
    test: list = field(default_factory=list)

    def training_examples(self, field_name: str) -> list[TrainingExample]:
        return [
            labeled.training_example(field_name)
            for labeled in self.train
            if labeled.gold(field_name)
        ]

    def test_pairs(
        self, field_name: str, extractor
    ) -> list[tuple[Sequence[str] | None, Sequence[str]]]:
        """``(predicted, gold)`` pairs for scoring an extractor."""
        return [
            (extractor.extract(labeled.doc), labeled.gold(field_name))
            for labeled in self.test
        ]


def release_corpora(corpora: Iterable[Corpus]) -> None:
    """Release every HTML document of ``corpora`` (:meth:`HtmlDocument.release`).

    Each document list is released once, since paired corpora share one
    ``train`` list.  Image documents hold no reference cycles and are
    left as they are.  Nothing may read the corpora afterwards.
    """
    released: set[int] = set()
    for corpus in corpora:
        for labeled_documents in (corpus.train, corpus.test):
            if id(labeled_documents) in released:
                continue
            released.add(id(labeled_documents))
            for labeled in labeled_documents:
                if isinstance(labeled.doc, HtmlDocument):
                    labeled.doc.release()


def reuse_train(
    train: list[LabeledHtmlDocument],
    train_size: int,
    render: Callable[[], str],
) -> None:
    """Check that ``train`` is the training set ``render`` draws again.

    Rendering each training page again, without parsing it, moves the
    random stream on to the test pages exactly as generating it would, so
    every test page stays byte-identical.
    """
    if len(train) != train_size or any(
        render() != labeled.doc.source for labeled in train
    ):
        raise ValueError("train is not this corpus's training set")
