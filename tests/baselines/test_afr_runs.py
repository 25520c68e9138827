"""AFR inference on the per-page run table and one compiled alternation.

``AfrModel.extract`` must answer exactly as the per-profile loop it
replaced, which rebuilt every candidate run and matched each run against
each profile in turn.  That loop is frozen here as the reference.
"""

import math
import pickle

import pytest

from repro.baselines.afr import MAX_RUN, PAGE, RADIUS, train_afr
from repro.datasets import finance, forge, m2h_images


def _reference_runs(doc):
    rows = {}
    for box in doc.boxes:
        rows.setdefault(round(box.cy / 14.0), []).append(box)
    runs = []
    for row in rows.values():
        row = sorted(row, key=lambda b: b.x)
        for start in range(len(row)):
            run = []
            for offset in range(MAX_RUN):
                index = start + offset
                if index >= len(row):
                    break
                if run and row[index].x - run[-1].x2 > 60.0:
                    break
                run.append(row[index])
                runs.append((list(run), " ".join(box.text for box in run)))
    return runs


def _reference_extract(model, doc):
    matched = [
        (run, text)
        for run, text in _reference_runs(doc)
        if any(profile.matches(text) for profile in model.profiles)
    ]
    if not matched:
        return None
    scored = []
    for run, text in matched:
        cx = sum(box.cx for box in run) / len(run) / PAGE
        cy = sum(box.cy for box in run) / len(run) / PAGE
        distance = min(math.hypot(cx - tx, cy - ty) for tx, ty in model.centers)
        label_bonus = -0.02 if model._has_label_evidence(doc, run) else 0.0
        scored.append((distance + label_bonus, run, text))
    scored.sort(key=lambda item: item[0])
    accepted = []
    used = set()
    for distance, run, text in scored:
        if distance > RADIUS and accepted:
            break
        if distance > RADIUS and not accepted:
            if not model._has_label_evidence(doc, run):
                break
        if any(id(box) in used for box in run):
            continue
        used.update(id(box) for box in run)
        accepted.append((run, text))
        if not model.multi_value:
            break
    if not accepted:
        return None
    ordered = sorted(
        accepted, key=lambda item: (round(item[0][0].cy / 12.0), item[0][0].x)
    )
    return [text for _, text in ordered]


def _finance():
    for doc_type in finance.DOC_TYPES:
        corpus = finance.generate_corpus(
            doc_type, train_size=4, test_size=6, seed=3
        )
        yield corpus, finance.FINANCE_FIELDS[doc_type]


def _m2h_images():
    for provider in m2h_images.IMAGE_PROVIDERS:
        corpus = m2h_images.generate_corpus(
            provider, train_size=4, test_size=6, seed=1
        )
        yield corpus, m2h_images.fields_for(provider)


def _forge_images():
    for provider in forge.forge_providers():
        corpus = forge.generate_image_corpus(
            provider, train_size=4, test_size=6, seed=2
        )
        yield corpus, forge.image_fields_for(provider)


@pytest.mark.parametrize(
    "corpora", [_finance, _m2h_images, _forge_images],
    ids=["finance", "m2h_images", "forge_images"],
)
def test_extract_equals_per_profile_loop(corpora):
    answered = 0
    for corpus, fields in corpora():
        for field in fields:
            examples = corpus.training_examples(field)
            if not examples:
                continue
            model = train_afr(examples)
            for labeled in corpus.test:
                expected = _reference_extract(model, labeled.doc)
                assert model.extract(labeled.doc) == expected
                answered += expected is not None
    assert answered  # the comparison saw real extractions


def test_pickles_do_not_change_after_extract():
    corpus = finance.generate_corpus(
        finance.DOC_TYPES[0], train_size=3, test_size=2, seed=5
    )
    field = finance.FINANCE_FIELDS[finance.DOC_TYPES[0]][0]
    model = train_afr(corpus.training_examples(field))
    doc = corpus.test[0].doc
    doc_bytes, model_bytes = pickle.dumps(doc), pickle.dumps(model)
    model.extract(doc)
    assert doc._runs is not None  # the run table was filled
    assert pickle.dumps(doc) == doc_bytes
    assert pickle.dumps(model) == model_bytes
    assert pickle.loads(doc_bytes)._runs is None


def test_run_table_is_filled_once_per_page():
    corpus = finance.generate_corpus(
        finance.DOC_TYPES[1], train_size=3, test_size=1, seed=6
    )
    doc = corpus.test[0].doc
    fields = finance.FINANCE_FIELDS[finance.DOC_TYPES[1]]
    models = [train_afr(corpus.training_examples(f)) for f in fields[:2]]
    models[0].extract(doc)
    runs = doc._runs
    models[1].extract(doc)
    assert doc._runs is runs
