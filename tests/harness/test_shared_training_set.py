"""The contemporary and longitudinal corpora share one training set.

Both settings train on the same contemporary pages, so the longitudinal
corpus reuses the contemporary ``train`` list instead of parsing those
pages again.  Its test pages must stay byte-identical to what the
generator produced before the training set was shared, and nothing that
runs an experiment may mutate the shared list.
"""

import hashlib

import pytest

from repro.datasets import forge, m2h
from repro.datasets.base import CONTEMPORARY, LONGITUDINAL, SETTINGS
from repro.harness import forge as harness_forge, runner
from repro.harness.forge import forge_corpora, run_forge_html_experiment
from repro.harness.runner import (
    ForgivingXPathsMethod,
    LrsynHtmlMethod,
    NdsynMethod,
    m2h_corpora,
    paired_corpora,
    run_m2h_experiment,
)

# sha256 over the sources of both settings' train and test pages, every
# provider, train_size=3, test_size=6, seed=4, as generated before the
# training set was shared (each setting generated and parsed its own).
DIGESTS = {
    "m2h": "c41b349ae17d7e2ccae689e023c3535d71f5dff8c9e1ec4cf0522734b245dcfe",
    "forge": "db324252a0c066f5d625744b71a8ae68eadf07f8a7db7ee03bed6e940a020711",
}


@pytest.mark.parametrize(
    "name, module, providers",
    [
        ("m2h", m2h, m2h.PROVIDERS),
        ("forge", forge, forge.forge_providers()),
    ],
)
def test_sources_equal_the_unshared_generator(name, module, providers):
    digest = hashlib.sha256()
    for provider in providers:
        corpora = paired_corpora(module.generate_corpus, provider, 3, 6, 4)
        assert corpora[LONGITUDINAL].train is corpora[CONTEMPORARY].train
        for setting in SETTINGS:
            for labeled in corpora[setting].train + corpora[setting].test:
                digest.update(labeled.doc.source.encode() + b"\0")
    assert digest.hexdigest() == DIGESTS[name]


def test_a_foreign_training_set_is_refused():
    other = m2h.generate_corpus("delta", 3, 0, CONTEMPORARY, seed=1)
    with pytest.raises(ValueError):
        m2h.generate_corpus("delta", 3, 2, LONGITUDINAL, seed=0, train=other.train)
    with pytest.raises(ValueError):
        m2h.generate_corpus("delta", 2, 2, LONGITUDINAL, seed=1, train=other.train)


def snapshot(corpora):
    train = corpora[CONTEMPORARY].train
    return [
        (id(labeled), labeled.doc.source, dict(labeled.truth),
         labeled.setting)
        for labeled in train
    ]


def serve(monkeypatch, module, name, corpora):
    """Make the experiment load ``corpora``, the very objects the test
    built, wherever its driver looks ``name`` up, and train on them
    (no stored program stands in)."""
    monkeypatch.setenv("REPRO_JOBS", "1")
    monkeypatch.setenv("REPRO_STORE", "0")
    monkeypatch.setattr(module, name, lambda *key: corpora)


def test_m2h_experiment_leaves_the_shared_list_alone(monkeypatch):
    corpora = m2h_corpora("getthere", train_size=4, test_size=5, seed=0)
    train = corpora[CONTEMPORARY].train
    assert corpora[LONGITUDINAL].train is train
    before = snapshot(corpora)
    serve(monkeypatch, runner, "m2h_corpora", corpora)
    results = run_m2h_experiment(
        [ForgivingXPathsMethod(), NdsynMethod(), LrsynHtmlMethod()],
        providers=["getthere"], train_size=4, test_size=5,
    )
    assert {r.setting for r in results} == set(SETTINGS)
    # The experiment trained on the very list built above.
    assert train[0].doc.root._text_content is not None
    assert corpora[LONGITUDINAL].train is train
    assert corpora[CONTEMPORARY].train is train
    assert snapshot(corpora) == before


def test_forge_experiment_leaves_the_shared_list_alone(monkeypatch):
    provider = forge.forge_providers()[0]
    corpora = forge_corpora(provider, 3, 4, 0)
    train = corpora[CONTEMPORARY].train
    assert corpora[LONGITUDINAL].train is train
    before = snapshot(corpora)
    serve(monkeypatch, harness_forge, "forge_corpora", corpora)
    field = forge.fields_for(provider)[0]
    run_forge_html_experiment(
        [NdsynMethod(), LrsynHtmlMethod()], train_size=3, test_size=4,
        tasks=[(provider, field)],
    )
    assert train[0].doc.root._text_content is not None
    assert corpora[LONGITUDINAL].train is train
    assert snapshot(corpora) == before
