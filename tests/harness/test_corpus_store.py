"""A corpus is put in the store as soon as it is built.

That is sound only because its pickle does not change while the
experiment runs: parsed documents pickle as their source, so the memos
scoring fills in never reach the stored row.
"""

import pickle

from repro.datasets.base import SETTINGS
from repro.harness.runner import (
    LrsynHtmlMethod,
    NdsynMethod,
    _corpus_store_key,
    flush_corpus_store,
    m2h_corpora,
    run_m2h_experiment,
)
from repro.store import BlueprintStore

SIZES = dict(provider="getthere", train_size=4, test_size=6, seed=0)


def fingerprints(corpora):
    return {
        setting: [
            labeled.doc.fingerprint()
            for labeled in corpora[setting].train + corpora[setting].test
        ]
        for setting in SETTINGS
    }


def test_experiment_leaves_corpus_pickle_unchanged(tmp_path, monkeypatch):
    store_dir = tmp_path / "store"
    monkeypatch.setenv("REPRO_STORE", "1")
    monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_JOBS", "1")

    corpora = m2h_corpora(**SIZES)
    before = pickle.dumps(corpora)
    run_m2h_experiment(
        [NdsynMethod(), LrsynHtmlMethod()],
        providers=[SIZES["provider"]],
        train_size=SIZES["train_size"],
        test_size=SIZES["test_size"],
    )
    # The experiment scored the very corpus built above, filling its memos.
    document = corpora[SETTINGS[0]].train[0].doc
    assert document.root._text_content is not None
    assert pickle.dumps(corpora) == before

    flush_corpus_store()
    stored = BlueprintStore(directory=store_dir, enabled=True).get(
        "corpus", _corpus_store_key("m2h", **SIZES)
    )
    assert stored is not BlueprintStore.MISS
    assert stored is not corpora
    assert fingerprints(stored) == fingerprints(corpora)
