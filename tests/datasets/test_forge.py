"""Property tests for the synthetic document forge.

The determinism contract: a forged corpus is a pure function of
``(provider, sizes, setting, seed)`` — byte-identical across processes
and across differing ``PYTHONHASHSEED`` values — while different seeds
produce visibly different providers.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.datasets import forge
from repro.datasets.base import CONTEMPORARY, LONGITUDINAL

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
# A bare subprocess environment that still honours a run's choice not to
# write bytecode into the source tree.
CLEAN_ENV = {
    "PATH": "/usr/bin:/bin",
    **{
        k: v
        for k, v in os.environ.items()
        if k == "PYTHONDONTWRITEBYTECODE"
    },
}


@pytest.fixture(scope="module")
def corpus():
    return forge.generate_corpus(
        "forge000", train_size=4, test_size=4, setting=LONGITUDINAL, seed=0
    )


class TestGeneration:
    def test_provider_count_follows_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORGE_PROVIDERS", "9")
        assert forge.forge_providers() == [
            f"forge{i:03d}" for i in range(9)
        ]

    def test_fields_are_seed_independent(self):
        # The registry task graph must not move with the corpus seed:
        # fields depend on the provider name only.
        for provider in ("forge000", "forge003", "forge011"):
            fields = forge.fields_for(provider)
            assert set(forge.CORE_FIELDS) <= set(fields)
            assert fields == forge.fields_for(provider)
            for seed in (0, 1, 7):
                assert forge.provider_spec(provider, seed).fields == fields

    def test_image_fields_drop_qty(self):
        for provider in [f"forge{i:03d}" for i in range(12)]:
            assert forge.QTY not in forge.image_fields_for(provider)

    def test_truth_covers_every_field(self, corpus):
        fields = forge.fields_for("forge000")
        for labeled in corpus.train + corpus.test:
            assert tuple(labeled.truth) == fields
            for values in labeled.truth.values():
                assert values and all(isinstance(v, str) for v in values)

    def test_annotations_recover_ground_truth(self, corpus):
        # data-f-* attributes aggregate to exactly the gold value lists,
        # for contemporary training pages and drifted longitudinal ones.
        for labeled in corpus.train + corpus.test:
            for field in forge.fields_for("forge000"):
                assert labeled.annotation(field).aggregate() == labeled.gold(
                    field
                )

    def test_image_annotations_recover_ground_truth(self):
        corpus = forge.generate_image_corpus(
            "forge004", train_size=2, test_size=3, seed=0
        )
        for labeled in corpus.train + corpus.test:
            for field, gold in labeled.truth.items():
                assert sorted(
                    labeled.annotation(field).aggregate()
                ) == sorted(gold)

    def test_config_fingerprint_tracks_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORGE_PROVIDERS", "3")
        monkeypatch.setenv("REPRO_FORGE_DOCS", "40")
        first = forge.config_fingerprint()
        monkeypatch.setenv("REPRO_FORGE_DOCS", "80")
        assert forge.config_fingerprint() != first


class TestDeterminism:
    def test_same_seed_is_byte_identical_in_process(self):
        first = forge.generate_corpus(
            "forge001", 3, 3, setting=LONGITUDINAL, seed=5
        )
        second = forge.generate_corpus(
            "forge001", 3, 3, setting=LONGITUDINAL, seed=5
        )
        assert [d.doc.source for d in first.train + first.test] == [
            d.doc.source for d in second.train + second.test
        ]
        assert forge.corpus_digest(first) == forge.corpus_digest(second)

    def test_image_corpus_same_seed_identical(self):
        first = forge.generate_image_corpus("forge002", 2, 2, seed=3)
        second = forge.generate_image_corpus("forge002", 2, 2, seed=3)
        assert [d.doc.fingerprint() for d in first.train + first.test] == [
            d.doc.fingerprint() for d in second.train + second.test
        ]

    def test_different_seeds_are_distinct_providers(self):
        assert forge.provider_spec("forge001", 0) != forge.provider_spec(
            "forge001", 1
        )
        assert forge.corpus_digest(
            forge.generate_corpus("forge001", 3, 3, seed=0)
        ) != forge.corpus_digest(forge.generate_corpus("forge001", 3, 3, seed=1))

    def test_different_providers_are_distinct(self):
        assert forge.corpus_digest(
            forge.generate_corpus("forge000", 3, 3, seed=0)
        ) != forge.corpus_digest(forge.generate_corpus("forge001", 3, 3, seed=0))


DETERMINISM_SNIPPET = """
import json, sys
sys.path.insert(0, {src!r})
from repro.datasets import forge
from repro.datasets.base import LONGITUDINAL
digests = {{}}
for provider in ("forge000", "forge001"):
    html = forge.generate_corpus(
        provider, 3, 3, setting=LONGITUDINAL, seed=3
    )
    images = forge.generate_image_corpus(provider, 2, 2, seed=3)
    digests[provider] = [
        forge.corpus_digest(html),
        forge.corpus_digest(images),
        [d.doc.fingerprint() for d in html.train + html.test],
    ]
print(json.dumps(digests, sort_keys=True))
"""


class TestCrossProcessDeterminism:
    def test_corpora_identical_across_hash_seeds(self):
        """Same seed => byte-identical corpora and fingerprints, even in
        fresh processes pinned to hostile ``PYTHONHASHSEED`` values."""
        outputs = []
        for hash_seed in ("0", "1", "31337"):
            proc = subprocess.run(
                [sys.executable, "-c", DETERMINISM_SNIPPET.format(src=str(SRC))],
                capture_output=True,
                text=True,
                env={**CLEAN_ENV, "PYTHONHASHSEED": hash_seed},
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        assert json.loads(outputs[0])  # sanity: real payload, not empty

    def test_cli_digests_stable_and_writes_corpora(self, tmp_path):
        argv = [
            sys.executable, "-m", "repro.datasets.forge",
            "--providers", "2", "--docs", "8", "--seed", "1",
        ]
        env = {**CLEAN_ENV, "PYTHONPATH": str(SRC)}
        first = subprocess.run(
            argv, capture_output=True, text=True, check=True,
            env={**env, "PYTHONHASHSEED": "2"},
        )
        second = subprocess.run(
            argv + ["--out", str(tmp_path / "dump")],
            capture_output=True, text=True, check=True,
            env={**env, "PYTHONHASHSEED": "77"},
        )
        assert first.stdout == second.stdout
        assert len(first.stdout.splitlines()) == 2
        written = tmp_path / "dump" / "forge000"
        assert (written / "truth.json").exists()
        assert list(written.glob("*.html"))
