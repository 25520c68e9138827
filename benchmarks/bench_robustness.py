"""Section 7.4: robustness of the experimental results.

Two checks from the paper:

* **Training-set choice** — rerunning the M2H experiments with differently
  seeded training sets changes per-field F1 by at most ~0.01 ("the F1
  scores ... varied by no more than 0.01").
* **Landmark-threshold choice** — keeping 2x as many landmark candidates
  leaves the results identical, because bad candidates are eliminated when
  no program extracts the values from them.

Both run through the experiment harness (``run_m2h_robustness_experiment``
/ ``train_method`` + the harness corpus helpers) rather than hand-rolled
``generate_corpus``/``train`` loops, so the memo tables, the persistent
program store, ``REPRO_JOBS`` and ``REPRO_SHARD`` cover this bench
exactly like the table benches — the training-set study is the
``robustness`` experiment of the ``repro-shard`` registry.
"""

import math

from repro.core.metrics import score_corpus
from repro.core.synthesis import LrsynConfig
from repro.harness.reporting import render_table
from repro.harness.runner import (
    ROBUSTNESS_FIELDS,
    ROBUSTNESS_PROVIDERS,
    ROBUSTNESS_SEEDS,
    LrsynHtmlMethod,
    m2h_contemporary_corpus,
    train_method,
)

from benchmarks.common import emit, robustness_results


def test_training_set_choice(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    results = robustness_results()

    spreads = {}
    for provider in ROBUSTNESS_PROVIDERS:
        for field_name in ROBUSTNESS_FIELDS:
            f1s = [
                r.f1
                for r in results
                if r.provider == provider and r.field == field_name
            ]
            assert len(f1s) == len(ROBUSTNESS_SEEDS)
            # A NaN (SynthesisFailure) would silently fall out of
            # max()/min(); a failed training seed must fail the bench,
            # as loudly as the pre-harness version's uncaught exception.
            assert not any(math.isnan(f1) for f1 in f1s), (
                f"{provider}.{field_name}: synthesis failed for a seed"
            )
            spreads[(provider, field_name)] = max(f1s) - min(f1s)

    rows = [
        [f"{provider}.{field_name}", f"{spread:.3f}"]
        for (provider, field_name), spread in sorted(spreads.items())
    ]
    table = render_table(
        ["Field task", "F1 spread across 4 training seeds"],
        rows,
        title=(
            "Section 7.4: training-set choice "
            "(paper: spread <= 0.01 for every field)"
        ),
    )
    emit("robustness_training_sets", table)
    assert max(spreads.values()) <= 0.02


def test_landmark_threshold_choice(benchmark):
    """Doubling the landmark-candidate budget leaves results identical."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for provider, field_name in (("getthere", "DTime"), ("delta", "RId")):
        corpus = m2h_contemporary_corpus(
            provider, train_size=12, test_size=40, seed=0
        )
        examples = corpus.training_examples(field_name)
        baseline = LrsynHtmlMethod(LrsynConfig(max_candidates=10))
        doubled = LrsynHtmlMethod(LrsynConfig(max_candidates=20))
        f1_base = score_corpus(
            corpus.test_pairs(field_name, train_method(baseline, examples))
        ).f1
        f1_doubled = score_corpus(
            corpus.test_pairs(field_name, train_method(doubled, examples))
        ).f1
        rows.append(
            [f"{provider}.{field_name}", f"{f1_base:.3f}", f"{f1_doubled:.3f}"]
        )
        assert math.isclose(f1_base, f1_doubled, abs_tol=1e-9)

    table = render_table(
        ["Field task", "F1 @ 10 candidates", "F1 @ 20 candidates"],
        rows,
        title=(
            "Section 7.4: landmark-threshold choice "
            "(paper: results exactly identical at 2x candidates)"
        ),
    )
    emit("robustness_landmark_threshold", table)
