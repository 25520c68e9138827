"""The ``REPRO_JOBS`` knob: the harness fans out, synthesis stays serial.

:func:`repro.harness.runner.run_field_tasks` is the one fan-out: with
more than one job its tasks run in a process pool and the results come
back in submission order.  Synthesis itself never reads the knob, so
landmark scoring and whole ``lrsyn`` runs are identical under any
``REPRO_JOBS``.
"""

import os

from repro.core import parallel
from repro.harness import runner
from repro.harness.runner import FieldResult, run_field_tasks
from repro.html.domain import HtmlDomain


def _pid_task(index):
    """A field task that records which process ran it."""
    return [
        FieldResult(
            method="probe",
            provider=str(os.getpid()),
            field=f"f{index}",
            setting="s",
            score=None,
        )
    ]


def _run_probe(monkeypatch, n_jobs, count):
    monkeypatch.setenv("REPRO_JOBS", str(n_jobs))
    results = run_field_tasks(_pid_task, [(i,) for i in range(count)])
    return [r.field for r in results], {r.provider for r in results}


class TestKernelGuards:
    def test_follows_repro_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert parallel.jobs() == 3
        assert runner.jobs() == 3

    def test_run_sharded_orders_results(self, monkeypatch):
        fields, pids = _run_probe(monkeypatch, n_jobs=2, count=6)
        assert fields == [f"f{i}" for i in range(6)]
        assert str(os.getpid()) not in pids

    def test_run_sharded_serial_fallback(self, monkeypatch):
        fields, pids = _run_probe(monkeypatch, n_jobs=1, count=4)
        assert fields == [f"f{i}" for i in range(4)]
        assert pids == {str(os.getpid())}


class TestParallelLandmarkScoring:
    def test_html_parallel_matches_serial(self, monkeypatch):
        from repro.datasets import m2h
        from repro.html import landmarks as lm

        corpus = m2h.generate_corpus(
            "getthere", train_size=6, test_size=0, seed=0
        )
        examples = corpus.training_examples("DTime")

        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = lm.landmark_candidates(examples, 10)
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert lm.landmark_candidates(examples, 10) == serial

    def test_image_parallel_matches_serial(self, monkeypatch):
        from repro.datasets import finance
        from repro.images import landmarks as lm

        corpus = finance.generate_corpus(
            "AccountsInvoice", train_size=4, test_size=0, seed=0
        )
        field = finance.FINANCE_FIELDS["AccountsInvoice"][0]
        examples = corpus.training_examples(field)

        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = lm.landmark_candidates(examples, 10)
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert lm.landmark_candidates(examples, 10) == serial

    def test_lrsyn_identical_with_parallel_kernels(self, monkeypatch):
        """End-to-end: ``REPRO_JOBS>1`` changes nothing observable."""
        from repro.core.synthesis import lrsyn
        from repro.datasets import m2h

        corpus = m2h.generate_corpus(
            "delta", train_size=6, test_size=8, seed=0
        )
        examples = corpus.training_examples("DTime")
        domain = HtmlDomain()

        monkeypatch.setenv("REPRO_JOBS", "1")
        serial_program = lrsyn(domain, examples)
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel_program = lrsyn(domain, examples)

        assert len(serial_program.strategies) == len(
            parallel_program.strategies
        )
        for left, right in zip(
            serial_program.strategies, parallel_program.strategies
        ):
            assert left.landmark == right.landmark
            assert left.blueprint == right.blueprint
            assert left.common_values == right.common_values
        for example in examples:
            assert serial_program.extract(example.doc) == (
                parallel_program.extract(example.doc)
            )
