"""Seeded fault injection: spec parsing and exactly-once trip semantics.

The chaos layer's whole value is determinism — the Nth arrival at a
site trips, every other arrival is free — so these tests pin the
counter algebra precisely: per-site independence, one-shot firing,
reset behaviour, and env-driven configuration.
"""

import pytest

from repro.harness import chaos


@pytest.fixture(autouse=True)
def clean_chaos(monkeypatch):
    """Every test starts and ends with an empty spec and zeroed counters."""
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    chaos.reset("")
    yield
    chaos.reset("")


class TestSpecParsing:
    def test_single_and_multiple_sites(self):
        assert chaos.parse_spec("kill_task=2") == {"kill_task": 2}
        assert chaos.parse_spec(" kill_claim=3 , truncate_partial=1 ") == {
            "kill_claim": 3,
            "truncate_partial": 1,
        }

    def test_empty_spec(self):
        assert chaos.parse_spec("") == {}
        assert chaos.parse_spec(" , ,") == {}

    @pytest.mark.parametrize("bad", ["kill_task", "=3", "kill_task=x"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError, match="REPRO_CHAOS"):
            chaos.parse_spec(bad)

    def test_spec_reads_env_after_reset(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "kill_claim=1")
        chaos.reset()  # reparse lazily from the env
        assert chaos.spec() == {"kill_claim": 1}

    def test_seed_travels_in_the_spec(self):
        chaos.reset("kill_task=1,seed=7")
        assert chaos.seed() == 7
        chaos.reset("")
        assert chaos.seed() == 0


class TestTrip:
    def test_nth_arrival_trips_exactly_once(self, capsys):
        chaos.reset("kill_task=2")
        assert chaos.trip("kill_task") is False
        assert chaos.trip("kill_task") is True
        # Later arrivals are free again: the fault fired, the run goes on.
        assert chaos.trip("kill_task") is False
        assert chaos.trip("kill_task") is False
        err = capsys.readouterr().err
        assert err.count("[chaos] tripped kill_task=2") == 1

    def test_unconfigured_site_never_trips(self):
        chaos.reset("kill_task=1")
        assert all(not chaos.trip("kill_claim") for _ in range(5))

    def test_sites_count_independently(self):
        chaos.reset("kill_claim=1,truncate_partial=2")
        assert chaos.trip("kill_claim") is True
        assert chaos.trip("truncate_partial") is False
        assert chaos.trip("truncate_partial") is True

    def test_reset_clears_counters(self):
        chaos.reset("kill_claim=1")
        assert chaos.trip("kill_claim") is True
        chaos.reset("kill_claim=1")
        assert chaos.trip("kill_claim") is True

    def test_empty_spec_is_free(self):
        chaos.reset("")
        assert not chaos.trip("kill_task")
        assert not chaos.trip("truncate_partial")
