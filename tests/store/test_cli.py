"""`repro-store` CLI: stats --json, gc, evict guard rails, serve."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.store import BlueprintStore, default_generation
from repro.store.cli import main
from repro.store.remote import RemoteBackend


def seeded_dir(tmp_path):
    directory = tmp_path / "store"
    store = BlueprintStore(directory=directory, enabled=True)
    store.put("dist", "current", "html", 1.0)
    store.put("dist", "old", "html", 2.0, generation="algo=1")
    store.put("doc_bp", "bp", "m2h", {"a": 1})
    store.close()
    return directory


class TestStats:
    def test_human_output(self, tmp_path, capsys):
        directory = seeded_dir(tmp_path)
        assert main(["--dir", str(directory), "stats"]) == 0
        out = capsys.readouterr().out
        assert f"store:    {directory / 'blueprints.sqlite'}" in out
        assert "entries:  3" in out
        assert "html/dist: 2 entries" in out

    def test_json_includes_per_kind_generation_counts(self, tmp_path, capsys):
        directory = seeded_dir(tmp_path)
        assert main(["--dir", str(directory), "stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 3
        assert stats["by_kind"]["html/dist"]["generations"] == {
            default_generation(): 1,
            "algo=1": 1,
        }
        assert stats["by_kind"]["m2h/doc_bp"]["generations"] == {
            default_generation(): 1,
        }


class TestGcCommand:
    def test_dry_run_reports_and_keeps(self, tmp_path, capsys):
        directory = seeded_dir(tmp_path)
        assert main(["--dir", str(directory), "gc", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "scanned 3 entries" in out
        assert "stale generations: 1 entries" in out
        assert "dry run: would delete 1 entries" in out
        store = BlueprintStore(directory=directory, enabled=True)
        assert store.stats()["entries"] == 3
        store.close()

    def test_gc_deletes_and_reports_remainder(self, tmp_path, capsys):
        directory = seeded_dir(tmp_path)
        assert main(["--dir", str(directory), "gc"]) == 0
        out = capsys.readouterr().out
        assert "deleted 1 entries" in out
        assert "2 entries" in out
        store = BlueprintStore(directory=directory, enabled=True)
        assert store.stats()["entries"] == 2
        store.close()

    def test_gc_json_report(self, tmp_path, capsys):
        directory = seeded_dir(tmp_path)
        assert main(["--dir", str(directory), "gc", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scanned"] == 3
        assert report["stale"]["by_kind"] == {"html/dist": 1}
        assert report["deleted_entries"] == 1
        assert not report["dry_run"]


class TestEvictGuard:
    def test_no_budget_anywhere_is_an_error(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.delenv("REPRO_STORE_MAX_MB", raising=False)
        directory = seeded_dir(tmp_path)
        assert main(["--dir", str(directory), "evict"]) == 2
        out = capsys.readouterr().out
        assert "no budget" in out


class TestServe:
    def test_serve_subprocess_round_trip(self, tmp_path):
        addr_file = tmp_path / "addr"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.store",
             "--dir", str(tmp_path / "served"),
             "serve", "--port", "0", "--addr-file", str(addr_file)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 30.0
            while not addr_file.exists() and time.monotonic() < deadline:
                assert proc.poll() is None, proc.stderr.read().decode()
                time.sleep(0.05)
            url = addr_file.read_text().strip()
            assert url.startswith("tcp://")

            client = BlueprintStore(
                directory=tmp_path / "client", enabled=True,
                backend="remote", url=url,
            )
            client.put("dist", "k", "html", 0.5)
            client.flush()
            assert client.get("dist", "k") == 0.5
            client.close()

            shutter = RemoteBackend(url)
            shutter.shutdown_server()
            shutter.close()
            proc.wait(timeout=30)
            assert proc.returncode == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # The daemon's directory is a plain sqlite store afterwards.
        local = BlueprintStore(directory=tmp_path / "served", enabled=True)
        assert local.get("dist", "k") == 0.5
        local.close()

    def test_serve_rejects_remote_backend(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["--backend", "remote", "--dir", str(tmp_path), "serve"])
        assert "serve fronts a local backend" in capsys.readouterr().err
