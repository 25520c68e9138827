"""`repro-store` CLI: stats --json, gc, module entry."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.store import BlueprintStore, default_generation
from repro.store.cli import main


def seeded_dir(tmp_path):
    directory = tmp_path / "store"
    store = BlueprintStore(directory=directory, enabled=True)
    store.put("program", "current", "html", 1.0)
    store.put("program", "old", "html", 2.0, generation="algo=1")
    store.put("serving", "catalog", "m2h", {"a": 1})
    store.close()
    return directory


class TestStats:
    def test_human_output(self, tmp_path, capsys):
        directory = seeded_dir(tmp_path)
        assert main(["--dir", str(directory), "stats"]) == 0
        out = capsys.readouterr().out
        assert f"store:    {directory / 'blueprints.sqlite'}" in out
        assert "entries:  3" in out
        assert "html/program: 2 entries" in out

    def test_json_includes_per_kind_generation_counts(self, tmp_path, capsys):
        directory = seeded_dir(tmp_path)
        assert main(["--dir", str(directory), "stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 3
        assert stats["by_kind"]["html/program"]["generations"] == {
            default_generation(): 1,
            "algo=1": 1,
        }
        assert stats["by_kind"]["m2h/serving"]["generations"] == {
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

    def test_gc_reports_and_drops_retired_kinds(self, tmp_path, capsys):
        directory = seeded_dir(tmp_path)
        store = BlueprintStore(directory=directory, enabled=True)
        store.put("roi_bp", "bp", "images", frozenset({"a"}))
        store.put("landmark", "lm", "html", ["Depart:"])
        store.close()
        assert main(["--dir", str(directory), "gc"]) == 0
        out = capsys.readouterr().out
        assert "retired kinds: 2 entries" in out
        assert "  images/roi_bp: 1 entries" in out
        assert "  html/landmark: 1 entries" in out
        assert "deleted 3 entries" in out
        assert main(["--dir", str(directory), "stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert set(stats["by_kind"]) == {"html/program", "m2h/serving"}

    def test_gc_json_report(self, tmp_path, capsys):
        directory = seeded_dir(tmp_path)
        assert main(["--dir", str(directory), "gc", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scanned"] == 3
        assert report["stale"]["by_kind"] == {"html/program": 1}
        assert report["deleted_entries"] == 1
        assert not report["dry_run"]


class TestModuleEntryPoint:
    def test_module_stats_json_subprocess(self, tmp_path):
        """``python -m repro.store`` runs the same CLI in a fresh process."""
        directory = seeded_dir(tmp_path)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.store",
             "--dir", str(directory), "stats", "--json"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        stats = json.loads(proc.stdout)
        assert stats["entries"] == 3
