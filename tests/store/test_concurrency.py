"""Multi-writer concurrency: overlapping flushes lose nothing.

Two real processes flush overlapping key ranges into the same sqlite
file (serialized by the advisory file lock), and the store must end up
with the union, with every fresh reader agreeing on
``stats()``.  A GC racing a warm reader must never remove
current-generation keys the reader can reach.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.store import BlueprintStore
from repro.store.gc import run_gc

WRITER = """
import sys
from repro.store import BlueprintStore

directory, start, count = sys.argv[1:4]
store = BlueprintStore(directory=directory, enabled=True)
for i in range(int(start), int(start) + int(count)):
    store.put("dist", "k%d" % i, "html", float(i))
store.close()
"""


def run_writers(directory):
    """Two concurrent processes writing overlapping ranges 0-49 and 25-74."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", WRITER, str(directory),
             str(start), "50"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for start in (0, 25)
    ]
    for proc in procs:
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr.decode()


def assert_union_present(store):
    for index in range(75):
        assert store.get("dist", f"k{index}") == float(index)


class TestSqliteMultiWriter:
    def test_overlapping_flushes_lose_no_entries(self, tmp_path):
        directory = tmp_path / "shared"
        run_writers(directory)
        reader = BlueprintStore(directory=directory, enabled=True)
        assert_union_present(reader)
        first = reader.stats()
        reader.close()
        second_reader = BlueprintStore(directory=directory, enabled=True)
        second = second_reader.stats()
        second_reader.close()
        assert first["entries"] == second["entries"] == 75
        assert first["by_kind"] == second["by_kind"]


class TestGcVsWarmReader:
    def test_gc_never_evicts_current_generation_warm_keys(self, tmp_path):
        directory = tmp_path / "store"
        writer = BlueprintStore(directory=directory, enabled=True)
        for index in range(10):
            writer.put("program", f"warm{index}", "html", float(index))
        writer.put("program", "stale", "html", -1.0, generation="algo=0")
        writer.close()

        # A reader pulls the current-generation keys into its working set.
        reader = BlueprintStore(directory=directory, enabled=True)
        for index in range(10):
            assert reader.get("program", f"warm{index}") == float(index)

        # GC runs from a different handle (another process in real life).
        collector = BlueprintStore(directory=directory, enabled=True)
        report = run_gc(collector)
        collector.close()
        assert report["deleted_entries"] == 1  # the stale row only

        # The reader still sees every warm key — from memory and, after a
        # cache reset, from the backend itself.
        for index in range(10):
            assert reader.get("program", f"warm{index}") == float(index)
        reader._forget()
        for index in range(10):
            assert reader.get("program", f"warm{index}") == float(index)
        reader.close()
