"""Synthesis and serving processes never load numpy or the process-pool
machinery.

numpy costs a cold process tens of milliseconds and ~14 MB of RSS, and
``concurrent.futures.process`` pulls in ``multiprocessing``; nothing
under ``src/`` imports numpy, and only a ``REPRO_JOBS > 1`` harness run
needs the pool.  Each check runs in a fresh interpreter, because the
test session itself may have imported either.
"""

from __future__ import annotations

import os
import subprocess
import sys

FORBIDDEN = ("numpy", "concurrent.futures.process", "multiprocessing")

_SNIPPET = """
import sys
import repro.harness.runner
import repro.harness.images
import repro.store.sqlite
{work}
print("loaded:" + ",".join(n for n in {forbidden!r} if n in sys.modules))
"""

_TRAIN = """
from repro.harness.images import LrsynImageMethod, run_finance_experiment
from repro.harness.runner import LrsynHtmlMethod, run_m2h_experiment
assert run_m2h_experiment(
    [LrsynHtmlMethod()], providers=["delta"], train_size=3, test_size=3
)
assert run_finance_experiment(
    [LrsynImageMethod()], doc_types=["CashInvoice"], train_size=3, test_size=3
)
"""

_ROUTE = """
import repro.serve.server
from repro.serve.router import CatalogEntry, Router, ServingCatalog

class Program:
    def extract(self, doc):
        return []

entries = [
    CatalogEntry(
        key=provider, dataset="synthetic", provider=provider, field="F",
        method="LRSyn", program_key=provider, algo=0,
        blueprints=(frozenset(elements),), extractor=Program(),
    )
    for provider, elements in (("pA", "ab"), ("pB", "bc"))
]
router = Router(ServingCatalog(entries=entries, digest="d", generation="g"))
entry, distance, diagnostic = router.route("F", frozenset("cx"))
assert (entry.provider, distance, diagnostic) == ("pB", 1 - 1 / 3, None)
"""


def loaded_modules(work: str, tmp_path) -> list[str]:
    env = {
        **os.environ,
        "REPRO_JOBS": "1",
        "REPRO_STORE_DIR": str(tmp_path / "store"),
        "PYTHONPATH": os.pathsep.join(
            p for p in ("src", os.environ.get("PYTHONPATH")) if p
        ),
    }
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            _SNIPPET.format(work=work, forbidden=FORBIDDEN),
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    line = result.stdout.splitlines()[-1]
    assert line.startswith("loaded:"), result.stdout
    return [name for name in line[len("loaded:"):].split(",") if name]


def test_harness_and_store_import_without_numpy(tmp_path):
    assert loaded_modules("", tmp_path) == []


def test_serial_training_loads_neither(tmp_path):
    assert loaded_modules(_TRAIN, tmp_path) == []


def test_serving_router_loads_neither(tmp_path):
    assert loaded_modules(_ROUTE, tmp_path) == []
