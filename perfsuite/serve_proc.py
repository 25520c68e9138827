"""``repro-serve`` in this process, with an exit report for the benchmark.

Usage::

    python perfsuite/serve_proc.py REPORT.json TRACE.json|- -- <repro-serve args>

Runs ``repro.serve.main`` (the ``repro-serve`` console entry) unchanged.
On exit it writes REPORT.json: the exit code, peak RSS and CPU seconds of
this process.  With a TRACE path the layers are traced (see ``spans.py``),
every request's stage timings are kept with the monotonic time they were
recorded — so the client can split them exactly by load level — and the
spans are written to TRACE as Chrome trace-event JSON.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def _keep_stage_samples(samples: list) -> None:
    from repro.serve.metrics import StageMetrics

    original = StageMetrics.observe_many

    def observe_many(self, timings):
        samples.append((time.monotonic(), dict(timings)))
        return original(self, timings)

    StageMetrics.observe_many = observe_many


def main() -> int:
    report_path, trace_path = sys.argv[1], sys.argv[2]
    args = sys.argv[sys.argv.index("--") + 1:]
    from repro.serve import main as serve_main

    tracer = None
    samples: list = []
    if trace_path != "-":
        from spans import Tracer

        import repro.serve.server  # noqa: F401 - bind targets before patching

        tracer = Tracer().install()
        _keep_stage_samples(samples)
    with tracer.root() if tracer else contextlib.nullcontext():
        code = serve_main(args)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "exit": code,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        report["stage_samples"] = samples
        report["spans"] = tracer.write_chrome(trace_path, os.getpid())
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
