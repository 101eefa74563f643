"""Run one ``arcs`` command in-process with the benchmark's hooks.

    python3 perfbench/child.py [--spans DIR] [--stream DIR] \
        -- <arcs arguments>

The program's sources must be on ``PYTHONPATH``.  ``--spans DIR``
installs the layer tracer (:mod:`tracer`) and writes
``DIR/spans-<pid>.json`` at exit; forked serving workers write their
own file when they drain.  ``--stream DIR`` times every
``StreamRefitter.ingest`` call that triggered a refit and hard-links
every published artefact into ``DIR`` once the clock has stopped, so
the runner can check each one afterwards.  Without either flag this is
plain ``arcs <arguments>``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable
from pathlib import Path
from time import perf_counter


def _hook_stream(out_dir: Path) -> Callable[[], None]:
    """Time refit-triggering ingests; capture every published artefact.

    Capturing is an ``os.link`` of the artefact just written: no read,
    no copy kept in memory, and never inside a timed ingest.
    """
    from repro.stream.refitter import StreamRefitter

    out_dir.mkdir(parents=True, exist_ok=True)
    triggered: list[float] = []
    records: list[dict] = []
    inside_ingest = False
    ingest, refit = StreamRefitter.ingest, StreamRefitter.refit

    def capture(record) -> None:
        if record.published:
            os.link(record.path,
                    out_dir / f"artefact-{len(records):04d}.json")
        records.append({"window": record.window_id,
                        "published": record.published,
                        "model_id": record.model_id,
                        "rules": record.n_rules})

    @functools.wraps(ingest)
    def timed_ingest(self, chunk):
        nonlocal inside_ingest
        inside_ingest = True
        started = perf_counter()
        try:
            record = ingest(self, chunk)
        finally:
            inside_ingest = False
        if record is not None:
            triggered.append(perf_counter() - started)
            capture(record)
        return record

    @functools.wraps(refit)
    def capturing_refit(self):
        record = refit(self)
        # Refits an ingest triggered are captured by that ingest, after
        # its clock stopped; this catches the residual flush.
        if not inside_ingest:
            capture(record)
        return record

    StreamRefitter.ingest = timed_ingest
    StreamRefitter.refit = capturing_refit

    def write() -> None:
        (out_dir / "stream.json").write_text(json.dumps({
            "refit_ingest_s": triggered, "records": records,
        }))

    return write


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--stream", type=Path, default=None)
    parser.add_argument("arcs", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    arcs_argv = args.arcs[1:] if args.arcs[:1] == ["--"] else args.arcs

    tracer = None
    if args.spans is not None:
        import tracer as tracing

        args.spans.mkdir(parents=True, exist_ok=True)
        tracer = tracing.Tracer()
        tracing.install(tracer, span_dir=args.spans)
    write_stream = (_hook_stream(args.stream)
                    if args.stream is not None else None)

    import repro.cli

    root = tracer.open("cli") if tracer is not None else None
    try:
        return repro.cli.main(arcs_argv)
    finally:
        if tracer is not None:
            tracer.close(root)
            tracer.dump(args.spans / "spans-main.json")
        if write_stream is not None:
            write_stream()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
