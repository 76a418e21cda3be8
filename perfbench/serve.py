"""Launch ``repro serve`` for the ``service_http`` workload.

Usage: ``python3 perfbench/serve.py --db CATALOG [--trace-out SPANS]``

Runs the repository's ``repro serve`` command on an ephemeral port with
two request workers.  With ``--trace-out``, the benchmark's layer
wrappers are installed in this process first, every request's spans are
tagged with its session and round, and the spans are written to
``SPANS`` after the server shuts down (SIGINT, like Ctrl-C).  Without
it the server runs exactly as ``repro serve`` does.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

WORKERS = 2


def _install_tracer():
    import repro.db  # noqa: F401 - bind modules before wrapping
    import repro.service
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    feeds: dict[str, int] = {}
    lock = threading.Lock()
    handle = repro.service.RetrievalService.handle

    def tagged(self, method, target, body=None):
        # /sessions/<sid>/feed opens the next round of that session;
        # every other request belongs to the session's current round.
        parts = target.partition("?")[0].strip("/").split("/")
        sid = parts[1] if len(parts) > 1 and parts[0] == "sessions" \
            else None
        with lock:
            if sid is not None and parts[-1] == "feed":
                feeds[sid] = feeds.get(sid, 0) + 1
            round_ = feeds.get(sid, 0)
        tracer.set_context(sid, round_)
        return handle(self, method, target, body)

    repro.service.RetrievalService.handle = tagged
    tracer.active = True
    return tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--db", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    sys.stdout.reconfigure(line_buffering=True)
    tracer = _install_tracer() if args.trace_out else None

    from repro.cli import main as repro_main

    code = repro_main(["serve", "--db", args.db, "--port", "0",
                       "--workers", str(WORKERS)])
    if tracer is not None:
        tracer.active = False
        tracer.write(args.trace_out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
