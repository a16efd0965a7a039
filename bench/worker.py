"""Serves ``fdfa.cli.main`` requests in-process, one after another.

Run as ``python3 worker.py SRC_DIR`` from the directory that holds the input
files.  The protocol is one JSON object per line each way:

* ``{"op": "run", "argv": [...]}`` runs one request with a cold memo and
  replies ``{"code", "stdout", "ms", "error"}``; ``ms`` covers ``main`` alone.
* ``{"op": "trace"}`` wraps the package's functions (see ``tracing.py``).
* ``{"op": "report", "path": ...}`` writes the spans and replies with totals.
* ``{"op": "exit"}`` replies with the process's peak resident set and exits.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def serve(src: Path) -> None:
    sys.path.insert(0, str(src))
    import fdfa
    import fdfa.cli

    if not Path(fdfa.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"fdfa was imported from {fdfa.__file__}, not from {src}")
    proto = sys.stdout
    tracer = None

    def send(obj) -> None:
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    send({"ready": True})
    for line in sys.stdin:
        msg = json.loads(line)
        op = msg["op"]
        if op == "run":
            # The CLI serves one request per process.  The ~ memo in fdfa.classes
            # hashes machines by value, so without this a replayed request would
            # be answered from the previous replay's cache.
            clear_memo = getattr(fdfa, "clear_memo", None)
            if clear_memo is not None:
                clear_memo()
            gc.collect()
            out, err = io.StringIO(), io.StringIO()
            code = error = None
            if tracer is not None:
                tracer.request += 1
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = fdfa.cli.main(msg["argv"])
            except (Exception, SystemExit):
                error = traceback.format_exc(limit=-3)
            ms = (time.perf_counter() - start) * 1000.0
            send({"code": code, "stdout": out.getvalue(), "ms": ms, "error": error})
        elif op == "trace":
            import tracing

            tracer = tracing.install()
            send({"ok": True})
        elif op == "report":
            send(tracer.report(Path(msg["path"])))
        elif op == "exit":
            send({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            return


if __name__ == "__main__":
    serve(Path(sys.argv[1]))
