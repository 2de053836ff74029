"""Traced CLI job: one fresh interpreter running ``hhmeasure.cli.main``.

Usage: child.py SPANS_PATH SPAWN_TIME CLI_ARG...

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process; the gap to the first statement below is the ``startup.interp``
span.  The import of hhmeasure is the ``startup.import`` span.  The spans are
written as JSON to SPANS_PATH, and the exit code is the CLI's.
"""

import time

FIRST = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    spans_path, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    start = time.monotonic()
    import hhmeasure.cli
    imported = time.monotonic()
    from spans import Tracer, install   # after hhmeasure, so numpy is already loaded

    tracer = Tracer()
    tracer.add_span("startup.interp", spawned, FIRST)
    tracer.add_span("startup.import", start, imported)
    install(tracer)
    try:
        return hhmeasure.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
