"""``python -m repro serve`` with layer spans recorded around public calls.

Usage: ``serve_traced.py TRACE_OUT serve [serve options...]``.  The spans
stay in memory and are written to ``TRACE_OUT`` once the server has
drained and the CLI has returned.
"""

from __future__ import annotations

import sys

from spans import Tracer, instrument


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(prefix="s")
    instrument(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
