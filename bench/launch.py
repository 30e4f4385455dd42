"""Run ``hssatlas.cli.main`` under the benchmark's tracer.

    python3 bench/launch.py <hssatlas arguments...>

Behaves like ``python -m hssatlas`` (same stdout and exit code) and, when
the BENCH_TRACE_OUT variable names a file, writes the spans and counts
of this process there as JSON.
"""

from __future__ import annotations

import json
import os
import sys

import hssatlas.cli
from tracing import Tracer


def main() -> int:
    tracer = Tracer()
    try:
        with tracer.active(0):
            return hssatlas.cli.main(sys.argv[1:])
    finally:
        out = os.environ.get("BENCH_TRACE_OUT")
        if out:
            with open(out, "w", encoding="utf-8") as handle:
                json.dump(tracer.dump(), handle)


if __name__ == "__main__":
    sys.exit(main())
