"""`ergolab` CLI invocation with layer spans, for the traced cli-cold rounds.

    python perfbench/tracecli.py SPANS_JSON <ergolab arguments...>

Behaves as `python -m ergolab <arguments>` (same output and exit code) and
also writes the span totals of the invocation, the package import included,
to SPANS_JSON.
"""
from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from instrument import Instrument, OpClock, Tracer, import_ergolab  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    _, import_s, _ = import_ergolab(os.path.dirname(HERE))
    t0 = time.perf_counter()
    import ergolab.cli

    tracer.record_span("init", "import", import_s + time.perf_counter() - t0)
    inst = Instrument(OpClock(), tracer)
    inst.install()
    try:
        code = ergolab.cli.main(argv)
    finally:
        inst.remove()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.snapshot(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
