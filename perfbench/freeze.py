"""Write frozen.json: digests of every exact result the workload pools hold.

    python3 perfbench/freeze.py

Run once, at the commit the benchmark is defined at.  Later commits are
checked against these digests, so rerunning it on a later commit would hide
a changed exact result; change the pools instead, and freeze at a commit
whose results are trusted.
"""
from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from instrument import Instrument, OpClock, import_ergolab  # noqa: E402
from workloads import WORKLOADS, Ctx  # noqa: E402


def main() -> int:
    lab, _, _ = import_ergolab(ROOT)
    frozen, bad = {}, 0
    for name, cls in WORKLOADS.items():
        t0 = time.perf_counter()
        wl = cls(lab, 0, ROOT)
        clock = OpClock()
        ctx = Ctx({}, clock, freezing=True)
        inst = Instrument(clock)
        inst.install()
        try:
            wl.freeze(ctx)
        finally:
            inst.remove()
            wl.close()
        for defect in ctx.defects:
            print(f"{name}: {defect}", file=sys.stderr)
        bad += ctx.failed
        if ctx.frozen:
            frozen[name] = ctx.frozen
        print(f"{name}: {len(ctx.frozen)} digests, {ctx.failed} failed, "
              f"{time.perf_counter() - t0:.1f} s")
    with open(os.path.join(HERE, "frozen.json"), "w", encoding="utf-8") as handle:
        json.dump(frozen, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
