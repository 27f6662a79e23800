"""Run the tests against this checkout's `src`, whether or not it is installed.

The package directory goes first on `sys.path` for in-process imports and
first on `PYTHONPATH` for the fresh interpreters a few tests start: the
demos, the probes of what an import loads or of a module made unimportable,
and the real `python -m ergolab` runs whose process is what they check.
"""
import concurrent.futures
import contextlib
import io
import os
import sys
import types

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)


def run_cli(*argv):
    """`ergolab <argv>` in-process: its exit code and captured output.

    argparse's exit is the exit code, as in a real run; any other exception
    escapes and fails the test, as a traceback would fail a real run.
    """
    from ergolab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return types.SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())


@pytest.fixture
def thread_pools(monkeypatch):
    """Thread every Monte-Carlo batch on up to 8 CPUs, from fresh pools.

    Without this, batches under `mc.MIN_THREADED_BATCH` samples run on the
    calling thread at any `jobs`, so a jobs-invariance test on small inputs
    would compare the serial path with itself.  `ran` lists the pool size
    of each threaded estimate, `started` the size of each pool started.
    """
    from ergolab import mc

    pools = types.SimpleNamespace(ran=[], started=[])

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.started.append(max_workers)
            super().__init__(max_workers=max_workers)

        def map(self, fn, *iterables):
            pools.ran.append(self._max_workers)
            return super().map(fn, *iterables)

    # batch_estimate imports the pool in its threaded branch, when it starts one
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(mc, "_pools", {})
    monkeypatch.setattr(mc, "MIN_THREADED_BATCH", 2)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 8)
    return pools
