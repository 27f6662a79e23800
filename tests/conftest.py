"""Run the tests against this checkout's `src`, whether or not it is installed.

The package directory goes first on `sys.path` for in-process imports and
first on `PYTHONPATH` for the CLI, demo and probe subprocesses.
"""
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)
