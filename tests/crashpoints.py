"""Deterministic crash and delay injection for the durability tests.

The shard executor has no test seams of its own.  This helper wraps
three of its names for the length of a ``with injected(...)`` block:

* ``parallel._worker_main`` — to learn, inside each forked worker,
  which worker index this process is;
* ``parallel._run_task`` — to count that worker's tasks, sleep before
  each one, or SIGKILL the worker around one;
* ``CheckpointWriter.task_done`` — to SIGKILL the parent right after it
  journals a task record.

Forked workers inherit the patched module globals, so the wrappers run
in the workers too.  Specs (the strings the crash matrix has always
used):

* ``crash="worker:W:after:N"`` — SIGKILL worker ``W`` after its
  ``N``-th completed task;
* ``crash="worker:W:during:N"`` — SIGKILL worker ``W`` at the first
  message its ``N``-th task sends (a line batch, a telemetry delta or
  ``task_done``), before the message reaches the pipe;
* ``crash="parent:after:N"`` — SIGKILL the parent right after
  journaling its ``N``-th task record of the session;
* ``delay="W:SECONDS"`` — sleep ``SECONDS`` before each task of worker
  ``W``, to force steals.

A parent kill would take the test process with it, so the CLI crash
matrix runs a scan through this file as a script::

    PYTHONPATH=src python tests/crashpoints.py --crash parent:after:3 -- A -f names.txt ...

which installs the specs and calls ``repro.framework.cli.main`` with
the arguments after ``--``.  The wrappers use only names that every
version of the executor with a checkpoint journal has, so the script
drives any source tree on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
import time

from repro.framework import parallel
from repro.framework.checkpoint import CheckpointWriter


def _kill() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


class _KillAtFirstSend:
    """A worker's pipe end that dies instead of sending."""

    def send(self, message) -> None:
        _kill()


@contextlib.contextmanager
def injected(crash: str | None = None, delay: str | None = None):
    """Install the crash and delay specs (module docstring) until exit."""
    crash_parts = tuple(crash.split(":")) if crash else ()
    delay_worker, _, delay_seconds = (delay or "").partition(":")
    state = {"worker": None, "tasks": 0, "records": 0}
    run_task, worker_main = parallel._run_task, parallel._worker_main
    task_done = CheckpointWriter.task_done

    def worker_crash(when: str) -> bool:
        return crash_parts == ("worker", str(state["worker"]), when, str(state["tasks"]))

    def wrapped_worker_main(worker_index, *args, **kwargs):
        state["worker"] = worker_index  # runs in the forked worker only
        return worker_main(worker_index, *args, **kwargs)

    def wrapped_run_task(task, spec, conn, *args, **kwargs):
        state["tasks"] += 1
        if delay and str(state["worker"]) == delay_worker:
            time.sleep(float(delay_seconds))
        if worker_crash("during"):
            conn = _KillAtFirstSend()
        run_task(task, spec, conn, *args, **kwargs)
        if worker_crash("after"):
            _kill()

    def wrapped_task_done(self, *args, **kwargs):
        task_done(self, *args, **kwargs)
        state["records"] += 1
        if crash_parts == ("parent", "after", str(state["records"])):
            _kill()

    parallel._worker_main, parallel._run_task = wrapped_worker_main, wrapped_run_task
    CheckpointWriter.task_done = wrapped_task_done
    try:
        yield
    finally:
        parallel._worker_main, parallel._run_task = worker_main, run_task
        CheckpointWriter.task_done = task_done


def main(argv: list[str]) -> int:
    split = argv.index("--")
    parser = argparse.ArgumentParser(
        prog="crashpoints.py", usage="%(prog)s [--crash SPEC] [--delay W:SECONDS] -- CLI ARGS"
    )
    parser.add_argument("--crash", default=None)
    parser.add_argument("--delay", default=None)
    args = parser.parse_args(argv[:split])
    from repro.framework.cli import main as cli_main

    with injected(crash=args.crash, delay=args.delay):
        return cli_main(argv[split + 1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
