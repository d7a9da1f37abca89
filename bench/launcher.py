"""Runs the benchmark's child processes one at a time and reports on each.

Reads one JSON request per line on stdin, ``{"argv": [...], "cwd": ...,
"log": ...}``, runs it to completion with stderr appended to ``log``, and
answers with one line ``{"seconds": ..., "rc": ..., "maxrss_kb": ...}``
(wall time around spawn and ``os.wait4``, exit code, and the child's peak
resident size from the same ``os.wait4``).

Why a separate process: on exec the kernel folds the peak resident size of
the process a child was spawned from into the child's own peak. The
benchmark holds its inputs in memory (hundreds of MB for embed-eval), so
children spawned from it would all report at least that much. This script
imports only the standard library and stays small, so the peaks it reports
are the children's own.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

_child: subprocess.Popen | None = None


def _stop(*_) -> None:
    if _child is not None:
        _child.kill()
        _child.wait()
    sys.exit(143)


def main() -> int:
    global _child
    signal.signal(signal.SIGTERM, _stop)
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "ab") as err:
            start = time.perf_counter()
            _child = subprocess.Popen(req["argv"], cwd=req["cwd"], stdin=subprocess.DEVNULL,
                                      stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(_child.pid, 0)
            elapsed = time.perf_counter() - start
        _child.returncode = os.waitstatus_to_exitcode(status)
        reply = {"seconds": elapsed, "rc": _child.returncode, "maxrss_kb": usage.ru_maxrss}
        _child = None
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
