"""Run the benchmark as a child and outlive every process it starts.

The harness stops and waits for what it starts itself (servers, probe
children; the program joins its shard workers).  One process is out of
its reach: the sharded backend keeps its round board in
``multiprocessing.shared_memory``, and the first segment a process
creates starts a *resource tracker* that ends only after that process
did.  A sharded run and each of its set-up probes therefore exit with a
tracker still behind them.  The supervisor makes itself the child
subreaper (Linux ``prctl``), so whatever the run orphans is re-parented
here, and returns only when nothing is left: the run's exit code is not
handed on before every descendant has ended and been waited for.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import time
from typing import List

_PR_SET_CHILD_SUBREAPER = 36   # <linux/prctl.h>
#: How long descendants get to end by themselves once the run is over;
#: after that they are killed.  A resource tracker needs milliseconds.
GRACE_S = 10.0


def _become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _children() -> List[int]:
    """Pids whose parent is this process, ended-but-unreaped included."""
    me, found = os.getpid(), []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                ppid = fh.read().rsplit(")", 1)[1].split()[1]
        except OSError:
            continue   # ended while we were looking
        if int(ppid) == me:
            found.append(int(pid))
    return found


def _reap_all() -> None:
    """Wait until this process has no children left.  Orphans of the
    killed ones arrive here too, so the kill repeats until none do."""
    deadline = time.monotonic() + GRACE_S
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 1.0
        time.sleep(0.005)


def run(cmd: List[str]) -> int:
    """``cmd``'s exit code, once it and all it left behind have ended.

    SIGINT and SIGTERM both reach the child as SIGINT, the one signal
    on which Python unwinds through the harness's clean-up (servers
    stopped, workers joined, temp stores removed).  The child gets a
    process group of its own, so that a Ctrl-C at the terminal reaches
    it once, from here, and not a second time in the middle of that.
    """
    _become_subreaper()
    started: List[subprocess.Popen] = []

    def interrupt(_sig, _frame) -> None:
        for child in started:
            child.send_signal(signal.SIGINT)

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, interrupt)
    try:
        started.append(subprocess.Popen(cmd, process_group=0))
        code = started[0].wait()
    finally:
        _reap_all()
    return code if code >= 0 else 128 - code
