"""CPU time and resident memory of the benchmark process and its workers.

``RUSAGE_CHILDREN`` only covers children that have exited and been
reaped, so a worker pool still alive at a snapshot would be invisible to
it.  A snapshot therefore adds three parts: the process itself, its
reaped children, and every live descendant read from ``/proc``.  The
difference of two snapshots counts each worker exactly once, whether it
was reaped in between or is still running, so moving work into a
long-lived pool cannot read as a saving.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import resource
import signal
import threading
from typing import Iterator

_TICK = os.sysconf("SC_CLK_TCK")
#: Seconds between two samples of the workers' memory.
SAMPLE_INTERVAL_S = 0.01


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids.extend(int(k) for k in fh.read().split())
        except OSError:
            continue
    return kids


def _children_by_scan(pid: int) -> list[int]:
    """Fallback for kernels without ``/proc/<pid>/task/<tid>/children``."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            kids.append(int(entry))
    return kids


_CHILDREN = (
    _children
    if os.path.exists(f"/proc/self/task/{os.getpid()}/children")
    else _children_by_scan
)


def live_descendants() -> list[int]:
    """Pids of every live (or not yet reaped) descendant of this process."""
    found: list[int] = []
    frontier = [os.getpid()]
    while frontier:
        kids = _CHILDREN(frontier.pop())
        found.extend(kids)
        frontier.extend(kids)
    return found


#: ``prctl`` option that makes orphaned descendants children of the caller.
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt every descendant whose parent dies before it does.

    A worker orphaned by a crashed or killed cold-start probe then stays
    a descendant of this process, so :func:`stop_descendants` still
    finds it and reaps it.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def stop_descendants() -> list[int]:
    """Kill every live descendant and reap every child; returns the pids
    that were still alive.  After :func:`become_subreaper` no process
    the benchmark started is left behind, not even as a zombie."""
    alive = live_descendants()
    for pid in reversed(alive):  # deepest first
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return alive


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of ``pid`` plus those of the children it reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return sum(int(f) for f in fields[11:15]) / _TICK


def tree_cpu_s() -> float:
    """CPU seconds used so far by this process and all its descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    live = sum(_proc_cpu_s(pid) for pid in live_descendants())
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime + live


def _pss_bytes(pid: int | str) -> int:
    """Proportional set size: resident bytes, shared pages split among
    the processes sharing them, so a forked worker's inherited pages
    count once across the tree."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError):
        pass
    return 0


def _self_hwm_bytes() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    return 0


class PeakMemory:
    """Peak resident memory of this process plus its workers, per stretch.

    Each :meth:`watch` stretch appends its peak to :attr:`peaks`; time
    outside the stretches -- the benchmark's own output checks -- does
    not count.  While workers are alive, a sampling thread sums the
    proportional set sizes of this process and its workers every
    :data:`SAMPLE_INTERVAL_S`.  This process alone -- before the pool
    starts and after it exits -- is covered exactly by its high-water
    mark over the stretch (reset on entry through
    ``/proc/self/clear_refs``).  The peak is the larger.

    Every live descendant counts as a worker, so use it only while the
    benchmark has started no process of its own.  The sampler costs CPU
    and competes with the workers for cores, so stretches it watches
    must not be timed.
    """

    def __init__(self) -> None:
        self.peaks: list[int] = []
        self._peak = 0
        self._watching = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _measure(self) -> None:
        workers = live_descendants()
        if workers:  # alone, this process is covered by its high-water mark
            total = _pss_bytes("self") + sum(_pss_bytes(pid) for pid in workers)
            self._peak = max(self._peak, total)

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            if self._watching.is_set():
                self._measure()

    @contextlib.contextmanager
    def watch(self) -> Iterator[None]:
        try:
            with open("/proc/self/clear_refs", "w") as fh:
                fh.write("5")
        except OSError:
            pass  # the high-water mark then covers the whole process life
        self._peak = 0
        self._measure()
        self._watching.set()
        try:
            yield
        finally:
            self._watching.clear()
            self._measure()
            self.peaks.append(max(self._peak, _self_hwm_bytes()))

    def __enter__(self) -> "PeakMemory":
        self._stop.clear()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
