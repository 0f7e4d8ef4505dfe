"""Host speed, measured with a fixed computation that shares no code with
the program under test.

A shared 2-vCPU VM changes speed by 2x or more within minutes as other
tenants load its host, and CPU time drifts as much as wall time.
Timing this reference right before and after each unit of work, and
scaling the unit by ``REFERENCE_S`` over the reference time around it,
turns host seconds into *reference seconds*: seconds on a host where
the reference takes ``REFERENCE_S``.  A change to the
program moves the work, not the reference, so the scaled figures keep
what a change does and drop most of what the neighbours do.

The ``mixed`` reference mixes the three kinds of work the workloads do:
Python bytecode (engine charge accounting), small NumPy operations (tile
primitives on one column step) and streaming memory traffic (payload
copies and pickling).  The ``tile`` reference is shaped like one chunk
of ``lu56_bulk``: rank-1 updates of a batch of 56x56 float32 blocks and
a byte copy of the batch.  On that workload it tracks the host about
twice as closely as the mixed one (quartile spread of 11-launch medians
0.04 against 0.07 over 130 launches on a 2-vCPU VM).
"""

from __future__ import annotations

import multiprocessing
import statistics
import time

import numpy as np

#: Seconds each reference takes on the host the benchmark was calibrated
#: on (2-vCPU x86-64 VM, unloaded); sets the scale of reference seconds.
#: The tile figure is the mixed one times their measured ratio, so both
#: give the same scale on one host.
REFERENCE_S = {"mixed": 0.010, "tile": 0.0105}

_SMALL = np.linspace(0.0, 1.0, 512 * 64, dtype=np.float32).reshape(512, 64)
_LARGE = np.ones(1 << 20, dtype=np.float32)
_COLUMNS = np.arange(0, 64, 2)
_TILES = np.linspace(0.0, 1.0, 256 * 56 * 56, dtype=np.float32).reshape(256, 56, 56)
_TILES += 56 * np.eye(56, dtype=np.float32)


class _Box:
    value = 0.0


def _python() -> None:
    box, table = _Box(), {}
    for i in range(25000):
        box.value += i * 0.5
        table[i & 63] = box.value


def _numpy_small() -> None:
    a = _SMALL.copy()
    for i in range(60):
        a[:, (i + 1) % 64] = a[:, _COLUMNS].sum(axis=1) * 1e-3
        a -= np.einsum("b,c->bc", a[:, 0], a[0]) * 1e-9


def _memory() -> None:
    b = _LARGE.copy()
    for _ in range(3):
        b = b * 1.0001


def _mixed() -> None:
    _python()
    _numpy_small()
    _memory()


def _tile() -> None:
    a = _TILES.copy()
    for k in range(0, 56, 4):
        a[:, k + 1 :, k] /= a[:, k, k, None]
        a[:, k + 1 :, k + 1 :] -= a[:, k + 1 :, k, None] * a[:, k, None, k + 1 :]
    a.tobytes()


REFERENCES = {"mixed": _mixed, "tile": _tile}


def reference_s(kind: str, cover: float = 0.0) -> float:
    """Mean seconds of one run of reference ``kind``, sampled at least
    once and until the samples cover ``cover`` seconds.

    Samples run in the calling thread, unpinned, so they see the speed
    the caller's own work sees.
    """
    reference = REFERENCES[kind]
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < cover:
        begin = time.perf_counter()
        reference()
        samples.append(time.perf_counter() - begin)
    return statistics.mean(samples)


def _helper(conn, kind: str) -> None:
    """Reference worker: answers each ``cover`` with :func:`reference_s`."""
    while (cover := conn.recv()) is not None:
        conn.send(reference_s(kind, cover))


class Bracket:
    """Scales each unit of work by the reference ``kind`` run right
    around it.

    :meth:`scale`, called after a unit, returns reference seconds per
    host second for that unit from the mean of the reference time before
    it and after it: host speed changes within seconds, so the nearest
    samples track it best.

    Work spread over ``width`` processes sees the speed of that many
    cores at once, so with ``width > 1`` the reference runs in ``width``
    helper processes simultaneously and their mean is used.  Helpers
    wait idle on a pipe while units run; :meth:`close` stops them.
    They are forked, not spawned: a spawned helper would also start a
    multiprocessing resource tracker, a process that outlives this one.
    """

    #: Reference samples between units cover this share of the last unit.
    SHARE = 0.05

    def __init__(self, width: int, kind: str) -> None:
        self._kind = kind
        self._pipes = []
        self.helpers = []
        if width > 1:
            context = multiprocessing.get_context("fork")
            for _ in range(width):
                parent, child = context.Pipe()
                helper = context.Process(
                    target=_helper, args=(child, kind), daemon=True
                )
                helper.start()
                self._pipes.append(parent)
                self.helpers.append(helper)
        self._before = self._reference_s(0.0)

    def _reference_s(self, cover: float) -> float:
        if not self._pipes:
            return reference_s(self._kind, cover)
        for pipe in self._pipes:
            pipe.send(cover)
        return statistics.mean(pipe.recv() for pipe in self._pipes)

    def scale(self, unit_s: float) -> float:
        after = self._reference_s(self.SHARE * unit_s)
        scale = REFERENCE_S[self._kind] / ((self._before + after) / 2)
        self._before = after
        return scale

    def close(self) -> None:
        for pipe in self._pipes:
            pipe.send(None)
        for helper in self.helpers:
            helper.join()
        self._pipes.clear()

    def __enter__(self) -> "Bracket":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
